//! `layering`: the declared crate DAG, enforced; and
//! `workspace-lints`: every workspace crate inherits the lint table.
//!
//! Two edge sources feed the check: `[dependencies]` entries in every
//! manifest (parsed by [`crate::graph`]) and `taster_*` references in
//! source code (`use` lines and inline paths alike — any mention of a
//! sibling crate's extern-prelude name is an edge). Both must point
//! *strictly downward* in [`crate::graph::LAYERS`]. `dev-dependencies`
//! and test/example code are exempt: test-only edges cannot leak into
//! shipped determinism.
//!
//! Clippy's restriction lints and `unsafe_code` reach only crates
//! whose manifest sets `[lints] workspace = true`, so a crate that
//! drops the key silently leaves the panic/print/determinism policy;
//! [`check_workspace_lints`] reports it. Vendored shims do not inherit
//! the table and are exempt.

use super::{Diagnostic, FileAnalysis};
use crate::graph::{layer_of, CrateGraph};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One source-level reference to a workspace crate.
#[derive(Debug, Clone)]
pub struct CrateRef {
    /// Referenced crate, dash form (`taster-sim`).
    pub target: String,
    /// 1-based line of the reference.
    pub line: usize,
}

/// Collects `taster_*` extern-prelude references from non-test code.
/// One ref per (crate, line) — repeated mentions on a line collapse.
pub(crate) fn collect_refs(file: &SourceFile) -> Vec<CrateRef> {
    let mut out: Vec<CrateRef> = Vec::new();
    for tok in &file.lexed.tokens {
        if tok.kind != TokenKind::Ident
            || !tok.text.starts_with("taster_")
            || file.in_cfg_test(tok.line)
        {
            continue;
        }
        let target = tok.text.replace('_', "-");
        if out
            .last()
            .is_none_or(|r| r.target != target || r.line != tok.line)
        {
            out.push(CrateRef {
                target,
                line: tok.line,
            });
        }
    }
    out
}

/// Checks every manifest dep edge and source use edge against the
/// declared layer map.
pub(crate) fn check(graph: &CrateGraph, files: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for node in graph.crates.values() {
        if node.vendor {
            // Vendored shims are leaves: depending on a workspace
            // crate would invert the vendoring relationship.
            for dep in &node.deps {
                if dep.name.starts_with("taster-") {
                    out.push(manifest_diag(
                        node.manifest_path.clone(),
                        dep.line,
                        dep.snippet.clone(),
                        format!(
                            "vendored crate `{}` must not depend on workspace crate `{}`",
                            node.name, dep.name
                        ),
                    ));
                }
            }
            continue;
        }
        let Some((layer_idx, layer_name)) = layer_of(&node.name) else {
            out.push(manifest_diag(
                node.manifest_path.clone(),
                1,
                format!("[package] name = \"{}\"", node.name),
                format!(
                    "workspace crate `{}` is not assigned to a layer in the declared \
                     layer map (crates/lint/src/graph.rs LAYERS)",
                    node.name
                ),
            ));
            continue;
        };
        for dep in &node.deps {
            if dep.dev || !dep.name.starts_with("taster-") {
                continue;
            }
            match layer_of(&dep.name) {
                Some((dep_idx, dep_layer)) if dep_idx >= layer_idx => {
                    out.push(manifest_diag(
                        node.manifest_path.clone(),
                        dep.line,
                        dep.snippet.clone(),
                        format!(
                            "`{}` (layer {layer_idx}: {layer_name}) must not depend on \
                             `{}` (layer {dep_idx}: {dep_layer}); dependencies must point \
                             strictly downward",
                            node.name, dep.name
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    out.push(manifest_diag(
                        node.manifest_path.clone(),
                        dep.line,
                        dep.snippet.clone(),
                        format!(
                            "`{}` depends on `{}`, which is not in the declared layer map",
                            node.name, dep.name
                        ),
                    ));
                }
            }
        }
    }
    for fa in files {
        let Some(node) = graph.crate_for_path(&fa.file.path) else {
            continue;
        };
        let Some((layer_idx, layer_name)) = layer_of(&node.name) else {
            continue;
        };
        for r in &fa.crate_refs {
            if r.target == node.name {
                continue;
            }
            match layer_of(&r.target) {
                Some((ref_idx, ref_layer)) if ref_idx >= layer_idx => {
                    out.push(super::diag(
                        &fa.file,
                        "layering",
                        r.line,
                        format!(
                            "`{}` (layer {layer_idx}: {layer_name}) must not reference \
                             `{}` (layer {ref_idx}: {ref_layer}); use edges must point \
                             strictly downward",
                            node.name, r.target
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    out.push(super::diag(
                        &fa.file,
                        "layering",
                        r.line,
                        format!(
                            "reference to `{}`, which is not in the declared layer map",
                            r.target
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Reports every crate, vendored shims included, whose manifest lacks
/// `[lints] workspace = true`.
pub(crate) fn check_workspace_lints(graph: &CrateGraph) -> Vec<Diagnostic> {
    graph
        .crates
        .values()
        .filter(|node| !node.workspace_lints)
        .map(|node| Diagnostic {
            rule: "workspace-lints",
            path: node.manifest_path.clone(),
            line: 1,
            message: format!(
                "crate `{}` does not set `[lints] workspace = true`, so the workspace \
                 clippy/rustc policy does not reach it",
                node.name
            ),
            snippet: format!("[package] name = \"{}\"", node.name),
        })
        .collect()
}

fn manifest_diag(path: String, line: usize, snippet: String, message: String) -> Diagnostic {
    Diagnostic {
        rule: "layering",
        path,
        line,
        message,
        snippet,
    }
}
