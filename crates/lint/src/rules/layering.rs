//! `layering`: the declared crate DAG, enforced on the manifests; and
//! `workspace-lints`: every workspace crate inherits the lint table.
//!
//! Every `[dependencies]` entry (parsed by [`crate::graph`]) must
//! point *strictly downward* in [`crate::graph::LAYERS`].
//! `dev-dependencies` are exempt: test-only edges cannot leak into
//! shipped determinism. Source references need no check of their own:
//! rustc refuses a `taster_*` path the crate's manifest does not
//! declare, so every source edge is a manifest edge.
//!
//! Clippy's restriction lints and `unsafe_code` reach only crates
//! whose manifest sets `[lints] workspace = true`, so a crate that
//! drops the key silently leaves the panic/print/determinism policy;
//! `workspace-lints` reports it, vendored shims included.

use super::Diagnostic;
use crate::graph::{layer_of, CrateGraph};

/// Checks every manifest dependency edge against the declared layer
/// map.
pub(crate) fn check(graph: &CrateGraph) -> Vec<Diagnostic> {
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
