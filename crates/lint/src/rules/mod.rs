//! The rule catalog.
//!
//! Each rule encodes one repo invariant that neither rustc nor clippy
//! configuration expresses. Together with `clippy.toml`, the workspace
//! lint table and the `sim::metrics::Stage` type, the catalog is the
//! executable form of the determinism contract described in DESIGN.md.
//! [`layering`] reads the manifests (declared crate DAG, workspace-lint
//! inheritance); [`rng_keys`] reads the token streams (stream-key
//! collisions). Both stay cheap, deterministic and conservative — no
//! type information.

pub mod layering;
pub mod rng_keys;

use crate::graph::CrateGraph;
use crate::source::SourceFile;

/// A single finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`layering`, `rng-key-collision`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source line, for context in reports.
    pub snippet: String,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier, as printed in findings.
    pub id: &'static str,
    /// One-line description for the docs.
    pub summary: &'static str,
}

/// Every rule the engine knows, in reporting order. What a type or
/// method name can say (wall clock, std hash maps and hash-order
/// iteration, raw threads, unkeyed RNG seeding, unbounded socket
/// calls, panics, prints, `unsafe`) lives in `clippy.toml` and the
/// workspace lint table instead; rustc refuses a source reference to a
/// crate the manifest does not declare, and an unregistered pipeline
/// stage does not compile.
pub const RULES: &[Rule] = &[
    Rule {
        id: "layering",
        summary: "manifest dependency edges must point strictly downward in the declared \
                  layer map (foundation → kernel → world → agents → feeds → analysis → \
                  driver → surface → app); vendored crates sit outside the layering and \
                  must not depend on workspace crates",
    },
    Rule {
        id: "workspace-lints",
        summary: "every crate, vendored shims included, sets `[lints] workspace = true`, so the workspace \
                  clippy/rustc policy (no panics, prints, unsafe, wall clock, std hash maps, \
                  hash-order iteration, raw threads or unkeyed RNG seeding) reaches it",
    },
    Rule {
        id: "rng-key-collision",
        summary: "string keys fed to RngStream::new/child/name_key, as literals or through \
                  `const NAME: &str`, must not collide across crates or repeat within one \
                  function (identical key + master seed = identical stream)",
    },
];

/// Everything the engine learns about one file in a single pass: the
/// parsed source and the raw material the workspace rules aggregate.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The parsed source file.
    pub file: SourceFile,
    /// Keyed-RNG derivation sites in this file.
    pub key_sites: Vec<rng_keys::KeySite>,
    /// `const NAME: &str = "…"` definitions in this file.
    pub str_consts: Vec<rng_keys::StrConst>,
}

/// Analyzes one file: lex it and collect what the workspace rules
/// need from its shipped, non-test code.
pub fn analyze_file(rel_path: &str, src: &str) -> FileAnalysis {
    let file = SourceFile::parse(rel_path, src);
    let (key_sites, str_consts) = if file.shipped {
        rng_keys::collect(&file)
    } else {
        (Vec::new(), Vec::new())
    };
    FileAnalysis {
        file,
        key_sites,
        str_consts,
    }
}

/// Runs every rule over the per-file analyses and the crate graph.
pub fn workspace_check(graph: &CrateGraph, files: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut out = layering::check(graph);
    out.extend(layering::check_workspace_lints(graph));
    out.extend(rng_keys::check_workspace(files));
    out
}

/// Builds a diagnostic with the file's own line text as snippet.
pub(crate) fn diag(
    file: &SourceFile,
    rule: &'static str,
    line: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    }
}
