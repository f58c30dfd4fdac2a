//! The rule catalog.
//!
//! Each rule encodes one repo invariant that clippy configuration
//! cannot express; together with `clippy.toml` and the workspace lint
//! table, the catalog is the executable form of the determinism
//! contract described in DESIGN.md. The families work on the item
//! tree and the crate graph: [`layering`] (declared crate DAG,
//! workspace-lint inheritance), [`rng_keys`] (stream-key collisions +
//! stage-registry completeness), [`iteration`] (hash iteration
//! reaching render/report/serve sinks), and [`float_accum`]
//! (order-sensitive float accumulation over hash iteration). All rules
//! remain cheap, deterministic and conservative — no type information.

pub mod float_accum;
pub mod iteration;
pub mod layering;
pub mod rng_keys;

use crate::graph::CrateGraph;
use crate::parser::ItemTree;
use crate::source::SourceFile;

/// A single finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`layering`, `float-accum`, …).
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

/// Every rule the engine knows, in reporting order. The token rules
/// clippy can express (wall clock, std hash maps, raw threads, unkeyed
/// RNG seeding, unbounded socket calls, panics, prints, `unsafe`) live
/// in `clippy.toml` and the workspace lint table instead.
pub const RULES: &[Rule] = &[
    Rule {
        id: "layering",
        summary: "crate dependency and `use` edges must point strictly downward in the \
                  declared layer map (foundation → kernel → world → agents → feeds → \
                  analysis → driver → surface → app); vendored crates sit outside the \
                  layering and must not depend on workspace crates",
    },
    Rule {
        id: "workspace-lints",
        summary: "every crate, vendored shims included, sets `[lints] workspace = true`, so the workspace \
                  clippy/rustc policy (no panics, prints, unsafe, wall clock, std hash maps, \
                  raw threads or unkeyed RNG seeding) reaches it",
    },
    Rule {
        id: "rng-key-collision",
        summary: "string keys fed to RngStream::new/child/name_key must not collide across \
                  crates or repeat within one function (identical key + master seed = \
                  identical stream), and every stage key must be registered in \
                  STAGE_KEYS with a live call site",
    },
    Rule {
        id: "unsorted-iteration",
        summary: "FxHashMap/FxHashSet iteration reaching rendering/reporting/serve-response \
                  code must pass through a sort or ordered collect before bytes are emitted",
    },
    Rule {
        id: "float-accum",
        summary: "f64 sum/fold over hash-ordered iteration is order-sensitive (float addition \
                  is not associative); sort first or accumulate over an ordered container",
    },
];

/// Everything the engine learns about one file in a single pass: the
/// parsed source, its item tree, the per-file findings, and the raw
/// material the workspace-level rules aggregate afterwards.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The parsed source file.
    pub file: SourceFile,
    /// The parsed item tree.
    pub items: ItemTree,
    /// Per-file findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Keyed-RNG derivation sites in this file.
    pub key_sites: Vec<rng_keys::KeySite>,
    /// `obs.stage(…)` call sites.
    pub stage_uses: Vec<rng_keys::StageUse>,
    /// `STAGE_KEYS` registry definitions.
    pub registries: Vec<rng_keys::StageRegistry>,
    /// References to other workspace crates (use edges).
    pub crate_refs: Vec<layering::CrateRef>,
}

/// Analyzes one file: parse, item tree, per-file rules, and the
/// collections the workspace rules need.
pub fn analyze_file(rel_path: &str, src: &str) -> FileAnalysis {
    let file = SourceFile::parse(rel_path, src);
    let items = ItemTree::parse(&file.lexed);
    let diagnostics = check_file(&file, &items);
    let ((key_sites, stage_uses, registries), crate_refs) = if file.shipped {
        (
            rng_keys::collect(&file, &items),
            layering::collect_refs(&file),
        )
    } else {
        ((Vec::new(), Vec::new(), Vec::new()), Vec::new())
    };
    FileAnalysis {
        file,
        items,
        diagnostics,
        key_sites,
        stage_uses,
        registries,
        crate_refs,
    }
}

/// Runs the workspace-level rule families over the merged per-file
/// analyses and the crate graph.
pub fn workspace_check(graph: &CrateGraph, files: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut out = layering::check(graph, files);
    out.extend(layering::check_workspace_lints(graph));
    out.extend(rng_keys::check_workspace(files));
    out
}

/// Runs every applicable per-file rule over `file`.
pub fn check_file(file: &SourceFile, items: &ItemTree) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file.shipped {
        iteration::check(file, items, &mut out);
        float_accum::check(file, items, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
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

/// True when tokens `i..` start with path separator `::`.
pub(crate) fn is_path_sep(t: &[crate::lexer::Token], i: usize) -> bool {
    i + 1 < t.len() && t.get(i).is_some_and(|a| a.is_punct(':')) && t[i + 1].is_punct(':')
}
