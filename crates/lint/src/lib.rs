//! # taster-lint
//!
//! Workspace determinism checks that neither rustc nor clippy
//! configuration expresses. It runs as this crate's test suite
//! (`cargo test -p taster-lint`), which CI's workspace test step runs.
//!
//! The reproduction's headline guarantee — bit-identical reports at
//! any worker count, under any fault profile — rests on a handful of
//! source-level conventions. Most live in the toolchain: clippy policy
//! (`clippy.toml` plus the workspace lint table) forbids wall-clock
//! reads outside the timing layers, `RandomState` maps, iteration in
//! hash order, raw threads, unkeyed RNG seeding, unbounded socket
//! reads or accepts, and panics, prints or `unsafe` in library code;
//! rustc refuses a source reference to an undeclared crate; and a
//! pipeline stage is a `sim::metrics::Stage` variant, so an
//! unregistered stage does not compile. This crate checks the rest:
//! that the manifests' dependency edges follow the declared crate
//! layering, that every crate inherits the workspace lint table, and
//! that keyed `RngStream` derivations never collide.
//!
//! A hand-rolled lexer ([`lexer`]) tokenizes every `.rs` file in the
//! workspace ([`source`] classifies files and tracks `#[cfg(test)]`
//! regions) for the RNG-key rule; the manifests feed a
//! crate-dependency graph ([`graph`]) for the other two ([`rules`]).
//! A finding cannot be silenced inline: fix the code, or change the
//! rule.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod rules;
pub mod source;

use graph::CrateGraph;
use rules::{Diagnostic, FileAnalysis};
use std::path::Path;

/// Engine failure (I/O) — distinct from findings, which are data, not
/// errors.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem problem reading the workspace.
    Io {
        /// Path that failed.
        path: String,
        /// OS error text.
        message: String,
    },
}

impl LintError {
    pub(crate) fn io(path: &Path, err: &std::io::Error) -> LintError {
        LintError::Io {
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }
}

/// Result of one engine run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Crates in the dependency graph.
    pub crates_scanned: usize,
}

impl LintReport {
    /// True when the run should gate green.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering, deterministic.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                d.path, d.line, d.rule, d.message, d.snippet
            ));
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} crate(s), {} finding(s)\n",
            self.files_scanned,
            self.crates_scanned,
            self.diagnostics.len()
        ));
        out
    }
}

/// Runs the rule catalog over every `.rs` file under the workspace
/// `root`, read in path order, plus the manifests.
pub fn run(root: &Path) -> Result<LintReport, LintError> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut analyses = Vec::with_capacity(rels.len());
    for rel in rels {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs).map_err(|e| LintError::io(&abs, &e))?;
        analyses.push(rules::analyze_file(&rel, &src));
    }
    let graph = CrateGraph::load(root);
    Ok(LintReport {
        diagnostics: check(&graph, &analyses),
        files_scanned: analyses.len(),
        crates_scanned: graph.crates.len(),
    })
}

/// Analyzes a set of in-memory sources plus manifests as one
/// workspace — the test entry point for every rule.
/// `manifests` maps workspace-relative manifest paths (e.g.
/// `crates/x/Cargo.toml`) to contents. Returns the findings, sorted
/// by (path, line, rule).
pub fn analyze_sources(sources: &[(&str, &str)], manifests: &[(&str, &str)]) -> Vec<Diagnostic> {
    let analyses: Vec<FileAnalysis> = sources
        .iter()
        .map(|(rel, src)| rules::analyze_file(rel, src))
        .collect();
    let mut graph = CrateGraph::default();
    for (rel, text) in manifests {
        if let Some(node) = graph::parse_manifest_str(rel, text, rel.starts_with("vendor/")) {
            graph.crates.insert(node.name.clone(), node);
        }
    }
    check(&graph, &analyses)
}

/// Every rule's findings, sorted by (path, line, rule).
fn check(graph: &CrateGraph, analyses: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut out = rules::workspace_check(graph, analyses);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Recursively gathers workspace-relative `.rs` paths, skipping build
/// output and VCS internals.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::io(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::io(dir, &e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | ".claude" | "node_modules"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}
