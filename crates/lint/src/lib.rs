//! # taster-lint
//!
//! Workspace determinism static analysis for the invariants clippy
//! cannot express, run as `taster lint` and gated in CI.
//!
//! The reproduction's headline guarantee — bit-identical reports at
//! any worker count, under any fault profile — rests on a handful of
//! source-level conventions. The ones a type or function name can
//! express (no wall-clock reads outside the timing layers, no
//! `RandomState` maps, no raw threads, no unkeyed RNG seeding, no
//! panics, prints or `unsafe` in library code) are clippy policy:
//! `clippy.toml` plus the workspace lint table. This crate checks the
//! rest: the declared crate layering and that every crate inherits the
//! workspace lint table, that keyed [`RngStream`](../taster_sim/rng)
//! derivations never collide, that hash-ordered iteration never
//! reaches emitted bytes or float accumulators unsorted, and that
//! socket I/O never blocks on a peer without a deadline.
//!
//! The engine is a multi-pass analyzer with no external dependencies:
//! a hand-rolled lexer ([`lexer`]) feeds an item parser ([`parser`])
//! and the rule catalog ([`rules`]) over every `.rs` file in the
//! workspace ([`source`] classifies files and tracks `#[cfg(test)]`
//! regions); the per-file pass fans out through `sim::par` and merges
//! in path order, so output is byte-identical at any worker count.
//! The manifests feed a crate-dependency graph ([`graph`]) whose
//! declared layering, together with the merged per-file collections,
//! drives the workspace-level rule families (`layering`,
//! `workspace-lints`, `rng-key-collision`). Findings can be suppressed
//! inline (`// lint:allow(<rule>) -- <reason>`, reason mandatory).
//! `--self-test` ([`selftest`]) injects one violation per rule into a
//! synthetic workspace and asserts each fires, so a rule can never
//! silently stop matching.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod selftest;
pub mod source;

use graph::CrateGraph;
use rules::{Diagnostic, FileAnalysis};
use std::path::{Path, PathBuf};
use taster_sim::par::Parallelism;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Worker threads for the per-file pass (0 = resolve from
    /// `TASTER_THREADS` / available cores). Output is byte-identical
    /// at any worker count.
    pub workers: usize,
}

impl LintConfig {
    /// Config for `root` with an auto worker count.
    pub fn for_root(root: PathBuf) -> LintConfig {
        LintConfig { root, workers: 0 }
    }

    fn parallelism(&self) -> Parallelism {
        if self.workers == 0 {
            Parallelism::default()
        } else {
            Parallelism::fixed(self.workers)
        }
    }
}

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

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, message } => write!(f, "lint: {path}: {message}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Result of one engine run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, sorted by (path, line,
    /// rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Crates in the dependency graph.
    pub crates_scanned: usize,
    /// Findings silenced by well-formed inline suppressions.
    pub suppressed: usize,
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
            "{} file(s) scanned, {} crate(s), {} finding(s), {} suppressed\n",
            self.files_scanned,
            self.crates_scanned,
            self.diagnostics.len(),
            self.suppressed
        ));
        out
    }

    /// Machine-readable rendering (`--format json`), deterministic.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \
                 \"snippet\": {}}}",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                json_str(&d.message),
                json_str(&d.snippet)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"crates_scanned\": {},\n", self.crates_scanned));
        out.push_str(&format!("  \"suppressed\": {}\n}}\n", self.suppressed));
        out
    }
}

/// JSON string escaping (the subset our content needs).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reads every `.rs` file under the root (serially, in path order)
/// and analyzes them across [`LintConfig::workers`] threads, then
/// loads the crate graph. The ordered merge makes the result
/// independent of the worker count.
fn analyze_workspace(config: &LintConfig) -> Result<(Vec<FileAnalysis>, CrateGraph), LintError> {
    let mut rels = Vec::new();
    collect_rs_files(&config.root, &config.root, &mut rels)?;
    rels.sort();
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(rels.len());
    for rel in rels {
        let abs = config.root.join(&rel);
        let src = std::fs::read_to_string(&abs).map_err(|e| LintError::io(&abs, &e))?;
        inputs.push((rel, src));
    }
    let analyses = config
        .parallelism()
        .par_map(inputs, |(rel, src)| rules::analyze_file(&rel, &src));
    Ok((analyses, CrateGraph::load(&config.root)))
}

/// Walks the workspace and runs the rule catalog over every `.rs`
/// file plus the manifests, applying inline suppressions.
///
/// The per-file pass (lex, item-parse, per-file rules, workspace-rule
/// collections) fans out across [`LintConfig::workers`] threads; the
/// ordered merge plus the deterministic workspace pass make the
/// report byte-identical at any worker count.
pub fn run(config: &LintConfig) -> Result<LintReport, LintError> {
    let (analyses, graph) = analyze_workspace(config)?;
    let mut report = LintReport {
        files_scanned: analyses.len(),
        crates_scanned: graph.crates.len(),
        ..LintReport::default()
    };
    let mut filter = |d: Diagnostic, file: Option<&source::SourceFile>| {
        if file.is_some_and(|f| f.is_suppressed(d.rule, d.line)) {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    };
    for fa in &analyses {
        for d in fa.diagnostics.clone() {
            filter(d, Some(&fa.file));
        }
    }
    // Workspace-level findings land on .rs files (suppressible inline)
    // or manifests (fix the manifest; no inline suppression channel).
    for d in rules::workspace_check(&graph, &analyses) {
        let file = analyses
            .binary_search_by(|fa| fa.file.path.as_str().cmp(d.path.as_str()))
            .ok()
            .and_then(|idx| analyses.get(idx))
            .map(|fa| &fa.file);
        filter(d, file);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Renders the item/dependency graph of the workspace at `root` as
/// deterministic JSON (`taster lint --graph`): the declared layers,
/// every crate with its resolved layer and dep edges, per-file item
/// counts and crate references, and the keyed-RNG / stage-key
/// inventories the workspace rules run on.
pub fn graph_json(config: &LintConfig) -> Result<String, LintError> {
    let (analyses, graph) = analyze_workspace(config)?;

    let mut out = String::from("{\n  \"schema\": \"taster-lint-graph/v1\",\n  \"layers\": [");
    for (i, (name, crates)) in graph::LAYERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let members: Vec<String> = crates.iter().map(|c| json_str(c)).collect();
        out.push_str(&format!(
            "\n    {{\"index\": {i}, \"name\": {}, \"crates\": [{}]}}",
            json_str(name),
            members.join(", ")
        ));
    }
    out.push_str("\n  ],\n  \"crates\": [");
    for (i, node) in graph.crates.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = graph::layer_of(&node.name);
        let deps: Vec<String> = node
            .deps
            .iter()
            .filter(|d| !d.dev)
            .map(|d| json_str(&d.name))
            .collect();
        let dev_deps: Vec<String> = node
            .deps
            .iter()
            .filter(|d| d.dev)
            .map(|d| json_str(&d.name))
            .collect();
        out.push_str(&format!(
            "\n    {{\"name\": {}, \"dir\": {}, \"vendor\": {}, \"layer\": {}, \
             \"layer_name\": {}, \"deps\": [{}], \"dev_deps\": [{}]}}",
            json_str(&node.name),
            json_str(&node.dir),
            node.vendor,
            layer.map_or("null".to_string(), |(idx, _)| idx.to_string()),
            layer.map_or("null".to_string(), |(_, name)| json_str(name)),
            deps.join(", "),
            dev_deps.join(", ")
        ));
    }
    out.push_str("\n  ],\n  \"files\": [");
    for (i, fa) in analyses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (mods, fns, impls, uses) = fa.items.counts();
        let mut refs: Vec<&str> = fa.crate_refs.iter().map(|r| r.target.as_str()).collect();
        refs.sort_unstable();
        refs.dedup();
        let refs: Vec<String> = refs.into_iter().map(json_str).collect();
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"crate\": {}, \"mods\": {mods}, \"fns\": {fns}, \
             \"impls\": {impls}, \"uses\": {uses}, \"crate_refs\": [{}]}}",
            json_str(&fa.file.path),
            graph
                .crate_for_path(&fa.file.path)
                .map_or("null".to_string(), |n| json_str(&n.name)),
            refs.join(", ")
        ));
    }
    out.push_str("\n  ],\n  \"rng_keys\": [");
    let mut by_key: std::collections::BTreeMap<&str, Vec<String>> =
        std::collections::BTreeMap::new();
    for fa in &analyses {
        for site in &fa.key_sites {
            by_key
                .entry(site.key.as_str())
                .or_default()
                .push(format!("{}:{}", fa.file.path, site.line));
        }
    }
    for (i, (key, sites)) in by_key.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let sites: Vec<String> = sites.iter().map(|s| json_str(s)).collect();
        out.push_str(&format!(
            "\n    {{\"key\": {}, \"sites\": [{}]}}",
            json_str(key),
            sites.join(", ")
        ));
    }
    out.push_str("\n  ]\n}\n");
    Ok(out)
}

/// Lints a single source string — the unit-test entry point for the
/// per-file rule families.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let fa = rules::analyze_file(rel_path, src);
    fa.diagnostics
        .into_iter()
        .filter(|d| !fa.file.is_suppressed(d.rule, d.line))
        .collect()
}

/// Analyzes a set of in-memory sources plus manifests as one
/// workspace — the unit-test entry point for the workspace-level rule
/// families (`layering`, `workspace-lints`, `rng-key-collision`).
/// `manifests` maps
/// workspace-relative manifest paths (e.g. `crates/x/Cargo.toml`) to
/// contents. Returns per-file *and* workspace findings, suppressions
/// applied, sorted by (path, line, rule).
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
    let mut out = Vec::new();
    for fa in &analyses {
        for d in fa.diagnostics.clone() {
            if !fa.file.is_suppressed(d.rule, d.line) {
                out.push(d);
            }
        }
    }
    for d in rules::workspace_check(&graph, &analyses) {
        let suppressed = analyses
            .iter()
            .find(|fa| fa.file.path == d.path)
            .is_some_and(|fa| fa.file.is_suppressed(d.rule, d.line));
        if !suppressed {
            out.push(d);
        }
    }
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

/// Walks up from `start` to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
