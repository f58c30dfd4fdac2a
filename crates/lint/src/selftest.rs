//! `taster lint --self-test`: prove every rule can fire.
//!
//! A linter whose rules silently stop matching is worse than none —
//! CI would go green while the invariants rot. The self-test writes a
//! tiny synthetic workspace into a temp directory with exactly one
//! violation per rule (including a manifest that violates the crate
//! layering and one without the workspace lint table), runs the engine
//! over it, and asserts each rule produced its diagnostic, that a
//! correctly-suppressed violation stays silent, and that the report is
//! byte-identical at 1, 2 and 8 workers. The rules clippy enforces have
//! their own counterpart in CI (`.github/clippy_policy_selftest.py`).

use crate::{run, LintConfig, LintError};
use std::path::{Path, PathBuf};

/// Outcome for one rule's injected fixture.
#[derive(Debug, Clone)]
pub struct SelfTestResult {
    /// Rule under test.
    pub rule: &'static str,
    /// True when the injected violation produced the diagnostic.
    pub fired: bool,
}

/// Per-rule fixture sources. Each is written into the synthetic
/// workspace; the violation must be the *only* finding the rule
/// reports for it. Most are library files; the `layering` fixture is
/// a manifest that declares an upward dependency, and the
/// `workspace-lints` fixture a manifest without `[lints]`.
fn fixtures() -> Vec<(&'static str, &'static str, String)> {
    vec![
        (
            "socket-deadline",
            "crates/fixture/src/socket_deadline.rs",
            "use std::os::unix::net::UnixListener;\n\
             pub fn serve(l: &UnixListener) { for _conn in l.incoming() {} }\n"
                .to_string(),
        ),
        (
            "bad-suppression",
            "crates/fixture/src/bad_suppression.rs",
            // Reason missing: the suppression is malformed AND inert.
            "// lint:allow(float-accum)\npub fn f() {}\n".to_string(),
        ),
        (
            // A `kernel`-layer crate declaring a dependency on the
            // `driver` layer: an upward manifest edge.
            "layering",
            "crates/fixture_sim/Cargo.toml",
            "[package]\nname = \"taster-sim\"\n\n[lints]\nworkspace = true\n\n\
             [dependencies]\ntaster-core = { path = \"../core\" }\n"
                .to_string(),
        ),
        (
            // A layered crate whose manifest has no `[lints]` table, so
            // the workspace clippy/rustc policy would not reach it.
            "workspace-lints",
            "crates/fixture_core/Cargo.toml",
            "[package]\nname = \"taster-core\"\n".to_string(),
        ),
        (
            // The same stream key derived twice in one function body.
            "rng-key-collision",
            "crates/fixture/src/rng_keys.rs",
            "pub fn pair(seed: u64) -> (u64, u64) {\n    \
             (name_key(\"fixture/dup\"), name_key(\"fixture/dup\"))\n}\n"
                .to_string(),
        ),
        (
            // Hash-map iteration in a render-module fn, no sort.
            "unsorted-iteration",
            "crates/fixture/src/render_unsorted.rs",
            "use taster_domain::fx::FxHashMap;\n\
             pub fn summarize(m: &FxHashMap<u32, u32>) -> String {\n    \
             let mut out = String::new();\n    \
             for (k, v) in m.iter() {\n        \
             out.push_str(&format!(\"{k}={v};\"));\n    }\n    out\n}\n"
                .to_string(),
        ),
        (
            // f64 sum straight off hash-ordered values().
            "float-accum",
            "crates/fixture/src/float_accum.rs",
            "use taster_domain::fx::FxHashMap;\n\
             pub fn total(m: &FxHashMap<u32, f64>) -> f64 {\n    \
             m.values().sum::<f64>()\n}\n"
                .to_string(),
        ),
    ]
}

/// A violation carrying a well-formed suppression; must stay silent.
const SUPPRESSED_FIXTURE: &str = "use std::os::unix::net::UnixListener;\n\
     pub fn serve(l: &UnixListener) {\n    \
     for _conn in l.incoming() {} // lint:allow(socket-deadline) -- self-test fixture\n}\n";

/// Runs the self-test. Returns per-rule outcomes; `Err` only on I/O
/// failure creating the synthetic workspace.
pub fn self_test() -> Result<Vec<SelfTestResult>, LintError> {
    let root = scratch_root();
    // Stale directory from a crashed run: clear it first.
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| LintError::io(&root, &e))?;
    }
    let result = run_fixtures(&root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_fixtures(root: &Path) -> Result<Vec<SelfTestResult>, LintError> {
    for (_, rel, source) in fixtures() {
        let path = root.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| LintError::io(parent, &e))?;
        }
        std::fs::write(&path, source).map_err(|e| LintError::io(&path, &e))?;
    }
    let suppressed = root.join("crates/fixture/src/suppressed.rs");
    std::fs::write(&suppressed, SUPPRESSED_FIXTURE).map_err(|e| LintError::io(&suppressed, &e))?;

    let config = LintConfig {
        root: root.to_path_buf(),
        workers: 1,
    };
    let report = run(&config)?;

    let mut out = Vec::new();
    for (rule, rel, _) in fixtures() {
        let fired = report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.path == rel);
        out.push(SelfTestResult { rule, fired });
    }
    // The well-formed suppression must have been honoured: no finding
    // in suppressed.rs, and exactly one suppression counted there.
    let silent = !report
        .diagnostics
        .iter()
        .any(|d| d.path == "crates/fixture/src/suppressed.rs");
    out.push(SelfTestResult {
        rule: "suppression-honoured",
        fired: silent && report.suppressed > 0,
    });
    // The report must be byte-identical at 1, 2 and 8 workers.
    let serial = (report.render_text(), report.render_json());
    let mut identical = true;
    for workers in [2usize, 8] {
        let parallel = run(&LintConfig {
            workers,
            ..config.clone()
        })?;
        identical &= (parallel.render_text(), parallel.render_json()) == serial;
    }
    out.push(SelfTestResult {
        rule: "parallel-identical",
        fired: identical,
    });
    Ok(out)
}

/// Scratch directory namespaced by pid so concurrent invocations
/// cannot collide.
fn scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("taster-lint-selftest-{}", std::process::id()))
}
