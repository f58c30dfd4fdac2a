//! Fixture-based tests: one true-positive and one false-positive
//! fixture per rule, plus suppression semantics.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster_lint::{analyze_sources, lint_source};

const LIB: &str = "crates/demo/src/lib.rs";

/// A library file that blocks on its listener: one `socket-deadline`
/// finding on line 2.
const BLOCKING_ACCEPT: &str = "use std::os::unix::net::UnixListener;\n\
                               pub fn serve(l: &UnixListener) { for _c in l.incoming() {} }\n";

fn rules_hit(path: &str, src: &str) -> Vec<String> {
    let mut ids: Vec<String> = lint_source(path, src)
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

// ----------------------------------------------------- socket-deadline

#[test]
fn socket_deadline_fires_on_unbounded_socket_calls() {
    assert_eq!(rules_hit(LIB, BLOCKING_ACCEPT), ["socket-deadline"]);
    let read = "use std::os::unix::net::UnixStream;\n\
                pub fn slurp(s: &mut UnixStream, buf: &mut Vec<u8>) { let _ = s.read_to_end(buf); }\n";
    assert_eq!(rules_hit(LIB, read), ["socket-deadline"]);
}

#[test]
fn socket_deadline_ignores_files_without_sockets() {
    let src =
        "pub fn slurp(f: &mut std::fs::File, buf: &mut Vec<u8>) { let _ = f.read_to_end(buf); }\n";
    assert!(rules_hit(LIB, src).is_empty());
}

// -------------------------------------------------------- suppressions

#[test]
fn trailing_suppression_silences_the_same_line() {
    let src = BLOCKING_ACCEPT.replace(
        "{} }\n",
        "{} } // lint:allow(socket-deadline) -- contract\n",
    );
    assert!(rules_hit(LIB, &src).is_empty());
}

#[test]
fn standalone_suppression_silences_the_next_code_line() {
    let src = BLOCKING_ACCEPT.replace(
        "pub fn",
        "// lint:allow(socket-deadline) -- the listener is nonblocking\npub fn",
    );
    assert!(rules_hit(LIB, &src).is_empty());
}

#[test]
fn suppression_only_covers_the_named_rule() {
    let src = BLOCKING_ACCEPT.replace(
        "pub fn",
        "// lint:allow(float-accum) -- wrong rule named\npub fn",
    );
    assert_eq!(rules_hit(LIB, &src), ["socket-deadline"]);
}

#[test]
fn suppression_without_reason_is_malformed_and_inert() {
    let src = BLOCKING_ACCEPT.replace("pub fn", "// lint:allow(socket-deadline)\npub fn");
    let ids = rules_hit(LIB, &src);
    assert!(ids.contains(&"bad-suppression".to_string()), "{ids:?}");
    assert!(
        ids.contains(&"socket-deadline".to_string()),
        "malformed must not suppress: {ids:?}"
    );
}

#[test]
fn suppression_with_unknown_rule_is_flagged() {
    // `no-panic` is a rule clippy enforces now; the engine does not
    // know it, so a leftover suppression naming it is flagged too.
    for rule in ["made-up-rule", "no-panic"] {
        let src = format!("pub fn f() {{}} // lint:allow({rule}) -- hmm\n");
        assert_eq!(rules_hit(LIB, &src), ["bad-suppression"], "{rule}");
    }
}

// ----------------------------------------------------------- contexts

#[test]
fn vendor_code_only_answers_for_suppression_syntax() {
    assert!(rules_hit("vendor/rand/src/lib.rs", BLOCKING_ACCEPT).is_empty());
    let bad = "pub fn f() {} // lint:allow(socket-deadline)\n";
    assert_eq!(
        rules_hit("vendor/rand/src/lib.rs", bad),
        ["bad-suppression"]
    );
}

#[test]
fn tests_and_examples_skip_lib_rules() {
    assert!(rules_hit("crates/demo/tests/it.rs", BLOCKING_ACCEPT).is_empty());
    assert!(rules_hit("examples/quickstart.rs", BLOCKING_ACCEPT).is_empty());
}

#[test]
fn cfg_test_modules_skip_lib_rules() {
    let lib = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    \
               use std::os::unix::net::UnixListener;\n    \
               fn t(l: &UnixListener) { for _c in l.incoming() {} }\n}\n";
    assert!(rules_hit(LIB, lib).is_empty());
    // The test region starts at its `#[cfg(test)]`: code above it is
    // still checked.
    let before = format!("{BLOCKING_ACCEPT}\n#[cfg(test)]\nmod tests {{}}\n");
    assert_eq!(rules_hit(LIB, &before), ["socket-deadline"]);
}

// ------------------------------------------------------------ layering

fn workspace_rules_hit(sources: &[(&str, &str)], manifests: &[(&str, &str)]) -> Vec<String> {
    let mut ids: Vec<String> = analyze_sources(sources, manifests)
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

/// A workspace-crate manifest that inherits the lint table, followed
/// by `rest` (dependency sections).
fn manifest(name: &str, rest: &str) -> String {
    format!("[package]\nname = \"{name}\"\n\n[lints]\nworkspace = true\n{rest}")
}

#[test]
fn layering_fires_on_upward_manifest_dep() {
    // taster-sim (layer 1) must not depend on taster-core (layer 6).
    let sim = manifest(
        "taster-sim",
        "\n[dependencies]\ntaster-core = { path = \"../core\" }\n",
    );
    let manifests = [("crates/sim/Cargo.toml", sim.as_str())];
    assert_eq!(workspace_rules_hit(&[], &manifests), ["layering"]);
}

#[test]
fn layering_allows_downward_manifest_dep() {
    let core = manifest(
        "taster-core",
        "\n[dependencies]\ntaster-sim = { path = \"../sim\" }\n",
    );
    let manifests = [("crates/core/Cargo.toml", core.as_str())];
    assert!(workspace_rules_hit(&[], &manifests).is_empty());
}

#[test]
fn layering_exempts_dev_dependencies() {
    // Upward edges in dev-dependencies are test-only and legal.
    let sim = manifest(
        "taster-sim",
        "\n[dev-dependencies]\ntaster-core = { path = \"../core\" }\n",
    );
    let manifests = [("crates/sim/Cargo.toml", sim.as_str())];
    assert!(workspace_rules_hit(&[], &manifests).is_empty());
}

#[test]
fn layering_fires_on_upward_source_reference() {
    let sim = manifest("taster-sim", "");
    let manifests = [("crates/sim/Cargo.toml", sim.as_str())];
    let sources = [(
        "crates/sim/src/lib.rs",
        "pub fn go() { taster_core::run(); }\n",
    )];
    assert_eq!(workspace_rules_hit(&sources, &manifests), ["layering"]);
}

#[test]
fn layering_allows_downward_source_reference() {
    let core = manifest("taster-core", "");
    let manifests = [("crates/core/Cargo.toml", core.as_str())];
    let sources = [(
        "crates/core/src/lib.rs",
        "pub fn go() { taster_sim::run(); }\n",
    )];
    assert!(workspace_rules_hit(&sources, &manifests).is_empty());
}

#[test]
fn layering_forbids_vendor_depending_on_workspace() {
    let rand = manifest(
        "rand",
        "\n[dependencies]\ntaster-domain = { path = \"../../crates/domain\" }\n",
    );
    let manifests = [("vendor/rand/Cargo.toml", rand.as_str())];
    assert_eq!(workspace_rules_hit(&[], &manifests), ["layering"]);
}

#[test]
fn layering_flags_unlayered_workspace_crate() {
    let mystery = manifest("taster-mystery", "");
    let manifests = [("crates/mystery/Cargo.toml", mystery.as_str())];
    assert_eq!(workspace_rules_hit(&[], &manifests), ["layering"]);
}

// ----------------------------------------------------- workspace-lints

#[test]
fn workspace_lints_fires_on_a_crate_without_the_lint_table() {
    let manifests = [(
        "crates/sim/Cargo.toml",
        "[package]\nname = \"taster-sim\"\n\n[dependencies]\nrand.workspace = true\n",
    )];
    let diags = analyze_sources(&[], &manifests);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "workspace-lints");
    assert_eq!(diags[0].path, "crates/sim/Cargo.toml");
    // Vendored shims answer for it too; either spelling satisfies it.
    let shim = "[package]\nname = \"rand\"\n";
    assert_eq!(
        workspace_rules_hit(&[], &[("vendor/rand/Cargo.toml", shim)]),
        ["workspace-lints"]
    );
    let dotted = "lints.workspace = true\n[package]\nname = \"taster-sim\"\n";
    let shim = manifest("rand", "");
    assert!(workspace_rules_hit(
        &[],
        &[
            ("crates/sim/Cargo.toml", dotted),
            ("vendor/rand/Cargo.toml", &shim)
        ]
    )
    .is_empty());
}

// --------------------------------------------------- rng-key-collision

#[test]
fn rng_key_collision_fires_across_crates() {
    let sources = [
        (
            "crates/sim/src/a.rs",
            "pub fn a(seed: u64) -> u64 { name_key(\"shared/key\") }\n",
        ),
        (
            "crates/feeds/src/b.rs",
            "pub fn b(seed: u64) -> u64 { name_key(\"shared/key\") }\n",
        ),
    ];
    let diags = analyze_sources(&sources, &[]);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "rng-key-collision")
        .collect();
    assert_eq!(hits.len(), 2, "every colliding site is reported: {diags:?}");
}

#[test]
fn rng_key_collision_fires_twice_in_one_function() {
    let sources = [(
        "crates/sim/src/a.rs",
        "pub fn pair(seed: u64) -> (u64, u64) {\n    (name_key(\"dup\"), name_key(\"dup\"))\n}\n",
    )];
    let diags = analyze_sources(&sources, &[]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "rng-key-collision");
}

#[test]
fn rng_key_collision_allows_same_crate_replay_rederivation() {
    // The deliberate pattern: two functions in one crate re-derive the
    // same stream (generation + replay).
    let sources = [(
        "crates/ecosystem/src/domains.rs",
        "pub fn generate(s: u64) -> u64 { name_key(\"eco/domains\") }\n\
         pub fn replay(s: u64) -> u64 { name_key(\"eco/domains\") }\n",
    )];
    assert!(workspace_rules_hit(&sources, &[]).is_empty());
}

#[test]
fn rng_key_collision_ignores_nested_literals() {
    // A literal inside a nested call (format!) is not the key.
    let sources = [
        (
            "crates/sim/src/a.rs",
            "pub fn a(i: u32) -> u64 { name_key(&format!(\"x/{i}\")) }\n",
        ),
        (
            "crates/feeds/src/b.rs",
            "pub fn b(i: u32) -> u64 { name_key(&format!(\"x/{i}\")) }\n",
        ),
    ];
    assert!(workspace_rules_hit(&sources, &[]).is_empty());
}

#[test]
fn stage_registry_flags_unregistered_stage() {
    let sources = [(
        "crates/sim/src/metrics.rs",
        "pub const STAGE_KEYS: [&str; 1] = [\"alpha\"];\n\
         pub fn run(obs: &mut Obs) {\n    obs.stage(\"alpha\", 1);\n    obs.time_stage(\"beta\", 2);\n}\n",
    )];
    let diags = analyze_sources(&sources, &[]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("\"beta\""),
        "{}",
        diags[0].message
    );
}

#[test]
fn stage_registry_flags_dead_registry_entry() {
    let sources = [(
        "crates/sim/src/metrics.rs",
        "pub const STAGE_KEYS: [&str; 2] = [\"alpha\", \"ghost\"];\n\
         pub fn run(obs: &mut Obs) {\n    obs.stage(\"alpha\", 1);\n}\n",
    )];
    let diags = analyze_sources(&sources, &[]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("\"ghost\""),
        "{}",
        diags[0].message
    );
}

#[test]
fn stage_registry_resolves_const_names() {
    // Registry entries and call sites both go through consts; the
    // workspace const table must resolve them to the same name.
    let sources = [(
        "crates/sim/src/metrics.rs",
        "pub const STAGE_ALPHA: &str = \"alpha\";\n\
         pub const STAGE_KEYS: [&str; 1] = [STAGE_ALPHA];\n\
         pub fn run(obs: &mut Obs) {\n    obs.time_stage(STAGE_ALPHA, 1);\n}\n",
    )];
    assert!(workspace_rules_hit(&sources, &[]).is_empty());
}

#[test]
fn stage_registry_is_inert_without_a_registry() {
    // A tree with stage calls but no STAGE_KEYS definition (the
    // self-test fixture tree) must not flag anything.
    let sources = [(
        "crates/sim/src/a.rs",
        "pub fn run(obs: &mut Obs) {\n    obs.stage(\"anything\", 1);\n}\n",
    )];
    assert!(workspace_rules_hit(&sources, &[]).is_empty());
}

// -------------------------------------------------- unsorted-iteration

#[test]
fn unsorted_iteration_fires_in_render_files() {
    let src = "use taster_domain::fx::FxHashMap;\n\
               pub fn summarize(m: &FxHashMap<String, u32>, out: &mut String) {\n\
               \x20   for (k, v) in m.iter() {\n\
               \x20       out.push_str(k);\n\
               \x20   }\n\
               }\n";
    assert_eq!(
        rules_hit("crates/demo/src/render.rs", src),
        ["unsorted-iteration"]
    );
}

#[test]
fn unsorted_iteration_fires_in_emitter_functions() {
    // Non-sink file, but the enclosing fn name marks it an emitter.
    let src = "use taster_domain::fx::FxHashSet;\n\
               pub fn write_rows(s: &FxHashSet<u32>, out: &mut String) {\n\
               \x20   for v in s.iter() {\n\
               \x20       out.push_str(\"row\");\n\
               \x20   }\n\
               }\n";
    assert_eq!(rules_hit(LIB, src), ["unsorted-iteration"]);
}

#[test]
fn unsorted_iteration_cleared_by_sort_in_function() {
    let src = "use taster_domain::fx::FxHashMap;\n\
               pub fn summarize(m: &FxHashMap<String, u32>, out: &mut String) {\n\
               \x20   let mut keys: Vec<&String> = m.keys().collect();\n\
               \x20   keys.sort();\n\
               \x20   for k in keys {\n\
               \x20       out.push_str(k);\n\
               \x20   }\n\
               }\n";
    assert!(rules_hit("crates/demo/src/render.rs", src).is_empty());
}

#[test]
fn unsorted_iteration_ignores_non_sink_code() {
    // Same iteration, but neither the file nor the fn is a sink: hash
    // order never reaches emitted bytes here.
    let src = "use taster_domain::fx::FxHashMap;\n\
               pub fn count(m: &FxHashMap<String, u32>) -> usize {\n\
               \x20   let mut n = 0;\n\
               \x20   for (_k, _v) in m.iter() {\n\
               \x20       n += 1;\n\
               \x20   }\n\
               \x20   n\n\
               }\n";
    assert!(rules_hit(LIB, src).is_empty());
}

// --------------------------------------------------------- float-accum

#[test]
fn float_accum_fires_on_hash_ordered_float_sum() {
    // Float evidence via the binding's declared value type.
    let src = "use taster_domain::fx::FxHashMap;\n\
               pub fn total(m: &FxHashMap<String, f64>) -> f64 {\n\
               \x20   m.values().sum()\n\
               }\n";
    assert_eq!(rules_hit(LIB, src), ["float-accum"]);
    // Float evidence via a turbofish in the statement itself.
    let turbo = "use taster_domain::fx::FxHashMap;\n\
                 pub fn total(m: &FxHashMap<String, u32>) -> f64 {\n\
                 \x20   m.values().map(|v| *v as f64).sum::<f64>()\n\
                 }\n";
    assert_eq!(rules_hit(LIB, turbo), ["float-accum"]);
}

#[test]
fn float_accum_allows_integer_sums() {
    let src = "use taster_domain::fx::FxHashMap;\n\
               pub fn total(m: &FxHashMap<String, u32>) -> u32 {\n\
               \x20   m.values().sum()\n\
               }\n";
    assert!(rules_hit(LIB, src).is_empty());
}

#[test]
fn float_accum_cleared_by_sorting_first() {
    let src = "use taster_domain::fx::FxHashMap;\n\
               pub fn total(m: &FxHashMap<String, f64>) -> f64 {\n\
               \x20   let mut vs: Vec<f64> = m.values().copied().collect();\n\
               \x20   vs.sort_by(f64::total_cmp);\n\
               \x20   vs.iter().sum()\n\
               }\n";
    assert!(rules_hit(LIB, src).is_empty());
}
