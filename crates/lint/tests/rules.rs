//! Fixture-based tests: one table test that every rule fires on its
//! fixture, then true-positive and false-positive fixtures per rule
//! and the contexts the per-file rules skip.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster_lint::analyze_sources;
use taster_lint::rules::RULES;

const LIB: &str = "crates/demo/src/lib.rs";

/// A library fn that sums hash-ordered floats: one `float-accum`
/// finding on line 3.
const FLOAT_SUM: &str = "use taster_domain::fx::FxHashMap;\n\
                         pub fn total(m: &FxHashMap<u32, f64>) -> f64 {\n    \
                         m.values().sum::<f64>()\n}\n";

/// Rule ids `src` draws when it is the only file of a workspace at
/// `path` (a manifest when `path` ends in `Cargo.toml`).
fn rules_hit(path: &str, src: &str) -> Vec<String> {
    if path.ends_with("Cargo.toml") {
        workspace_rules_hit(&[], &[(path, src)])
    } else {
        workspace_rules_hit(&[(path, src)], &[])
    }
}

// ---------------------------------------------------------- every rule

/// One violation per rule. Most are library files; the `layering`
/// fixture is a manifest that declares an upward dependency, and the
/// `workspace-lints` fixture a manifest without `[lints]`.
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        // A `kernel`-layer crate declaring a dependency on the
        // `driver` layer: an upward manifest edge.
        "layering",
        "crates/fixture_sim/Cargo.toml",
        "[package]\nname = \"taster-sim\"\n\n[lints]\nworkspace = true\n\n\
         [dependencies]\ntaster-core = { path = \"../core\" }\n",
    ),
    (
        // A layered crate whose manifest has no `[lints]` table, so
        // the workspace clippy/rustc policy would not reach it.
        "workspace-lints",
        "crates/fixture_core/Cargo.toml",
        "[package]\nname = \"taster-core\"\n",
    ),
    (
        // The same stream key derived twice in one function body.
        "rng-key-collision",
        "crates/fixture/src/rng_keys.rs",
        "pub fn pair(seed: u64) -> (u64, u64) {\n    \
         (name_key(\"fixture/dup\"), name_key(\"fixture/dup\"))\n}\n",
    ),
    (
        // Hash-map iteration in a render-module fn, no sort.
        "unsorted-iteration",
        "crates/fixture/src/render_unsorted.rs",
        "use taster_domain::fx::FxHashMap;\n\
         pub fn summarize(m: &FxHashMap<u32, u32>) -> String {\n    \
         let mut out = String::new();\n    \
         for (k, v) in m.iter() {\n        \
         out.push_str(&format!(\"{k}={v};\"));\n    }\n    out\n}\n",
    ),
    ("float-accum", LIB, FLOAT_SUM),
];

/// A rule whose fixture stops drawing it has silently stopped
/// matching; a rule without a fixture is not checked at all.
#[test]
fn every_rule_fires_on_its_fixture() {
    let rules: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    let fixtures: Vec<&str> = FIXTURES.iter().map(|f| f.0).collect();
    assert_eq!(fixtures, rules, "one fixture per rule, in RULES order");
    for &(rule, path, src) in FIXTURES {
        assert_eq!(rules_hit(path, src), [rule], "{path}");
    }
}

// ----------------------------------------------------------- contexts

#[test]
fn vendor_code_skips_lib_rules() {
    assert!(rules_hit("vendor/rand/src/lib.rs", FLOAT_SUM).is_empty());
}

#[test]
fn tests_and_examples_skip_lib_rules() {
    assert!(rules_hit("crates/demo/tests/it.rs", FLOAT_SUM).is_empty());
    assert!(rules_hit("examples/quickstart.rs", FLOAT_SUM).is_empty());
}

#[test]
fn cfg_test_modules_skip_lib_rules() {
    let lib = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    \
               use taster_domain::fx::FxHashMap;\n    \
               fn t(m: &FxHashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n}\n";
    assert!(rules_hit(LIB, lib).is_empty());
    // The test region starts at its `#[cfg(test)]`: code above it is
    // still checked.
    let before = format!("{FLOAT_SUM}\n#[cfg(test)]\nmod tests {{}}\n");
    assert_eq!(rules_hit(LIB, &before), ["float-accum"]);
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
         pub fn run(obs: &mut Obs) {\n    obs.stage(\"alpha\", 1);\n    obs.stage(\"beta\", 2);\n}\n",
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
         pub fn run(obs: &mut Obs) {\n    obs.stage(STAGE_ALPHA, 1);\n}\n",
    )];
    assert!(workspace_rules_hit(&sources, &[]).is_empty());
}

#[test]
fn stage_registry_is_inert_without_a_registry() {
    // A tree with stage calls but no STAGE_KEYS definition (a rule
    // fixture tree) must not flag anything.
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
