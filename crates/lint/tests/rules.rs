//! Fixture-based tests: one table test that every rule fires on its
//! fixture, then true-positive and false-positive fixtures per rule
//! and the contexts the source rule skips.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster_lint::analyze_sources;
use taster_lint::rules::RULES;

const LIB: &str = "crates/demo/src/lib.rs";

/// A library fn deriving one stream key twice: one
/// `rng-key-collision` finding on line 2.
const DUP_KEY: &str = "pub fn pair(seed: u64) -> (u64, u64) {\n    \
                       (name_key(\"fixture/dup\"), name_key(\"fixture/dup\"))\n}\n";

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

/// One violation per rule: a manifest that declares an upward
/// dependency, a manifest without `[lints]`, and a library file.
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
    ("rng-key-collision", LIB, DUP_KEY),
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
    assert!(rules_hit("vendor/rand/src/lib.rs", DUP_KEY).is_empty());
}

#[test]
fn tests_and_examples_skip_lib_rules() {
    assert!(rules_hit("crates/demo/tests/it.rs", DUP_KEY).is_empty());
    assert!(rules_hit("examples/quickstart.rs", DUP_KEY).is_empty());
}

#[test]
fn cfg_test_modules_skip_lib_rules() {
    let lib = format!("pub fn ok() {{}}\n\n#[cfg(test)]\nmod tests {{\n{DUP_KEY}}}\n");
    assert!(rules_hit(LIB, &lib).is_empty());
    // The test region starts at its `#[cfg(test)]`: code above it is
    // still checked.
    let before = format!("{DUP_KEY}\n#[cfg(test)]\nmod tests {{}}\n");
    assert_eq!(rules_hit(LIB, &before), ["rng-key-collision"]);
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

/// The (line, message) of every finding `sources` draw.
fn findings(sources: &[(&str, &str)]) -> Vec<(usize, String)> {
    analyze_sources(sources, &[])
        .into_iter()
        .map(|d| (d.line, d.message))
        .collect()
}

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
fn rng_key_collision_resolves_const_keys() {
    // The same key passed by const in two crates, in both spellings of
    // the type and through a path, collides like the literal does.
    let a = "const K: &str = \"dup/key\";\n\
             pub fn a(seed: u64) -> RngStream { RngStream::new(seed, K) }\n";
    let b = "const K: &'static str = \"dup/key\";\n\
             pub fn b(seed: u64) -> u64 { name_key(self::K) }\n";
    let sources = [("crates/sim/src/a.rs", a), ("crates/feeds/src/b.rs", b)];
    let lines: Vec<usize> = findings(&sources).into_iter().map(|f| f.0).collect();
    assert_eq!(lines, [2, 2], "both sites are reported");
    // A const in another file of the crate resolves too.
    let keys = "pub const SHARED: &str = \"dup/key\";\n";
    let c = "pub fn c(seed: u64) -> u64 { name_key(keys::SHARED) }\n";
    let d = "pub fn d(seed: u64) -> u64 { name_key(\"dup/key\") }\n";
    let sources = [
        ("crates/sim/src/keys.rs", keys),
        ("crates/sim/src/c.rs", c),
        ("crates/feeds/src/d.rs", d),
    ];
    assert_eq!(findings(&sources).len(), 2);
    // Each crate's own `K` is its own key.
    let b = b.replace("dup/key", "other/key");
    let sources = [("crates/sim/src/a.rs", a), ("crates/feeds/src/b.rs", &b)];
    assert!(findings(&sources).is_empty());
}

#[test]
fn same_named_fns_in_one_file_are_different_functions() {
    // Two `cfg` alternatives of one fn, and two `new`s in two impls,
    // each derive the key once.
    let src = "#[cfg(unix)]\npub fn go() -> u64 { name_key(\"k\") }\n\
               #[cfg(not(unix))]\npub fn go() -> u64 { name_key(\"k\") }\n\
               impl A {\n    fn new() -> u64 { name_key(\"k\") }\n}\n\
               impl B {\n    fn new() -> u64 { name_key(\"k\") }\n}\n";
    assert!(findings(&[(LIB, src)]).is_empty());
}

#[test]
fn a_nested_fn_is_its_own_function() {
    // One derivation in the nested fn and one in its parent: no repeat.
    let once = "pub fn outer() -> u64 {\n    \
                fn inner() -> u64 { name_key(\"k\") }\n    \
                inner() ^ name_key(\"k\")\n}\n";
    assert!(findings(&[(LIB, once)]).is_empty());
    // A repeat inside the nested fn is its own; after the nested body
    // closes, the parent's derivations count for the parent.
    let twice = "pub fn outer() -> u64 {\n    \
                 let a = name_key(\"k\");\n    \
                 fn inner() -> u64 { name_key(\"j\") ^ name_key(\"j\") }\n    \
                 a ^ inner() ^ name_key(\"k\")\n}\n";
    let found = findings(&[(LIB, twice)]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(
        found[0].0 == 3 && found[0].1.contains("`fn inner`"),
        "{found:?}"
    );
    assert!(
        found[1].0 == 4 && found[1].1.contains("`fn outer`"),
        "{found:?}"
    );
}
