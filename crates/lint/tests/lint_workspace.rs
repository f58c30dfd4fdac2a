//! The linter run against the real workspace: the tree must be clean,
//! the crate graph must match the declared layering, and the self-test
//! must prove every rule can still fire.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use taster_lint::graph::{layer_of, CrateGraph};
use taster_lint::rules::RULES;
use taster_lint::{find_workspace_root, run, selftest, LintConfig};

fn workspace_root() -> std::path::PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("lint crate lives inside the workspace")
}

#[test]
fn the_workspace_is_lint_clean() {
    let report = run(&LintConfig::for_root(workspace_root())).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "scan looks truncated");
    assert!(report.crates_scanned > 10, "crate graph looks truncated");
}

#[test]
fn self_test_fires_every_rule() {
    let results = selftest::self_test().expect("self-test harness runs");
    for rule in RULES {
        assert!(
            results.iter().any(|r| r.rule == rule.id),
            "rule {} has no self-test fixture",
            rule.id
        );
    }
    for r in &results {
        assert!(r.fired, "rule {} did not fire on its fixture", r.rule);
    }
}

// ----------------------------------------------------- crate graph pin

/// Pins the shape of the real workspace graph. If a crate is added,
/// removed, or re-layered, this test states the new expectation so the
/// change is a conscious one.
#[test]
fn the_workspace_graph_matches_the_declared_layering() {
    let graph = CrateGraph::load(&workspace_root());
    let names: Vec<&str> = graph.crates.keys().map(String::as_str).collect();
    assert_eq!(
        graph.crates.len(),
        14,
        "crate count changed — update LAYERS and this pin: {names:?}"
    );

    // Every non-vendor crate must sit in a declared layer.
    for node in graph.crates.values() {
        if node.vendor {
            assert!(
                layer_of(&node.name).is_none(),
                "vendor crate {} must stay outside the layering",
                node.name
            );
        } else {
            assert!(
                layer_of(&node.name).is_some(),
                "crate {} is not assigned to a layer",
                node.name
            );
        }
    }

    // Spot-pin the extremes so an accidental re-layering is loud.
    assert_eq!(layer_of("taster-domain").map(|(n, _)| n), Some(0));
    assert_eq!(layer_of("taster-sim").map(|(n, _)| n), Some(1));
    assert_eq!(layer_of("taster-lint").map(|(n, _)| n), Some(7));
    assert_eq!(layer_of("taster").map(|(n, _)| n), Some(8));
    assert_eq!(layer_of("rand"), None);

    // Every non-dev dependency edge must point strictly downward.
    for node in graph.crates.values() {
        let Some((from_layer, _)) = layer_of(&node.name) else {
            continue;
        };
        for dep in &node.deps {
            if dep.dev {
                continue;
            }
            if let Some((to_layer, _)) = layer_of(&dep.name) {
                assert!(
                    from_layer > to_layer,
                    "{} (layer {from_layer}) depends on {} (layer {to_layer})",
                    node.name,
                    dep.name
                );
            }
        }
    }
}

// -------------------------------------------------- parallel identity

/// The per-file pass fans out over `sim::par`; the merged report must
/// be byte-identical regardless of worker count.
#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let root = workspace_root();
    let render = |workers: usize| {
        let report = run(&LintConfig {
            workers,
            ..LintConfig::for_root(root.clone())
        })
        .expect("lint run succeeds");
        (report.render_text(), report.render_json())
    };
    let one = render(1);
    assert_eq!(one, render(2), "2-worker output diverged from serial");
    assert_eq!(one, render(8), "8-worker output diverged from serial");
}
