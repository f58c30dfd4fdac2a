//! The linter run against the real workspace: the tree must be clean,
//! and the crate graph must match the declared layering.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use taster_lint::graph::{layer_of, CrateGraph};
use taster_lint::run;

/// The workspace root: this crate lives at `crates/lint`.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives inside the workspace")
        .to_path_buf()
}

#[test]
fn the_workspace_is_lint_clean() {
    let report = run(&workspace_root()).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "scan looks truncated");
    assert!(report.crates_scanned > 10, "crate graph looks truncated");
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
