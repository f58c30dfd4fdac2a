//! The workspace rules that neither rustc nor clippy expresses:
//!
//! * layering: every `[dependencies]` edge of a workspace crate points
//!   strictly downward in [`LAYERS`], and the vendored shims depend on
//!   no workspace crate (rustc refuses a source reference to a crate
//!   the manifest does not declare, so the manifests hold every edge);
//! * lint inheritance: every crate, the vendored shims included, sets
//!   `[lints] workspace = true`, so the clippy policy reaches it;
//! * stream names: a stream's name is its RNG key, so the names the
//!   crates' stream-key types declare are pairwise distinct, and pinned.
//!
//! The manifests are read by a line-oriented reader of the TOML subset
//! they use: section headers and `key = value` lines.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeSet;
use std::path::Path;

/// The declared architecture, bottom to top. Every workspace crate
/// sits in exactly one layer and depends only on strictly lower ones;
/// `[dev-dependencies]` are exempt, since test-only edges cannot leak
/// into shipped code. The vendored shims sit outside the layering.
const LAYERS: &[(&str, &[&str])] = &[
    ("foundation", &["taster-domain", "taster-stats"]),
    ("kernel", &["taster-sim"]),
    ("world", &["taster-ecosystem"]),
    ("agents", &["taster-mailsim", "taster-crawler"]),
    ("feeds", &["taster-feeds"]),
    ("analysis", &["taster-analysis"]),
    ("driver", &["taster-core"]),
    ("surface", &["taster-serve"]),
    ("app", &["taster"]),
];

/// Every RNG stream name the crates derive, in crate order.
const STREAM_NAMES: [&str; 25] = [
    "ecosystem/roster",
    "ecosystem/botnets",
    "ecosystem/universe",
    "ecosystem/campaigns",
    "ecosystem/events",
    "ecosystem/poison",
    "ecosystem/webspam",
    "mailsim/benign",
    "mailsim/provider",
    "mailsim/provider-fp",
    "feeds/mx1",
    "feeds/mx2",
    "feeds/mx3",
    "feeds/ac1",
    "feeds/ac2",
    "feeds/bot",
    "feeds/hyb",
    "feeds/dbl",
    "feeds/uribl",
    "feeds/render-spam",
    "feeds/hyb/reports",
    "feeds/hyb/webspam",
    "replicate/seed",
    "replicate/resample",
    "loadgen/request",
];

/// One crate's manifest, as far as the rules read it.
struct Manifest {
    /// Path relative to the workspace root.
    path: String,
    /// `[package] name`.
    name: String,
    /// Under `vendor/`.
    vendor: bool,
    /// `[lints] workspace = true`.
    workspace_lints: bool,
    /// `[dependencies]` and `[dev-dependencies]` entries as
    /// `(crate, dev)`.
    deps: Vec<(String, bool)>,
}

fn layer_of(name: &str) -> Option<usize> {
    LAYERS.iter().position(|(_, crates)| crates.contains(&name))
}

fn parse_manifest(path: &str, text: &str) -> Manifest {
    let mut section = "";
    let mut name = None;
    let mut workspace_lints = false;
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match section {
            "package" if key == "name" => name = Some(value.trim_matches('"').to_string()),
            "lints" if key == "workspace" => workspace_lints = value == "true",
            // `taster-sim.workspace = true` and `rand = { path = .. }`
            // alike: the crate is the key up to its first dot.
            "dependencies" | "dev-dependencies" => {
                let dep = key.split('.').next().unwrap_or(key).trim_matches('"');
                deps.push((dep.to_string(), section == "dev-dependencies"));
            }
            _ => {}
        }
    }
    Manifest {
        path: path.to_string(),
        name: name.unwrap_or_else(|| panic!("{path} has no [package] name")),
        vendor: path.starts_with("vendor/"),
        workspace_lints,
        deps,
    }
}

/// The root manifest and every `crates/*` and `vendor/*` manifest, in
/// path order.
fn manifests() -> Vec<Manifest> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec!["Cargo.toml".to_string()];
    for dir in ["crates", "vendor"] {
        let mut found: Vec<String> = std::fs::read_dir(root.join(dir))
            .expect("workspace directory")
            .map(|entry| entry.expect("directory entry").file_name())
            .map(|crate_dir| format!("{dir}/{}/Cargo.toml", crate_dir.to_string_lossy()))
            .filter(|path| root.join(path).is_file())
            .collect();
        found.sort();
        paths.extend(found);
    }
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(root.join(path)).expect("readable manifest");
            parse_manifest(path, &text)
        })
        .collect()
}

#[test]
fn the_workspace_graph_matches_the_declared_layering() {
    let manifests = manifests();
    let names: Vec<&str> = manifests.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        manifests.len(),
        13,
        "crate count changed: update LAYERS and this pin: {names:?}"
    );
    // The reader sees the real edges.
    let sim = manifests.iter().find(|m| m.name == "taster-sim").unwrap();
    assert!(sim.deps.contains(&("taster-stats".to_string(), false)));

    let mut findings = Vec::new();
    for m in &manifests {
        let workspace_deps = m.deps.iter().filter(|(dep, _)| dep.starts_with("taster"));
        if m.vendor {
            for (dep, _) in workspace_deps {
                findings.push(format!("{}: vendored crate depends on {dep}", m.path));
            }
            continue;
        }
        let Some(layer) = layer_of(&m.name) else {
            findings.push(format!("{}: {} is in no layer of LAYERS", m.path, m.name));
            continue;
        };
        for (dep, _) in workspace_deps.filter(|(_, dev)| !dev) {
            match layer_of(dep) {
                Some(below) if below < layer => {}
                Some(below) => findings.push(format!(
                    "{}: {} ({}) depends on {dep} ({}); edges must point strictly downward",
                    m.path, m.name, LAYERS[layer].0, LAYERS[below].0
                )),
                None => findings.push(format!("{}: {dep} is in no layer of LAYERS", m.path)),
            }
        }
    }
    assert!(findings.is_empty(), "layering:\n{}", findings.join("\n"));
}

#[test]
fn every_crate_inherits_the_workspace_lints() {
    let missing: Vec<String> = manifests()
        .into_iter()
        .filter(|m| !m.workspace_lints)
        .map(|m| m.path)
        .collect();
    assert!(
        missing.is_empty(),
        "without `[lints] workspace = true` the workspace lint policy does not reach: {missing:?}"
    );
}

#[test]
fn stream_names_are_distinct_and_pinned() {
    let names = [
        taster::ecosystem::stream_names(),
        taster::mailsim::stream_names(),
        taster::feeds::stream_names(),
        taster::core::stream_names(),
        taster::serve::stream_names(),
    ]
    .concat();
    let distinct: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        names.len(),
        "two crates name one stream: {names:?}"
    );
    // A name is its stream's key: renaming one changes every draw.
    assert_eq!(names, STREAM_NAMES);
}
