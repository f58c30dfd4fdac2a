//! The workspace crate-dependency DAG and its declared layering.
//!
//! Parsed from the `Cargo.toml`s with a line-oriented TOML-subset
//! reader (section headers, `name = …` keys — all these manifests
//! use); no external TOML crate, consistent with the vendored-offline
//! policy. The [`LAYERS`] table is the *declared* architecture: the
//! `layering` rule holds every `[dependencies]` edge and every source
//! `use` edge to it, so an accidental upward dependency (say, `sim`
//! reaching into `feeds`) becomes a lint finding instead of silent
//! coupling.

use std::collections::BTreeMap;
use std::path::Path;

/// The declared layer architecture, bottom (0) to top. Every
/// workspace crate must appear in exactly one layer; a crate may
/// depend only on *strictly lower* layers. Vendored crates sit
/// outside the layering: anything may depend on them, and they must
/// not depend on workspace crates.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("foundation", &["taster-domain", "taster-stats"]),
    ("kernel", &["taster-sim"]),
    ("world", &["taster-ecosystem"]),
    ("agents", &["taster-mailsim", "taster-crawler"]),
    ("feeds", &["taster-feeds"]),
    ("analysis", &["taster-analysis"]),
    ("driver", &["taster-core"]),
    ("surface", &["taster-serve", "taster-bench", "taster-lint"]),
    ("app", &["taster"]),
];

/// Layer index and name for a workspace crate; `None` for vendored
/// and unknown crates.
pub fn layer_of(crate_name: &str) -> Option<(usize, &'static str)> {
    LAYERS
        .iter()
        .enumerate()
        .find(|(_, (_, crates))| crates.contains(&crate_name))
        .map(|(idx, (name, _))| (idx, *name))
}

/// One `[dependencies]` / `[dev-dependencies]` edge in a manifest.
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// Depended-on crate (package name, dash form).
    pub name: String,
    /// 1-based line in the manifest.
    pub line: usize,
    /// The manifest line text, trimmed (diagnostic snippet).
    pub snippet: String,
    /// True for `[dev-dependencies]` — exempt from layering, since
    /// test-only edges (e.g. a benchmark crate pulling the driver)
    /// cannot leak into shipped determinism.
    pub dev: bool,
}

/// One crate in the workspace: its manifest plus parsed dep edges.
#[derive(Debug, Clone)]
pub struct CrateNode {
    /// Package name (`taster-sim`).
    pub name: String,
    /// Directory relative to the workspace root (`crates/sim`), `""`
    /// for the root package.
    pub dir: String,
    /// Manifest path relative to the workspace root.
    pub manifest_path: String,
    /// True for `vendor/` crates.
    pub vendor: bool,
    /// Parsed dependency edges.
    pub deps: Vec<DepEdge>,
}

/// The workspace crate graph.
#[derive(Debug, Clone, Default)]
pub struct CrateGraph {
    /// Crates keyed by package name (deterministic order).
    pub crates: BTreeMap<String, CrateNode>,
}

impl CrateGraph {
    /// Loads the graph by scanning `root/Cargo.toml`,
    /// `root/crates/*/Cargo.toml` and `root/vendor/*/Cargo.toml`.
    /// Directories without a manifest are skipped — a synthetic
    /// self-test tree is a valid (empty) workspace.
    pub fn load(root: &Path) -> CrateGraph {
        let mut graph = CrateGraph::default();
        graph.add_manifest(root, Path::new("Cargo.toml"), false);
        for (subdir, vendor) in [("crates", false), ("vendor", true)] {
            let Ok(entries) = std::fs::read_dir(root.join(subdir)) else {
                continue;
            };
            let mut dirs: Vec<_> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                if let Ok(rel) = dir.join("Cargo.toml").strip_prefix(root) {
                    graph.add_manifest(root, rel, vendor);
                }
            }
        }
        graph
    }

    fn add_manifest(&mut self, root: &Path, rel: &Path, vendor: bool) {
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            return;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if let Some(node) = parse_manifest(&rel_str, &text, vendor) {
            self.crates.insert(node.name.clone(), node);
        }
    }

    /// The crate a workspace-relative source path belongs to, by
    /// longest directory prefix. Files outside every crate directory
    /// (e.g. self-test fixtures without a manifest) return `None`.
    pub fn crate_for_path<'a>(&'a self, rel_path: &str) -> Option<&'a CrateNode> {
        let mut best: Option<&CrateNode> = None;
        for node in self.crates.values() {
            let matches = if node.dir.is_empty() {
                // Root package: only its own src/ tree, not crates/*.
                rel_path.starts_with("src/") || rel_path.starts_with("tests/")
            } else {
                rel_path.starts_with(&format!("{}/", node.dir))
            };
            if matches && best.is_none_or(|b| node.dir.len() > b.dir.len()) {
                best = Some(node);
            }
        }
        best
    }
}

/// Parses an in-memory manifest — the unit-test / `analyze_sources`
/// entry point.
pub fn parse_manifest_str(rel_path: &str, text: &str, vendor: bool) -> Option<CrateNode> {
    parse_manifest(rel_path, text, vendor)
}

/// Parses one manifest's `[package] name` and dependency sections.
fn parse_manifest(rel_path: &str, text: &str, vendor: bool) -> Option<CrateNode> {
    let mut section = String::new();
    let mut name: Option<String> = None;
    let mut deps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        // `taster-sim.workspace = true` puts the dotted key form in
        // `key`; the dep name is the segment before the first dot.
        let key = key.trim();
        let dep_name = key.split('.').next().unwrap_or(key).trim_matches('"');
        if section == "package" && key == "name" {
            name = Some(value.trim().trim_matches('"').to_string());
        } else if section == "dependencies" || section == "dev-dependencies" {
            deps.push(DepEdge {
                name: dep_name.to_string(),
                line: idx + 1,
                snippet: line.to_string(),
                dev: section == "dev-dependencies",
            });
        }
    }
    let dir = rel_path
        .strip_suffix("/Cargo.toml")
        .unwrap_or("")
        .to_string();
    Some(CrateNode {
        name: name?,
        dir,
        manifest_path: rel_path.to_string(),
        vendor,
        deps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parsing_reads_name_and_dep_forms() {
        let node = parse_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"taster-x\"\n\n[dependencies]\n\
             taster-domain.workspace = true\n\
             rand = { path = \"../../vendor/rand\" }\n\n\
             [dev-dependencies]\nproptest.workspace = true\n",
            false,
        )
        .expect("parses");
        assert_eq!(node.name, "taster-x");
        assert_eq!(node.dir, "crates/x");
        let names: Vec<_> = node.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["taster-domain", "rand", "proptest"]);
        assert!(node.deps.iter().any(|d| d.dev && d.name == "proptest"));
    }

    #[test]
    fn workspace_dependency_tables_are_not_dep_edges() {
        let node = parse_manifest(
            "Cargo.toml",
            "[package]\nname = \"taster\"\n\n[workspace.dependencies]\n\
             taster-sim = { path = \"crates/sim\" }\n\n[dependencies]\n\
             taster-core.workspace = true\n",
            false,
        )
        .expect("parses");
        let names: Vec<_> = node.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["taster-core"]);
    }

    #[test]
    fn every_declared_layer_crate_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (_, crates) in LAYERS {
            for c in *crates {
                assert!(seen.insert(*c), "{c} appears in two layers");
            }
        }
        assert_eq!(layer_of("taster-sim").map(|(i, _)| i), Some(1));
        assert_eq!(layer_of("rand"), None);
    }
}
