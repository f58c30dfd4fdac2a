//! Unit coverage for the analyzer's front half: the lexer's literal
//! handling, the item parser, and the crate graph helpers the
//! workspace rules are built on.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster_lint::graph::{layer_of, parse_manifest_str, CrateGraph};
use taster_lint::lexer::lex;
use taster_lint::parser::ItemTree;

fn parse(src: &str) -> ItemTree {
    ItemTree::parse(&lex(src))
}

// --------------------------------------------------------------- lexer

#[test]
fn string_literals_keep_their_content() {
    let lexed = lex("const A: &str = \"plain\";\nconst B: &str = r#\"raw \"x\"\"#;\n");
    let contents: Vec<&str> = lexed
        .tokens
        .iter()
        .filter_map(|t| t.str_content())
        .collect();
    assert_eq!(contents, ["plain", "raw \"x\""]);
}

#[test]
fn char_literals_are_not_string_content() {
    let lexed = lex("const C: char = 'x';\nconst L: &'static str = \"s\";\n");
    let contents: Vec<&str> = lexed
        .tokens
        .iter()
        .filter_map(|t| t.str_content())
        .collect();
    assert_eq!(
        contents,
        ["s"],
        "char and lifetime must not leak as strings"
    );
}

// -------------------------------------------------------------- parser

#[test]
fn enclosing_fn_reports_the_nested_path() {
    let src = "mod outer {\n\
               \x20   pub fn f() {\n\
               \x20       let x = 1;\n\
               \x20   }\n\
               }\n\
               pub fn top() {}\n";
    let tree = parse(src);
    assert_eq!(tree.enclosing_fn(3).as_deref(), Some("outer::f"));
    assert_eq!(tree.enclosing_fn(6).as_deref(), Some("top"));
    assert_eq!(tree.enclosing_fn(1), None, "mod line is outside any fn");
}

#[test]
fn enclosing_fn_sees_impl_methods() {
    let src = "pub struct S;\n\
               impl S {\n\
               \x20   pub fn method(&self) {\n\
               \x20       let y = 2;\n\
               \x20   }\n\
               }\n";
    assert_eq!(parse(src).enclosing_fn(4).as_deref(), Some("S::method"));
}

#[test]
fn str_consts_only_resolve_lone_literals() {
    let src = "pub const NAME: &str = \"alpha\";\n\
               pub const KEYS: [&str; 2] = [\"a\", \"b\"];\n\
               pub const N: usize = 3;\n";
    let tree = parse(src);
    assert_eq!(
        tree.str_consts(),
        [("NAME", "alpha")],
        "arrays and numbers must not resolve"
    );
}

#[test]
fn parser_survives_unbalanced_source() {
    // Degrade, don't panic: an unclosed brace truncates the tree.
    let tree = parse("pub fn broken() {\n    let x = (1;\n");
    assert_eq!(tree.items.len(), 1);
    assert_eq!(tree.enclosing_fn(2).as_deref(), Some("broken"));
}

// --------------------------------------------------------------- graph

#[test]
fn manifest_parsing_separates_dev_deps() {
    let node = parse_manifest_str(
        "crates/x/Cargo.toml",
        "[package]\nname = \"taster-x\"\n\n[dependencies]\ntaster-domain.workspace = true\n\n\
         [dev-dependencies]\ntaster-sim.workspace = true\n",
        false,
    )
    .unwrap();
    assert_eq!(node.name, "taster-x");
    assert_eq!(node.dir, "crates/x");
    let (dev, normal): (Vec<_>, Vec<_>) = node.deps.iter().partition(|d| d.dev);
    assert_eq!(normal.len(), 1);
    assert_eq!(normal[0].name, "taster-domain");
    assert_eq!(dev.len(), 1);
    assert_eq!(dev[0].name, "taster-sim");
}

#[test]
fn crate_for_path_prefers_the_longest_prefix() {
    let mut graph = CrateGraph::default();
    for (rel, name) in [
        ("Cargo.toml", "taster"),
        ("crates/sim/Cargo.toml", "taster-sim"),
    ] {
        let node =
            parse_manifest_str(rel, &format!("[package]\nname = \"{name}\"\n"), false).unwrap();
        graph.crates.insert(node.name.clone(), node);
    }
    assert_eq!(
        graph
            .crate_for_path("crates/sim/src/rng.rs")
            .map(|n| n.name.as_str()),
        Some("taster-sim")
    );
    assert_eq!(
        graph
            .crate_for_path("src/bin/taster.rs")
            .map(|n| n.name.as_str()),
        Some("taster"),
        "root package owns src/ only"
    );
    assert!(graph.crate_for_path("crates/other/src/lib.rs").is_none());
}

#[test]
fn layers_order_foundation_to_app() {
    let domain = layer_of("taster-domain").unwrap().0;
    let sim = layer_of("taster-sim").unwrap().0;
    let app = layer_of("taster").unwrap().0;
    assert!(domain < sim && sim < app);
    assert!(layer_of("serde").is_none());
}
