//! `unsorted-iteration`: hash order must not reach emitted bytes.
//!
//! `FxHashMap`/`FxHashSet` hash deterministically, but their iteration
//! order is *insertion*-order-dependent — refactor a caller and the
//! bytes of every report move. The render/report/serve layers
//! therefore sort (or collect into ordered containers) before
//! emitting. This rule finds iteration over hash containers inside
//! **sink scopes** — rendering/reporting/export files and functions
//! whose name marks them as emitters — with no ordering evidence in
//! the enclosing function.
//!
//! Detection is binding-based: a file-local table of identifiers whose
//! declared type or initializer names `FxHashMap`/`FxHashSet` (lets,
//! params, struct fields alike), then `.iter()`/`.keys()`/`.values()`
//! /`for … in …` over those bindings. A function containing any
//! sort/ordered-collect token (`sort*`, `BTreeMap`, `BTreeSet`,
//! `binary_heap`) is taken to have handled ordering — conservative on
//! purpose: this rule must stay near-zero-FP to stay enforceable.

use super::{diag, Diagnostic};
use crate::lexer::{Token, TokenKind};
use crate::parser::ItemTree;
use crate::source::SourceFile;

/// A file-local binding whose type or initializer names a hash
/// container.
#[derive(Debug, Clone)]
pub(crate) struct FxBinding {
    /// Binding identifier (let, param, or struct field name).
    pub name: String,
    /// True when the container's value type names `f64`/`f32`.
    pub holds_float: bool,
}

/// Collects hash-container bindings by walking back from each
/// `FxHashMap`/`FxHashSet` type token to the identifier it binds.
pub(crate) fn fx_bindings(file: &SourceFile) -> Vec<FxBinding> {
    let t = &file.lexed.tokens;
    let mut out: Vec<FxBinding> = Vec::new();
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind != TokenKind::Ident || !(tok.text == "FxHashMap" || tok.text == "FxHashSet") {
            continue;
        }
        // Value-type float evidence: scan the generic argument list.
        let holds_float = generic_args_name_float(t, i + 1);
        // Walk back over type sugar to the binding identifier:
        //   `name : & mut FxHashMap<…>`  |  `name = FxHashMap::default()`
        let mut j = i;
        let mut found: Option<String> = None;
        while j > 0 {
            j -= 1;
            let back = &t[j];
            if back.is_punct('&') || back.is_punct('<') || back.kind == TokenKind::Lifetime {
                continue;
            }
            if back.is_ident("mut") || back.is_ident("dyn") {
                continue;
            }
            if back.is_punct(':') || back.is_punct('=') {
                // `::` is a path separator, not a type annotation.
                if back.is_punct(':') && j > 0 && t[j - 1].is_punct(':') {
                    break;
                }
                if let Some(prev) = t.get(j.wrapping_sub(1)) {
                    if prev.kind == TokenKind::Ident && !prev.is_ident("let") {
                        found = Some(prev.text.clone());
                    }
                }
            }
            break;
        }
        if let Some(name) = found {
            if let Some(existing) = out.iter_mut().find(|b| b.name == name) {
                existing.holds_float |= holds_float;
            } else {
                out.push(FxBinding { name, holds_float });
            }
        }
    }
    out
}

/// True when the generic argument list starting at `<` (token `open`)
/// names `f64`/`f32` before closing.
fn generic_args_name_float(t: &[Token], open: usize) -> bool {
    if !t.get(open).is_some_and(|x| x.is_punct('<')) {
        return false;
    }
    let mut depth = 0i32;
    for tok in t.get(open..).into_iter().flatten().take(48) {
        if tok.is_punct('<') {
            depth += 1;
        } else if tok.is_punct('>') {
            depth -= 1;
            if depth <= 0 {
                return false;
            }
        } else if tok.is_ident("f64") || tok.is_ident("f32") {
            return true;
        }
    }
    false
}

/// Sink-file heuristic: paths whose module names mark them as
/// rendering/reporting/export/serve-response code.
fn sink_file(path: &str) -> bool {
    let in_serve = path.starts_with("crates/serve/src/");
    let stem_sink = path.rsplit('/').next().is_some_and(|f| {
        f.starts_with("render") || f.starts_with("report") || f.starts_with("export")
    });
    in_serve || stem_sink
}

/// Sink-function heuristic: emitter names.
pub(crate) fn sink_fn(name: &str) -> bool {
    let last = name.rsplit("::").next().unwrap_or(name);
    [
        "render",
        "report",
        "write",
        "emit",
        "format",
        "serialize",
        "to_json",
        "to_text",
        "to_tsv",
    ]
    .iter()
    .any(|p| last.starts_with(p))
}

/// Ordering evidence inside a token window: any sort call or ordered
/// container.
fn has_ordering_evidence(t: &[Token]) -> bool {
    t.iter().any(|tok| {
        tok.kind == TokenKind::Ident
            && (tok.text.starts_with("sort") || tok.text == "BTreeMap" || tok.text == "BTreeSet")
    })
}

pub(crate) fn check(file: &SourceFile, items: &ItemTree, out: &mut Vec<Diagnostic>) {
    let file_is_sink = sink_file(&file.path);
    let bindings = fx_bindings(file);
    if bindings.is_empty() {
        return;
    }
    let t = &file.lexed.tokens;
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind != TokenKind::Ident || file.in_cfg_test(tok.line) {
            continue;
        }
        let Some(binding) = iterated_binding(t, i, &bindings) else {
            continue;
        };
        let func = items.enclosing_fn(tok.line).unwrap_or_default();
        if !(file_is_sink || sink_fn(&func)) {
            continue;
        }
        // Ordering evidence anywhere in the enclosing function body
        // clears the whole function.
        let fn_window = enclosing_fn_window(items, t, tok.line);
        if has_ordering_evidence(fn_window) {
            continue;
        }
        out.push(diag(
            file,
            "unsorted-iteration",
            tok.line,
            format!(
                "iteration over hash-ordered `{binding}` in rendering/reporting code with \
                 no sort in the enclosing function; sort the entries (or collect into a \
                 BTreeMap) before emitting"
            ),
        ));
    }
}

/// If token `i` starts an iteration over a known hash binding, the
/// binding's name: `B.iter()` / `B.keys()` / `B.values()` /
/// `B.iter_mut()` / `for … in [&]B`.
fn iterated_binding<'a>(t: &[Token], i: usize, bindings: &'a [FxBinding]) -> Option<&'a str> {
    let tok = t.get(i)?;
    let known = |name: &str| {
        bindings
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.name.as_str())
    };
    // `B . iter ( )` — receiver just before the dot (possibly after
    // `self .`).
    if matches!(tok.text.as_str(), "iter" | "iter_mut" | "keys" | "values")
        && i >= 2
        && t[i - 1].is_punct('.')
        && t.get(i + 1).is_some_and(|n| n.is_punct('('))
        && t[i - 2].kind == TokenKind::Ident
    {
        return known(&t[i - 2].text);
    }
    // `for pat in & B {` / `for pat in B {`
    if tok.is_ident("in") {
        let mut j = i + 1;
        if t.get(j).is_some_and(|n| n.is_punct('&')) {
            j += 1;
        }
        if t.get(j).is_some_and(|n| n.is_ident("mut")) {
            j += 1;
        }
        let recv = t.get(j)?;
        if recv.kind == TokenKind::Ident && t.get(j + 1).is_some_and(|n| n.is_punct('{')) {
            return known(&recv.text);
        }
        // `for pat in self.B {` / `for pat in &self.B {`
        if recv.is_ident("self")
            && t.get(j + 1).is_some_and(|n| n.is_punct('.'))
            && t.get(j + 3).is_some_and(|n| n.is_punct('{'))
        {
            if let Some(field) = t.get(j + 2) {
                return known(&field.text);
            }
        }
    }
    None
}

/// The token slice of the innermost function containing `line`; the
/// whole file when the line is outside any function.
fn enclosing_fn_window<'a>(items: &ItemTree, t: &'a [Token], line: usize) -> &'a [Token] {
    fn find(items: &[crate::parser::Item], line: usize) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for item in items {
            if line < item.line || line > item.end_line {
                continue;
            }
            if item.kind == crate::parser::ItemKind::Fn {
                best = Some((item.line, item.end_line));
            }
            if let Some(inner) = find(&item.children, line) {
                best = Some(inner);
            }
        }
        best
    }
    match find(&items.items, line) {
        Some((start, end)) => {
            let from = t.partition_point(|tok| tok.line < start);
            let to = t.partition_point(|tok| tok.line <= end);
            t.get(from..to).unwrap_or(t)
        }
        None => t,
    }
}
