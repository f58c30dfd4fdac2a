//! `float-accum`: float addition is not associative.
//!
//! Summing `f64`s in hash-iteration order produces a value that
//! depends on insertion history — two runs that insert the same
//! entries in different orders can disagree in the last ulp, and that
//! ulp lands in report bytes. Integer sums commute exactly, so this
//! rule demands *float* evidence before firing: the accumulation
//! statement (or the hash binding's declared value type) must name
//! `f64`/`f32`. Fires anywhere in lib/bin code, not just sinks — an
//! order-sensitive total is wrong wherever it is computed.

use super::iteration::fx_bindings;
use super::{diag, Diagnostic};
use crate::lexer::TokenKind;
use crate::parser::ItemTree;
use crate::source::SourceFile;

pub(crate) fn check(file: &SourceFile, _items: &ItemTree, out: &mut Vec<Diagnostic>) {
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
        let is_accum = (tok.text == "sum" || tok.text == "fold" || tok.text == "product")
            && i > 0
            && t[i - 1].is_punct('.')
            && t.get(i + 1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
        if !is_accum {
            continue;
        }
        // The statement window: back to the previous `;`/`{`/`}`,
        // forward to the next `;`.
        let start = (0..i)
            .rev()
            .find(|&j| t[j].is_punct(';') || t[j].is_punct('{') || t[j].is_punct('}'));
        let start = start.map_or(0, |j| j + 1);
        let end = (i..t.len())
            .find(|&j| t[j].is_punct(';'))
            .unwrap_or(t.len().saturating_sub(1));
        let Some(window) = t.get(start..=end) else {
            continue;
        };
        // The chain must start from hash iteration over a known
        // binding…
        let Some(binding) = window.iter().enumerate().find_map(|(w, wt)| {
            (wt.kind == TokenKind::Ident
                && matches!(wt.text.as_str(), "iter" | "values" | "keys")
                && w >= 2
                && window[w - 1].is_punct('.')
                && window[w - 2].kind == TokenKind::Ident)
                .then(|| &window[w - 2].text)
                .and_then(|name| bindings.iter().find(|b| b.name == *name))
        }) else {
            continue;
        };
        // …with float evidence and no ordering evidence in between.
        let names_float = window
            .iter()
            .any(|wt| wt.is_ident("f64") || wt.is_ident("f32"));
        if !(names_float || binding.holds_float) {
            continue;
        }
        if window.iter().any(|wt| {
            wt.kind == TokenKind::Ident
                && (wt.text.starts_with("sort") || wt.text == "BTreeMap" || wt.text == "BTreeSet")
        }) {
            continue;
        }
        out.push(diag(
            file,
            "float-accum",
            tok.line,
            format!(
                "float `{}` over hash-ordered `{}`; the result depends on insertion \
                 order — sort the values (or accumulate over an ordered container) first",
                tok.text, binding.name
            ),
        ));
    }
}
