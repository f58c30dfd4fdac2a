//! A recursive-descent **item** parser over the token stream.
//!
//! The graph/flow rules need just enough structure to answer three
//! questions the flat token stream cannot: *which function* does a
//! token live in (keyed-RNG collision contexts), *which crates* does a
//! file reference (`use` edges for the layering rule), and *what does
//! a `const` name resolve to* (stage-registry completeness). So we
//! parse items — `mod`, `fn`, `impl`, `trait`, `struct`, `enum`,
//! `use`, `const`/`static`, `macro_rules!` — with line spans and
//! nesting, and deliberately nothing below statement level. Bodies are
//! scanned only for *nested items*; expressions stay opaque. Like the
//! lexer, the parser degrades gracefully: source that does not parse
//! as Rust yields a partial tree, never an error — rustc owns syntax
//! diagnostics.

use crate::lexer::{Lexed, Token, TokenKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `fn name(…) { … }` (free, impl-level, or trait-level)
    Fn,
    /// `impl Type { … }` / `impl Trait for Type { … }`
    Impl,
    /// `trait Name { … }`
    Trait,
    /// `struct` / `enum` / `union` declaration
    Type,
    /// `use path::to::thing;`
    Use,
    /// `const NAME: T = …;` or `static NAME: T = …;`
    Const,
    /// `macro_rules! name { … }`
    Macro,
}

/// One parsed item with its span and nested children.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Declared name. For `use` items, the full path text with spaces
    /// between segments (`taster_sim :: rng :: RngStream`); for
    /// `impl`, the implemented type's name.
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: usize,
    /// 1-based line of the item's final token (`;` or closing `}`).
    pub end_line: usize,
    /// For string `const`/`static` items: the literal value.
    pub str_value: Option<String>,
    /// Items nested inside this one's body.
    pub children: Vec<Item>,
}

/// The item tree for one source file.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Parses the item structure out of a lexed file.
    pub fn parse(lexed: &Lexed) -> ItemTree {
        let mut i = 0usize;
        ItemTree {
            items: parse_seq(&lexed.tokens, &mut i, false),
        }
    }

    /// Name of the innermost `fn` whose span contains `line`, with the
    /// enclosing item path joined by `::` (`Imp::render`, `tests::go`).
    /// `None` when the line is outside every function body.
    pub fn enclosing_fn(&self, line: usize) -> Option<String> {
        fn walk(items: &[Item], line: usize, path: &mut Vec<String>, best: &mut Option<String>) {
            for item in items {
                if line < item.line || line > item.end_line {
                    continue;
                }
                path.push(item.name.clone());
                if item.kind == ItemKind::Fn {
                    *best = Some(path.join("::"));
                }
                walk(&item.children, line, path, best);
                path.pop();
            }
        }
        let mut best = None;
        walk(&self.items, line, &mut Vec::new(), &mut best);
        best
    }

    /// All string-valued `const`/`static` items, flattened, as
    /// `(name, value)` pairs in source order.
    pub fn str_consts(&self) -> Vec<(&str, &str)> {
        fn walk<'a>(items: &'a [Item], out: &mut Vec<(&'a str, &'a str)>) {
            for item in items {
                if item.kind == ItemKind::Const {
                    if let Some(v) = &item.str_value {
                        out.push((item.name.as_str(), v.as_str()));
                    }
                }
                walk(&item.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.items, &mut out);
        out
    }
}

/// Parses a sequence of items until end of input or — when `in_block`
/// — the matching `}` (consumed). Non-item tokens are skipped with
/// brace-depth tracking so statement-level blocks inside fn bodies do
/// not terminate the sequence early.
fn parse_seq(t: &[Token], i: &mut usize, in_block: bool) -> Vec<Item> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    while *i < t.len() {
        let Some(tok) = t.get(*i) else { break };
        if tok.is_punct('{') {
            depth += 1;
            *i += 1;
            continue;
        }
        if tok.is_punct('}') {
            if depth > 0 {
                depth -= 1;
                *i += 1;
                continue;
            }
            if in_block {
                *i += 1;
            }
            return items;
        }
        // Attributes: `#[…]` / `#![…]` — skip balanced brackets.
        if tok.is_punct('#') {
            *i += 1;
            if t.get(*i).is_some_and(|n| n.is_punct('!')) {
                *i += 1;
            }
            if t.get(*i).is_some_and(|n| n.is_punct('[')) {
                skip_balanced(t, i, '[', ']');
            }
            continue;
        }
        if tok.kind != TokenKind::Ident {
            *i += 1;
            continue;
        }
        match tok.text.as_str() {
            // Visibility / qualifiers before an item keyword.
            "pub" => {
                *i += 1;
                if t.get(*i).is_some_and(|n| n.is_punct('(')) {
                    skip_balanced(t, i, '(', ')');
                }
            }
            "unsafe" | "async" | "extern" | "default" => *i += 1,
            "mod" => {
                if let Some(item) = parse_mod(t, i) {
                    items.push(item);
                }
            }
            "fn" => {
                if let Some(item) = parse_fn(t, i) {
                    items.push(item);
                } else {
                    // `fn` in type position (`fn(u32) -> u32`).
                    *i += 1;
                }
            }
            "impl" | "trait" => {
                let kind = if tok.text == "impl" {
                    ItemKind::Impl
                } else {
                    ItemKind::Trait
                };
                if let Some(item) = parse_impl_like(t, i, kind) {
                    items.push(item);
                }
            }
            "struct" | "enum" | "union" => {
                if let Some(item) = parse_type_decl(t, i) {
                    items.push(item);
                } else {
                    *i += 1;
                }
            }
            "use" => {
                if let Some(item) = parse_use(t, i) {
                    items.push(item);
                }
            }
            "const" | "static" => {
                if let Some(item) = parse_const(t, i) {
                    items.push(item);
                }
            }
            "macro_rules" => {
                if let Some(item) = parse_macro_rules(t, i) {
                    items.push(item);
                }
            }
            _ => *i += 1,
        }
    }
    items
}

/// `mod name;` or `mod name { items… }`.
fn parse_mod(t: &[Token], i: &mut usize) -> Option<Item> {
    let start = t.get(*i)?.line;
    *i += 1;
    let name_tok = t.get(*i)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    *i += 1;
    match t.get(*i) {
        Some(n) if n.is_punct(';') => {
            let end = n.line;
            *i += 1;
            Some(item(ItemKind::Mod, name, start, end, Vec::new()))
        }
        Some(n) if n.is_punct('{') => {
            *i += 1;
            let children = parse_seq(t, i, true);
            let end = t.get(i.saturating_sub(1)).map_or(start, |x| x.line);
            Some(item(ItemKind::Mod, name, start, end, children))
        }
        _ => None,
    }
}

/// `fn name …(…) … { body }` or a bodyless trait/extern signature.
/// Returns `None` when `fn` is not followed by a name (fn-pointer
/// type), leaving `i` untouched.
fn parse_fn(t: &[Token], i: &mut usize) -> Option<Item> {
    let start = t.get(*i)?.line;
    let name_tok = t.get(*i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    *i += 2;
    // Scan the signature (generics, params, return type, where-clause)
    // for the body `{` or a terminating `;`, tracking paren/bracket
    // depth so `fn(…)` types and defaulted generics don't confuse us.
    let mut paren = 0usize;
    while *i < t.len() {
        let tok = t.get(*i)?;
        if tok.is_punct('(') || tok.is_punct('[') {
            paren += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            paren = paren.saturating_sub(1);
        } else if paren == 0 && tok.is_punct(';') {
            let end = tok.line;
            *i += 1;
            return Some(item(ItemKind::Fn, name, start, end, Vec::new()));
        } else if paren == 0 && tok.is_punct('{') {
            *i += 1;
            let children = parse_seq(t, i, true);
            let end = t.get(i.saturating_sub(1)).map_or(start, |x| x.line);
            return Some(item(ItemKind::Fn, name, start, end, children));
        }
        *i += 1;
    }
    None
}

/// `impl … Type { … }`, `impl Trait for Type { … }`, `trait Name { … }`.
fn parse_impl_like(t: &[Token], i: &mut usize, kind: ItemKind) -> Option<Item> {
    let start = t.get(*i)?.line;
    *i += 1;
    // Header: everything up to the body `{` (or `;` for `impl Trait
    // for Type;`-style marker impls). Remember idents so the name can
    // be the type after `for` when present.
    let mut idents: Vec<String> = Vec::new();
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut paren = 0usize;
    while *i < t.len() {
        let tok = t.get(*i)?;
        if tok.is_punct('(') || tok.is_punct('[') {
            paren += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            paren = paren.saturating_sub(1);
        } else if paren == 0 && tok.is_punct(';') {
            let end = tok.line;
            *i += 1;
            let name = pick_impl_name(after_for, idents);
            return Some(item(kind, name, start, end, Vec::new()));
        } else if paren == 0 && tok.is_punct('{') {
            *i += 1;
            let children = parse_seq(t, i, true);
            let end = t.get(i.saturating_sub(1)).map_or(start, |x| x.line);
            let name = pick_impl_name(after_for, idents);
            return Some(item(kind, name, start, end, children));
        } else if tok.kind == TokenKind::Ident {
            if tok.text == "for" {
                saw_for = true;
            } else if tok.text != "where" && tok.text != "dyn" && tok.text != "impl" {
                if saw_for && after_for.is_none() {
                    after_for = Some(tok.text.clone());
                }
                idents.push(tok.text.clone());
            }
        }
        *i += 1;
    }
    None
}

fn pick_impl_name(after_for: Option<String>, idents: Vec<String>) -> String {
    after_for
        .or_else(|| idents.into_iter().next())
        .unwrap_or_default()
}

/// `struct`/`enum`/`union` with `;`, tuple-struct `(…);`, or `{ … }`
/// body (fields/variants — not recursed into; they hold no items).
fn parse_type_decl(t: &[Token], i: &mut usize) -> Option<Item> {
    let start = t.get(*i)?.line;
    let name_tok = t.get(*i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    *i += 2;
    let mut paren = 0usize;
    while *i < t.len() {
        let tok = t.get(*i)?;
        if tok.is_punct('(') || tok.is_punct('[') {
            paren += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            paren = paren.saturating_sub(1);
        } else if paren == 0 && tok.is_punct(';') {
            let end = tok.line;
            *i += 1;
            return Some(item(ItemKind::Type, name, start, end, Vec::new()));
        } else if paren == 0 && tok.is_punct('{') {
            let end = skip_balanced(t, i, '{', '}');
            return Some(item(ItemKind::Type, name, start, end, Vec::new()));
        }
        *i += 1;
    }
    None
}

/// `use path::to::{a, b};` — name is the whole path text, space-joined.
fn parse_use(t: &[Token], i: &mut usize) -> Option<Item> {
    let start = t.get(*i)?.line;
    *i += 1;
    let mut parts: Vec<&str> = Vec::new();
    let mut end = start;
    while *i < t.len() {
        let tok = t.get(*i)?;
        if tok.is_punct(';') {
            end = tok.line;
            *i += 1;
            break;
        }
        parts.push(tok.text.as_str());
        end = tok.line;
        *i += 1;
    }
    Some(item(ItemKind::Use, parts.join(" "), start, end, Vec::new()))
}

/// `const NAME: T = value;` — captures the value when it is a single
/// string literal (the shape every stage/stream key const takes).
fn parse_const(t: &[Token], i: &mut usize) -> Option<Item> {
    let start = t.get(*i)?.line;
    let name_tok = t.get(*i + 1)?;
    // `static mut NAME` / `const fn` are not const items we track.
    if name_tok.kind != TokenKind::Ident || name_tok.text == "fn" || name_tok.text == "mut" {
        *i += 1;
        return None;
    }
    let name = name_tok.text.clone();
    *i += 2;
    let mut value: Option<String> = None;
    let mut literal_count = 0usize;
    let mut end = start;
    let mut depth = 0usize;
    while *i < t.len() {
        let tok = t.get(*i)?;
        if tok.is_punct('{') || tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct('}') || tok.is_punct(')') || tok.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && tok.is_punct(';') {
            end = tok.line;
            *i += 1;
            break;
        } else if tok.kind == TokenKind::Literal {
            if let Some(content) = tok.str_content() {
                value = Some(content.to_string());
            }
            literal_count += 1;
        }
        end = tok.line;
        *i += 1;
    }
    // Only a *lone* string literal counts as the const's value; arrays
    // of literals (registries) must not resolve to their last element.
    let str_value = if literal_count == 1 { value } else { None };
    Some(Item {
        kind: ItemKind::Const,
        name,
        line: start,
        end_line: end,
        str_value,
        children: Vec::new(),
    })
}

/// `macro_rules! name { … }`.
fn parse_macro_rules(t: &[Token], i: &mut usize) -> Option<Item> {
    let start = t.get(*i)?.line;
    *i += 1;
    if t.get(*i).is_some_and(|n| n.is_punct('!')) {
        *i += 1;
    }
    let name = match t.get(*i) {
        Some(n) if n.kind == TokenKind::Ident => {
            let s = n.text.clone();
            *i += 1;
            s
        }
        _ => String::new(),
    };
    let end = if t.get(*i).is_some_and(|n| n.is_punct('{')) {
        skip_balanced(t, i, '{', '}')
    } else {
        start
    };
    Some(item(ItemKind::Macro, name, start, end, Vec::new()))
}

/// Skips a balanced `open…close` group starting at `t[*i] == open`;
/// returns the line of the closing token (or the last token seen).
fn skip_balanced(t: &[Token], i: &mut usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut last_line = t.get(*i).map_or(1, |tok| tok.line);
    while *i < t.len() {
        let Some(tok) = t.get(*i) else { break };
        last_line = tok.line;
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                *i += 1;
                return last_line;
            }
        }
        *i += 1;
    }
    last_line
}

fn item(kind: ItemKind, name: String, line: usize, end_line: usize, children: Vec<Item>) -> Item {
    Item {
        kind,
        name,
        line,
        end_line,
        str_value: None,
        children,
    }
}
