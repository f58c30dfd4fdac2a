//! `rng-key-collision`: keyed-stream derivation discipline.
//!
//! Every RNG stream is named by `(master seed, key string)`, so two
//! call sites deriving from the same key get the *same* stream — fine
//! when deliberate (the replay passes in `ecosystem` re-derive their
//! generation streams by construction), silently correlated randomness
//! when accidental. The collision check therefore flags exactly the
//! two shapes that are never deliberate:
//!
//! 1. the same key derived in **two different crates** (no shared
//!    replay contract can exist across a crate boundary), and
//! 2. the same key derived **twice inside one function** (within a
//!    single body, a repeat is either a copy-paste slip or wants an
//!    index/child derivation).
//!
//! Same-crate, cross-function repeats — the replay pattern — pass.
//!
//! A key is the argument of `RngStream::new`, `.child(…)` or
//! `name_key(…)` that is a lone string literal, or a `SCREAMING_CASE`
//! name bound by `const NAME: &str = "…"` (or `&'static str`). A name
//! resolves to its definition in the same file, else in the same
//! crate, else the first in path order. A site's function is the
//! innermost `fn` body holding it, found by a brace-depth scan of the
//! tokens.

use std::collections::BTreeMap;

use super::{Diagnostic, FileAnalysis};
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// How a derivation site names its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyArg {
    /// A string literal's content.
    Literal(String),
    /// A constant, by the last segment of its path.
    Const(String),
}

/// One keyed derivation site.
#[derive(Debug, Clone)]
pub struct KeySite {
    /// The key argument.
    pub arg: KeyArg,
    /// 1-based line.
    pub line: usize,
    /// The innermost enclosing `fn`: its name and the token index of
    /// its body's `{`, which tells same-named functions apart. `None`
    /// at item level.
    pub func: Option<(String, usize)>,
}

/// One `const NAME: &str = "…";` definition.
#[derive(Debug, Clone)]
pub struct StrConst {
    /// The constant's name.
    pub name: String,
    /// The literal's content.
    pub value: String,
}

/// Collects key sites and string constants from one file's non-test
/// code.
pub(crate) fn collect(file: &SourceFile) -> (Vec<KeySite>, Vec<StrConst>) {
    let t = &file.lexed.tokens;
    let bodies = fn_bodies(t);
    let mut keys = Vec::new();
    let mut consts = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.in_cfg_test(tok.line) {
            continue;
        }
        if let Some(c) = str_const(t, i) {
            consts.push(c);
            continue;
        }
        let is_key_callee = t.get(i + 1).is_some_and(|n| n.is_punct('('))
            && match tok.text.as_str() {
                "name_key" => true,
                "child" => i > 0 && t[i - 1].is_punct('.'),
                "new" => {
                    i >= 3
                        && t[i - 3].is_ident("RngStream")
                        && t[i - 2].is_punct(':')
                        && t[i - 1].is_punct(':')
                }
                _ => false,
            };
        if !is_key_callee {
            continue;
        }
        if let Some(arg) = key_arg(t, i + 1) {
            let func = bodies
                .iter()
                .filter(|b| b.open < i && i < b.close)
                .max_by_key(|b| b.open)
                .map(|b| (b.name.clone(), b.open));
            keys.push(KeySite {
                arg,
                line: tok.line,
                func,
            });
        }
    }
    (keys, consts)
}

/// `const NAME: &str = "…";` or `const NAME: &'static str = "…";`
/// starting at token `i`.
fn str_const(t: &[Token], i: usize) -> Option<StrConst> {
    let name = t.get(i + 1).filter(|n| n.kind == TokenKind::Ident)?;
    if !t[i].is_ident("const") || !t.get(i + 2)?.is_punct(':') || !t.get(i + 3)?.is_punct('&') {
        return None;
    }
    let mut j = i + 4;
    if t.get(j)?.kind == TokenKind::Lifetime {
        j += 1;
    }
    if !t.get(j)?.is_ident("str") || !t.get(j + 1)?.is_punct('=') || !t.get(j + 3)?.is_punct(';') {
        return None;
    }
    Some(StrConst {
        name: name.text.clone(),
        value: t.get(j + 2)?.str_content()?.to_string(),
    })
}

/// The key argument of the call whose `(` sits at token `open`: the
/// first top-level argument that [`arg_key`] reads. Literals inside
/// nested calls (`format!("…")`) are *not* keys — dynamic key
/// construction is out of scope by design.
fn key_arg(t: &[Token], open: usize) -> Option<KeyArg> {
    let mut depth = 0usize;
    let mut start = open + 1;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return arg_key(&t[start..j]);
            }
        } else if depth == 1 && tok.is_punct(',') {
            if let Some(key) = arg_key(&t[start..j]) {
                return Some(key);
            }
            start = j + 1;
        }
    }
    None
}

/// One argument's key: a lone string literal, or a path (`NAME`,
/// `module::NAME`) ending in a `SCREAMING_CASE` name.
fn arg_key(arg: &[Token]) -> Option<KeyArg> {
    if let [lit] = arg {
        if let Some(key) = lit.str_content() {
            return Some(KeyArg::Literal(key.to_string()));
        }
    }
    let is_path = arg.len() % 3 == 1
        && arg.iter().enumerate().all(|(k, tok)| {
            if k % 3 == 0 {
                tok.kind == TokenKind::Ident
            } else {
                tok.is_punct(':')
            }
        });
    let name = &arg.last()?.text;
    let screaming = name.bytes().any(|b| b.is_ascii_uppercase())
        && name
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_');
    (is_path && screaming).then(|| KeyArg::Const(name.clone()))
}

/// One `fn` body: the function's name and the token indices of the
/// body's braces.
struct FnBody {
    name: String,
    open: usize,
    close: usize,
}

/// Every `fn` body in a token stream. A `fn NAME` opens its body at
/// the first `{` at its own paren depth, unless a `;` there ends the
/// signature first (a trait or extern declaration); the body closes
/// at the matching `}`.
fn fn_bodies(t: &[Token]) -> Vec<FnBody> {
    let mut bodies = Vec::new();
    // Open braces, each with the name of the fn whose body it opens.
    let mut braces: Vec<(usize, Option<String>)> = Vec::new();
    // A signature waiting for its body: the fn's name and paren depth.
    let mut pending: Option<(String, usize)> = None;
    let mut parens = 0usize;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("fn") {
            if let Some(name) = t.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                pending = Some((name.text.clone(), parens));
            }
        } else if tok.is_punct('(') || tok.is_punct('[') {
            parens += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            parens = parens.saturating_sub(1);
        } else if tok.is_punct(';') && pending.as_ref().is_some_and(|p| p.1 == parens) {
            pending = None;
        } else if tok.is_punct('{') {
            let name = pending.take_if(|p| p.1 == parens).map(|p| p.0);
            braces.push((i, name));
        } else if tok.is_punct('}') {
            if let Some((open, Some(name))) = braces.pop() {
                bodies.push(FnBody {
                    name,
                    open,
                    close: i,
                });
            }
        }
    }
    bodies
}

/// The key a site derives: a literal as written; a constant through
/// its definition in the same file, else the same crate, else the
/// first in path order. `None` for a name no `const` binds.
fn resolve<'a>(files: &'a [FileAnalysis], fi: usize, arg: &'a KeyArg) -> Option<&'a str> {
    let name = match arg {
        KeyArg::Literal(key) => return Some(key),
        KeyArg::Const(name) => name,
    };
    let path = files[fi].file.path.as_str();
    files
        .iter()
        .flat_map(|fa| {
            fa.str_consts
                .iter()
                .map(move |c| (fa.file.path.as_str(), c))
        })
        .filter(|(_, c)| &c.name == name)
        .min_by_key(|&(p, _)| (p != path, crate_of(p) != crate_of(path)))
        .map(|(_, c)| c.value.as_str())
}

fn crate_of(path: &str) -> &str {
    // `crates/<name>/…` → `<name>`; everything else (root src/, bin)
    // groups as the root crate.
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "",
    }
}

/// The workspace pass: key collisions across crates and within one
/// function, over the merged per-file collections.
pub(crate) fn check_workspace(files: &[FileAnalysis]) -> Vec<Diagnostic> {
    // key → [(crate, file index, site)]
    type Site<'a> = (&'a str, usize, &'a KeySite);
    let mut by_key: BTreeMap<&str, Vec<Site>> = BTreeMap::new();
    for (fi, fa) in files.iter().enumerate() {
        for site in &fa.key_sites {
            if let Some(key) = resolve(files, fi, &site.arg) {
                by_key
                    .entry(key)
                    .or_default()
                    .push((crate_of(&fa.file.path), fi, site));
            }
        }
    }
    let mut out = Vec::new();
    for (key, sites) in by_key {
        let mut crates: Vec<&str> = sites.iter().map(|s| s.0).collect();
        crates.sort_unstable();
        crates.dedup();
        if crates.len() > 1 {
            // Shape 1: the same key derived in two different crates.
            for &(_, fi, site) in &sites {
                out.push(super::diag(
                    &files[fi].file,
                    "rng-key-collision",
                    site.line,
                    format!(
                        "stream key \"{key}\" is derived in {} crates ({}); identical \
                         keys yield identical streams — derive each crate's stream \
                         from its own key",
                        crates.len(),
                        crates.join(", ")
                    ),
                ));
            }
            continue;
        }
        // Shape 2: the same key derived twice inside one function.
        let mut by_fn: BTreeMap<(usize, usize), Vec<&KeySite>> = BTreeMap::new();
        for &(_, fi, site) in &sites {
            if let Some((_, open)) = &site.func {
                by_fn.entry((fi, *open)).or_default().push(site);
            }
        }
        for ((fi, _), fn_sites) in by_fn {
            let [first, repeats @ ..] = fn_sites.as_slice() else {
                continue;
            };
            let func = first.func.as_ref().map_or("", |f| f.0.as_str());
            for site in repeats {
                out.push(super::diag(
                    &files[fi].file,
                    "rng-key-collision",
                    site.line,
                    format!(
                        "stream key \"{key}\" derived more than once in `fn {func}` \
                         (first at line {}); repeated derivation in one body re-reads \
                         the same stream — key by index or reuse the first stream",
                        first.line
                    ),
                ));
            }
        }
    }
    out
}
