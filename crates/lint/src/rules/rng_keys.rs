//! `rng-key-collision`: keyed-stream derivation discipline.
//!
//! Every RNG stream is named by `(master seed, key string)`, so two
//! call sites deriving from the same key get the *same* stream — fine
//! when deliberate (the replay passes in `ecosystem` re-derive their
//! generation streams by construction), silently correlated randomness
//! when accidental. The collision check therefore flags exactly the
//! two shapes that are never deliberate:
//!
//! 1. the same key literal derived in **two different crates** (no
//!    shared replay contract can exist across a crate boundary), and
//! 2. the same key literal derived **twice inside one function**
//!    (within a single body, a repeat is either a copy-paste slip or
//!    wants an index/child derivation).
//!
//! Same-crate, cross-function repeats — the replay pattern — pass.
//!
//! The same family owns stage-registry completeness: every stage name
//! reaching `Obs::stage` must appear in `STAGE_KEYS`, and every
//! registered stage must have a live call site — a registry entry
//! nothing times (or a timed stage the registry doesn't know) breaks
//! the timing-report contract.

use std::collections::BTreeMap;

use super::{is_path_sep, Diagnostic, FileAnalysis};
use crate::lexer::TokenKind;
use crate::parser::ItemTree;
use crate::source::SourceFile;

/// One keyed derivation site: a string literal fed to
/// `RngStream::new`, `.child(…)` or `name_key(…)`.
#[derive(Debug, Clone)]
pub struct KeySite {
    /// The key string (literal content).
    pub key: String,
    /// Which constructor consumed it (`new`, `child`, `name_key`).
    pub callee: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing function path, `""` at item level.
    pub func: String,
}

/// One `obs.stage(…)` call site.
#[derive(Debug, Clone)]
pub struct StageUse {
    /// First-argument text: literal content, or a const name to
    /// resolve against the workspace const table.
    pub arg: String,
    /// True when `arg` is an identifier (needs const resolution).
    pub is_ident: bool,
    /// 1-based line.
    pub line: usize,
}

/// One entry of a stage-registry array.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// Entry text: literal content or const name.
    pub text: String,
    /// True when the entry is an identifier.
    pub is_ident: bool,
}

/// A `STAGE_KEYS` registry definition.
#[derive(Debug, Clone)]
pub struct StageRegistry {
    /// Array const name.
    pub array: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// Entries in declaration order.
    pub entries: Vec<RegistryEntry>,
}

/// Collects key sites, stage uses and registry definitions from one
/// file's non-test code.
pub(crate) fn collect(
    file: &SourceFile,
    items: &ItemTree,
) -> (Vec<KeySite>, Vec<StageUse>, Vec<StageRegistry>) {
    let t = &file.lexed.tokens;
    let mut keys = Vec::new();
    let mut stages = Vec::new();
    let mut registries = Vec::new();
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind != TokenKind::Ident || file.in_cfg_test(tok.line) {
            continue;
        }
        let next_is_paren = t.get(i + 1).is_some_and(|n| n.is_punct('('));
        // Keyed constructors taking a literal name argument.
        let is_key_callee = next_is_paren
            && match tok.text.as_str() {
                "name_key" => true,
                "child" => i > 0 && t[i - 1].is_punct('.'),
                "new" => i >= 3 && t[i - 3].is_ident("RngStream") && is_path_sep(t, i - 2),
                _ => false,
            };
        if is_key_callee {
            if let Some(key) = first_arg_literal(t, i + 1) {
                keys.push(KeySite {
                    key,
                    callee: tok.text.clone(),
                    line: tok.line,
                    func: items.enclosing_fn(tok.line).unwrap_or_default(),
                });
            }
        }
        // Stage timing sites: `obs.stage(X, …)`.
        let is_stage_callee =
            next_is_paren && tok.text == "stage" && i > 0 && t[i - 1].is_punct('.');
        if is_stage_callee {
            if let Some(arg) = t.get(i + 2) {
                match arg.kind {
                    TokenKind::Literal => {
                        if let Some(content) = arg.str_content() {
                            stages.push(StageUse {
                                arg: content.to_string(),
                                is_ident: false,
                                line: tok.line,
                            });
                        }
                    }
                    TokenKind::Ident => stages.push(StageUse {
                        arg: arg.text.clone(),
                        is_ident: true,
                        line: tok.line,
                    }),
                    _ => {}
                }
            }
        }
        // Registry definitions: `const STAGE_KEYS: [&str; N] = [ … ];`.
        let is_registry_def = tok.text == "STAGE_KEYS" && i > 0 && t[i - 1].is_ident("const");
        if is_registry_def {
            registries.push(parse_registry(t, i, tok.line, &tok.text));
        }
    }
    (keys, stages, registries)
}

/// First string literal at argument depth 1 of the call whose `(` sits
/// at token `open`. Literals inside nested calls (`format!("…")`) are
/// *not* keys — dynamic key construction is out of scope by design.
fn first_arg_literal(t: &[crate::lexer::Token], open: usize) -> Option<String> {
    let mut depth = 0usize;
    for tok in t.get(open..)?.iter().take(64) {
        if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return None;
            }
        } else if depth == 1 && tok.kind == TokenKind::Literal {
            if let Some(content) = tok.str_content() {
                return Some(content.to_string());
            }
        }
    }
    None
}

/// Parses the bracketed entry list of a registry array definition.
fn parse_registry(
    t: &[crate::lexer::Token],
    name_idx: usize,
    line: usize,
    array: &str,
) -> StageRegistry {
    let mut entries = Vec::new();
    // Find the `= [` after the type annotation, then read entries at
    // depth 1 until the matching `]`.
    let mut i = name_idx + 1;
    while i < t.len() && !t.get(i).is_some_and(|x| x.is_punct('=')) {
        i += 1;
    }
    let mut depth = 0usize;
    while i < t.len() {
        let Some(tok) = t.get(i) else { break };
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            if depth <= 1 {
                break;
            }
            depth -= 1;
        } else if depth == 1 {
            match tok.kind {
                TokenKind::Literal => {
                    if let Some(content) = tok.str_content() {
                        entries.push(RegistryEntry {
                            text: content.to_string(),
                            is_ident: false,
                        });
                    }
                }
                TokenKind::Ident => entries.push(RegistryEntry {
                    text: tok.text.clone(),
                    is_ident: true,
                }),
                _ => {}
            }
        } else if tok.is_punct(';') && depth == 0 {
            break;
        }
        i += 1;
    }
    StageRegistry {
        array: array.to_string(),
        line,
        entries,
    }
}

/// The workspace pass: key-collision detection plus stage-registry
/// completeness over the merged per-file collections.
pub(crate) fn check_workspace(files: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Workspace const table: `const NAME: &str = "…"` across all
    // non-test files, first definition (path order) wins. Stage and
    // stream keys are single-definition consts, so collisions here
    // would themselves be bugs — but resolution stays deterministic
    // regardless.
    let mut consts: BTreeMap<String, String> = BTreeMap::new();
    for fa in files {
        for (name, value) in fa.items.str_consts() {
            consts
                .entry(name.to_string())
                .or_insert_with(|| value.to_string());
        }
    }

    check_key_collisions(files, &mut out);
    check_stage_registry(files, &consts, &mut out);
    out
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

fn check_key_collisions(files: &[FileAnalysis], out: &mut Vec<Diagnostic>) {
    // key → [(crate, path, func, line, file index)]
    type Site<'a> = (&'a str, &'a str, &'a str, usize, usize);
    let mut by_key: BTreeMap<&str, Vec<Site>> = BTreeMap::new();
    for (fi, fa) in files.iter().enumerate() {
        for site in &fa.key_sites {
            by_key.entry(site.key.as_str()).or_default().push((
                crate_of(&fa.file.path),
                fa.file.path.as_str(),
                site.func.as_str(),
                site.line,
                fi,
            ));
        }
    }
    for (key, sites) in by_key {
        if sites.len() < 2 {
            continue;
        }
        let crates: Vec<&str> = {
            let mut cs: Vec<&str> = sites.iter().map(|s| s.0).collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        };
        if crates.len() > 1 {
            // Shape 1: the same key derived in two different crates.
            for &(_, _, _, line, fi) in &sites {
                if let Some(fa) = files.get(fi) {
                    out.push(super::diag(
                        &fa.file,
                        "rng-key-collision",
                        line,
                        format!(
                            "stream key \"{key}\" is derived in {} crates ({}); identical \
                             keys yield identical streams — derive each crate's stream \
                             from its own key",
                            crates.len(),
                            crates.join(", ")
                        ),
                    ));
                }
            }
            continue;
        }
        // Shape 2: the same key derived twice inside one function.
        let mut by_fn: BTreeMap<(&str, &str), Vec<(usize, usize)>> = BTreeMap::new();
        for &(_, path, func, line, fi) in &sites {
            by_fn.entry((path, func)).or_default().push((line, fi));
        }
        for ((_, func), fn_sites) in by_fn {
            if fn_sites.len() < 2 || func.is_empty() {
                continue;
            }
            let Some(&(first_line, _)) = fn_sites.first() else {
                continue;
            };
            for &(line, fi) in fn_sites.iter().skip(1) {
                if let Some(fa) = files.get(fi) {
                    out.push(super::diag(
                        &fa.file,
                        "rng-key-collision",
                        line,
                        format!(
                            "stream key \"{key}\" derived more than once in `{func}` \
                             (first at line {first_line}); repeated derivation in one \
                             body re-reads the same stream — key by index or reuse the \
                             first stream",
                        ),
                    ));
                }
            }
        }
    }
}

fn check_stage_registry(
    files: &[FileAnalysis],
    consts: &BTreeMap<String, String>,
    out: &mut Vec<Diagnostic>,
) {
    let registries: Vec<(usize, &StageRegistry)> = files
        .iter()
        .enumerate()
        .flat_map(|(fi, fa)| fa.registries.iter().map(move |r| (fi, r)))
        .collect();
    if registries.is_empty() {
        // No registry in scope (e.g. a test fixture tree): nothing to
        // hold stage uses against.
        return;
    }
    // Resolve registry entries to stage names.
    let mut registered: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // name → (file, line)
    for (fi, reg) in &registries {
        let fi = *fi;
        for entry in &reg.entries {
            let name = if entry.is_ident {
                match consts.get(&entry.text) {
                    Some(v) => v.clone(),
                    None => continue,
                }
            } else {
                entry.text.clone()
            };
            registered.entry(name).or_insert((fi, reg.line));
        }
    }
    // Forward: every resolved stage use must be registered.
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for fa in files {
        for s in &fa.stage_uses {
            let name = if s.is_ident {
                match consts.get(&s.arg) {
                    Some(v) => v.clone(),
                    // A variable forwarding a caller's stage name (the
                    // Obs plumbing itself) is not a call site.
                    None => continue,
                }
            } else {
                s.arg.clone()
            };
            if !registered.contains_key(&name) {
                out.push(super::diag(
                    &fa.file,
                    "rng-key-collision",
                    s.line,
                    format!(
                        "stage \"{name}\" is timed but not registered in STAGE_KEYS; \
                         the timing report only renders registered stages"
                    ),
                ));
            }
            used.insert(name);
        }
    }
    // Reverse: every registered stage must have a live call site.
    for (name, (fi, line)) in &registered {
        if !used.contains(name) {
            if let Some(fa) = files.get(*fi) {
                out.push(super::diag(
                    &fa.file,
                    "rng-key-collision",
                    *line,
                    format!(
                        "registry entry \"{name}\" has no stage() call site; remove it \
                         or time the stage it names"
                    ),
                ));
            }
        }
    }
}
