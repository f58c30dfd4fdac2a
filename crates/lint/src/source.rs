//! Per-file model: path classification, `#[cfg(test)]` regions and
//! inline suppression comments.

use crate::lexer::{lex, Lexed};

/// One parsed inline suppression: `// lint:allow(rule, …) -- reason`.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules the comment names.
    pub rules: Vec<String>,
    /// The justification after `--`. Mandatory; an empty reason makes
    /// the suppression malformed (and inert).
    pub reason: String,
    /// 1-based line the suppression applies to (the comment's own line
    /// for trailing comments, the next code line for standalone ones).
    pub applies_to: usize,
    /// 1-based line of the comment itself.
    pub comment_line: usize,
    /// Parse problem, if any — malformed suppressions do not suppress.
    pub malformed: Option<String>,
}

/// A lexed, classified source file ready for rule evaluation.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// True for library and binary source, the code that ships and
    /// that the per-file rules check. Integration tests, examples and
    /// vendored shims only answer for their suppression syntax.
    pub shipped: bool,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// Raw source lines (for diagnostic snippets).
    pub lines: Vec<String>,
    /// `in_test[line-1]` is true inside `#[cfg(test)]` item bodies.
    in_test: Vec<bool>,
    /// Parsed suppressions, malformed ones included.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Builds the model for one file. `rel_path` must use `/`
    /// separators and be relative to the workspace root.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let in_test = cfg_test_lines(&lexed, lines.len());
        let suppressions = parse_suppressions(&lexed, &lines);
        SourceFile {
            path: rel_path.to_string(),
            shipped: is_shipped(rel_path),
            lexed,
            lines,
            in_test,
            suppressions,
        }
    }

    /// True when `line` (1-based) is inside a `#[cfg(test)]` region.
    pub fn in_cfg_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The trimmed source text of `line` (1-based), or "".
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.saturating_sub(1))
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// True when a well-formed suppression for `rule` covers `line`.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| {
            s.malformed.is_none() && s.applies_to == line && s.rules.iter().any(|r| r == rule)
        })
    }
}

/// True unless a workspace-relative path is a vendored shim, an
/// example or an integration test.
fn is_shipped(path: &str) -> bool {
    !(path.starts_with("vendor/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.contains("/tests/"))
}

/// Marks the lines covered by `#[cfg(test)]` items (normally the
/// `mod tests { … }` block) so library rules skip test code.
fn cfg_test_lines(lexed: &Lexed, n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    let t = &lexed.tokens;
    let mut i = 0usize;
    while i + 6 < t.len() {
        let is_cfg_test = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        // Find the item's opening brace; a `;` first means an
        // out-of-line `mod tests;` with no body here.
        let mut j = i + 7;
        let mut open = None;
        while j < t.len() {
            if t[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if t[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let mut k = open;
        let mut end_line = t[open].line;
        while k < t.len() {
            if t[k].is_punct('{') {
                depth += 1;
            } else if t[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end_line = t[k].line;
                    break;
                }
            }
            k += 1;
        }
        if k == t.len() {
            end_line = n_lines;
        }
        for line in start_line..=end_line.min(n_lines) {
            if line >= 1 {
                mask[line - 1] = true;
            }
        }
        i = k.max(i + 7);
    }
    mask
}

/// Extracts `lint:allow(...)` suppressions from the comment table.
fn parse_suppressions(lexed: &Lexed, lines: &[String]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments never carry suppressions; they may legitimately
        // document the suppression syntax instead of using it.
        let is_doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        // Only the marker immediately followed by an open paren counts
        // as a suppression attempt, so prose naming it stays inert.
        let Some(at) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow".len()..];
        let mut sup = Suppression {
            rules: Vec::new(),
            reason: String::new(),
            applies_to: if c.trailing {
                c.line
            } else {
                next_code_line(lines, c.line)
            },
            comment_line: c.line,
            malformed: None,
        };
        let Some(open) = rest.find('(') else {
            sup.malformed = Some("missing rule list: expected lint:allow(<rule>)".to_string());
            out.push(sup);
            continue;
        };
        let Some(close) = rest.find(')') else {
            sup.malformed = Some("unclosed rule list in lint:allow(...)".to_string());
            out.push(sup);
            continue;
        };
        if close < open {
            sup.malformed = Some("malformed rule list in lint:allow(...)".to_string());
            out.push(sup);
            continue;
        }
        sup.rules = rest[open + 1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if sup.rules.is_empty() {
            sup.malformed = Some("empty rule list in lint:allow(...)".to_string());
            out.push(sup);
            continue;
        }
        match rest[close + 1..].split_once("--") {
            Some((_, reason)) if !reason.trim().is_empty() => {
                sup.reason = reason.trim().to_string();
            }
            _ => {
                sup.malformed = Some(
                    "suppression reason is mandatory: lint:allow(<rule>) -- <reason>".to_string(),
                );
            }
        }
        out.push(sup);
    }
    out
}

/// First line at or after `after` (exclusive) holding code; falls back
/// to the comment's own line when the file ends.
fn next_code_line(lines: &[String], after: usize) -> usize {
    let mut n = after + 1;
    while n <= lines.len() {
        let text = lines[n - 1].trim();
        if !text.is_empty() && !text.starts_with("//") {
            return n;
        }
        n += 1;
    }
    after
}
