//! Per-file model: path classification and `#[cfg(test)]` regions.

use crate::lexer::{lex, Lexed};

/// A lexed, classified source file ready for rule evaluation.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// True for library and binary source, the code that ships and
    /// that the per-file rules check. Integration tests, examples and
    /// vendored shims are not checked.
    pub shipped: bool,
    /// Token stream.
    pub lexed: Lexed,
    /// Raw source lines (for diagnostic snippets).
    pub lines: Vec<String>,
    /// `in_test[line-1]` is true inside `#[cfg(test)]` item bodies.
    in_test: Vec<bool>,
}

impl SourceFile {
    /// Builds the model for one file. `rel_path` must use `/`
    /// separators and be relative to the workspace root.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let in_test = cfg_test_lines(&lexed, lines.len());
        SourceFile {
            path: rel_path.to_string(),
            shipped: is_shipped(rel_path),
            lexed,
            lines,
            in_test,
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
