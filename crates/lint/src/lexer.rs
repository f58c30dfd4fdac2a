//! A small hand-rolled Rust lexer.
//!
//! The linter needs just enough token structure to tell identifiers
//! apart from the insides of strings and comments: a rule that looks
//! for `FxHashMap` must not fire on a doc comment that *mentions* it,
//! and a stage name is read from a string literal's content. We
//! therefore skip comments and tokenize string/char literals,
//! identifiers, numbers and punctuation — and nothing more. No `syn`,
//! consistent with the workspace's vendored-offline policy.

/// What a token is. Only the distinctions the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `sum`, `FxHashMap`, …).
    Ident,
    /// Single punctuation character (`.`, `:`, `!`, `[`, `{`, …).
    Punct,
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime (`'a`) — distinct from a char literal.
    Lifetime,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The token text (for `Punct`, a single character).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// True when this token is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }

    /// For a plain or raw **string** literal, the text between the
    /// quotes; `None` for char literals, byte strings, and every other
    /// token kind. Escape sequences are returned verbatim — the keyed
    /// RNG rules compare key literals textually, and no key in this
    /// workspace uses escapes.
    pub fn str_content(&self) -> Option<&str> {
        if self.kind != TokenKind::Literal {
            return None;
        }
        let t = self.text.as_str();
        if let Some(rest) = t.strip_prefix('"') {
            return rest.strip_suffix('"');
        }
        if let Some(rest) = t.strip_prefix('r') {
            let hashes = rest.bytes().take_while(|&b| b == b'#').count();
            let body = rest.get(hashes..rest.len().saturating_sub(hashes))?;
            return body.strip_prefix('"')?.strip_suffix('"');
        }
        None
    }
}

/// Token stream for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order; comments are dropped.
    pub tokens: Vec<Token>,
}

/// Tokenizes `src`. Unterminated constructs consume to end of input
/// rather than erroring: the linter must degrade gracefully on files
/// that do not parse, since rustc will report those separately.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            // A `\<newline>` line continuation still
                            // advances the line counter.
                            if bytes.get(i + 1) == Some(&b'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                push_token(&mut out, TokenKind::Literal, &src[start..i], start_line);
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let mut j = i + 1;
                if j < bytes.len() && bytes[j] != b'\\' {
                    let mut k = j;
                    while k < bytes.len() && is_ident_byte(bytes[k]) {
                        k += 1;
                    }
                    if k > j && bytes.get(k) != Some(&b'\'') {
                        push_token(&mut out, TokenKind::Lifetime, &src[i..k], line);
                        i = k;
                        continue;
                    }
                }
                // Char literal: consume an optional escape, then the
                // closing quote.
                if j < bytes.len() && bytes[j] == b'\\' {
                    j += 2;
                    // `\u{…}` escapes run to the closing brace.
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                } else if j < bytes.len() {
                    j += src[j..].chars().next().map_or(1, char::len_utf8);
                }
                if j < bytes.len() && bytes[j] == b'\'' {
                    j += 1;
                }
                let text = src.get(i..j.min(bytes.len())).unwrap_or("'…'");
                push_token(&mut out, TokenKind::Literal, text, line);
                i = j;
            }
            c if c == 'r' || c == 'b' => {
                // Possible raw / byte string prefixes: r", r#", b", br", rb is not a thing.
                if let Some(len) = raw_string_len(&src[i..]) {
                    let start_line = line;
                    line += src[i..i + len].matches('\n').count();
                    push_token(&mut out, TokenKind::Literal, &src[i..i + len], start_line);
                    i += len;
                } else {
                    let start = i;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    push_token(&mut out, TokenKind::Ident, &src[start..i], line);
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i];
                    if is_ident_byte(d)
                        || (d == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                push_token(&mut out, TokenKind::Number, &src[start..i], line);
            }
            c if is_ident_start_byte(c as u8) => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                push_token(&mut out, TokenKind::Ident, &src[start..i], line);
            }
            c => {
                push_token(&mut out, TokenKind::Punct, &c.to_string(), line);
                i += c.len_utf8();
            }
        }
    }
    out
}

fn push_token(out: &mut Lexed, kind: TokenKind, text: &str, line: usize) {
    out.tokens.push(Token {
        kind,
        text: text.to_string(),
        line,
    });
}

/// Byte-level ident classification. Any non-ASCII byte counts as
/// ident continuation: Rust identifiers may contain XID characters,
/// and scanning whole UTF-8 sequences this way guarantees the scan
/// only ever stops on a character boundary.
fn is_ident_start_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// If `rest` starts with a raw/byte string literal (`r"…"`, `r#"…"#`,
/// `b"…"`, `br#"…"#`), returns its total byte length.
fn raw_string_len(rest: &str) -> Option<usize> {
    let bytes = rest.as_bytes();
    let mut j = 0usize;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
    } else if j == 1 && bytes.get(j) == Some(&b'"') {
        // b"…": plain byte string, no hashes.
        let mut k = j + 1;
        while k < bytes.len() {
            match bytes[k] {
                b'\\' => k += 2,
                b'"' => return Some(k + 1),
                _ => k += 1,
            }
        }
        return Some(bytes.len());
    } else {
        return None;
    }
    // Count hashes after the `r`.
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash characters.
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(bytes.len())
}
