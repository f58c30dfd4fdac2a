//! Token-pattern rules: flat scans over the token stream, no item or
//! graph context needed.

use super::{diag, rule_by_id, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// A hung peer must never hang the daemon: every socket read carries a
/// deadline and every accept is a nonblocking poll. The unbounded std
/// conveniences below block until the *peer* decides to make progress,
/// which is exactly the slow-loris hole the serve layer guards against.
/// Applies only to files that name a listener/stream type, so ordinary
/// file I/O (`File::read_to_end`) stays untouched.
pub(crate) fn check_socket_deadline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let t = &file.lexed.tokens;
    let touches_sockets = t.iter().any(|tok| {
        tok.kind == TokenKind::Ident
            && matches!(
                tok.text.as_str(),
                "UnixListener" | "UnixStream" | "TcpListener" | "TcpStream"
            )
    });
    if !touches_sockets {
        return;
    }
    for i in 1..t.len() {
        let tok = &t[i];
        if tok.kind != TokenKind::Ident || file.in_cfg_test(tok.line) {
            continue;
        }
        let unbounded = matches!(
            tok.text.as_str(),
            "incoming" | "read_to_end" | "read_to_string"
        );
        if unbounded && t[i - 1].is_punct('.') && t.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            out.push(diag(
                file,
                "socket-deadline",
                tok.line,
                format!(
                    "`.{}()` blocks until the peer makes progress; poll accepts \
                     nonblocking and read in bounded chunks under set_read_timeout",
                    tok.text
                ),
            ));
        }
    }
}

pub(crate) fn check_bad_suppressions(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for s in &file.suppressions {
        if let Some(problem) = &s.malformed {
            out.push(diag(
                file,
                "bad-suppression",
                s.comment_line,
                problem.clone(),
            ));
            continue;
        }
        for r in &s.rules {
            if rule_by_id(r).is_none() {
                out.push(diag(
                    file,
                    "bad-suppression",
                    s.comment_line,
                    format!("lint:allow names unknown rule `{r}`"),
                ));
            }
        }
    }
}
