//! mbox corpus serialization (RFC 4155, `mboxrd` quoting).
//!
//! Spam corpora — the static datasets the paper's related work leans
//! on (Enron, TREC2005, CEAS2008; §2) — ship as mbox files. This
//! module writes and parses the format so simulated feeds can be
//! exported as corpora and re-ingested: `From ` separator lines with
//! envelope sender and date, and reversible `>From` quoting
//! (`mboxrd`).

use taster_sim::SimTime;

/// One message in an mbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MboxMessage {
    /// Envelope sender from the `From ` separator line.
    pub envelope_sender: String,
    /// Delivery timestamp (seconds since scenario epoch; rendered in
    /// the separator line).
    pub time: SimTime,
    /// The message text (headers + body), unquoted.
    pub text: String,
}

/// Errors from [`parse_mbox`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MboxError {
    /// The file did not start with a `From ` line.
    MissingSeparator,
    /// A separator line was malformed; carries the line number.
    BadSeparator(usize),
}

impl std::fmt::Display for MboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MboxError::MissingSeparator => write!(f, "mbox does not start with a From line"),
            MboxError::BadSeparator(l) => write!(f, "line {l}: malformed From line"),
        }
    }
}

impl std::error::Error for MboxError {}

/// Serialises messages to mbox text (`mboxrd` quoting).
pub fn write_mbox(messages: &[MboxMessage]) -> String {
    let mut out = String::new();
    for m in messages {
        let sender = if m.envelope_sender.is_empty() {
            "MAILER-DAEMON"
        } else {
            &m.envelope_sender
        };
        out.push_str(&format!("From {} @{}\n", sender, m.time.secs()));
        for line in m.text.lines() {
            // mboxrd: quote `From ` and any existing `>+From ` run.
            let trimmed = line.trim_start_matches('>');
            if trimmed.starts_with("From ") {
                out.push('>');
            }
            out.push_str(line);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Parses mbox text back into messages.
pub fn parse_mbox(text: &str) -> Result<Vec<MboxMessage>, MboxError> {
    let mut messages: Vec<MboxMessage> = Vec::new();
    let mut current: Option<(String, SimTime, Vec<String>)> = None;
    for (lineno, line) in text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("From ") {
            // Separator: `From <sender> @<secs>`.
            let mut parts = rest.split_whitespace();
            let sender = parts
                .next()
                .ok_or(MboxError::BadSeparator(lineno + 1))?
                .to_string();
            let secs = parts
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or(MboxError::BadSeparator(lineno + 1))?;
            if let Some((s, t, lines)) = current.take() {
                messages.push(finish(s, t, lines));
            }
            let sender = if sender == "MAILER-DAEMON" {
                String::new()
            } else {
                sender
            };
            current = Some((sender, SimTime(secs), Vec::new()));
            continue;
        }
        let Some((_, _, lines)) = current.as_mut() else {
            if line.trim().is_empty() {
                continue; // leading blank lines are tolerated
            }
            return Err(MboxError::MissingSeparator);
        };
        // Undo mboxrd quoting: strip one `>` from `>+From ` runs.
        let unquoted = {
            let stripped = line.trim_start_matches('>');
            if stripped.starts_with("From ") && line.starts_with('>') {
                &line[1..]
            } else {
                line
            }
        };
        lines.push(unquoted.to_string());
    }
    if let Some((s, t, lines)) = current.take() {
        messages.push(finish(s, t, lines));
    }
    Ok(messages)
}

fn finish(sender: String, time: SimTime, mut lines: Vec<String>) -> MboxMessage {
    // Drop the single blank separator line appended by the writer.
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    MboxMessage {
        envelope_sender: sender,
        time,
        text: lines.join("\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(sender: &str, secs: u64, text: &str) -> MboxMessage {
        MboxMessage {
            envelope_sender: sender.to_string(),
            time: SimTime(secs),
            text: text.to_string(),
        }
    }

    #[test]
    fn round_trip_simple() {
        let messages = vec![
            msg("a@b.com", 100, "Subject: one\n\nhello"),
            msg("c@d.org", 2000, "Subject: two\n\nworld"),
        ];
        let text = write_mbox(&messages);
        assert_eq!(parse_mbox(&text).unwrap(), messages);
    }

    #[test]
    fn round_trip_with_from_lines_in_body() {
        let body = "Subject: tricky\n\nFrom the desk of the director\n>From quoted already\nFrom  double space";
        let messages = vec![msg("x@y.com", 7, body)];
        let text = write_mbox(&messages);
        assert!(text.contains(">From the desk"));
        assert!(text.contains(">>From quoted already"));
        assert_eq!(parse_mbox(&text).unwrap(), messages);
    }

    #[test]
    fn null_sender_round_trips() {
        let messages = vec![msg("", 42, "bounce body")];
        let text = write_mbox(&messages);
        assert!(text.starts_with("From MAILER-DAEMON @42\n"));
        assert_eq!(parse_mbox(&text).unwrap(), messages);
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(parse_mbox("not an mbox"), Err(MboxError::MissingSeparator));
        assert_eq!(
            parse_mbox("From justsender\nbody\n"),
            Err(MboxError::BadSeparator(1))
        );
        assert_eq!(
            parse_mbox("From a@b.com @notanum\n"),
            Err(MboxError::BadSeparator(1))
        );
    }

    #[test]
    fn empty_input_is_empty_corpus() {
        assert_eq!(parse_mbox("").unwrap(), Vec::new());
        assert_eq!(parse_mbox("\n\n").unwrap(), Vec::new());
        assert_eq!(write_mbox(&[]), "");
    }

    #[test]
    fn rendered_spam_survives_the_corpus_format() {
        use taster_ecosystem::{EcosystemConfig, GroundTruth};
        use taster_sim::RngStream;
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 137).unwrap();
        let mut rng = RngStream::new(5, "mbox-test");
        let messages: Vec<MboxMessage> = truth
            .sorted_events()
            .unwrap()
            .iter()
            .take(50)
            .map(|e| {
                let r = crate::render::render_spam(&truth, e.advertised, e.chaff, e.time, &mut rng);
                MboxMessage {
                    envelope_sender: r.from.clone(),
                    time: e.time,
                    // The mbox contract normalises away the trailing
                    // newline (lines are the unit).
                    text: r.text.trim_end_matches('\n').to_string(),
                }
            })
            .collect();
        let corpus = write_mbox(&messages);
        let parsed = parse_mbox(&corpus).unwrap();
        assert_eq!(parsed, messages);
        // Extraction still works on re-ingested text.
        let psl = taster_domain::psl::SuffixList::builtin();
        let urls = taster_domain::url::extract_urls(&parsed[0].text);
        assert!(!urls.is_empty());
        assert!(psl.registered_domain(&urls[0].host).is_some());
    }
}
