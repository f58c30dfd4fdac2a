//! DNS label validation.
//!
//! A *label* is one dot-separated component of a domain name. We follow
//! the "preferred name syntax" of RFC 1035 §2.3.1 as relaxed in common
//! practice (RFC 2181): 1–63 octets, ASCII letters, digits and hyphens
//! (LDH), not beginning or ending with a hyphen. Labels are compared
//! case-insensitively; we normalise to lowercase at parse time.

/// Maximum length of a single label in octets (RFC 1035).
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum length of a full domain name in octets, including dots
/// (RFC 1035 limits names to 255 octets on the wire; the textual form
/// is conventionally capped at 253).
pub const MAX_NAME_LEN: usize = 253;

/// Why a label failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelError {
    /// The label contained no characters.
    Empty,
    /// The label exceeded [`MAX_LABEL_LEN`] octets.
    TooLong,
    /// The label contained a byte outside `[a-z0-9-]` (after lowercasing).
    BadChar(u8),
    /// The label started or ended with `-`.
    HyphenEdge,
}

impl std::fmt::Display for LabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelError::Empty => write!(f, "empty label"),
            LabelError::TooLong => write!(f, "label longer than {MAX_LABEL_LEN} octets"),
            LabelError::BadChar(c) => write!(f, "invalid character {:?} in label", *c as char),
            LabelError::HyphenEdge => write!(f, "label starts or ends with a hyphen"),
        }
    }
}

impl std::error::Error for LabelError {}

/// Validates a single (already lowercased) label.
pub fn validate_label(label: &str) -> Result<(), LabelError> {
    let bytes = label.as_bytes();
    if bytes.is_empty() {
        return Err(LabelError::Empty);
    }
    if bytes.len() > MAX_LABEL_LEN {
        return Err(LabelError::TooLong);
    }
    if bytes[0] == b'-' || bytes[bytes.len() - 1] == b'-' {
        return Err(LabelError::HyphenEdge);
    }
    for &b in bytes {
        if !(b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-') {
            return Err(LabelError::BadChar(b));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_plain_labels() {
        for l in [
            "a",
            "example",
            "xn--bcher-kva",
            "a1-b2",
            "0start",
            "x".repeat(63).as_str(),
        ] {
            assert_eq!(validate_label(l), Ok(()), "label {l:?}");
        }
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(validate_label(""), Err(LabelError::Empty));
    }

    #[test]
    fn rejects_overlong() {
        let l = "x".repeat(64);
        assert_eq!(validate_label(&l), Err(LabelError::TooLong));
    }

    #[test]
    fn rejects_hyphen_edges() {
        assert_eq!(validate_label("-abc"), Err(LabelError::HyphenEdge));
        assert_eq!(validate_label("abc-"), Err(LabelError::HyphenEdge));
    }

    #[test]
    fn rejects_bad_chars() {
        assert_eq!(validate_label("ab_c"), Err(LabelError::BadChar(b'_')));
        assert_eq!(validate_label("ab.c"), Err(LabelError::BadChar(b'.')));
        // Uppercase must be normalised by the caller before validation.
        assert_eq!(validate_label("ABC"), Err(LabelError::BadChar(b'A')));
    }
}
