//! Fully-qualified domain names.

use crate::label::{validate_label, LabelError, MAX_NAME_LEN};

/// A validated, lowercased fully-qualified domain name.
///
/// Invariants (enforced by [`DomainName::parse`]):
/// * at least two labels (single-label names such as a bare TLD `com`
///   or `localhost` are rejected for our purposes — spam feeds carry
///   registrable names);
/// * every label satisfies [`validate_label`];
/// * total textual length ≤ 253 octets;
/// * stored in lowercase with no trailing dot.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    /// Lowercased name without a trailing dot.
    text: String,
}

/// Errors produced by [`DomainName::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainParseError {
    /// The whole name was empty.
    Empty,
    /// The name exceeded [`MAX_NAME_LEN`] octets.
    TooLong,
    /// The name had fewer than two labels (e.g. `localhost`).
    SingleLabel,
    /// A label failed validation; carries the label index and cause.
    Label(usize, LabelError),
}

impl std::fmt::Display for DomainParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainParseError::Empty => write!(f, "empty domain name"),
            DomainParseError::TooLong => write!(f, "domain name longer than {MAX_NAME_LEN} octets"),
            DomainParseError::SingleLabel => write!(f, "domain name has a single label"),
            DomainParseError::Label(i, e) => write!(f, "label {i}: {e}"),
        }
    }
}

impl std::error::Error for DomainParseError {}

impl DomainName {
    /// Parses and normalises a textual domain name.
    ///
    /// A single trailing dot (root label) is accepted and stripped.
    /// Uppercase ASCII is folded to lowercase.
    pub fn parse(input: &str) -> Result<Self, DomainParseError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(DomainParseError::Empty);
        }
        if trimmed.len() > MAX_NAME_LEN {
            return Err(DomainParseError::TooLong);
        }
        let text = trimmed.to_ascii_lowercase();
        let mut labels = 0usize;
        for (i, label) in text.split('.').enumerate() {
            validate_label(label).map_err(|e| DomainParseError::Label(i, e))?;
            labels += 1;
        }
        if labels < 2 {
            return Err(DomainParseError::SingleLabel);
        }
        Ok(DomainName { text })
    }

    /// The normalised textual form (lowercase, no trailing dot).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Iterates over labels left-to-right (`www`, `example`, `com`).
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.text.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.text.as_bytes().iter().filter(|&&b| b == b'.').count() + 1
    }

    /// The rightmost label (the top-level domain).
    pub fn tld(&self) -> &str {
        // rsplit always yields at least one piece, so the fallback
        // (the whole dotless name) is unreachable.
        self.text.rsplit('.').next().unwrap_or(&self.text)
    }

    /// Returns the suffix of this name formed by its last `n` labels,
    /// or `None` when the name has fewer than `n` labels.
    ///
    /// `suffix(2)` of `www.example.co.uk` is `co.uk`.
    pub fn suffix(&self, n: usize) -> Option<&str> {
        let total = self.label_count();
        if n == 0 || n > total {
            return None;
        }
        let mut idx = self.text.len();
        let bytes = self.text.as_bytes();
        let mut seen = 0usize;
        while idx > 0 {
            idx -= 1;
            if bytes[idx] == b'.' {
                seen += 1;
                if seen == n {
                    return Some(&self.text[idx + 1..]);
                }
            }
        }
        // Fewer than n dots scanned: the whole name has exactly n labels.
        Some(&self.text)
    }

    /// True when `self` equals `other` or is a subdomain of `other`.
    pub fn is_subdomain_of(&self, other: &str) -> bool {
        let other = other.trim_end_matches('.');
        if self.text.len() == other.len() {
            return self.text == other.to_ascii_lowercase();
        }
        if self.text.len() > other.len() + 1 {
            let split = self.text.len() - other.len();
            return self.text.as_bytes()[split - 1] == b'.'
                && self.text[split..].eq_ignore_ascii_case(other);
        }
        false
    }
}

impl std::fmt::Display for DomainName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::fmt::Debug for DomainName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DomainName({})", self.text)
    }
}

impl std::str::FromStr for DomainName {
    type Err = DomainParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalises() {
        let d = DomainName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(d.as_str(), "www.example.com");
        assert_eq!(d.label_count(), 3);
        assert_eq!(d.tld(), "com");
    }

    #[test]
    fn rejects_single_label() {
        assert_eq!(
            DomainName::parse("localhost"),
            Err(DomainParseError::SingleLabel)
        );
    }

    #[test]
    fn rejects_empty_and_dot() {
        assert_eq!(DomainName::parse(""), Err(DomainParseError::Empty));
        assert_eq!(DomainName::parse("."), Err(DomainParseError::Empty));
    }

    #[test]
    fn rejects_empty_inner_label() {
        assert!(matches!(
            DomainName::parse("a..com"),
            Err(DomainParseError::Label(1, LabelError::Empty))
        ));
    }

    #[test]
    fn suffix_extraction() {
        let d = DomainName::parse("www.example.co.uk").unwrap();
        assert_eq!(d.suffix(1), Some("uk"));
        assert_eq!(d.suffix(2), Some("co.uk"));
        assert_eq!(d.suffix(3), Some("example.co.uk"));
        assert_eq!(d.suffix(4), Some("www.example.co.uk"));
        assert_eq!(d.suffix(5), None);
        assert_eq!(d.suffix(0), None);
    }

    #[test]
    fn subdomain_check() {
        let d = DomainName::parse("a.b.example.com").unwrap();
        assert!(d.is_subdomain_of("example.com"));
        assert!(d.is_subdomain_of("b.example.com"));
        assert!(d.is_subdomain_of("a.b.example.com"));
        assert!(!d.is_subdomain_of("xample.com"));
        assert!(!d.is_subdomain_of("c.example.com"));
        assert!(!d.is_subdomain_of("com.example"));
    }

    #[test]
    fn too_long_rejected() {
        let long = format!("{}.com", "a".repeat(250));
        assert_eq!(DomainName::parse(&long), Err(DomainParseError::TooLong));
    }
}
