//! Public-suffix rules and registered-domain extraction.
//!
//! Blacklisting — and this toolkit — operates at the level of
//! *registered domains* (paper §3.1): the label directly below a public
//! suffix. Determining the public suffix requires a rule list; we
//! implement the Mozilla Public Suffix List algorithm (normal,
//! wildcard `*.` and exception `!` rules, longest match wins) over an
//! embedded rule set covering the TLDs that matter for the paper's
//! feeds (the paper's DNS-purity check used the `com`, `net`, `org`,
//! `biz`, `us`, `aero` and `info` zone files, which covered 63–100 % of
//! each feed) plus common country-code second-level registries so that
//! multi-level suffixes are exercised.

use crate::fx::FxHashMap;
use crate::name::DomainName;

/// A registered domain: the public suffix plus exactly one label.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisteredDomain {
    text: String,
    /// Number of labels in the public-suffix part.
    suffix_labels: u8,
}

impl RegisteredDomain {
    /// The textual registered domain, e.g. `example.co.uk`.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Number of labels in the public suffix (1 for `com`, 2 for `co.uk`).
    pub fn suffix_label_count(&self) -> usize {
        self.suffix_labels as usize
    }
}

impl std::fmt::Display for RegisteredDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::fmt::Debug for RegisteredDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegisteredDomain({})", self.text)
    }
}

/// A single suffix rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleKind {
    /// `foo.bar` — the suffix itself.
    Normal,
    /// `*.foo` — any single label under `foo` is a public suffix.
    Wildcard,
    /// `!exception.foo` — cancels a wildcard; the name is registrable.
    Exception,
}

/// A compiled suffix list.
///
/// Lookup is by exact reversed-label match in a hash map; the PSL
/// "longest matching rule wins / exception beats wildcard" semantics
/// are applied in [`SuffixList::registered_domain`].
#[derive(Debug, Clone)]
pub struct SuffixList {
    /// Map from rule text (without `*.`/`!` markers) to kind.
    rules: FxHashMap<String, RuleKind>,
    /// Longest rule length in labels, bounds the scan.
    max_labels: usize,
}

/// Errors from [`SuffixList::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuffixListError {
    /// A rule line failed domain-label validation.
    BadRule(String),
}

impl std::fmt::Display for SuffixListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuffixListError::BadRule(r) => write!(f, "invalid suffix rule {r:?}"),
        }
    }
}

impl std::error::Error for SuffixListError {}

/// The embedded rule set. Kept deliberately small but structurally
/// complete: generic TLDs used by the simulator, several ccTLDs with
/// second-level registries, one wildcard family and one exception.
const BUILTIN_RULES: &str = "\
// Generic TLDs (the paper's zone-file set plus common ones)
com
net
org
biz
info
us
aero
edu
gov
mil
name
mobi
pro
travel
// Country-code TLDs used by the simulator's domain pools
ru
cn
com.cn
net.cn
org.cn
de
fr
nl
eu
in
co.in
br
com.br
net.br
jp
co.jp
ne.jp
or.jp
uk
co.uk
org.uk
ac.uk
gov.uk
au
com.au
net.au
org.au
pl
com.pl
kr
co.kr
// Wildcard registry (all of .ck is second-level) with its exception
*.ck
!www.ck
";

impl SuffixList {
    /// The embedded rule set used throughout the toolkit.
    pub fn builtin() -> Self {
        match Self::parse(BUILTIN_RULES) {
            Ok(list) => list,
            #[expect(
                clippy::panic,
                reason = "the builtin table is a compile-time constant covered by tests; failing to parse it is a build defect"
            )]
            Err(e) => panic!("builtin PSL rules invalid: {e}"),
        }
    }

    /// Parses PSL-format rules: one rule per line, `//` comments and
    /// blank lines ignored, `*.` wildcard and `!` exception markers.
    pub fn parse(text: &str) -> Result<Self, SuffixListError> {
        let mut rules = FxHashMap::default();
        let mut max_labels = 0usize;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let (kind, body) = if let Some(rest) = line.strip_prefix('!') {
                (RuleKind::Exception, rest)
            } else if let Some(rest) = line.strip_prefix("*.") {
                (RuleKind::Wildcard, rest)
            } else {
                (RuleKind::Normal, line)
            };
            let body = body.to_ascii_lowercase();
            for label in body.split('.') {
                crate::label::validate_label(label)
                    .map_err(|_| SuffixListError::BadRule(line.to_string()))?;
            }
            let labels = body.split('.').count()
                + match kind {
                    RuleKind::Wildcard => 1,
                    _ => 0,
                };
            max_labels = max_labels.max(labels);
            rules.insert(body, kind);
        }
        Ok(SuffixList { rules, max_labels })
    }

    /// Number of rules in the list.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the list holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Length in labels of the public suffix of `name`, or `None` when
    /// no rule matches and the name's TLD is unknown.
    ///
    /// Following PSL semantics, an unknown TLD is treated as a
    /// single-label public suffix (`*` implicit rule); we expose that
    /// through `suffix_labels_or_default`.
    fn suffix_labels(&self, name: &DomainName) -> Option<usize> {
        let total = name.label_count();
        let mut best: Option<usize> = None;
        // Examine candidate suffixes from longest rule size down.
        for n in (1..=self.max_labels.min(total)).rev() {
            // `n <= total`, so the suffix always exists; skip the
            // candidate defensively rather than panic.
            let Some(cand) = name.suffix(n) else { continue };
            match self.rules.get(cand) {
                Some(RuleKind::Exception) => {
                    // Exception rule: the matched name itself is
                    // registrable, so the public suffix is one label
                    // shorter.
                    return Some(n - 1);
                }
                Some(RuleKind::Normal) => {
                    best = Some(best.map_or(n, |b: usize| b.max(n)));
                }
                Some(RuleKind::Wildcard) => {
                    // `*.cand`: one more label than the rule body is
                    // public, provided the name actually has it.
                    if total > n {
                        best = Some(best.map_or(n + 1, |b: usize| b.max(n + 1)));
                    } else {
                        best = Some(best.map_or(n, |b: usize| b.max(n)));
                    }
                }
                None => {}
            }
        }
        best
    }

    /// Extracts the registered domain of `name`.
    ///
    /// Returns `None` when the name *is* a public suffix (nothing is
    /// registered) — e.g. `co.uk` or a bare TLD.
    pub fn registered_domain(&self, name: &DomainName) -> Option<RegisteredDomain> {
        let total = name.label_count();
        let suffix_labels = self.suffix_labels(name).unwrap_or(1);
        if total <= suffix_labels {
            return None;
        }
        // The early return above guarantees `suffix_labels + 1 <=
        // total`, so the suffix always exists.
        let text = name.suffix(suffix_labels + 1)?.to_string();
        Some(RegisteredDomain {
            text,
            suffix_labels: suffix_labels as u8,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> SuffixList {
        SuffixList::builtin()
    }

    fn reg(s: &str) -> Option<String> {
        psl()
            .registered_domain(&DomainName::parse(s).unwrap())
            .map(|r| r.as_str().to_string())
    }

    #[test]
    fn simple_tld() {
        assert_eq!(reg("example.com").as_deref(), Some("example.com"));
        assert_eq!(reg("www.example.com").as_deref(), Some("example.com"));
        assert_eq!(reg("a.b.c.example.com").as_deref(), Some("example.com"));
    }

    #[test]
    fn second_level_registry() {
        assert_eq!(reg("example.co.uk").as_deref(), Some("example.co.uk"));
        assert_eq!(
            reg("www.shop.example.co.uk").as_deref(),
            Some("example.co.uk")
        );
    }

    #[test]
    fn suffix_itself_is_not_registrable() {
        assert_eq!(reg("co.uk"), None);
    }

    #[test]
    fn wildcard_rules() {
        // *.ck: everything one level under ck is a suffix.
        assert_eq!(reg("foo.ck"), None);
        assert_eq!(reg("bar.foo.ck").as_deref(), Some("bar.foo.ck"));
    }

    #[test]
    fn exception_rules() {
        // !www.ck cancels the wildcard: www.ck is registrable under ck.
        assert_eq!(reg("www.ck").as_deref(), Some("www.ck"));
        assert_eq!(reg("sub.www.ck").as_deref(), Some("www.ck"));
    }

    #[test]
    fn unknown_tld_defaults_to_single_label_suffix() {
        assert_eq!(reg("example.zz").as_deref(), Some("example.zz"));
        assert_eq!(reg("www.example.zz").as_deref(), Some("example.zz"));
    }

    #[test]
    fn accessors() {
        let r = psl()
            .registered_domain(&DomainName::parse("www.example.co.uk").unwrap())
            .unwrap();
        assert_eq!(r.as_str(), "example.co.uk");
        assert_eq!(r.suffix_label_count(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SuffixList::parse("bad_rule").is_err());
    }
}
