//! Message-to-domains reduction.
//!
//! Full-content collectors receive message text; the common
//! denominator across feeds is the *registered domain* (§3). This
//! module performs that reduction: scan the body for URLs, validate
//! hosts, reduce to registered domains, resolve them against the
//! domain table. Unknown domains (not in the simulated universe) are
//! dropped — they cannot occur in a well-formed simulation, and the
//! debug assertion flags the pipeline bug if they ever do.

use taster_domain::psl::SuffixList;
use taster_domain::url::extract_urls;
use taster_domain::{DomainId, DomainTable};
use taster_sim::rng::{fnv1a64, FNV1A64_OFFSET};

/// A reusable extractor (owns the compiled suffix list).
#[derive(Debug, Clone)]
pub struct DomainExtractor {
    psl: SuffixList,
}

impl Default for DomainExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl DomainExtractor {
    /// Builds an extractor with the built-in suffix rules.
    pub fn new() -> DomainExtractor {
        DomainExtractor {
            psl: SuffixList::builtin(),
        }
    }

    /// Appends the registered domains advertised in `body`, resolved
    /// against `table`, deduplicated, in order of first appearance,
    /// each with the FNV-1a hash ([`fnv1a64`]) of its fully-qualified
    /// hostname — URL-granularity feeds track distinct FQDNs through
    /// these (the paper's §3.1 point: spammers mint arbitrary names
    /// *below* the registered domain, so FQDN-level blacklisting is
    /// futile). The buffer is the caller's, so hot loops reuse one
    /// allocation across messages.
    pub fn registered_domains_into(
        &self,
        body: &str,
        table: &DomainTable,
        out: &mut Vec<(DomainId, u64)>,
    ) {
        let start = out.len();
        for url in extract_urls(body) {
            let Some(reg) = self.psl.registered_domain(&url.host) else {
                continue;
            };
            let Some(id) = table.get(reg.as_str()) else {
                debug_assert!(false, "unknown domain {} in rendered body", reg);
                continue;
            };
            let hash = fnv1a64(FNV1A64_OFFSET, url.host.as_str().as_bytes());
            if !out[start..].iter().any(|&(d, _)| d == id) {
                out.push((id, hash));
            }
        }
    }
}

impl DomainExtractor {
    /// True when `text` round-trips host parsing unchanged and is its
    /// own registered domain. Every generated domain satisfies this
    /// (the world builder asserts it in debug builds), and the
    /// collection kernel's render-free records rest on it: prefixing
    /// any of the renderer's subdomain labels then reduces
    /// `prefix ++ text` back to exactly `text` (suffix matching is
    /// right-anchored, and a generated label cannot extend a
    /// public-suffix rule leftwards).
    pub fn fast_reducible(&self, text: &str) -> bool {
        let Ok(name) = taster_domain::DomainName::parse(text) else {
            return false;
        };
        name.as_str() == text
            && self
                .psl
                .registered_domain(&name)
                .is_some_and(|r| r.as_str() == text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registered domains extracted from `body`, hashes dropped.
    fn registered_domains(body: &str, table: &DomainTable) -> Vec<DomainId> {
        let mut out = Vec::new();
        DomainExtractor::new().registered_domains_into(body, table, &mut out);
        out.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn extracts_and_dedupes() {
        let mut table = DomainTable::new();
        let a = table.intern_str("pills.com");
        let b = table.intern_str("chaff.org");
        let body = "buy http://www.pills.com/x and http://pills.com/y \
                    via http://sub.chaff.org/";
        assert_eq!(registered_domains(body, &table), vec![a, b]);
    }

    #[test]
    fn handles_multi_label_suffixes() {
        let mut table = DomainTable::new();
        let a = table.intern_str("shop.co.uk");
        let got = registered_domains("see http://www.shop.co.uk/sale", &table);
        assert_eq!(got, vec![a]);
    }

    #[test]
    fn ignores_bodies_without_urls() {
        let table = DomainTable::new();
        assert!(registered_domains("no links here", &table).is_empty());
    }
}
