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

    /// Extracts the registered domains advertised in `body`, resolved
    /// against `table`, deduplicated, in order of first appearance.
    pub fn registered_domains(&self, body: &str, table: &DomainTable) -> Vec<DomainId> {
        self.registered_domains_with_hosts(body, table)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Like [`Self::registered_domains`] but also returns a stable
    /// 64-bit hash of each fully-qualified hostname — URL-granularity
    /// feeds track distinct FQDNs through these (the paper's §3.1
    /// point: spammers mint arbitrary names *below* the registered
    /// domain, so FQDN-level blacklisting is futile).
    pub fn registered_domains_with_hosts(
        &self,
        body: &str,
        table: &DomainTable,
    ) -> Vec<(DomainId, u64)> {
        let mut out = Vec::new();
        self.registered_domains_into(body, table, &mut out);
        out
    }

    /// [`Self::registered_domains_with_hosts`] into a caller-owned
    /// buffer (appended to), for hot loops that reuse one allocation
    /// across messages.
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
            let hash = fnv64(url.host.as_str().as_bytes());
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

/// FNV-1a, the stable hostname hash used for FQDN cardinality.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// [`fnv64`] over the concatenation of `parts`, allocation-free —
/// hashes `sub ++ domain` hosts without building the host string.
pub fn fnv64_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_and_dedupes() {
        let mut table = DomainTable::new();
        let a = table.intern_str("pills.com");
        let b = table.intern_str("chaff.org");
        let body = "buy http://www.pills.com/x and http://pills.com/y \
                    via http://sub.chaff.org/";
        let ex = DomainExtractor::new();
        assert_eq!(ex.registered_domains(body, &table), vec![a, b]);
    }

    #[test]
    fn handles_multi_label_suffixes() {
        let mut table = DomainTable::new();
        let a = table.intern_str("shop.co.uk");
        let ex = DomainExtractor::new();
        let got = ex.registered_domains("see http://www.shop.co.uk/sale", &table);
        assert_eq!(got, vec![a]);
    }

    #[test]
    fn ignores_bodies_without_urls() {
        let table = DomainTable::new();
        let ex = DomainExtractor::new();
        assert!(ex.registered_domains("no links here", &table).is_empty());
    }
}
