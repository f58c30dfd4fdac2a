//! Domain-name generators used by the ecosystem simulator.
//!
//! Two generator families correspond to two phenomena in the paper:
//!
//! * [`BrandableGen`] — pronounceable store-front names of the kind
//!   affiliate programs register in bulk ("new domains must be
//!   constantly registered and assigned", §4.2.3, footnote 6).
//! * [`DgaGen`] — random-character names, modelling the several-week
//!   window in which the Rustock botnet spammed randomly-generated
//!   domains (§4.1.1), poisoning the `Bot` and `mx2` feeds.

use rand::{Rng, RngExt};

/// TLD pools with rough relative registration weights, used when a
/// generator needs to pick a TLD. The skew towards `com`/`net`/`ru`
/// mirrors where 2010-era spam domains were registered.
pub const SPAM_TLD_POOL: &[(&str, u32)] = &[
    ("com", 55),
    ("net", 12),
    ("ru", 12),
    ("org", 6),
    ("info", 6),
    ("biz", 4),
    ("in", 2),
    ("co.uk", 2),
    ("us", 1),
];

/// TLD pool for benign/legitimate domains.
pub const BENIGN_TLD_POOL: &[(&str, u32)] = &[
    ("com", 50),
    ("org", 14),
    ("net", 10),
    ("edu", 6),
    ("gov", 2),
    ("co.uk", 6),
    ("de", 6),
    ("fr", 3),
    ("co.jp", 3),
];

/// Picks a TLD from a weighted pool.
pub fn pick_tld<R: Rng>(rng: &mut R, pool: &[(&'static str, u32)]) -> &'static str {
    let total: u32 = pool.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.random_range(0..total);
    for &(tld, w) in pool {
        if roll < w {
            return tld;
        }
        roll -= w;
    }
    // The roll is bounded by the total weight, so a non-empty pool
    // always returns inside the loop; fall back to the final entry
    // (or `com` for an empty pool) rather than panic.
    pool.last().map_or("com", |&(tld, _)| tld)
}

/// Generator for pronounceable, store-like registrant labels.
///
/// Names are built from CV/CVC syllables with optional spam-flavoured
/// affixes (`my`, `best`, `-shop`, `-rx`, digits), giving a large,
/// collision-light namespace that still *looks* like 2010 spam.
#[derive(Debug, Clone)]
pub struct BrandableGen {
    /// Minimum number of syllables.
    pub min_syllables: usize,
    /// Maximum number of syllables (inclusive).
    pub max_syllables: usize,
    /// Probability of a spammy prefix.
    pub prefix_prob: f64,
    /// Probability of a spammy suffix.
    pub suffix_prob: f64,
    /// Probability of appending 1–3 digits.
    pub digit_prob: f64,
    /// Probability of minting an IDN (`xn--`) label instead — Cyrillic
    /// homograph-style names, encoded with the RFC 3492 codec.
    pub idn_prob: f64,
}

impl Default for BrandableGen {
    fn default() -> Self {
        BrandableGen {
            min_syllables: 2,
            max_syllables: 4,
            prefix_prob: 0.20,
            suffix_prob: 0.30,
            digit_prob: 0.15,
            idn_prob: 0.015,
        }
    }
}

const ONSETS: &[&str] = &[
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch",
    "sh", "st", "dr", "pl", "tr", "gr",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ia", "ea", "oo"];
const CODAS: &[&str] = &["", "", "", "n", "r", "s", "x", "l", "m"];
const PREFIXES: &[&str] = &["my", "best", "top", "e", "go", "buy", "the"];
const SUFFIXES: &[&str] = &[
    "shop", "store", "rx", "meds", "deal", "mart", "online", "direct",
];

const CYRILLIC: &[char] = &[
    'а', 'б', 'в', 'г', 'д', 'е', 'и', 'к', 'л', 'м', 'н', 'о', 'п', 'р', 'с', 'т', 'у',
];

impl BrandableGen {
    /// Generates a registrant label (no TLD).
    pub fn label<R: Rng>(&self, rng: &mut R) -> String {
        let mut s = String::new();
        self.label_into(rng, &mut s);
        s
    }

    /// Appends a registrant label to `out` — the allocation-free form
    /// of [`label`](Self::label), for callers generating names in bulk
    /// into a reused buffer. Draw-for-draw identical to `label`.
    pub fn label_into<R: Rng>(&self, rng: &mut R, out: &mut String) {
        if rng.random_bool(self.idn_prob) {
            // Homograph-flavoured IDN label, shipped in ACE form like
            // every wire artifact in the pipeline.
            let len = rng.random_range(4..=9usize);
            let unicode: String = (0..len)
                .map(|_| CYRILLIC[rng.random_range(0..CYRILLIC.len())])
                .collect();
            // Pure-Cyrillic labels always encode; on the impossible
            // failure fall through to the ASCII syllable generator.
            if let Ok(ace) = crate::punycode::to_ascii_label(&unicode) {
                out.push_str(&ace);
                return;
            }
        }
        if rng.random_bool(self.prefix_prob) {
            out.push_str(PREFIXES[rng.random_range(0..PREFIXES.len())]);
        }
        let n = rng.random_range(self.min_syllables..=self.max_syllables);
        for _ in 0..n {
            out.push_str(ONSETS[rng.random_range(0..ONSETS.len())]);
            out.push_str(VOWELS[rng.random_range(0..VOWELS.len())]);
            out.push_str(CODAS[rng.random_range(0..CODAS.len())]);
        }
        if rng.random_bool(self.suffix_prob) {
            out.push('-');
            out.push_str(SUFFIXES[rng.random_range(0..SUFFIXES.len())]);
        }
        if rng.random_bool(self.digit_prob) {
            let digits = rng.random_range(1..=3u32);
            for _ in 0..digits {
                out.push(char::from(b'0' + rng.random_range(0..10u8)));
            }
        }
    }

    /// Generates a full registered domain using a weighted TLD pool.
    pub fn domain<R: Rng>(&self, rng: &mut R, pool: &[(&'static str, u32)]) -> String {
        let mut s = String::new();
        self.domain_into(rng, pool, &mut s);
        s
    }

    /// Appends a full registered domain to `out`; draw-for-draw
    /// identical to [`domain`](Self::domain) (label first, then TLD).
    pub fn domain_into<R: Rng>(&self, rng: &mut R, pool: &[(&'static str, u32)], out: &mut String) {
        self.label_into(rng, out);
        out.push('.');
        out.push_str(pick_tld(rng, pool));
    }
}

/// Generator for DGA-style random names (the Rustock poisoning).
///
/// Labels are uniform random lowercase strings; nearly none of them is
/// a registered domain, which is exactly the property the poisoning
/// exploited ("such bogus domains cost spammers nearly nothing…").
#[derive(Debug, Clone)]
pub struct DgaGen {
    /// Minimum label length.
    pub min_len: usize,
    /// Maximum label length (inclusive).
    pub max_len: usize,
}

impl Default for DgaGen {
    fn default() -> Self {
        DgaGen {
            min_len: 8,
            max_len: 16,
        }
    }
}

impl DgaGen {
    /// Generates a random registrant label.
    pub fn label<R: Rng>(&self, rng: &mut R) -> String {
        let mut s = String::new();
        self.label_into(rng, &mut s);
        s
    }

    /// Appends a random registrant label to `out`; draw-for-draw
    /// identical to [`label`](Self::label).
    pub fn label_into<R: Rng>(&self, rng: &mut R, out: &mut String) {
        let len = rng.random_range(self.min_len..=self.max_len);
        for _ in 0..len {
            out.push(char::from(b'a' + rng.random_range(0..26u8)));
        }
    }

    /// Generates a full random domain; Rustock used mostly `.com`.
    pub fn domain<R: Rng>(&self, rng: &mut R) -> String {
        let mut s = String::new();
        self.domain_into(rng, &mut s);
        s
    }

    /// Appends a full random domain to `out`; draw-for-draw identical
    /// to [`domain`](Self::domain) (TLD coin first, then the label).
    pub fn domain_into<R: Rng>(&self, rng: &mut R, out: &mut String) {
        let tld = if rng.random_bool(0.85) { "com" } else { "net" };
        self.label_into(rng, out);
        out.push('.');
        out.push_str(tld);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DomainName;
    use crate::psl::SuffixList;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn brandable_domains_are_valid_registered_domains() {
        let psl = SuffixList::builtin();
        let gen = BrandableGen::default();
        let mut r = rng();
        for _ in 0..500 {
            let d = gen.domain(&mut r, SPAM_TLD_POOL);
            let name = DomainName::parse(&d).unwrap_or_else(|e| panic!("{d}: {e}"));
            let reg = psl.registered_domain(&name).expect("registrable");
            assert_eq!(reg.as_str(), d, "generator must emit registered domains");
        }
    }

    #[test]
    fn dga_domains_are_valid() {
        let gen = DgaGen::default();
        let mut r = rng();
        for _ in 0..500 {
            let d = gen.domain(&mut r);
            DomainName::parse(&d).unwrap();
        }
    }

    #[test]
    fn dga_collision_rate_is_negligible() {
        let gen = DgaGen::default();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(gen.domain(&mut r));
        }
        assert!(seen.len() > 9_990);
    }

    #[test]
    fn idn_labels_are_valid_ace_forms() {
        let gen = BrandableGen {
            idn_prob: 1.0,
            ..BrandableGen::default()
        };
        let mut r = rng();
        for _ in 0..200 {
            let label = gen.label(&mut r);
            assert!(label.starts_with("xn--"), "{label}");
            crate::label::validate_label(&label).unwrap();
            // The ACE form decodes back to pure Cyrillic.
            let unicode = crate::punycode::to_unicode_label(&label).unwrap();
            assert!(unicode.chars().all(|c| !c.is_ascii()), "{unicode}");
        }
    }

    #[test]
    fn tld_pick_respects_pool() {
        let mut r = rng();
        for _ in 0..100 {
            let t = pick_tld(&mut r, SPAM_TLD_POOL);
            assert!(SPAM_TLD_POOL.iter().any(|&(x, _)| x == t));
        }
    }

    /// The buffer-writing forms must stay draw-for-draw identical to
    /// the allocating ones: the whole ground-truth universe hangs off
    /// this RNG stream, so any divergence changes every report byte.
    #[test]
    fn into_forms_match_allocating_forms() {
        let brand = BrandableGen {
            idn_prob: 0.25, // exercise the IDN branch often
            ..BrandableGen::default()
        };
        let dga = DgaGen::default();
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        let mut buf = String::new();
        for _ in 0..300 {
            buf.clear();
            brand.domain_into(&mut a, SPAM_TLD_POOL, &mut buf);
            assert_eq!(buf, brand.domain(&mut b, SPAM_TLD_POOL));
            buf.clear();
            dga.domain_into(&mut a, &mut buf);
            assert_eq!(buf, dga.domain(&mut b));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = BrandableGen::default();
        let a: Vec<String> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..20).map(|_| gen.domain(&mut r, SPAM_TLD_POOL)).collect()
        };
        let b: Vec<String> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..20).map(|_| gen.domain(&mut r, SPAM_TLD_POOL)).collect()
        };
        assert_eq!(a, b);
    }
}
