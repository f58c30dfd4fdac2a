//! Property tests for the invariant the collection kernel computes
//! records on (`DomainExtractor::fast_reducible`): every name the
//! domain generators emit is its own registered domain, and stays so
//! under every subdomain the message renderer prefixes. So collection
//! renders no message but a truncated one.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use taster_domain::gen::{BrandableGen, DgaGen, BENIGN_TLD_POOL, SPAM_TLD_POOL};
use taster_domain::psl::SuffixList;
use taster_domain::DomainName;
use taster_mailsim::render::SUBDOMAINS;
use taster_sim::rng::StreamKey;
use taster_sim::RngStream;

/// Names drawn from each generator per case.
const NAMES: usize = 48;

/// This suite's RNG streams, one per generator.
#[derive(Clone, Copy)]
enum Stream {
    Brandable,
    Dga,
}

impl StreamKey for Stream {
    const ALL: &'static [Stream] = &[Stream::Brandable, Stream::Dga];

    fn name(&self) -> &str {
        match self {
            Stream::Brandable => "test/brandable",
            Stream::Dga => "test/dga",
        }
    }
}

/// Under every renderer prefix (the empty one included) a name parses
/// unchanged and reduces back to itself.
fn check_name(name: &str, psl: &SuffixList) -> Result<(), TestCaseError> {
    for sub in SUBDOMAINS {
        let host = format!("{sub}{name}");
        let parsed = DomainName::parse(&host)
            .map_err(|e| TestCaseError::fail(format!("{host} does not parse: {e}")))?;
        prop_assert_eq!(parsed.as_str(), host.as_str());
        let reduced = psl.registered_domain(&parsed);
        prop_assert!(
            reduced.is_some_and(|r| r.as_str() == name),
            "{host} does not reduce to {name}"
        );
    }
    Ok(())
}

/// Brandable generators over the syllable range the universe uses,
/// with every affix and IDN probability free.
fn brandable() -> impl Strategy<Value = BrandableGen> {
    let probs = (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0);
    ((2usize..=4, 0usize..=2), probs).prop_map(|((min, extra), (prefix, suffix, digit, idn))| {
        BrandableGen {
            min_syllables: min,
            max_syllables: min + extra,
            prefix_prob: prefix,
            suffix_prob: suffix,
            digit_prob: digit,
            idn_prob: idn,
        }
    })
}

proptest! {
    #[test]
    fn brandable_names_reduce_to_themselves(gen in brandable(), seed in any::<u64>()) {
        let psl = SuffixList::builtin();
        let mut rng = RngStream::new(seed, Stream::Brandable);
        for pool in [SPAM_TLD_POOL, BENIGN_TLD_POOL] {
            for _ in 0..NAMES {
                check_name(&gen.domain(&mut rng, pool), &psl)?;
            }
        }
    }

    #[test]
    fn dga_names_reduce_to_themselves(
        min_len in 1usize..=16,
        extra in 0usize..=16,
        seed in any::<u64>(),
    ) {
        let psl = SuffixList::builtin();
        let gen = DgaGen { min_len, max_len: min_len + extra };
        let mut rng = RngStream::new(seed, Stream::Dga);
        for _ in 0..NAMES {
            check_name(&gen.domain(&mut rng), &psl)?;
        }
    }
}
