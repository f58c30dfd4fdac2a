//! Fig 3: volume coverage against the incoming-mail oracle.
//!
//! For each feed and category (live / tagged), the share of oracle
//! message volume covered by the feed's domains, plus the *overhang* —
//! the volume attributable to the feed's Alexa/ODP-listed (excluded)
//! domains. The denominator is the oracle volume over the union of
//! all feeds' category domains plus all feeds' benign-listed domains,
//! so a bar of 1.0 would mean "covers every message the oracle
//! attributes to any feed's domains".

use crate::classify::{Category, Classified};
use taster_domain::DomainBitset as DomainSet;
use taster_feeds::FeedId;
use taster_stats::EmpiricalDist;

/// One bar of Fig 3.
#[derive(Debug, Clone, Copy)]
pub struct VolumeBar {
    /// The feed.
    pub feed: FeedId,
    /// Oracle-volume share of the feed's live (or tagged) domains.
    pub covered: f64,
    /// Additional share from the feed's Alexa/ODP-listed domains.
    pub benign_overhang: f64,
}

/// Computes Fig 3 for one category.
pub fn volume_coverage(
    classified: &Classified,
    oracle: &EmpiricalDist,
    category: Category,
) -> Vec<VolumeBar> {
    let mut denom_set = classified.union(&FeedId::ALL, category);
    for id in FeedId::ALL {
        denom_set.union_with(&classified.feed(id).benign_listed);
    }
    let denom: u64 = denom_set.iter().map(|d| oracle.count(d.0)).sum();

    FeedId::ALL
        .iter()
        .map(|&feed| {
            let volume_of =
                |set: &DomainSet| -> u64 { set.iter().map(|d| oracle.count(d.0)).sum() };
            let covered = volume_of(classified.set(feed, category));
            let overhang = volume_of(&classified.feed(feed).benign_listed);
            VolumeBar {
                feed,
                covered: ratio(covered, denom),
                benign_overhang: ratio(overhang, denom),
            }
        })
        .collect()
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn setup() -> (MailWorld, Classified) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 89).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let c = classify_clean(&world.truth, &feeds);
        (world, c)
    }

    #[test]
    fn shares_are_bounded() {
        let (world, c) = setup();
        for cat in [Category::Live, Category::Tagged] {
            for bar in volume_coverage(&c, &world.provider.oracle, cat) {
                assert!((0.0..=1.0).contains(&bar.covered), "{bar:?}");
                assert!((0.0..=1.0).contains(&bar.benign_overhang));
                assert!(bar.covered + bar.benign_overhang <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn benign_overhang_dominates_live_for_raw_feeds() {
        // The paper's Fig 3 point: before exclusion, Alexa/ODP domains
        // carry most of the "live" volume in content-derived feeds.
        let (world, c) = setup();
        let bars = volume_coverage(&c, &world.provider.oracle, Category::Live);
        let mx2 = bars.iter().find(|b| b.feed == FeedId::Mx2).unwrap();
        assert!(
            mx2.benign_overhang > mx2.covered,
            "mx2 overhang {} vs covered {}",
            mx2.benign_overhang,
            mx2.covered
        );
    }

    #[test]
    fn blacklists_have_small_overhang() {
        let (world, c) = setup();
        let bars = volume_coverage(&c, &world.provider.oracle, Category::Tagged);
        for id in [FeedId::Dbl, FeedId::Uribl] {
            let b = bars.iter().find(|b| b.feed == id).unwrap();
            assert!(
                b.benign_overhang < 0.25,
                "{id} overhang {}",
                b.benign_overhang
            );
        }
    }
}
