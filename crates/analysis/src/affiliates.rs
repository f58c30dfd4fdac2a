//! Figs 5–6: RX-Promotion affiliate coverage.
//!
//! RX-Promotion embeds an affiliate identifier in its storefront pages
//! (§4.2.3); the crawler extracts it, so every feed maps to a set of
//! observed affiliate ids. Fig 5 compares these sets pairwise; Fig 6
//! weights each feed's set by the affiliates' (leaked) annual revenue
//! — "a feed's value lies not in how many affiliates it covers, but in
//! how much revenue it covers".

use crate::classify::{Category, Classified};
use crate::matrix::{OverlapCell, PairwiseMatrix};
use std::collections::BTreeSet;
use taster_ecosystem::ids::AffiliateId;
use taster_ecosystem::program::{ProgramRoster, RX_PROGRAM};
use taster_feeds::FeedId;

/// RX affiliate ids observed in one feed.
pub fn rx_affiliates_of(classified: &Classified, feed: FeedId) -> BTreeSet<AffiliateId> {
    classified
        .set(feed, Category::Tagged)
        .iter()
        .filter_map(|d| classified.crawl.get(d).and_then(|r| r.tag))
        .filter(|t| t.program == RX_PROGRAM)
        .filter_map(|t| t.affiliate)
        .collect()
}

/// Fig 5: pairwise affiliate-id coverage with the "All" column.
pub fn affiliate_coverage(classified: &Classified) -> PairwiseMatrix<OverlapCell> {
    let per_feed: Vec<BTreeSet<AffiliateId>> = FeedId::ALL
        .iter()
        .map(|&f| rx_affiliates_of(classified, f))
        .collect();
    let mut all: BTreeSet<AffiliateId> = BTreeSet::new();
    for s in &per_feed {
        all.extend(s.iter().copied());
    }
    PairwiseMatrix::build(
        &FeedId::ALL,
        Some("All"),
        |row, col| {
            let a = &per_feed[row.index()];
            let b = &per_feed[col.index()];
            let count = a.intersection(b).count();
            OverlapCell {
                count,
                fraction: if b.is_empty() {
                    0.0
                } else {
                    count as f64 / b.len() as f64
                },
            }
        },
        |row| {
            let a = &per_feed[row.index()];
            OverlapCell {
                count: a.len(),
                fraction: if all.is_empty() {
                    0.0
                } else {
                    a.len() as f64 / all.len() as f64
                },
            }
        },
    )
}

/// One bar of Fig 6.
#[derive(Debug, Clone, Copy)]
pub struct RevenueBar {
    /// The feed.
    pub feed: FeedId,
    /// Covered RX affiliates.
    pub affiliates: usize,
    /// Their summed annual revenue, USD.
    pub revenue_usd: f64,
    /// Share of total RX revenue.
    pub revenue_share: f64,
}

/// Fig 6: revenue-weighted affiliate coverage.
pub fn revenue_coverage(classified: &Classified, roster: &ProgramRoster) -> Vec<RevenueBar> {
    let total = roster.rx_total_revenue();
    FeedId::ALL
        .iter()
        .map(|&feed| {
            // Summed in ascending affiliate-id order, the set's own.
            let affs = rx_affiliates_of(classified, feed);
            let revenue_usd: f64 = affs
                .iter()
                .map(|&a| roster.affiliate(a).annual_revenue_usd)
                .sum();
            RevenueBar {
                feed,
                affiliates: affs.len(),
                revenue_usd,
                revenue_share: if total > 0.0 {
                    revenue_usd / total
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifyOptions;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn setup() -> (MailWorld, Classified) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), 101).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.05)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let c = Classified::build(&world.truth, &feeds, ClassifyOptions::default());
        (world, c)
    }

    #[test]
    fn empty_feeds_yield_zero_revenue_without_nan() {
        // Regression: a blacked-out run sums revenue over an empty
        // affiliate set — every bar must be exactly zero, never NaN.
        use taster_feeds::Feed;
        let truth = GroundTruth::generate(&EcosystemConfig::default().with_scale(0.01), 5).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.01)).unwrap();
        let feeds =
            taster_feeds::FeedSet::new(FeedId::ALL.iter().map(|&id| Feed::new(id, true)).collect());
        let c = Classified::build(&world.truth, &feeds, ClassifyOptions::default());
        for bar in revenue_coverage(&c, &world.truth.roster) {
            assert_eq!(bar.affiliates, 0, "{}", bar.feed);
            assert_eq!(bar.revenue_usd, 0.0, "{}", bar.feed);
            assert_eq!(bar.revenue_share, 0.0, "{}", bar.feed);
        }
        let m = affiliate_coverage(&c);
        for row in FeedId::ALL {
            let cell = m.get_extra(row);
            assert_eq!(cell.count, 0);
            assert!(!cell.fraction.is_nan());
        }
    }

    #[test]
    fn hu_leads_affiliate_coverage_bot_trails() {
        let (_, c) = setup();
        let m = affiliate_coverage(&c);
        let hu = m.get_extra(FeedId::Hu).count;
        let bot = m.get_extra(FeedId::Bot).count;
        assert!(hu > 0);
        assert!(bot < hu / 4, "Bot {bot} ≪ Hu {hu}");
        assert!(m.get_extra(FeedId::Hu).fraction > 0.8);
    }

    #[test]
    fn revenue_tracks_affiliates_but_skews_high() {
        let (world, c) = setup();
        let bars = revenue_coverage(&c, &world.truth.roster);
        let hu = bars.iter().find(|b| b.feed == FeedId::Hu).unwrap();
        let dbl = bars.iter().find(|b| b.feed == FeedId::Dbl).unwrap();
        // At reduced scale only ~campaign_scale of RX affiliates run
        // campaigns at all, so shares are small in absolute terms; the
        // full-scale Fig 6 check lives in the integration suite. Here:
        // Hu's revenue coverage leads every e-mail feed's.
        assert!(hu.revenue_share > 0.0, "Hu share {}", hu.revenue_share);
        for b in &bars {
            if !matches!(b.feed, FeedId::Hu | FeedId::Dbl | FeedId::Hyb) {
                assert!(
                    hu.revenue_usd >= b.revenue_usd,
                    "Hu {} >= {} {}",
                    hu.revenue_usd,
                    b.feed,
                    b.revenue_usd
                );
            }
        }
        assert!(hu.revenue_usd >= dbl.revenue_usd);
        // Revenue concentration: a feed covering x% of affiliates
        // should generally cover more than x% of revenue (blacklists
        // catch the big, loud affiliates).
        if dbl.affiliates > 0 && hu.affiliates > 0 {
            let aff_ratio = dbl.affiliates as f64 / hu.affiliates as f64;
            let rev_ratio = dbl.revenue_usd / hu.revenue_usd;
            assert!(
                rev_ratio > aff_ratio * 0.8,
                "revenue ratio {rev_ratio:.2} vs affiliate ratio {aff_ratio:.2}"
            );
        }
        for b in &bars {
            assert!((0.0..=1.0).contains(&b.revenue_share));
        }
    }
}
