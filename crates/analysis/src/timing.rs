//! Figs 9–12: timing.
//!
//! Lacking perfect knowledge of campaign starts, the paper anchors on
//! the feeds themselves: a domain's *campaign start* is its earliest
//! appearance across a chosen set of reference feeds; its *campaign
//! end* is its last appearance across live-mail feeds (§4.4). Each
//! feed is then scored by the distribution of:
//!
//! * relative first appearance (Figs 9–10),
//! * last-appearance error (Fig 11),
//! * duration error (Fig 12).

use crate::classify::{Category, Classified};
use taster_domain::DomainId;
use taster_feeds::{DomainStats, FeedId, FeedSet};
use taster_sim::{SimTime, DAY, HOUR};
use taster_stats::Boxplot;

/// The domain set used by a timing analysis: tagged domains appearing
/// in **every** feed of `required` (the paper intersects feeds so each
/// has a defined appearance time; Bot is excluded because its overlap
/// is too small).
pub fn common_tagged_domains(classified: &Classified, required: &[FeedId]) -> Vec<DomainId> {
    let mut iter = required.iter();
    let Some(&first) = iter.next() else {
        return Vec::new();
    };
    let mut common = classified.set(first, Category::Tagged).clone();
    for &f in iter {
        common.intersect_with(classified.set(f, Category::Tagged));
    }
    common.iter().collect()
}

/// Per-feed distribution of relative first-appearance times, in days.
///
/// `reference` defines campaign start (earliest first-seen across
/// those feeds); `scored` are the feeds reported. Returns
/// `(feed, boxplot)` pairs, skipping feeds with no data.
pub fn first_appearance(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
) -> Vec<(FeedId, Boxplot)> {
    per_feed(feeds, classified, reference, scored, |start, _, own| {
        own.first_seen.signed_diff(start) as f64 / DAY as f64
    })
}

/// Per-feed distribution of last-appearance error in hours: campaign
/// end (max last-seen across `reference`, all live-mail feeds) minus
/// the feed's own last appearance (Fig 11).
pub fn last_appearance(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
) -> Vec<(FeedId, Boxplot)> {
    per_feed(feeds, classified, reference, scored, |_, end, own| {
        end.signed_diff(own.last_seen) as f64 / HOUR as f64
    })
}

/// Per-feed distribution of duration error in hours: estimated
/// campaign duration (reference end − reference start) minus the
/// feed's own observed lifetime (Fig 12). Always ≥ 0 for feeds inside
/// the reference set.
pub fn duration_error(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
) -> Vec<(FeedId, Boxplot)> {
    per_feed(feeds, classified, reference, scored, |start, end, own| {
        let campaign = end.signed_diff(start) as f64;
        let lifetime = own.last_seen.signed_diff(own.first_seen) as f64;
        (campaign - lifetime) / HOUR as f64
    })
}

/// The loop behind the three timing figures: for each scored feed, the
/// boxplot of `value(start, end, own)` over the tagged domains common
/// to `reference`. `start` and `end` are a domain's earliest first-seen
/// and latest last-seen across the reference feeds, `own` its stats in
/// the scored feed; a domain the scored feed lacks is skipped, and so
/// is a feed with no values.
fn per_feed(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
    value: impl Fn(SimTime, SimTime, DomainStats) -> f64,
) -> Vec<(FeedId, Boxplot)> {
    let domains = common_tagged_domains(classified, reference);
    scored
        .iter()
        .filter_map(|&feed| {
            let mut values = Vec::new();
            for &d in &domains {
                let span = reference
                    .iter()
                    .filter_map(|&r| feeds.get(r).stats(d))
                    .map(|s| (s.first_seen, s.last_seen))
                    .reduce(|(start, end), (first, last)| (start.min(first), end.max(last)));
                let Some((start, end)) = span else { continue };
                let Some(own) = feeds.get(feed).stats(d) else {
                    continue;
                };
                values.push(value(start, end, own));
            }
            Boxplot::from_values(&values).map(|b| (feed, b))
        })
        .collect()
}

/// The paper's Fig 9 feed set: everything except Bot and Hyb.
pub const FIG9_FEEDS: [FeedId; 8] = [
    FeedId::Ac2,
    FeedId::Ac1,
    FeedId::Mx3,
    FeedId::Mx2,
    FeedId::Mx1,
    FeedId::Uribl,
    FeedId::Dbl,
    FeedId::Hu,
];

/// The honeypot/account feeds of Figs 10–12.
pub const HONEYPOT_FEEDS: [FeedId; 5] = [
    FeedId::Ac2,
    FeedId::Ac1,
    FeedId::Mx3,
    FeedId::Mx2,
    FeedId::Mx1,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn setup() -> (FeedSet, Classified) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.15), 107).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.15)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let c = classify_clean(&world.truth, &feeds);
        (feeds, c)
    }

    fn get(rows: &[(FeedId, Boxplot)], id: FeedId) -> Boxplot {
        rows.iter()
            .find(|(f, _)| *f == id)
            .map(|(_, b)| *b)
            .unwrap()
    }

    /// Fig 9 reference minus the narrowest feeds so the intersection
    /// is well-populated at reduced test scale.
    const TEST_REF: [FeedId; 6] = [
        FeedId::Ac1,
        FeedId::Mx2,
        FeedId::Mx1,
        FeedId::Uribl,
        FeedId::Dbl,
        FeedId::Hu,
    ];

    #[test]
    fn first_appearance_is_nonnegative_and_hu_is_early() {
        let (feeds, c) = setup();
        let rows = first_appearance(&feeds, &c, &TEST_REF, &TEST_REF);
        assert!(!rows.is_empty());
        for (f, b) in &rows {
            assert!(b.min >= -1e-9, "{f}: min {b:?}");
            assert!(b.n >= 20, "{f}: thin sample {}", b.n);
        }
        let hu = get(&rows, FeedId::Hu);
        let dbl = get(&rows, FeedId::Dbl);
        let mx1 = get(&rows, FeedId::Mx1);
        assert!(
            hu.median < mx1.median,
            "Hu median {:.2}d < mx1 median {:.2}d",
            hu.median,
            mx1.median
        );
        assert!(
            hu.median < 1.5,
            "Hu sees domains within ~a day: {:.2}",
            hu.median
        );
        assert!(dbl.median < 1.5, "dbl is early: {:.2}", dbl.median);
        assert!(
            mx1.median > 1.0,
            "honeypots lag the warm-up: mx1 {:.2}",
            mx1.median
        );
    }

    #[test]
    fn honeypot_only_reference_compresses_latencies() {
        let (feeds, c) = setup();
        const HONEY_TEST: [FeedId; 3] = [FeedId::Ac1, FeedId::Mx2, FeedId::Mx1];
        let wide = first_appearance(&feeds, &c, &TEST_REF, &HONEY_TEST);
        let narrow = first_appearance(&feeds, &c, &HONEY_TEST, &HONEY_TEST);
        for id in [FeedId::Mx1, FeedId::Mx2] {
            let w = get(&wide, id);
            let n = get(&narrow, id);
            assert!(
                n.median <= w.median + 1e-9,
                "{id}: narrow {:.2} ≤ wide {:.2}",
                n.median,
                w.median
            );
        }
    }

    #[test]
    fn last_appearance_and_duration_are_nonnegative() {
        let (feeds, c) = setup();
        const HONEY_TEST: [FeedId; 3] = [FeedId::Ac1, FeedId::Mx2, FeedId::Mx1];
        for rows in [
            last_appearance(&feeds, &c, &HONEY_TEST, &HONEY_TEST),
            duration_error(&feeds, &c, &HONEY_TEST, &HONEY_TEST),
        ] {
            assert!(!rows.is_empty());
            for (f, b) in rows {
                assert!(b.min >= -1e-9, "{f}: {b:?}");
                assert!(b.median >= 0.0);
            }
        }
    }

    #[test]
    fn common_domains_shrink_with_more_required_feeds() {
        let (_, c) = setup();
        let few = common_tagged_domains(&c, &[FeedId::Mx1]);
        let many = common_tagged_domains(&c, &TEST_REF);
        assert!(many.len() <= few.len());
        assert!(!many.is_empty(), "intersection non-empty at this scale");
        assert!(common_tagged_domains(&c, &[]).is_empty());
    }
}
