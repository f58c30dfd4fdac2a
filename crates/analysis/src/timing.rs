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
use taster_feeds::{FeedId, FeedSet};
use taster_sim::{Parallelism, DAY, HOUR};
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
    first_appearance_par(feeds, classified, reference, scored, &Parallelism::serial())
}

/// [`first_appearance`] with each scored feed's delta distribution
/// computed as one task on `par` workers; pure per feed, so the rows
/// are bit-identical to a serial pass.
pub fn first_appearance_par(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
    par: &Parallelism,
) -> Vec<(FeedId, Boxplot)> {
    let domains = common_tagged_domains(classified, reference);
    par.par_map(scored.to_vec(), |feed| {
        let mut deltas = Vec::new();
        for &d in &domains {
            let start = reference
                .iter()
                .filter_map(|&r| feeds.get(r).stats(d))
                .map(|s| s.first_seen)
                .min();
            let Some(start) = start else { continue };
            let Some(own) = feeds.get(feed).stats(d) else {
                continue;
            };
            deltas.push(own.first_seen.signed_diff(start) as f64 / DAY as f64);
        }
        Boxplot::from_values(&deltas).map(|b| (feed, b))
    })
    .into_iter()
    .flatten()
    .collect()
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
    last_appearance_par(feeds, classified, reference, scored, &Parallelism::serial())
}

/// [`last_appearance`] fanned out per scored feed on `par` workers.
pub fn last_appearance_par(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
    par: &Parallelism,
) -> Vec<(FeedId, Boxplot)> {
    let domains = common_tagged_domains(classified, reference);
    par.par_map(scored.to_vec(), |feed| {
        let mut deltas = Vec::new();
        for &d in &domains {
            let end = reference
                .iter()
                .filter_map(|&r| feeds.get(r).stats(d))
                .map(|s| s.last_seen)
                .max();
            let Some(end) = end else { continue };
            let Some(own) = feeds.get(feed).stats(d) else {
                continue;
            };
            deltas.push(end.signed_diff(own.last_seen) as f64 / HOUR as f64);
        }
        Boxplot::from_values(&deltas).map(|b| (feed, b))
    })
    .into_iter()
    .flatten()
    .collect()
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
    duration_error_par(feeds, classified, reference, scored, &Parallelism::serial())
}

/// [`duration_error`] fanned out per scored feed on `par` workers.
pub fn duration_error_par(
    feeds: &FeedSet,
    classified: &Classified,
    reference: &[FeedId],
    scored: &[FeedId],
    par: &Parallelism,
) -> Vec<(FeedId, Boxplot)> {
    let domains = common_tagged_domains(classified, reference);
    par.par_map(scored.to_vec(), |feed| {
        let mut deltas = Vec::new();
        for &d in &domains {
            let stats: Vec<_> = reference
                .iter()
                .filter_map(|&r| feeds.get(r).stats(d))
                .collect();
            let Some(start) = stats.iter().map(|s| s.first_seen).min() else {
                continue;
            };
            let Some(end) = stats.iter().map(|s| s.last_seen).max() else {
                continue;
            };
            let Some(own) = feeds.get(feed).stats(d) else {
                continue;
            };
            let campaign = end.signed_diff(start) as f64;
            let lifetime = own.last_seen.signed_diff(own.first_seen) as f64;
            deltas.push((campaign - lifetime) / HOUR as f64);
        }
        Boxplot::from_values(&deltas).map(|b| (feed, b))
    })
    .into_iter()
    .flatten()
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
    use crate::classify::ClassifyOptions;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn setup() -> (FeedSet, Classified) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.15), 107).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.15)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let c = Classified::build(&world.truth, &feeds, ClassifyOptions::default());
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
    fn parallel_timing_matches_serial() {
        let (feeds, c) = setup();
        let serial = [
            first_appearance(&feeds, &c, &TEST_REF, &TEST_REF),
            last_appearance(&feeds, &c, &TEST_REF, &TEST_REF),
            duration_error(&feeds, &c, &TEST_REF, &TEST_REF),
        ];
        for workers in [2, 8] {
            let par = Parallelism::fixed(workers);
            let parallel = [
                first_appearance_par(&feeds, &c, &TEST_REF, &TEST_REF, &par),
                last_appearance_par(&feeds, &c, &TEST_REF, &TEST_REF, &par),
                duration_error_par(&feeds, &c, &TEST_REF, &TEST_REF, &par),
            ];
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.len(), p.len());
                for ((fs, bs), (fp, bp)) in s.iter().zip(p) {
                    assert_eq!(fs, fp);
                    assert_eq!(bs.n, bp.n);
                    assert_eq!(bs.median.to_bits(), bp.median.to_bits());
                    assert_eq!(bs.min.to_bits(), bp.min.to_bits());
                    assert_eq!(bs.max.to_bits(), bp.max.to_bits());
                }
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
