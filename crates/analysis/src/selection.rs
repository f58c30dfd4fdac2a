//! Feed-portfolio selection: the paper's §5 guidance made computable.
//!
//! "When working with multiple feeds, the priority should be to obtain
//! a set that is as diverse as possible. Additional feeds of the same
//! type offer reduced added value." This module quantifies both
//! statements over any classified feed set:
//!
//! * [`greedy_selection`] — the order in which to acquire feeds to
//!   maximise coverage at every step (greedy max-marginal-coverage,
//!   the classic (1−1/e)-approximation for set cover);
//! * [`type_redundancy`] — average pairwise Jaccard similarity within
//!   each collection methodology vs. across methodologies.

use crate::classify::{Category, Classified};
use taster_domain::DomainBitset as DomainSet;
use taster_feeds::{FeedId, FeedKind};

/// One step of the greedy acquisition order.
#[derive(Debug, Clone, Copy)]
pub struct SelectionStep {
    /// The feed acquired at this step.
    pub feed: FeedId,
    /// New domains this feed adds over everything acquired before it.
    pub marginal: usize,
    /// Cumulative covered domains.
    pub cumulative: usize,
    /// Cumulative coverage of the all-feed union (0–1).
    pub cumulative_fraction: f64,
}

/// Computes the greedy acquisition order over all ten feeds.
///
/// Ties break toward the earlier feed in table order, so the result is
/// deterministic.
pub fn greedy_selection(classified: &Classified, category: Category) -> Vec<SelectionStep> {
    let union = classified.union(&FeedId::ALL, category);
    let total = union.len().max(1);
    let mut covered = DomainSet::with_capacity(0);
    let mut remaining: Vec<FeedId> = FeedId::ALL.to_vec();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let set = classified.set(f, category);
                (i, set.len() - set.intersection_len(&covered))
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
        let Some((idx, marginal)) = best else {
            break; // unreachable: the loop guard keeps `remaining` non-empty
        };
        let feed = remaining.remove(idx);
        covered.union_with(classified.set(feed, category));
        steps.push(SelectionStep {
            feed,
            marginal,
            cumulative: covered.len(),
            cumulative_fraction: covered.len() as f64 / total as f64,
        });
    }
    steps
}

/// Redundancy summary for one collection methodology.
#[derive(Debug, Clone, Copy)]
pub struct TypeRedundancy {
    /// The methodology.
    pub kind: FeedKind,
    /// Mean pairwise Jaccard similarity among feeds of this kind
    /// (`None` when the kind has a single feed).
    pub within: Option<f64>,
    /// Mean Jaccard similarity between this kind's feeds and all
    /// other feeds.
    pub across: f64,
}

/// Computes within-type vs. across-type similarity for every
/// methodology present in the feed set.
pub fn type_redundancy(classified: &Classified, category: Category) -> Vec<TypeRedundancy> {
    let jaccard = |a: FeedId, b: FeedId| -> f64 {
        let sa = classified.set(a, category);
        let sb = classified.set(b, category);
        let union = sa.union_len(sb);
        if union == 0 {
            0.0
        } else {
            sa.intersection_len(sb) as f64 / union as f64
        }
    };
    let kinds = [
        FeedKind::HumanIdentified,
        FeedKind::Blacklist,
        FeedKind::MxHoneypot,
        FeedKind::HoneyAccounts,
        FeedKind::Botnet,
        FeedKind::Hybrid,
    ];
    kinds
        .iter()
        .map(|&kind| {
            let members: Vec<FeedId> = FeedId::ALL
                .iter()
                .copied()
                .filter(|f| f.kind() == kind)
                .collect();
            let within = if members.len() < 2 {
                None
            } else {
                let mut acc = 0.0;
                let mut n = 0.0;
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        acc += jaccard(members[i], members[j]);
                        n += 1.0;
                    }
                }
                Some(acc / n)
            };
            let mut acc = 0.0;
            let mut n = 0.0;
            for &m in &members {
                for &o in FeedId::ALL.iter().filter(|&&o| o.kind() != kind) {
                    acc += jaccard(m, o);
                    n += 1.0;
                }
            }
            TypeRedundancy {
                kind,
                within,
                across: if n > 0.0 { acc / n } else { 0.0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn classified_at(seed: u64) -> Classified {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), seed).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.05)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        classify_clean(&world.truth, &feeds)
    }

    fn classified() -> Classified {
        classified_at(137)
    }

    #[test]
    fn greedy_marginals_are_nonincreasing_and_exhaustive() {
        let c = classified();
        for cat in [Category::Live, Category::Tagged] {
            let steps = greedy_selection(&c, cat);
            assert_eq!(steps.len(), 10);
            for w in steps.windows(2) {
                assert!(w[0].marginal >= w[1].marginal, "greedy order violated");
            }
            let last = steps.last().unwrap();
            assert!((last.cumulative_fraction - 1.0).abs() < 1e-9);
            assert_eq!(last.cumulative, c.union(&FeedId::ALL, cat).len());
            // First pick is the biggest single feed.
            let max_single = FeedId::ALL
                .iter()
                .map(|&f| c.set(f, cat).len())
                .max()
                .unwrap();
            assert_eq!(steps[0].marginal, max_single);
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let c = classified();
        let a: Vec<_> = greedy_selection(&c, Category::Live)
            .iter()
            .map(|s| s.feed)
            .collect();
        let b: Vec<_> = greedy_selection(&c, Category::Live)
            .iter()
            .map(|s| s.feed)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn same_type_feeds_are_more_redundant() {
        use taster_sim::rng::{RngStream, StreamKey};
        use taster_stats::infer::bootstrap_ci_keyed;
        use taster_stats::summary::mean;

        // The paper's point: another MX honeypot adds little — MX
        // feeds overlap each other more than they overlap the rest.
        // A single seed makes this a coin-flip on the sampling noise
        // (seed 127 used to fail it), so assert it the way the paper
        // would: replicate over seeds and require the bootstrap lower
        // bound of the mean within−across gap to clear zero.
        let seeds: [u64; 5] = [127, 131, 137, 139, 149];
        let gaps: Vec<f64> = seeds
            .iter()
            .map(|&seed| {
                let rows = type_redundancy(&classified_at(seed), Category::Tagged);
                let mx = rows
                    .iter()
                    .find(|r| r.kind == FeedKind::MxHoneypot)
                    .unwrap();
                // Single-member kinds have no within-similarity.
                let hu = rows
                    .iter()
                    .find(|r| r.kind == FeedKind::HumanIdentified)
                    .unwrap();
                assert!(hu.within.is_none(), "seed {seed}: Hu has one member");
                mx.within.unwrap() - mx.across
            })
            .collect();
        /// The bootstrap's resampling stream.
        struct Redundancy;
        impl StreamKey for Redundancy {
            const ALL: &'static [Redundancy] = &[Redundancy];
            fn name(&self) -> &str {
                "selection/redundancy"
            }
        }
        let key = Redundancy.key();
        let ci = bootstrap_ci_keyed(&gaps, mean, 200, 0.95, |r| {
            RngStream::child_keyed(20_100_801, key, r)
        })
        .unwrap();
        assert!(
            ci.percentile.0 > 0.0,
            "within−across gap CI includes zero: {:?} over gaps {gaps:?}",
            ci.percentile
        );
    }
}
