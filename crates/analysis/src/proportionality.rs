//! Figs 7–8: proportionality.
//!
//! Feeds that report volume define empirical distributions over tagged
//! domains; the paper compares them pairwise — and against the
//! incoming-mail oracle ("Mail") — with total variation distance
//! (Fig 7) and Kendall's tau-b (Fig 8). Feeds without volume
//! information (Hu, Hyb, dbl, uribl) are excluded (§4.3).
//!
//! Both matrices are computed from one columnar join: the tagged-union
//! domain ids (ascending) with one aligned volume column per
//! volume-bearing feed plus the oracle's column, gathered once via
//! O(1) rank lookups into the sealed feed tables. Every pairwise
//! statistic then scans two aligned columns. A domain absent from both
//! feeds of a pair contributes exactly nothing to either statistic, so
//! the scans visit the same keys in the same (ascending) order as the
//! per-pair sparse unions they replaced — the floats are bit-identical.

use crate::classify::{Category, Classified};
use crate::matrix::PairwiseMatrix;
use taster_domain::DomainId;
use taster_feeds::{FeedId, FeedSet};
use taster_stats::{kendall, EmpiricalDist};

/// The columnar join behind Figs 7–8: per volume-bearing feed, its
/// volume over every tagged-union domain as one column aligned with
/// the sorted key list, plus the oracle's column.
struct TaggedColumns {
    /// One column per [`FeedId::WITH_VOLUME`] feed, plus the oracle's
    /// column last; all aligned with the ascending tagged-union keys.
    columns: Vec<Vec<u64>>,
    /// Per-column totals (the restricted distributions' masses).
    totals: Vec<u64>,
}

impl TaggedColumns {
    fn build(feeds: &FeedSet, classified: &Classified, oracle: &EmpiricalDist) -> TaggedColumns {
        let keys: Vec<u32> = classified
            .union(&FeedId::ALL, Category::Tagged)
            .iter()
            .map(|d| d.0)
            .collect();
        let mut columns: Vec<Vec<u64>> = FeedId::WITH_VOLUME
            .iter()
            .map(|&f| {
                let cols = feeds.columns(f);
                keys.iter()
                    .map(|&k| cols.row_of(DomainId(k)).map_or(0, |i| cols.volumes()[i]))
                    .collect()
            })
            .collect();
        columns.push(keys.iter().map(|&k| oracle.count(k)).collect());
        let totals = columns.iter().map(|c| c.iter().sum()).collect();
        TaggedColumns { columns, totals }
    }

    /// Column index of a volume-bearing feed. Callers only pass
    /// members of [`FeedId::WITH_VOLUME`], the list the matrices are
    /// built over.
    fn pos(id: FeedId) -> usize {
        #[expect(
            clippy::panic,
            reason = "documented contract: callers only pass members of WITH_VOLUME"
        )]
        let Some(i) = FeedId::WITH_VOLUME.iter().position(|&f| f == id) else {
            panic!("{id} reports no volume");
        };
        i
    }

    /// Column index of the oracle ("Mail").
    fn mail(&self) -> usize {
        self.columns.len() - 1
    }

    /// Total variation distance between columns `a` and `b`:
    /// δ = ½ Σ |pᵢ − qᵢ| over keys carried by either column, in
    /// ascending key order (empty-distribution conventions as in
    /// [`taster_stats::variation_distance`]).
    fn variation(&self, a: usize, b: usize) -> f64 {
        let (ta, tb) = (self.totals[a], self.totals[b]);
        if ta == 0 && tb == 0 {
            return 0.0;
        }
        if ta == 0 || tb == 0 {
            return 1.0;
        }
        let mut acc = 0.0f64;
        for (&x, &y) in self.columns[a].iter().zip(&self.columns[b]) {
            if x == 0 && y == 0 {
                continue;
            }
            acc += (x as f64 / ta as f64 - y as f64 / tb as f64).abs();
        }
        (acc / 2.0).clamp(0.0, 1.0)
    }

    /// Kendall tau-b between columns `a` and `b` over keys carried by
    /// both (§4.3), in ascending key order; 0 for degenerate pairs.
    fn tau(&self, a: usize, b: usize) -> f64 {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&x, &y) in self.columns[a].iter().zip(&self.columns[b]) {
            if x > 0 && y > 0 {
                xs.push(x);
                ys.push(y);
            }
        }
        kendall::kendall_tau_b_counts(&xs, &ys).unwrap_or(0.0)
    }
}

/// Fig 7: pairwise variation distance over the volume-bearing feeds,
/// with the "Mail" column: the aligned volume columns are gathered
/// once, then each cell scans two of them.
pub fn variation_matrix(
    feeds: &FeedSet,
    classified: &Classified,
    oracle: &EmpiricalDist,
) -> PairwiseMatrix<f64> {
    let t = TaggedColumns::build(feeds, classified, oracle);
    PairwiseMatrix::build(
        &FeedId::WITH_VOLUME,
        Some("Mail"),
        |a, b| t.variation(TaggedColumns::pos(a), TaggedColumns::pos(b)),
        |a| t.variation(TaggedColumns::pos(a), t.mail()),
    )
}

/// Fig 8: pairwise Kendall tau-b (over common domains of each pair),
/// with the "Mail" column. `None` cells (degenerate pairs) render as 0
/// like the paper's rounded figure.
pub fn kendall_matrix(
    feeds: &FeedSet,
    classified: &Classified,
    oracle: &EmpiricalDist,
) -> PairwiseMatrix<f64> {
    let t = TaggedColumns::build(feeds, classified, oracle);
    PairwiseMatrix::build(
        &FeedId::WITH_VOLUME,
        Some("Mail"),
        |a, b| t.tau(TaggedColumns::pos(a), TaggedColumns::pos(b)),
        |a| t.tau(TaggedColumns::pos(a), t.mail()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use std::collections::BTreeSet;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};
    use taster_stats::variation_distance;

    /// The reference for the columnar join: one feed's tagged-domain
    /// volume distribution, restricted to the tagged union of all
    /// feeds.
    fn tagged_distribution(
        feeds: &FeedSet,
        classified: &Classified,
        feed: FeedId,
    ) -> EmpiricalDist {
        feeds
            .get(feed)
            .volume_distribution()
            .restricted_to(&tagged_union(classified))
    }

    /// The oracle's distribution over the same tagged-domain universe.
    fn mail_distribution(classified: &Classified, oracle: &EmpiricalDist) -> EmpiricalDist {
        oracle.restricted_to(&tagged_union(classified))
    }

    fn tagged_union(classified: &Classified) -> BTreeSet<u32> {
        classified
            .union(&FeedId::ALL, Category::Tagged)
            .iter()
            .map(|d| d.0)
            .collect()
    }

    fn setup() -> (MailWorld, FeedSet, Classified) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), 103).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.05)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        let c = classify_clean(&world.truth, &feeds);
        (world, feeds, c)
    }

    #[test]
    fn variation_matrix_properties() {
        let (world, feeds, c) = setup();
        let m = variation_matrix(&feeds, &c, &world.provider.oracle);
        for a in FeedId::WITH_VOLUME {
            assert!(m.get(a, a).abs() < 1e-12, "diagonal zero");
            for b in FeedId::WITH_VOLUME {
                let v = m.get(a, b);
                assert!((0.0..=1.0).contains(&v));
                assert!((v - m.get(b, a)).abs() < 1e-12, "symmetry");
            }
            assert!((0.0..=1.0).contains(&m.get_extra(a)));
        }
    }

    #[test]
    fn kendall_matrix_properties() {
        let (world, feeds, c) = setup();
        let m = kendall_matrix(&feeds, &c, &world.provider.oracle);
        for a in FeedId::WITH_VOLUME {
            let self_tau = m.get(a, a);
            assert!(self_tau > 0.99 || self_tau == 0.0, "self tau {self_tau}");
            for b in FeedId::WITH_VOLUME {
                assert!((-1.0..=1.0).contains(&m.get(a, b)));
            }
        }
    }

    #[test]
    fn columnar_matches_sparse_distributions() {
        // The aligned-column scan must reproduce the restricted
        // sparse-distribution statistics bit for bit.
        let (world, feeds, c) = setup();
        let oracle = &world.provider.oracle;
        let m = variation_matrix(&feeds, &c, oracle);
        let tau_m = kendall_matrix(&feeds, &c, oracle);
        let mail = mail_distribution(&c, oracle);
        for a in FeedId::WITH_VOLUME {
            let pa = tagged_distribution(&feeds, &c, a);
            assert_eq!(
                m.get_extra(a).to_bits(),
                variation_distance(&pa, &mail).to_bits(),
                "{a} vs Mail"
            );
            for b in FeedId::WITH_VOLUME {
                let pb = tagged_distribution(&feeds, &c, b);
                assert_eq!(
                    m.get(a, b).to_bits(),
                    variation_distance(&pa, &pb).to_bits(),
                    "{a} vs {b}"
                );
                let keys = pa.common_keys(&pb);
                let xs: Vec<u64> = keys.iter().map(|&k| pa.count(k)).collect();
                let ys: Vec<u64> = keys.iter().map(|&k| pb.count(k)).collect();
                let expected = kendall::kendall_tau_b_counts(&xs, &ys).unwrap_or(0.0);
                assert_eq!(tau_m.get(a, b).to_bits(), expected.to_bits(), "tau {a} {b}");
            }
        }
    }

    #[test]
    fn mx_feeds_resemble_each_other_more_than_ac2() {
        let (world, feeds, c) = setup();
        let m = variation_matrix(&feeds, &c, &world.provider.oracle);
        let mx12 = m.get(FeedId::Mx1, FeedId::Mx2);
        let mx1_ac2 = m.get(FeedId::Mx1, FeedId::Ac2);
        assert!(
            mx12 < mx1_ac2,
            "mx1↔mx2 δ={mx12:.3} should beat mx1↔Ac2 δ={mx1_ac2:.3}"
        );
    }
}
