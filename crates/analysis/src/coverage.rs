//! Table 3 and Figs 1–2: domain coverage.
//!
//! *Total* coverage counts a feed's distinct domains; *exclusive*
//! coverage counts domains occurring in exactly one feed ("which feed,
//! if it were excluded, would be missed the most"); the pairwise
//! matrix answers each feed's differential contribution with respect
//! to another (§4.2.1).

use crate::classify::{Category, Classified};
use crate::matrix::{OverlapCell, PairwiseMatrix};
use taster_domain::DomainBitset as DomainSet;
use taster_feeds::FeedId;

/// Coverage counts for one feed in one category.
#[derive(Debug, Clone, Copy)]
pub struct CoverageCounts {
    /// Distinct domains.
    pub total: usize,
    /// Domains in no other feed.
    pub exclusive: usize,
}

/// One row of Table 3.
#[derive(Debug, Clone, Copy)]
pub struct CoverageRow {
    /// The feed.
    pub feed: FeedId,
    /// All domains.
    pub all: CoverageCounts,
    /// Live domains.
    pub live: CoverageCounts,
    /// Tagged domains.
    pub tagged: CoverageCounts,
}

/// Computes Table 3 (equivalently the Fig 1 scatter data): each
/// (feed, category) cell is a pure set computation.
pub fn coverage_table(classified: &Classified) -> Vec<CoverageRow> {
    let count = |cat: Category| -> Vec<CoverageCounts> {
        FeedId::ALL
            .iter()
            .map(|&id| {
                let own = classified.set(id, cat);
                // Union of every *other* feed.
                let mut others = DomainSet::with_capacity(0);
                for &o in FeedId::ALL.iter().filter(|&&o| o != id) {
                    others.union_with(classified.set(o, cat));
                }
                CoverageCounts {
                    total: own.len(),
                    // One andnot popcount pass — no materialised set.
                    exclusive: own.difference_len(&others),
                }
            })
            .collect()
    };
    let all = count(Category::All);
    let live = count(Category::Live);
    let tagged = count(Category::Tagged);
    FeedId::ALL
        .iter()
        .enumerate()
        .map(|(i, &feed)| CoverageRow {
            feed,
            all: all[i],
            live: live[i],
            tagged: tagged[i],
        })
        .collect()
}

/// Fraction of the whole category union that is exclusive to a single
/// feed (the paper: 60 % of live, 19 % of tagged).
pub fn exclusive_share(classified: &Classified, category: Category) -> f64 {
    let union = classified.union(&FeedId::ALL, category);
    if union.is_empty() {
        return 0.0;
    }
    let rows = coverage_table(classified);
    let exclusive: usize = rows
        .iter()
        .map(|r| match category {
            Category::All => r.all.exclusive,
            Category::Live => r.live.exclusive,
            Category::Tagged => r.tagged.exclusive,
        })
        .sum();
    exclusive as f64 / union.len() as f64
}

/// Fig 2: pairwise intersection matrix for one category, with the
/// "All" column (each feed's coverage of the union).
pub fn pairwise_overlap(
    classified: &Classified,
    category: Category,
) -> PairwiseMatrix<OverlapCell> {
    let union = classified.union(&FeedId::ALL, category);
    PairwiseMatrix::build(
        &FeedId::ALL,
        Some("All"),
        |row, col| {
            let a = classified.set(row, category);
            let b = classified.set(col, category);
            let count = a.intersection_len(b);
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
            let a = classified.set(row, category);
            let count = a.intersection_len(&union);
            OverlapCell {
                count,
                fraction: if union.is_empty() {
                    0.0
                } else {
                    count as f64 / union.len() as f64
                },
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn classified() -> Classified {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 83).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        classify_clean(&world.truth, &feeds)
    }

    #[test]
    fn exclusive_never_exceeds_total() {
        let c = classified();
        for r in coverage_table(&c) {
            assert!(r.all.exclusive <= r.all.total);
            assert!(r.live.exclusive <= r.live.total);
            assert!(r.tagged.exclusive <= r.tagged.total);
        }
    }

    #[test]
    fn exclusives_sum_to_at_most_union() {
        let c = classified();
        for cat in [Category::All, Category::Live, Category::Tagged] {
            let share = exclusive_share(&c, cat);
            assert!((0.0..=1.0).contains(&share), "{share}");
        }
    }

    #[test]
    fn pairwise_diagonal_is_identity() {
        let c = classified();
        let m = pairwise_overlap(&c, Category::Live);
        for id in FeedId::ALL {
            let cell = m.get(id, id);
            assert_eq!(cell.count, c.set(id, Category::Live).len());
            if cell.count > 0 {
                assert!((cell.fraction - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pairwise_symmetric_in_counts() {
        let c = classified();
        let m = pairwise_overlap(&c, Category::Tagged);
        for a in FeedId::ALL {
            for b in FeedId::ALL {
                assert_eq!(m.get(a, b).count, m.get(b, a).count);
            }
        }
    }

    #[test]
    fn all_column_fractions_bounded() {
        let c = classified();
        let m = pairwise_overlap(&c, Category::Tagged);
        for id in FeedId::ALL {
            let cell = m.get_extra(id);
            assert!((0.0..=1.0).contains(&cell.fraction));
            assert_eq!(cell.count, c.set(id, Category::Tagged).len());
        }
    }
}
