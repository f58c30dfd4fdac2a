//! Fig 4: affiliate-program coverage.
//!
//! Beyond domains sits the structure the paper actually cares about:
//! affiliate programs. A feed covers a program when at least one of
//! its tagged domains fronts that program (§4.2.3).

use crate::classify::{Category, Classified};
use crate::matrix::{OverlapCell, PairwiseMatrix};
use std::collections::BTreeSet;
use taster_ecosystem::ids::ProgramId;
use taster_feeds::FeedId;

/// Programs covered by one feed.
pub fn programs_of(classified: &Classified, feed: FeedId) -> BTreeSet<ProgramId> {
    classified
        .set(feed, Category::Tagged)
        .iter()
        .filter_map(|d| classified.crawl.get(d).and_then(|r| r.tag))
        .map(|t| t.program)
        .collect()
}

/// Fig 4: pairwise program-coverage matrix with the "All" column.
pub fn program_coverage(classified: &Classified) -> PairwiseMatrix<OverlapCell> {
    let per_feed: Vec<BTreeSet<ProgramId>> = FeedId::ALL
        .iter()
        .map(|&f| programs_of(classified, f))
        .collect();
    let mut all: BTreeSet<ProgramId> = BTreeSet::new();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_clean;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::{MailConfig, MailWorld};

    fn classified() -> Classified {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), 97).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.05)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        classify_clean(&world.truth, &feeds)
    }

    #[test]
    fn bot_covers_fewest_programs() {
        let c = classified();
        let m = program_coverage(&c);
        let bot = m.get_extra(FeedId::Bot).count;
        let hu = m.get_extra(FeedId::Hu).count;
        assert!(bot < hu, "Bot {bot} < Hu {hu}");
        // Botnet operators advertise a bounded program pool.
        assert!(bot <= 15 + 3, "Bot programs {bot}");
    }

    #[test]
    fn hu_covers_nearly_all_email_advertised_programs() {
        // At reduced scale the non-mail web-spam corpus contributes
        // programs no e-mail feed could see, so score Hu against the
        // union of the e-mail-derived feeds (the full-scale Fig 4
        // check lives in the integration suite).
        let c = classified();
        let email_feeds = [
            FeedId::Hu,
            FeedId::Mx1,
            FeedId::Mx2,
            FeedId::Mx3,
            FeedId::Ac1,
            FeedId::Ac2,
            FeedId::Bot,
        ];
        let mut union = std::collections::HashSet::new();
        for f in email_feeds {
            union.extend(programs_of(&c, f));
        }
        let hu = programs_of(&c, FeedId::Hu).len();
        assert!(
            hu as f64 >= union.len() as f64 * 0.9,
            "Hu covers {hu}/{} email-advertised programs",
            union.len()
        );
    }

    #[test]
    fn only_tagged_programs_appear() {
        let c = classified();
        // Coverage counts derive from tags, which exist only for the
        // 45 tagged programs.
        let m = program_coverage(&c);
        for id in FeedId::ALL {
            assert!(m.get_extra(id).count <= 45);
        }
    }
}
