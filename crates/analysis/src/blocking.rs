//! Time-aware blocking evaluation: each feed as a production filter.
//!
//! The paper scores feeds axis by axis (purity §4.1, coverage §4.2,
//! timing §4.4) and notes that for operational filtering all three
//! interact: a domain only blocks spam *after* the feed carries it,
//! and benign entries block legitimate mail. The simulation can close
//! that loop: replay every delivered copy against a feed used as a
//! domain blacklist — a message is blocked when any domain it cites
//! was in the feed strictly before the delivery instant — and replay
//! the legitimate streams for the false-positive cost.

use taster_ecosystem::buffer::NO_CHAFF;
use taster_ecosystem::spill::SpillError;
use taster_feeds::{Feed, FeedId, FeedSet};
use taster_mailsim::MailWorld;

/// Outcome of using one feed as a filter.
#[derive(Debug, Clone, Copy)]
pub struct BlockingResult {
    /// The feed under evaluation.
    pub feed: FeedId,
    /// Spam copies delivered in the scenario.
    pub spam_total: u64,
    /// Spam copies blocked (listed-before-delivery).
    pub spam_blocked: u64,
    /// Spam copies that would *eventually* be blocked (listed at any
    /// time) — the gap to `spam_blocked` is pure listing latency.
    pub spam_blocked_eventually: u64,
    /// Legitimate messages replayed (trap pollution + reported
    /// newsletters stand in for the ham stream).
    pub ham_total: u64,
    /// Legitimate messages a domain match would have blocked.
    pub ham_blocked: u64,
}

impl BlockingResult {
    /// Fraction of spam blocked in time.
    pub fn spam_block_rate(&self) -> f64 {
        ratio(self.spam_blocked, self.spam_total)
    }

    /// Fraction of spam the feed knows about, ignoring latency.
    pub fn eventual_block_rate(&self) -> f64 {
        ratio(self.spam_blocked_eventually, self.spam_total)
    }

    /// Share of the eventual block rate lost to listing latency.
    pub fn latency_loss(&self) -> f64 {
        let eventual = self.eventual_block_rate();
        if eventual <= 0.0 {
            0.0
        } else {
            1.0 - self.spam_block_rate() / eventual
        }
    }

    /// False-positive rate over the legitimate stream.
    pub fn ham_block_rate(&self) -> f64 {
        ratio(self.ham_blocked, self.ham_total)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Evaluates every feed in one pass over the time-sorted event log.
/// The spam counters are stateless per event, so a single pass scores
/// all ten feeds at once. Fails only when the out-of-core spill cannot
/// be read.
pub fn blocking_study(
    world: &MailWorld,
    feeds: &FeedSet,
) -> Result<Vec<BlockingResult>, SpillError> {
    let under_test: Vec<&Feed> = FeedId::ALL.iter().map(|&id| feeds.get(id)).collect();
    let blocked_at = |feed: &Feed, d: taster_domain::DomainId, t: taster_sim::SimTime| -> bool {
        feed.stats(d).is_some_and(|s| s.first_seen < t)
    };
    let nf = under_test.len();
    // Dense (domain × feed) first-seen matrix, row-major per domain so
    // one event's lookups for all feeds share a cache line or two.
    // `u64::MAX` marks "never listed" — real first-seen times are
    // horizon-bounded seconds, far below the sentinel — and makes both
    // predicates branch-free: blocked ⇔ `first < t`, eventually ⇔
    // `first != MAX`. The replay loop runs millions of events × every
    // feed; hash lookups here used to dominate the whole study.
    let mut first_seen = vec![u64::MAX; world.truth.universe.len() * nf];
    for (k, feed) in under_test.iter().enumerate() {
        for d in feed.domain_ids() {
            if let Some(s) = feed.stats(d) {
                first_seen[d.index() * nf + k] = s.first_seen.0;
            }
        }
    }
    let mut spam_total = 0u64;
    let mut spam_blocked = vec![0u64; nf];
    let mut spam_eventually = vec![0u64; nf];
    {
        let mut tally = |t: u64, adv_row: usize, chaff_row: Option<usize>| {
            spam_total += 1;
            for k in 0..nf {
                let fa = first_seen[adv_row + k];
                let fc = chaff_row.map_or(u64::MAX, |row| first_seen[row + k]);
                if fa < t || fc < t {
                    spam_blocked[k] += 1;
                }
                if fa != u64::MAX || fc != u64::MAX {
                    spam_eventually[k] += 1;
                }
            }
        };
        world
            .truth
            .visit_sorted(0..world.truth.log.len, usize::MAX, |buf, rows| {
                for r in rows {
                    let chaff = buf.chaff[r];
                    tally(
                        buf.time[r].0,
                        buf.advertised[r] as usize * nf,
                        (chaff != NO_CHAFF).then(|| chaff as usize * nf),
                    );
                }
                Ok::<(), SpillError>(())
            })?;
    }

    let mut ham_total = 0u64;
    let mut ham_blocked = vec![0u64; under_test.len()];
    for mail in &world.benign_mail {
        ham_total += 1;
        for (k, feed) in under_test.iter().enumerate() {
            if mail.domains.iter().any(|&d| blocked_at(feed, d, mail.time)) {
                ham_blocked[k] += 1;
            }
        }
    }
    // Reported-but-legitimate newsletters are also ham traffic.
    for report in world.provider.reports.iter().filter(|r| !r.spam) {
        ham_total += 1;
        for (k, feed) in under_test.iter().enumerate() {
            if report
                .domains
                .iter()
                .any(|&d| blocked_at(feed, d, report.time))
            {
                ham_blocked[k] += 1;
            }
        }
    }

    Ok(under_test
        .iter()
        .enumerate()
        .map(|(k, feed)| BlockingResult {
            feed: feed.id,
            spam_total,
            spam_blocked: spam_blocked[k],
            spam_blocked_eventually: spam_eventually[k],
            ham_total,
            ham_blocked: ham_blocked[k],
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, FeedsConfig};
    use taster_mailsim::MailConfig;

    fn setup() -> (MailWorld, FeedSet) {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), 131).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.05)).unwrap();
        let feeds = collect_all(&world, &FeedsConfig::default());
        (world, feeds)
    }

    #[test]
    fn invariants_hold_for_every_feed() {
        let (world, feeds) = setup();
        for r in blocking_study(&world, &feeds).unwrap() {
            assert!(r.spam_blocked <= r.spam_blocked_eventually);
            assert!(r.spam_blocked_eventually <= r.spam_total);
            assert!(r.ham_blocked <= r.ham_total);
            assert!((0.0..=1.0).contains(&r.spam_block_rate()));
            assert!((0.0..=1.0).contains(&r.latency_loss()));
        }
    }

    #[test]
    fn blacklists_block_with_low_fp_honeypots_cost_ham() {
        let (world, feeds) = setup();
        let results = blocking_study(&world, &feeds).unwrap();
        let get = |id: FeedId| results.iter().find(|r| r.feed == id).copied().unwrap();
        let dbl = get(FeedId::Dbl);
        let mx1 = get(FeedId::Mx1);
        assert!(
            dbl.ham_block_rate() < mx1.ham_block_rate(),
            "dbl FP {:.3} < mx1 FP {:.3}",
            dbl.ham_block_rate(),
            mx1.ham_block_rate()
        );
        assert!(dbl.spam_block_rate() > 0.1, "dbl blocks spam");
    }

    #[test]
    fn latency_costs_honeypots_real_blocking() {
        let (world, feeds) = setup();
        let results = blocking_study(&world, &feeds).unwrap();
        let mx2 = results.iter().find(|r| r.feed == FeedId::Mx2).unwrap();
        // mx2 knows a lot eventually but learns it late.
        assert!(
            mx2.latency_loss() > 0.1,
            "mx2 latency loss {:.2}",
            mx2.latency_loss()
        );
    }
}
