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
use taster_feeds::{FeedId, FeedSet};
use taster_mailsim::MailWorld;
use taster_sim::SimTime;

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

/// The feeds under test, in [`FeedId::ALL`] order; feed `k` is bit
/// `k` of a feed mask.
const FEEDS: usize = FeedId::ALL.len();
/// Distinct feed masks: the length of a per-mask count array.
const MASKS: usize = 1 << FEEDS;
/// A [`Row`] cell for a feed that never listed the domain.
const NEVER: u32 = u32::MAX;

/// One domain's first-seen second in each feed (40 bytes), [`NEVER`]
/// where the feed never listed it. A listing later than `NEVER - 1`
/// is clamped to it, which keeps every comparison exact: no event is
/// later, because [`taster_ecosystem::EcosystemConfig::validate`]
/// refuses a horizon that does not fit `u32` seconds.
type Row = [u32; FEEDS];

/// Rows per [`Rows`] page: 2^14 rows, 640 KiB.
const PAGE_ROWS: usize = 1 << 14;

/// Every domain's [`Row`] by domain id, then one more row that no feed
/// lists, which a delivery without chaff cites. The rows sit in pages
/// of [`PAGE_ROWS`] rather than one block of 40 bytes per domain: a
/// heap that a long run has fragmented, like the daemon's after its
/// seals, has room for 640 KiB pages where a 15 MB block would grow
/// it (at scale 1 they keep the daemon's final report 14 MiB lower).
struct Rows {
    pages: Vec<Box<[Row]>>,
    /// The index of the never-listed row.
    unlisted: usize,
}

impl Rows {
    fn new(world: &MailWorld, feeds: &FeedSet) -> Rows {
        let unlisted = world.truth.universe.len();
        let pages = (0..=unlisted)
            .step_by(PAGE_ROWS)
            .map(|start| vec![[NEVER; FEEDS]; (unlisted + 1 - start).min(PAGE_ROWS)].into())
            .collect();
        let mut rows = Rows { pages, unlisted };
        for (k, &id) in FeedId::ALL.iter().enumerate() {
            let columns = feeds.columns(id);
            for (d, first) in columns.ids().iter().zip(columns.first_seen()) {
                rows.row_mut(d.index())[k] =
                    u32::try_from(first.0).map_or(NEVER - 1, |s| s.min(NEVER - 1));
            }
        }
        rows
    }

    fn row(&self, d: usize) -> &Row {
        &self.pages[d / PAGE_ROWS][d % PAGE_ROWS]
    }

    fn row_mut(&mut self, d: usize) -> &mut Row {
        &mut self.pages[d / PAGE_ROWS][d % PAGE_ROWS]
    }
}

/// An event's second, as a [`Row`] cell compares with it. The cast is
/// exact: no event is later than `NEVER - 1` (see [`Row`]).
fn second(t: SimTime) -> u32 {
    debug_assert!(
        t.0 < u64::from(NEVER),
        "event second {} is past the u32 horizon",
        t.0
    );
    t.0 as u32
}

/// The mask of the feeds whose cell in `row` is below `t`: the feeds
/// that listed the domain strictly before second `t` or, with `t` at
/// [`NEVER`], at any time.
fn listed_before(row: &Row, t: u32) -> usize {
    row.iter()
        .enumerate()
        .fold(0, |mask, (k, &first)| mask | usize::from(first < t) << k)
}

/// Per-feed totals of per-mask counts: feed `k` sums every mask with
/// bit `k` set.
fn per_feed(counts: &[u64; MASKS]) -> [u64; FEEDS] {
    let mut totals = [0u64; FEEDS];
    for (mask, &n) in counts.iter().enumerate() {
        for (k, total) in totals.iter_mut().enumerate() {
            if mask >> k & 1 == 1 {
                *total += n;
            }
        }
    }
    totals
}

/// Evaluates every feed in one pass over the time-sorted event log.
/// The spam counters are stateless per event, so a single pass scores
/// all ten feeds at once. Fails only when the out-of-core spill cannot
/// be read.
///
/// Each domain gets one 40-byte row of first-seen seconds, one cell per
/// feed. A delivery looks up the rows of its advertised and chaff
/// domains and folds them into two feed masks, listed before delivery
/// and listed at all, then counts one more delivery under each mask.
/// The per-feed totals are sums over the masks that carry the feed's
/// bit, taken once at the end, so every count is exact.
pub fn blocking_study(
    world: &MailWorld,
    feeds: &FeedSet,
) -> Result<Vec<BlockingResult>, SpillError> {
    let rows = Rows::new(world, feeds);
    let mut spam_blocked = [0u64; MASKS];
    let mut spam_eventually = [0u64; MASKS];
    world
        .truth
        .visit_sorted(0..world.truth.log.len, usize::MAX, |buf, range| {
            for r in range {
                let t = second(buf.time[r]);
                let advertised = rows.row(buf.advertised[r] as usize);
                let chaff = rows.row(match buf.chaff[r] {
                    NO_CHAFF => rows.unlisted,
                    d => d as usize,
                });
                let blocked = listed_before(advertised, t) | listed_before(chaff, t);
                let listed = listed_before(advertised, NEVER) | listed_before(chaff, NEVER);
                spam_blocked[blocked] += 1;
                spam_eventually[listed] += 1;
            }
            Ok::<(), SpillError>(())
        })?;

    // Trap pollution and reported-but-legitimate newsletters stand in
    // for the ham stream.
    let newsletters = world.provider.reports.iter().filter(|r| !r.spam);
    let ham = world
        .benign_mail
        .iter()
        .map(|m| (m.time, &m.domains))
        .chain(newsletters.map(|r| (r.time, &r.domains)));
    let mut ham_blocked = [0u64; MASKS];
    for (time, domains) in ham {
        let t = second(time);
        let blocked = domains
            .iter()
            .fold(0, |mask, d| mask | listed_before(rows.row(d.index()), t));
        ham_blocked[blocked] += 1;
    }

    let spam_total = spam_blocked.iter().sum();
    let ham_total = ham_blocked.iter().sum();
    let (spam_blocked, spam_eventually, ham_blocked) = (
        per_feed(&spam_blocked),
        per_feed(&spam_eventually),
        per_feed(&ham_blocked),
    );
    Ok(FeedId::ALL
        .iter()
        .enumerate()
        .map(|(k, &feed)| BlockingResult {
            feed,
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
    use taster_domain::DomainId;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_feeds::{collect_all, try_collect_all_observed, Feed, FeedsConfig};
    use taster_mailsim::MailConfig;
    use taster_sim::{FaultPlan, FaultProfile, Obs, Parallelism};

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

    /// The parent rule, feed by feed: a delivery is blocked when one
    /// of its domains has `first_seen < t` in the feed's own stats.
    fn reference(world: &MailWorld, feeds: &FeedSet) -> Vec<BlockingResult> {
        let before = |feed: &Feed, domains: &[DomainId], t: SimTime| {
            domains
                .iter()
                .any(|&d| feed.stats(d).is_some_and(|s| s.first_seen < t))
        };
        let mut events = Vec::new();
        world
            .truth
            .visit_sorted(0..world.truth.log.len, usize::MAX, |buf, rows| {
                for r in rows {
                    let e = buf.event(r);
                    events.push((e.time, [Some(e.advertised), e.chaff]));
                }
                Ok::<(), SpillError>(())
            })
            .unwrap();
        let ham: Vec<(SimTime, &[DomainId])> = world
            .benign_mail
            .iter()
            .map(|m| (m.time, &m.domains[..]))
            .chain(
                world
                    .provider
                    .reports
                    .iter()
                    .filter(|r| !r.spam)
                    .map(|r| (r.time, &r.domains[..])),
            )
            .collect();
        FeedId::ALL
            .iter()
            .map(|&id| {
                let feed = feeds.get(id);
                let mut r = BlockingResult {
                    feed: id,
                    spam_total: events.len() as u64,
                    spam_blocked: 0,
                    spam_blocked_eventually: 0,
                    ham_total: ham.len() as u64,
                    ham_blocked: 0,
                };
                for (t, cited) in &events {
                    let domains: Vec<DomainId> = cited.iter().flatten().copied().collect();
                    r.spam_blocked += u64::from(before(feed, &domains, *t));
                    r.spam_blocked_eventually +=
                        u64::from(domains.iter().any(|&d| feed.contains(d)));
                }
                for (t, domains) in &ham {
                    r.ham_blocked += u64::from(before(feed, domains, *t));
                }
                r
            })
            .collect()
    }

    #[test]
    fn counts_match_the_per_feed_rule_exactly() {
        for seed in [131, 11] {
            for budget in [None, Some(64 << 10)] {
                let mut eco = EcosystemConfig::default().with_scale(0.05);
                eco.max_mem_bytes = budget;
                let truth = GroundTruth::generate(&eco, seed).unwrap();
                assert_eq!(truth.cache().is_none(), budget.is_some(), "spilled");
                let world =
                    MailWorld::build(truth, MailConfig::default().with_scale(0.05)).unwrap();
                for profile in [FaultProfile::off(), FaultProfile::lossy_feeds()] {
                    let plan = FaultPlan::new(profile, seed);
                    let feeds = try_collect_all_observed(
                        &world,
                        &FeedsConfig::default(),
                        &plan,
                        &Parallelism::serial(),
                        &Obs::off(),
                    )
                    .unwrap();
                    let got = blocking_study(&world, &feeds).unwrap();
                    let want = reference(&world, &feeds);
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        let case = format!("seed {seed}, budget {budget:?}, {}", w.feed);
                        assert_eq!(g.feed, w.feed, "{case}");
                        assert_eq!(g.spam_total, w.spam_total, "{case}");
                        assert_eq!(g.spam_blocked, w.spam_blocked, "{case}");
                        assert_eq!(
                            g.spam_blocked_eventually, w.spam_blocked_eventually,
                            "{case}"
                        );
                        assert_eq!(g.ham_total, w.ham_total, "{case}");
                        assert_eq!(g.ham_blocked, w.ham_blocked, "{case}");
                    }
                }
            }
        }
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
