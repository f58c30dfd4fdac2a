//! Feed data model.
//!
//! The paper's feeds differ in reporting granularity (§2): raw
//! per-message records, de-duplicated domain records, or binary
//! blacklist listings, with or without volume. [`Feed`] captures the
//! common denominator the analyses need: per registered domain, the
//! first and last time the feed carried it and (when the feed reports
//! it) the observation volume; plus the raw sample count for Table 1.
//!
//! A feed has one type per life. A [`FeedBuilder`] collects: hash
//! tables, because events arrive in arbitrary domain order, plus the
//! mutators and the merge that combines worker shards.
//! [`FeedBuilder::seal`] consumes it into a [`Feed`], which is always
//! sealed: [`FeedColumns`] — sorted parallel columns plus a membership
//! bitset — and an ascending FQDN hash list, which is what the analyses
//! scan. Epochs fold one way, [`Feed::merged`]: a later sealed delta
//! merges into a sealed feed in one linear pass. The collection
//! driver's seals, its final source tails and a checkpoint resume all
//! go through it. [`Feed::from_sorted`] rebuilds a sealed feed from
//! stored parts and refuses parts out of order.

use crate::id::FeedId;
use crate::table::FeedColumns;
use taster_domain::fx::{FxHashMap, FxHashSet};
use taster_domain::{DomainBitset, DomainId};
use taster_sim::{SimTime, TimeWindow};
use taster_stats::EmpiricalDist;

/// Per-domain state within a feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainStats {
    /// First time the feed carried this domain.
    pub first_seen: SimTime,
    /// Last time the feed carried this domain.
    pub last_seen: SimTime,
    /// Observations of this domain in the feed.
    pub volume: u64,
}

impl DomainStats {
    /// Folds in `other`, the same domain's stats from another shard or
    /// epoch: first seen takes the minimum, last seen the maximum, and
    /// volumes add. Commutative and associative; the one combining
    /// rule behind [`FeedBuilder::record`], [`FeedBuilder::merge`] and
    /// [`FeedColumns::merge`].
    #[inline]
    pub(crate) fn absorb(&mut self, other: DomainStats) {
        self.first_seen = self.first_seen.min(other.first_seen);
        self.last_seen = self.last_seen.max(other.last_seen);
        self.volume += other.volume;
    }
}

/// A feed under collection: per-domain stats and FQDN hashes as they
/// arrive. [`FeedBuilder::seal`] turns it into the [`Feed`] the
/// analyses read.
#[derive(Debug, Clone)]
pub struct FeedBuilder {
    /// Which feed this is.
    pub id: FeedId,
    /// Raw records received so far ([`Feed::samples`]).
    pub samples: Option<u64>,
    /// Whether the feed's records carry volume ([`Feed::reports_volume`]).
    pub reports_volume: bool,
    domains: FxHashMap<DomainId, DomainStats>,
    /// `None` until the first FQDN is noted.
    fqdns: Option<FxHashSet<u64>>,
    /// Sorted by start time, distinct.
    gaps: Vec<TimeWindow>,
}

impl FeedBuilder {
    /// An empty builder.
    pub fn new(id: FeedId, reports_volume: bool) -> FeedBuilder {
        FeedBuilder {
            id,
            samples: None,
            reports_volume,
            domains: FxHashMap::default(),
            fqdns: None,
            gaps: Vec::new(),
        }
    }

    /// Marks a known collection gap (an outage window during which this
    /// feed recorded nothing).
    pub fn note_gap(&mut self, window: TimeWindow) {
        add_gap(&mut self.gaps, window);
    }

    /// Notes one observed fully-qualified hostname (by stable hash).
    /// The first call switches the feed to URL granularity.
    pub fn note_fqdn(&mut self, host_hash: u64) {
        self.fqdns
            .get_or_insert_with(FxHashSet::default)
            .insert(host_hash);
    }

    /// Records one observation of `domain` at `time`.
    pub fn record(&mut self, domain: DomainId, time: SimTime) {
        let seen = DomainStats {
            first_seen: time,
            last_seen: time,
            volume: 1,
        };
        self.domains
            .entry(domain)
            .and_modify(|s| s.absorb(seen))
            .or_insert(seen);
    }

    /// Counts one raw sample (a received record/message).
    pub fn count_sample(&mut self) {
        *self.samples.get_or_insert(0) += 1;
    }

    /// Number of unique registered domains recorded so far.
    pub fn unique_domains(&self) -> usize {
        self.domains.len()
    }

    /// Distinct FQDNs noted so far, when the feed reports URL
    /// granularity.
    pub fn unique_fqdns(&self) -> Option<usize> {
        self.fqdns.as_ref().map(|s| s.len())
    }

    /// Folds `other`, a worker shard of the same feed, into `self`.
    ///
    /// The combination is commutative and associative — first seen
    /// takes the minimum, last seen the maximum, volumes and sample
    /// counts add, FQDN sets union — so parallel collection can merge
    /// event-range shards in any grouping and produce the same feed a
    /// serial pass over all events would.
    pub fn merge(&mut self, other: FeedBuilder) {
        assert_eq!(self.id, other.id, "merging shards of different feeds");
        assert_eq!(self.reports_volume, other.reports_volume);
        self.samples = add_samples(self.samples, other.samples);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "absorb is commutative and the merged map is sorted when sealed"
        )]
        for (domain, stats) in other.domains {
            self.domains
                .entry(domain)
                .and_modify(|s| s.absorb(stats))
                .or_insert(stats);
        }
        if let Some(theirs) = other.fqdns {
            self.fqdns
                .get_or_insert_with(FxHashSet::default)
                .extend(theirs);
        }
        for gap in other.gaps {
            self.note_gap(gap);
        }
    }

    /// The sealed feed: the rows sorted once and merged into empty
    /// columns, the FQDN hashes as an ascending list.
    pub fn seal(self) -> Feed {
        let rows = sorted_rows(&self.domains);
        // The map is dropped before the columns are built.
        drop(self.domains);
        Feed {
            id: self.id,
            samples: self.samples,
            reports_volume: self.reports_volume,
            columns: FeedColumns::default().merge(rows),
            fqdns: self.fqdns.map(|set| sorted_hashes(&set)),
            gaps: self.gaps,
        }
    }
}

/// One collected feed, sealed.
#[derive(Debug, Clone)]
pub struct Feed {
    /// Which feed this is.
    pub id: FeedId,
    /// Raw records received over the window (`None` for blacklists,
    /// which deliver listings rather than samples — the paper's
    /// Table 1 shows "n/a").
    pub samples: Option<u64>,
    /// Whether the feed's records carry usable volume information
    /// (§4.3 restricts proportionality analysis to these feeds).
    pub reports_volume: bool,
    /// Per-domain stats as sorted columns.
    columns: FeedColumns,
    /// The distinct fully-qualified hostnames observed (hashes,
    /// ascending), for feeds that report URL granularity (not
    /// blacklists and scrubbed feeds — §2).
    fqdns: Option<Vec<u64>>,
    /// Known collection gaps: windows during which the collector was
    /// down and recorded nothing. Empty on clean runs.
    gaps: Vec<TimeWindow>,
}

impl Feed {
    /// A sealed feed from stored parts: `rows` in strictly ascending
    /// domain order and `fqdns` strictly ascending, as
    /// [`Feed::iter`] and [`Feed::fqdn_hashes`] yield them. Parts out
    /// of that order — a repeated or descending domain id or hash —
    /// are refused, because [`Feed::merged`] relies on it. Gaps may
    /// come in any order.
    pub fn from_sorted(
        id: FeedId,
        reports_volume: bool,
        samples: Option<u64>,
        rows: Vec<(DomainId, DomainStats)>,
        fqdns: Option<Vec<u64>>,
        mut gaps: Vec<TimeWindow>,
    ) -> Result<Feed, String> {
        if let Some(w) = rows.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(format!(
                "feed {id}: domain {} follows domain {}; ids must strictly ascend",
                w[1].0 .0, w[0].0 .0
            ));
        }
        if let Some(w) = fqdns
            .as_deref()
            .and_then(|h| h.windows(2).find(|w| w[0] >= w[1]))
        {
            return Err(format!(
                "feed {id}: FQDN hash {:#x} follows {:#x}; hashes must strictly ascend",
                w[1], w[0]
            ));
        }
        gaps.sort_by_key(|w| (w.start, w.end));
        gaps.dedup();
        Ok(Feed {
            id,
            samples,
            reports_volume,
            columns: FeedColumns::default().merge(rows),
            fqdns,
            gaps,
        })
    }

    /// The feed's known collection gaps, sorted by start time.
    pub fn gaps(&self) -> &[TimeWindow] {
        &self.gaps
    }

    /// Distinct FQDNs observed, when the feed reports URL granularity.
    pub fn unique_fqdns(&self) -> Option<usize> {
        self.fqdns.as_ref().map(Vec::len)
    }

    /// The feed's FQDN hashes in ascending order, when the feed reports
    /// URL granularity. Used by the serve checkpointer.
    pub fn fqdn_hashes(&self) -> Option<&[u64]> {
        self.fqdns.as_deref()
    }

    /// The columnar storage.
    pub fn columns(&self) -> &FeedColumns {
        &self.columns
    }

    /// Number of unique registered domains.
    pub fn unique_domains(&self) -> usize {
        self.columns.len()
    }

    /// Stats for one domain.
    pub fn stats(&self, domain: DomainId) -> Option<DomainStats> {
        self.columns.stats(domain)
    }

    /// Whether the feed carries `domain`.
    pub fn contains(&self, domain: DomainId) -> bool {
        self.columns.contains(domain)
    }

    /// Iterates `(domain, stats)` in ascending domain order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, DomainStats)> + '_ {
        self.columns.iter()
    }

    /// All domain ids, ascending.
    pub fn domain_ids(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.columns.ids().iter().copied()
    }

    /// The feed's empirical volume distribution over domains.
    /// Meaningful only when [`Feed::reports_volume`] is true.
    pub fn volume_distribution(&self) -> EmpiricalDist {
        EmpiricalDist::from_counts(self.iter().map(|(d, s)| (d.0, s.volume)))
    }

    /// The feed holding `self` plus a later `delta` of the same feed,
    /// in one linear pass: the delta's rows merge into the columns
    /// (`FeedColumns::merge`) and its FQDN hashes into the ascending
    /// list, while samples add and gaps union as in
    /// [`FeedBuilder::merge`]. Into an empty `self` the delta's columns
    /// move whole, so a run sealed once copies nothing. The one epoch
    /// fold: live seals, the final source tails and a checkpoint resume.
    pub fn merged(&self, delta: Feed) -> Feed {
        assert_eq!(self.id, delta.id, "merging deltas of different feeds");
        assert_eq!(self.reports_volume, delta.reports_volume);
        let (columns, fqdns) = if self.columns.is_empty() && self.fqdns.is_none() {
            (delta.columns, delta.fqdns)
        } else {
            let fqdns = match (self.fqdns.as_deref(), delta.fqdns.as_deref()) {
                (None, None) => None,
                (a, b) => Some(union_sorted(a.unwrap_or(&[]), b.unwrap_or(&[]))),
            };
            (self.columns.merge(delta.columns.iter()), fqdns)
        };
        let mut gaps = self.gaps.clone();
        for gap in delta.gaps {
            add_gap(&mut gaps, gap);
        }
        Feed {
            id: self.id,
            samples: add_samples(self.samples, delta.samples),
            reports_volume: self.reports_volume,
            columns,
            fqdns,
            gaps,
        }
    }
}

/// Adds `window` to a sorted, distinct gap list.
fn add_gap(gaps: &mut Vec<TimeWindow>, window: TimeWindow) {
    if !gaps.contains(&window) {
        gaps.push(window);
        gaps.sort_by_key(|w| (w.start, w.end));
    }
}

/// Sample counts add; a feed without samples (a blacklist) stays
/// without.
fn add_samples(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        (a, b) => a.or(b),
    }
}

/// A builder's rows in ascending domain order.
fn sorted_rows(domains: &FxHashMap<DomainId, DomainStats>) -> Vec<(DomainId, DomainStats)> {
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    let mut rows: Vec<(DomainId, DomainStats)> = domains.iter().map(|(&d, &s)| (d, s)).collect();
    rows.sort_unstable_by_key(|&(d, _)| d);
    rows
}

/// A builder's FQDN set as an ascending list.
fn sorted_hashes(set: &FxHashSet<u64>) -> Vec<u64> {
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    let mut v: Vec<u64> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// The union of two ascending, distinct lists, in one pass.
fn union_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The full set of collected feeds, indexed by [`FeedId`].
#[derive(Debug, Clone)]
pub struct FeedSet {
    feeds: Vec<Feed>,
}

impl FeedSet {
    /// Assembles a set; `feeds` must contain each feed exactly once.
    pub fn new(mut feeds: Vec<Feed>) -> FeedSet {
        feeds.sort_by_key(|f| f.id.index());
        assert_eq!(feeds.len(), FeedId::ALL.len(), "need all ten feeds");
        for (i, f) in feeds.iter().enumerate() {
            assert_eq!(f.id.index(), i, "duplicate or missing feed");
        }
        FeedSet { feeds }
    }

    /// The set holding `self` plus one epoch's sealed `delta` (all ten
    /// feeds in [`FeedId::ALL`] order), each feed merged in one linear
    /// pass ([`Feed::merged`]).
    pub(crate) fn merged(&self, delta: Vec<Feed>) -> FeedSet {
        assert_eq!(delta.len(), self.feeds.len(), "need all ten feeds");
        let feeds = self.feeds.iter().zip(delta).map(|(f, d)| f.merged(d));
        FeedSet {
            feeds: feeds.collect(),
        }
    }

    /// Access one feed.
    pub fn get(&self, id: FeedId) -> &Feed {
        &self.feeds[id.index()]
    }

    /// One feed's columnar storage.
    pub fn columns(&self, id: FeedId) -> &FeedColumns {
        self.get(id).columns()
    }

    /// Iterate all feeds in table order.
    pub fn iter(&self) -> impl Iterator<Item = &Feed> {
        self.feeds.iter()
    }

    /// Union of unique domains across `feeds`, as a bitset.
    pub fn union_domains(&self, feeds: &[FeedId]) -> DomainBitset {
        let mut set = DomainBitset::new();
        for &f in feeds {
            set.union_with(self.columns(f).members());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn stats(first: u64, last: u64, volume: u64) -> DomainStats {
        DomainStats {
            first_seen: SimTime(first),
            last_seen: SimTime(last),
            volume,
        }
    }

    #[test]
    fn record_tracks_first_last_volume() {
        let mut b = FeedBuilder::new(FeedId::Mx1, true);
        let d = DomainId(3);
        b.record(d, SimTime(50));
        b.record(d, SimTime(10));
        b.record(d, SimTime(90));
        assert_eq!(b.unique_domains(), 1);
        let f = b.seal();
        assert_eq!(f.stats(d), Some(stats(10, 90, 3)));
        assert_eq!(f.unique_domains(), 1);
        assert!(f.contains(d));
        assert!(!f.contains(DomainId(4)));
    }

    #[test]
    fn samples_default_to_none() {
        let mut b = FeedBuilder::new(FeedId::Dbl, false);
        assert_eq!(b.samples, None);
        b.count_sample();
        b.count_sample();
        assert_eq!(b.samples, Some(2));
        assert_eq!(b.seal().samples, Some(2));
    }

    #[test]
    fn volume_distribution_reflects_counts() {
        let mut b = FeedBuilder::new(FeedId::Bot, true);
        b.record(DomainId(1), SimTime(1));
        b.record(DomainId(1), SimTime(2));
        b.record(DomainId(2), SimTime(3));
        let dist = b.seal().volume_distribution();
        assert_eq!(dist.total(), 3);
        assert_eq!(dist.count(1), 2);
    }

    #[test]
    fn sealing_preserves_contents() {
        let mut b = FeedBuilder::new(FeedId::Bot, true);
        let mut model = BTreeMap::new();
        for &(d, t) in &[(130u32, 9u64), (1, 4), (1, 2), (64, 7)] {
            b.record(DomainId(d), SimTime(t));
            model
                .entry(DomainId(d))
                .and_modify(|s: &mut DomainStats| s.absorb(stats(t, t, 1)))
                .or_insert(stats(t, t, 1));
        }
        let f = b.seal();
        let rows: Vec<_> = f.iter().collect();
        assert_eq!(rows, model.into_iter().collect::<Vec<_>>());
        assert_eq!(f.unique_domains(), 3);
        assert!(f.contains(DomainId(64)));
        assert!(!f.contains(DomainId(65)));
        assert_eq!(f.stats(DomainId(1)).unwrap().volume, 2);
        assert_eq!(f.columns().ids().len(), 3);
        assert_eq!(f.unique_fqdns(), None);
    }

    #[test]
    fn merge_is_order_independent() {
        let shard = |times: &[(u32, u64)]| {
            let mut b = FeedBuilder::new(FeedId::Mx1, true);
            b.samples = Some(0);
            for &(d, t) in times {
                b.count_sample();
                b.record(DomainId(d), SimTime(t));
                b.note_fqdn(u64::from(d) * 31 + t);
            }
            b
        };
        let a = shard(&[(1, 10), (2, 50)]);
        let b = shard(&[(1, 5), (3, 99)]);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        let (ab, ba) = (ab.seal(), ba.seal());
        assert_eq!(ab.samples, Some(4));
        assert_eq!(ab.samples, ba.samples);
        assert_eq!(ab.unique_domains(), 3);
        assert_eq!(ab.iter().collect::<Vec<_>>(), ba.iter().collect::<Vec<_>>());
        assert_eq!(ab.stats(DomainId(1)), Some(stats(5, 10, 2)));
        assert_eq!(ab.fqdn_hashes(), ba.fqdn_hashes());
    }

    #[test]
    fn merged_delta_equals_sealing_the_merged_shards() {
        let shard = |times: &[(u32, u64)], fqdns: bool| {
            let mut b = FeedBuilder::new(FeedId::Mx1, true);
            b.samples = Some(0);
            for &(d, t) in times {
                b.count_sample();
                b.record(DomainId(d), SimTime(t));
                if fqdns {
                    b.note_fqdn(u64::from(d) * 31 + t);
                }
            }
            b
        };
        let gap = TimeWindow::new(SimTime(3), SimTime(8));
        let base_rows: &[(u32, u64)] = &[(1, 10), (64, 50), (2, 7)];
        // The last two cases merge into an empty base, which moves the
        // delta's columns instead of copying them.
        for (rows, base_fqdns, delta_fqdns) in [
            (base_rows, true, true),
            (base_rows, false, true),
            (base_rows, true, false),
            (base_rows, false, false),
            (&[][..], false, true),
            (&[][..], false, false),
        ] {
            let mut base = shard(rows, base_fqdns);
            base.note_gap(gap);
            let delta = shard(&[(1, 5), (65, 99), (63, 1), (1, 10)], delta_fqdns);
            let mut expected = base.clone();
            expected.merge(delta.clone());
            let expected = expected.seal();
            let got = base.seal().merged(delta.seal());
            assert_eq!(got.samples, expected.samples);
            assert_eq!(got.gaps(), expected.gaps());
            assert_eq!(got.fqdn_hashes(), expected.fqdn_hashes());
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected.iter().collect::<Vec<_>>()
            );
            assert_eq!(
                got.columns().members().words(),
                expected.columns().members().words()
            );
        }
    }

    #[test]
    fn from_sorted_equals_the_sealed_builder_and_refuses_disorder() {
        let mut b = FeedBuilder::new(FeedId::Bot, true);
        for (d, t) in [(5u32, 3u64), (9, 1), (5, 7)] {
            b.record(DomainId(d), SimTime(t));
            b.note_fqdn(u64::from(d));
        }
        let gap = |s| TimeWindow::new(SimTime(s), SimTime(s + 1));
        b.note_gap(gap(4));
        b.note_gap(gap(2));
        let sealed = b.seal();
        let parts = |rows: &[(u32, u64)], fqdns: &[u64]| {
            Feed::from_sorted(
                FeedId::Bot,
                true,
                None,
                rows.iter()
                    .map(|&(d, v)| (DomainId(d), stats(1, 7, v)))
                    .collect(),
                Some(fqdns.to_vec()),
                vec![gap(4), gap(2), gap(4)],
            )
        };
        let restored = parts(&[(5, 2), (9, 1)], &[5, 9]).unwrap();
        assert_eq!(restored.iter().count(), 2);
        assert_eq!(restored.fqdn_hashes(), sealed.fqdn_hashes());
        assert_eq!(restored.gaps(), sealed.gaps());
        assert_eq!(restored.stats(DomainId(5)), Some(stats(1, 7, 2)));
        for (rows, fqdns, want) in [
            (
                &[(5, 3), (5, 6)][..],
                &[5, 9][..],
                "domain 5 follows domain 5",
            ),
            (
                &[(9, 1), (5, 2)][..],
                &[5, 9][..],
                "domain 5 follows domain 9",
            ),
            (
                &[(5, 2), (9, 1)][..],
                &[9, 9][..],
                "FQDN hash 0x9 follows 0x9",
            ),
            (
                &[(5, 2), (9, 1)][..],
                &[9, 5][..],
                "FQDN hash 0x5 follows 0x9",
            ),
        ] {
            let err = parts(rows, fqdns).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn feed_set_indexing_and_union() {
        let mut feeds: Vec<FeedBuilder> = FeedId::ALL
            .iter()
            .map(|&id| FeedBuilder::new(id, false))
            .collect();
        feeds[FeedId::Mx1.index()].record(DomainId(7), SimTime(1));
        feeds[FeedId::Bot.index()].record(DomainId(8), SimTime(1));
        feeds.reverse(); // constructor must restore order
        let set = FeedSet::new(feeds.into_iter().map(FeedBuilder::seal).collect());
        assert_eq!(set.get(FeedId::Mx1).id, FeedId::Mx1);
        let union = set.union_domains(&[FeedId::Mx1, FeedId::Bot]);
        assert_eq!(union.len(), 2);
        assert!(union.contains(DomainId(7)));
    }

    #[test]
    #[should_panic(expected = "need all ten feeds")]
    fn feed_set_rejects_missing() {
        FeedSet::new(vec![FeedBuilder::new(FeedId::Hu, false).seal()]);
    }
}
