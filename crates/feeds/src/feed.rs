//! Feed data model.
//!
//! The paper's feeds differ in reporting granularity (§2): raw
//! per-message records, de-duplicated domain records, or binary
//! blacklist listings, with or without volume. [`Feed`] captures the
//! common denominator the analyses need: per registered domain, the
//! first and last time the feed carried it and (when the feed reports
//! it) the observation volume; plus the raw sample count for Table 1.
//!
//! A feed has two storage states. During collection it is *building*:
//! hash tables, because events arrive in arbitrary domain order.
//! [`Feed::seal`] freezes it into [`FeedColumns`] — sorted parallel
//! columns plus a membership bitset — and an ascending FQDN hash list,
//! which is what the analyses scan. `Feed::merged` folds a later
//! delta into a sealed feed in one linear pass; that is how the
//! collection driver seals an epoch. The read API is identical in both
//! states.

use crate::id::FeedId;
use crate::table::FeedColumns;
use std::borrow::Cow;
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
    /// rule behind [`Feed::record`], [`Feed::merge`] and
    /// [`FeedColumns::merge`].
    #[inline]
    pub(crate) fn absorb(&mut self, other: DomainStats) {
        self.first_seen = self.first_seen.min(other.first_seen);
        self.last_seen = self.last_seen.max(other.last_seen);
        self.volume += other.volume;
    }
}

/// Either ingestion (hash) or analysis (sorted) storage. The FQDN set
/// is `None` for feeds that report no URL granularity.
#[derive(Debug, Clone)]
enum Store {
    /// Per-domain stats and FQDN hashes as they arrive.
    Building(FxHashMap<DomainId, DomainStats>, Option<FxHashSet<u64>>),
    /// Sorted columns and the FQDN hashes, ascending and distinct.
    Sealed(FeedColumns, Option<Vec<u64>>),
}

/// One collected feed.
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
    /// Per-domain stats plus the distinct fully-qualified hostnames
    /// observed (hashes), for feeds that report URL granularity (not
    /// blacklists and scrubbed feeds — §2).
    store: Store,
    /// Known collection gaps: windows during which the collector was
    /// down and recorded nothing. Empty on clean runs.
    gaps: Vec<TimeWindow>,
}

impl Feed {
    /// An empty feed (in the building state).
    pub fn new(id: FeedId, reports_volume: bool) -> Feed {
        Feed {
            id,
            samples: None,
            reports_volume,
            store: Store::Building(FxHashMap::default(), None),
            gaps: Vec::new(),
        }
    }

    /// Marks a known collection gap (an outage window during which this
    /// feed recorded nothing). Works in either storage state.
    pub fn note_gap(&mut self, window: TimeWindow) {
        if !self.gaps.contains(&window) {
            self.gaps.push(window);
            self.gaps.sort_by_key(|w| (w.start, w.end));
        }
    }

    /// The feed's known collection gaps, sorted by start time.
    pub fn gaps(&self) -> &[TimeWindow] {
        &self.gaps
    }

    /// Notes one observed fully-qualified hostname (by stable hash).
    /// The first call switches the feed to URL granularity.
    ///
    /// Panics once the feed has been sealed — collection is over.
    pub fn note_fqdn(&mut self, host_hash: u64) {
        #[expect(
            clippy::panic,
            reason = "documented sealed-state contract; noting into a sealed feed is a caller bug"
        )]
        let Store::Building(_, fqdns) = &mut self.store
        else {
            panic!("cannot note an FQDN in a sealed feed");
        };
        fqdns
            .get_or_insert_with(FxHashSet::default)
            .insert(host_hash);
    }

    /// Distinct FQDNs observed, when the feed reports URL granularity.
    pub fn unique_fqdns(&self) -> Option<usize> {
        match &self.store {
            Store::Building(_, fqdns) => fqdns.as_ref().map(|s| s.len()),
            Store::Sealed(_, fqdns) => fqdns.as_ref().map(Vec::len),
        }
    }

    /// Records one observation of `domain` at `time`.
    ///
    /// Panics once the feed has been sealed — collection is over.
    pub fn record(&mut self, domain: DomainId, time: SimTime) {
        #[expect(
            clippy::panic,
            reason = "documented sealed-state contract; recording into a sealed feed is a caller bug"
        )]
        let Store::Building(domains, _) = &mut self.store
        else {
            panic!("cannot record into a sealed feed");
        };
        let seen = DomainStats {
            first_seen: time,
            last_seen: time,
            volume: 1,
        };
        domains
            .entry(domain)
            .and_modify(|s| s.absorb(seen))
            .or_insert(seen);
    }

    /// Counts one raw sample (a received record/message).
    pub fn count_sample(&mut self) {
        *self.samples.get_or_insert(0) += 1;
    }

    /// Freezes the ingestion tables into sorted columns and an
    /// ascending FQDN list: the merge kernel over empty columns.
    /// Idempotent.
    pub fn seal(&mut self) {
        if let Store::Building(domains, fqdns) = &mut self.store {
            // The map is dropped before the columns are built.
            let rows = sorted_rows(&std::mem::take(domains));
            let fqdns = fqdns.take().map(|set| sorted_hashes(&set));
            self.store = Store::Sealed(FeedColumns::default().merge(rows), fqdns);
        }
    }

    /// The columnar storage. Panics while still building.
    pub fn columns(&self) -> &FeedColumns {
        match &self.store {
            Store::Sealed(cols, _) => cols,
            #[expect(
                clippy::panic,
                reason = "documented contract: columns() requires a sealed feed"
            )]
            Store::Building(..) => panic!("feed {} has not been sealed", self.id),
        }
    }

    /// Number of unique registered domains.
    pub fn unique_domains(&self) -> usize {
        match &self.store {
            Store::Building(domains, _) => domains.len(),
            Store::Sealed(cols, _) => cols.len(),
        }
    }

    /// Stats for one domain.
    pub fn stats(&self, domain: DomainId) -> Option<DomainStats> {
        match &self.store {
            Store::Building(domains, _) => domains.get(&domain).copied(),
            Store::Sealed(cols, _) => cols.stats(domain),
        }
    }

    /// Whether the feed carries `domain`.
    pub fn contains(&self, domain: DomainId) -> bool {
        match &self.store {
            Store::Building(domains, _) => domains.contains_key(&domain),
            Store::Sealed(cols, _) => cols.contains(domain),
        }
    }

    /// Iterates `(domain, stats)` in ascending domain order, in either
    /// state (a building feed sorts a copy of its rows first).
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, DomainStats)> + '_ {
        let (building, sealed) = match &self.store {
            Store::Building(domains, _) => (Some(sorted_rows(domains)), None),
            Store::Sealed(cols, _) => (None, Some(cols.iter())),
        };
        building
            .into_iter()
            .flatten()
            .chain(sealed.into_iter().flatten())
    }

    /// All domain ids, ascending.
    pub fn domain_ids(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.iter().map(|(d, _)| d)
    }

    /// The feed's empirical volume distribution over domains.
    /// Meaningful only when [`Feed::reports_volume`] is true.
    pub fn volume_distribution(&self) -> EmpiricalDist {
        EmpiricalDist::from_counts(self.iter().map(|(d, s)| (d.0, s.volume)))
    }

    /// The feed's FQDN hashes in ascending order, when the feed reports
    /// URL granularity: sorted while building, borrowed once sealed.
    /// Deterministic: the same feed always yields the same list,
    /// whatever insertion order built the set. Used by the serve
    /// checkpointer.
    pub fn fqdn_hashes_sorted(&self) -> Option<Cow<'_, [u64]>> {
        match &self.store {
            Store::Building(_, fqdns) => fqdns.as_ref().map(|s| Cow::Owned(sorted_hashes(s))),
            Store::Sealed(_, fqdns) => fqdns.as_deref().map(Cow::Borrowed),
        }
    }

    /// Rebuilds a *building* feed from checkpointed parts: the inverse
    /// of iterating a snapshot. `entries` may arrive in any order;
    /// duplicates are a caller bug (the last entry wins; volumes are
    /// not merged). The restored feed accepts further [`Feed::record`]
    /// and [`Feed::merge`] calls — this is how `serve --resume` folds
    /// its checkpoint chain.
    pub fn from_parts(
        id: FeedId,
        reports_volume: bool,
        samples: Option<u64>,
        entries: impl IntoIterator<Item = (DomainId, DomainStats)>,
        fqdns: Option<Vec<u64>>,
        gaps: Vec<TimeWindow>,
    ) -> Feed {
        let mut feed = Feed {
            id,
            samples,
            reports_volume,
            store: Store::Building(
                entries.into_iter().collect(),
                fqdns.map(|v| v.into_iter().collect()),
            ),
            gaps: Vec::new(),
        };
        for gap in gaps {
            feed.note_gap(gap);
        }
        feed
    }

    /// Folds `other` (a shard of the same feed) into `self`.
    ///
    /// The combination is commutative and associative — first seen
    /// takes the minimum, last seen the maximum, volumes and sample
    /// counts add, FQDN sets union — so parallel collection can merge
    /// event-range shards in any grouping and produce the same feed a
    /// serial pass over all events would. Both shards must still be
    /// building.
    pub fn merge(&mut self, other: Feed) {
        assert_eq!(self.id, other.id, "merging shards of different feeds");
        assert_eq!(self.reports_volume, other.reports_volume);
        #[expect(
            clippy::panic,
            reason = "documented contract: only building shards merge; sealed feeds take deltas through merged()"
        )]
        let (Store::Building(ours, our_fqdns), Store::Building(theirs, their_fqdns)) =
            (&mut self.store, other.store)
        else {
            panic!("cannot merge sealed feeds");
        };
        self.samples = add_samples(self.samples, other.samples);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "absorb is commutative and the merged map is sorted when sealed"
        )]
        for (domain, stats) in theirs {
            ours.entry(domain)
                .and_modify(|s| s.absorb(stats))
                .or_insert(stats);
        }
        if let Some(theirs) = their_fqdns {
            our_fqdns
                .get_or_insert_with(FxHashSet::default)
                .extend(theirs);
        }
        for gap in other.gaps {
            self.note_gap(gap);
        }
    }

    /// The sealed feed holding `self` plus a later `delta`, both
    /// sealed, in one linear pass: the delta's rows merge into the
    /// columns ([`FeedColumns::merge`]) and its FQDN hashes into the
    /// ascending list, while samples add and gaps union as in
    /// [`Feed::merge`]. Into an empty `self` the delta's columns move
    /// whole, so a run sealed once copies nothing.
    pub(crate) fn merged(&self, delta: Feed) -> Feed {
        assert_eq!(self.id, delta.id, "merging deltas of different feeds");
        assert_eq!(self.reports_volume, delta.reports_volume);
        #[expect(
            clippy::panic,
            reason = "documented contract: merged() takes sealed feeds; a building delta is sealed first"
        )]
        let (Store::Sealed(cols, fqdns), Store::Sealed(rows, delta_fqdns)) =
            (&self.store, delta.store)
        else {
            panic!("feed {} merges only sealed feeds", self.id);
        };
        let store = if cols.is_empty() && fqdns.is_none() {
            Store::Sealed(rows, delta_fqdns)
        } else {
            let fqdns = match (fqdns.as_deref(), delta_fqdns.as_deref()) {
                (None, None) => None,
                (a, b) => Some(union_sorted(a.unwrap_or(&[]), b.unwrap_or(&[]))),
            };
            Store::Sealed(cols.merge(rows.iter()), fqdns)
        };
        let mut feed = Feed {
            id: self.id,
            samples: add_samples(self.samples, delta.samples),
            reports_volume: self.reports_volume,
            store,
            gaps: self.gaps.clone(),
        };
        for gap in delta.gaps {
            feed.note_gap(gap);
        }
        feed
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

/// A building feed's rows in ascending domain order.
fn sorted_rows(domains: &FxHashMap<DomainId, DomainStats>) -> Vec<(DomainId, DomainStats)> {
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    let mut rows: Vec<(DomainId, DomainStats)> = domains.iter().map(|(&d, &s)| (d, s)).collect();
    rows.sort_unstable_by_key(|&(d, _)| d);
    rows
}

/// A building FQDN set as an ascending list.
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
    /// Seals every feed — collection is over once a set exists.
    pub fn new(mut feeds: Vec<Feed>) -> FeedSet {
        feeds.sort_by_key(|f| f.id.index());
        assert_eq!(feeds.len(), FeedId::ALL.len(), "need all ten feeds");
        for (i, f) in feeds.iter_mut().enumerate() {
            assert_eq!(f.id.index(), i, "duplicate or missing feed");
            f.seal();
        }
        FeedSet { feeds }
    }

    /// The set holding `self` plus one epoch's `delta` (all ten feeds
    /// in [`FeedId::ALL`] order): each delta feed is sealed — sorted,
    /// unless it already is — and merged in one linear pass
    /// ([`Feed::merged`]).
    pub(crate) fn merged(&self, delta: Vec<Feed>) -> FeedSet {
        assert_eq!(delta.len(), self.feeds.len(), "need all ten feeds");
        let feeds = self.feeds.iter().zip(delta).map(|(f, mut d)| {
            d.seal();
            f.merged(d)
        });
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

    #[test]
    fn record_tracks_first_last_volume() {
        let mut f = Feed::new(FeedId::Mx1, true);
        let d = DomainId(3);
        f.record(d, SimTime(50));
        f.record(d, SimTime(10));
        f.record(d, SimTime(90));
        let s = f.stats(d).unwrap();
        assert_eq!(s.first_seen, SimTime(10));
        assert_eq!(s.last_seen, SimTime(90));
        assert_eq!(s.volume, 3);
        assert_eq!(f.unique_domains(), 1);
        assert!(f.contains(d));
        assert!(!f.contains(DomainId(4)));
    }

    #[test]
    fn samples_default_to_none() {
        let mut f = Feed::new(FeedId::Dbl, false);
        assert_eq!(f.samples, None);
        f.count_sample();
        f.count_sample();
        assert_eq!(f.samples, Some(2));
    }

    #[test]
    fn volume_distribution_reflects_counts() {
        let mut f = Feed::new(FeedId::Bot, true);
        f.record(DomainId(1), SimTime(1));
        f.record(DomainId(1), SimTime(2));
        f.record(DomainId(2), SimTime(3));
        let dist = f.volume_distribution();
        assert_eq!(dist.total(), 3);
        assert_eq!(dist.count(1), 2);
    }

    #[test]
    fn sealing_preserves_contents() {
        let mut f = Feed::new(FeedId::Bot, true);
        for &(d, t) in &[(130u32, 9u64), (1, 4), (1, 2), (64, 7)] {
            f.record(DomainId(d), SimTime(t));
        }
        let before: Vec<_> = {
            let mut v: Vec<_> = f.iter().collect();
            v.sort_by_key(|&(d, _)| d);
            v
        };
        f.seal();
        f.seal(); // idempotent
        let after: Vec<_> = f.iter().collect();
        assert_eq!(before, after, "sealed iteration is the sorted map");
        assert_eq!(f.unique_domains(), 3);
        assert!(f.contains(DomainId(64)));
        assert!(!f.contains(DomainId(65)));
        assert_eq!(f.stats(DomainId(1)).unwrap().volume, 2);
        assert_eq!(f.columns().ids().len(), 3);
    }

    #[test]
    #[should_panic(expected = "sealed feed")]
    fn sealed_feed_rejects_records() {
        let mut f = Feed::new(FeedId::Bot, true);
        f.seal();
        f.record(DomainId(1), SimTime(1));
    }

    #[test]
    fn merge_is_order_independent() {
        let shard = |times: &[(u32, u64)]| {
            let mut f = Feed::new(FeedId::Mx1, true);
            f.samples = Some(0);
            for &(d, t) in times {
                f.count_sample();
                f.record(DomainId(d), SimTime(t));
                f.note_fqdn(u64::from(d) * 31 + t);
            }
            f
        };
        let a = shard(&[(1, 10), (2, 50)]);
        let b = shard(&[(1, 5), (3, 99)]);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.samples, Some(4));
        assert_eq!(ab.samples, ba.samples);
        assert_eq!(ab.unique_domains(), 3);
        for d in [1u32, 2, 3] {
            assert_eq!(ab.stats(DomainId(d)), ba.stats(DomainId(d)));
        }
        let s = ab.stats(DomainId(1)).unwrap();
        assert_eq!(s.first_seen, SimTime(5));
        assert_eq!(s.last_seen, SimTime(10));
        assert_eq!(s.volume, 2);
        assert_eq!(ab.unique_fqdns(), ba.unique_fqdns());
    }

    #[test]
    fn merged_delta_equals_sealing_the_merged_shards() {
        let shard = |times: &[(u32, u64)], fqdns: bool| {
            let mut f = Feed::new(FeedId::Mx1, true);
            f.samples = Some(0);
            for &(d, t) in times {
                f.count_sample();
                f.record(DomainId(d), SimTime(t));
                if fqdns {
                    f.note_fqdn(u64::from(d) * 31 + t);
                }
            }
            f
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
            let mut delta = shard(&[(1, 5), (65, 99), (63, 1), (1, 10)], delta_fqdns);
            let mut expected = base.clone();
            expected.merge(delta.clone());
            expected.seal();
            base.seal();
            delta.seal();
            let got = base.merged(delta);
            assert_eq!(got.samples, expected.samples);
            assert_eq!(got.gaps(), expected.gaps());
            assert_eq!(got.fqdn_hashes_sorted(), expected.fqdn_hashes_sorted());
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

    fn dummy_set() -> FeedSet {
        FeedSet::new(FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect())
    }

    #[test]
    fn feed_set_indexing_and_union() {
        let mut feeds: Vec<Feed> = FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect();
        feeds[FeedId::Mx1.index()].record(DomainId(7), SimTime(1));
        feeds[FeedId::Bot.index()].record(DomainId(8), SimTime(1));
        feeds.reverse(); // constructor must restore order
        let set = FeedSet::new(feeds);
        assert_eq!(set.get(FeedId::Mx1).id, FeedId::Mx1);
        let union = set.union_domains(&[FeedId::Mx1, FeedId::Bot]);
        assert_eq!(union.len(), 2);
        assert!(union.contains(DomainId(7)));
        let _ = dummy_set();
    }

    #[test]
    #[should_panic(expected = "need all ten feeds")]
    fn feed_set_rejects_missing() {
        FeedSet::new(vec![Feed::new(FeedId::Hu, false)]);
    }
}
