//! Columnar per-feed domain storage.
//!
//! Ingestion accumulates per-domain stats in a hash map (events arrive
//! in arbitrary domain order), but every analysis that follows is a
//! scan or a set operation. [`FeedColumns`] is the post-collection
//! layout: domain ids sorted ascending with `first_seen` / `last_seen`
//! / `volume` as parallel columns, plus a membership [`DomainBitset`]
//! and a [`RankIndex`] so point lookups (`stats`, `contains`) cost one
//! word probe + popcount instead of a SipHash probe, and whole-feed
//! unions/intersections run as word-level kernels.
//!
//! Columns are built by one kernel, `FeedColumns::merge`: sealing a
//! building feed merges its sorted rows into empty columns, and
//! `taster serve` merges each epoch's sorted delta into the last sealed
//! columns in one linear pass.

use crate::feed::DomainStats;
use std::ops::Range;
use taster_domain::{DomainBitset, DomainId, RankIndex};
use taster_sim::SimTime;

/// One feed's domains as sorted parallel columns + membership bitset.
#[derive(Debug, Clone, Default)]
pub struct FeedColumns {
    ids: Vec<DomainId>,
    first_seen: Vec<SimTime>,
    last_seen: Vec<SimTime>,
    volume: Vec<u64>,
    members: DomainBitset,
    rank: RankIndex,
}

impl FeedColumns {
    /// The columns holding `self` plus `delta`, built in one linear
    /// pass. `delta` yields rows in strictly ascending domain order. A
    /// domain in both combines by [`DomainStats::absorb`], the rule
    /// [`crate::Feed::merge`] uses; the runs of base rows between two
    /// delta rows are copied whole. The bitset keeps the base's words
    /// and gains the delta's bits, so it has the words a bitset built
    /// from the union would. Merging into empty columns is how a
    /// building feed seals.
    pub(crate) fn merge(
        &self,
        delta: impl IntoIterator<Item = (DomainId, DomainStats)>,
    ) -> FeedColumns {
        let delta = delta.into_iter();
        let rows = self.len() + delta.size_hint().0;
        let mut out = FeedColumns {
            ids: Vec::with_capacity(rows),
            first_seen: Vec::with_capacity(rows),
            last_seen: Vec::with_capacity(rows),
            volume: Vec::with_capacity(rows),
            members: self.members.clone(),
            rank: RankIndex::default(),
        };
        // First base row not yet copied to `out`.
        let mut next = 0;
        for (d, mut stats) in delta {
            debug_assert!(
                out.ids.last().is_none_or(|&prev| prev < d),
                "delta rows must ascend"
            );
            let run = self.ids[next..].partition_point(|&b| b < d);
            out.extend_from(self, next..next + run);
            next += run;
            if self.ids.get(next) == Some(&d) {
                stats.absorb(self.row(next));
                next += 1;
            } else {
                out.members.insert(d);
            }
            out.ids.push(d);
            out.first_seen.push(stats.first_seen);
            out.last_seen.push(stats.last_seen);
            out.volume.push(stats.volume);
        }
        out.extend_from(self, next..self.len());
        out.rank = RankIndex::build(&out.members);
        out
    }

    /// Appends `src`'s rows `rows` (already sorted past `self`'s last).
    fn extend_from(&mut self, src: &FeedColumns, rows: Range<usize>) {
        self.ids.extend_from_slice(&src.ids[rows.clone()]);
        self.first_seen
            .extend_from_slice(&src.first_seen[rows.clone()]);
        self.last_seen
            .extend_from_slice(&src.last_seen[rows.clone()]);
        self.volume.extend_from_slice(&src.volume[rows]);
    }

    /// The stats in row `i`.
    fn row(&self, i: usize) -> DomainStats {
        DomainStats {
            first_seen: self.first_seen[i],
            last_seen: self.last_seen[i],
            volume: self.volume[i],
        }
    }

    /// Number of distinct domains.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the feed carried nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test (one word probe).
    pub fn contains(&self, domain: DomainId) -> bool {
        self.members.contains(domain)
    }

    /// The row index of `domain`, if present.
    pub fn row_of(&self, domain: DomainId) -> Option<usize> {
        self.rank.rank(&self.members, domain)
    }

    /// Stats for one domain — O(1) rank lookup, no hashing.
    pub fn stats(&self, domain: DomainId) -> Option<DomainStats> {
        self.row_of(domain).map(|i| self.row(i))
    }

    /// Iterates `(domain, stats)` in ascending domain order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, DomainStats)> + '_ {
        self.ids.iter().enumerate().map(|(i, &d)| (d, self.row(i)))
    }

    /// Domain ids, ascending.
    pub fn ids(&self) -> &[DomainId] {
        &self.ids
    }

    /// First-seen column, aligned with [`FeedColumns::ids`].
    pub fn first_seen(&self) -> &[SimTime] {
        &self.first_seen
    }

    /// Last-seen column, aligned with [`FeedColumns::ids`].
    pub fn last_seen(&self) -> &[SimTime] {
        &self.last_seen
    }

    /// Volume column, aligned with [`FeedColumns::ids`].
    pub fn volumes(&self) -> &[u64] {
        &self.volume
    }

    /// The membership bitset (for word-level set algebra).
    pub fn members(&self) -> &DomainBitset {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn stats(first: u64, last: u64, volume: u64) -> DomainStats {
        DomainStats {
            first_seen: SimTime(first.min(last)),
            last_seen: SimTime(first.max(last)),
            volume,
        }
    }

    /// Rows in ascending id order; a repeated id keeps its last stats.
    fn rows(raw: &[(u32, (u64, u64, u64))]) -> Vec<(DomainId, DomainStats)> {
        let map: BTreeMap<DomainId, DomainStats> = raw
            .iter()
            .map(|&(d, (f, l, v))| (DomainId(d), stats(f, l, v)))
            .collect();
        map.into_iter().collect()
    }

    fn sample() -> FeedColumns {
        FeedColumns::default().merge(rows(&[(70, (3, 9, 4)), (2, (1, 1, 1)), (64, (5, 5, 2))]))
    }

    /// Checks `cols` against the union of `base` and `delta` computed
    /// without the kernel: ids, the three columns, the bitset words and
    /// `row_of` for every id up to one word past the largest.
    fn assert_is_union(
        cols: &FeedColumns,
        base: &[(DomainId, DomainStats)],
        delta: &[(DomainId, DomainStats)],
    ) -> Result<(), TestCaseError> {
        let mut union: BTreeMap<DomainId, DomainStats> = base.iter().copied().collect();
        for &(d, s) in delta {
            union
                .entry(d)
                .and_modify(|u| {
                    u.first_seen = u.first_seen.min(s.first_seen);
                    u.last_seen = u.last_seen.max(s.last_seen);
                    u.volume += s.volume;
                })
                .or_insert(s);
        }
        let ids: Vec<DomainId> = union.keys().copied().collect();
        prop_assert_eq!(cols.ids(), &ids[..]);
        let first: Vec<SimTime> = union.values().map(|s| s.first_seen).collect();
        let last: Vec<SimTime> = union.values().map(|s| s.last_seen).collect();
        let volume: Vec<u64> = union.values().map(|s| s.volume).collect();
        prop_assert_eq!(cols.first_seen(), &first[..]);
        prop_assert_eq!(cols.last_seen(), &last[..]);
        prop_assert_eq!(cols.volumes(), &volume[..]);
        let members = DomainBitset::from_sorted_ids(&ids);
        prop_assert_eq!(cols.members().words(), members.words());
        prop_assert_eq!(cols.members().len(), ids.len());
        let top = ids.last().map_or(0, |d| d.0) + 65;
        for d in (0..=top).map(DomainId) {
            prop_assert_eq!(
                cols.row_of(d),
                ids.binary_search(&d).ok(),
                "row_of({:?})",
                d
            );
        }
        Ok(())
    }

    /// Ids cluster on the 63/64/65 word edge and spill into a third
    /// word, so merges that grow the bitset are common.
    fn arb_rows() -> impl Strategy<Value = Vec<(u32, (u64, u64, u64))>> {
        let id = prop_oneof![Just(63u32), Just(64u32), Just(65u32), 0u32..200];
        proptest::collection::vec((id, (0u64..1_000, 0u64..1_000, 1u64..50)), 0..40)
    }

    proptest! {
        /// Merging an arbitrary delta into arbitrary columns equals the
        /// columns of their union. `shape` forces the edge cases: an
        /// empty base, an empty delta, and a delta that re-reports
        /// every base domain.
        #[test]
        fn merge_equals_the_columns_of_the_union(
            base in arb_rows(),
            delta in arb_rows(),
            shape in 0u8..4,
        ) {
            let mut base = rows(&base);
            let mut delta = rows(&delta);
            match shape {
                1 => base.clear(),
                2 => delta.clear(),
                3 => {
                    let fresh = delta.iter().map(|&(_, s)| s).cycle();
                    delta = base.iter().zip(fresh).map(|(&(d, _), s)| (d, s)).collect();
                    if delta.len() < base.len() {
                        delta = base.clone();
                    }
                }
                _ => {}
            }
            let cols = FeedColumns::default().merge(base.iter().copied());
            assert_is_union(&cols, &base, &[])?;
            let merged = cols.merge(delta.iter().copied());
            assert_is_union(&merged, &base, &delta)?;
        }
    }

    #[test]
    fn merge_across_the_word_edge() {
        for (base, delta) in [
            (vec![63], vec![64, 65]),
            (vec![64], vec![63, 65]),
            (vec![65], vec![63, 64]),
            (vec![63, 64, 65], vec![]),
            (vec![], vec![63, 64, 65]),
            (vec![63, 64, 65], vec![63, 64, 65]),
        ] {
            let base: Vec<_> = base.into_iter().map(|d| (d, (d.into(), 9, 1))).collect();
            let delta: Vec<_> = delta.into_iter().map(|d| (d, (2, d.into(), 3))).collect();
            let (base, delta) = (rows(&base), rows(&delta));
            let merged = FeedColumns::default()
                .merge(base.iter().copied())
                .merge(delta.iter().copied());
            assert_is_union(&merged, &base, &delta).unwrap();
        }
    }

    #[test]
    fn columns_are_sorted_and_aligned() {
        let cols = sample();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.ids(), &[DomainId(2), DomainId(64), DomainId(70)]);
        assert_eq!(cols.volumes(), &[1, 2, 4]);
        let rows: Vec<_> = cols.iter().map(|(d, s)| (d.0, s.volume)).collect();
        assert_eq!(rows, vec![(2, 1), (64, 2), (70, 4)]);
    }

    #[test]
    fn point_lookups_match_columns() {
        let cols = sample();
        assert!(cols.contains(DomainId(64)));
        assert!(!cols.contains(DomainId(63)));
        assert_eq!(cols.row_of(DomainId(70)), Some(2));
        let s = cols.stats(DomainId(70)).unwrap();
        assert_eq!(
            (s.first_seen, s.last_seen, s.volume),
            (SimTime(3), SimTime(9), 4)
        );
        assert_eq!(cols.stats(DomainId(1)), None);
        assert_eq!(cols.members().len(), 3);
    }
}
