//! Volume-weighted empirical distributions over dense keys.
//!
//! A feed that reports volume defines an empirical distribution on
//! domains: if domain *i* has reported volume *cᵢ*, its empirical
//! probability is *cᵢ / m* with *m = Σ cᵢ* (paper §4.3). Keys are
//! `u32` so this plugs directly into `taster_domain::DomainId`
//! indices without a dependency edge.

use std::collections::{BTreeMap, BTreeSet};

/// A multiset of observations over dense `u32` keys, normalisable to an
/// empirical probability distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmpiricalDist {
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl EmpiricalDist {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a distribution from `(key, count)` pairs, summing
    /// duplicate keys.
    pub fn from_counts<I: IntoIterator<Item = (u32, u64)>>(iter: I) -> Self {
        let mut d = Self::new();
        for (k, c) in iter {
            d.add(k, c);
        }
        d
    }

    /// Adds `count` observations of `key`.
    pub fn add(&mut self, key: u32, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(key).or_insert(0) += count;
        self.total += count;
    }

    /// Observed count for `key` (0 when unseen).
    pub fn count(&self, key: u32) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// True when no observations were added.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Empirical probability of `key` (0 when unseen or empty).
    pub fn probability(&self, key: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// Iterates `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// Keys present in either distribution, deduplicated, sorted.
    pub fn union_keys(&self, other: &EmpiricalDist) -> Vec<u32> {
        let mut keys: Vec<u32> = self
            .counts
            .keys()
            .chain(other.counts.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Keys present in both distributions, sorted.
    pub fn common_keys(&self, other: &EmpiricalDist) -> Vec<u32> {
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut keys: Vec<u32> = small
            .counts
            .keys()
            .filter(|k| large.counts.contains_key(k))
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Restricts this distribution to `keys`, dropping everything else.
    /// Used when the paper restricts comparisons to tagged domains
    /// appearing in at least one spam feed.
    pub fn restricted_to(&self, keys: &BTreeSet<u32>) -> EmpiricalDist {
        EmpiricalDist::from_counts(
            self.counts
                .iter()
                .filter(|(k, _)| keys.contains(k))
                .map(|(&k, &c)| (k, c)),
        )
    }
}

impl FromIterator<u32> for EmpiricalDist {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut d = Self::new();
        for k in iter {
            d.add(k, 1);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_probability() {
        let mut d = EmpiricalDist::new();
        d.add(1, 3);
        d.add(2, 1);
        d.add(1, 1);
        d.add(9, 0); // no-op
        assert_eq!(d.total(), 5);
        assert_eq!(d.count(1), 4);
        assert_eq!(d.support_size(), 2);
        assert!((d.probability(1) - 0.8).abs() < 1e-12);
        assert_eq!(d.probability(99), 0.0);
    }

    #[test]
    fn empty_distribution() {
        let d = EmpiricalDist::new();
        assert!(d.is_empty());
        assert_eq!(d.probability(0), 0.0);
    }

    #[test]
    fn key_set_operations() {
        let a = EmpiricalDist::from_counts([(1, 1), (2, 2), (3, 3)]);
        let b = EmpiricalDist::from_counts([(3, 1), (4, 1)]);
        assert_eq!(a.union_keys(&b), vec![1, 2, 3, 4]);
        assert_eq!(a.common_keys(&b), vec![3]);
        assert_eq!(b.common_keys(&a), vec![3]);
    }

    #[test]
    fn restriction() {
        let a = EmpiricalDist::from_counts([(1, 5), (2, 5)]);
        let keep: BTreeSet<u32> = [2].into_iter().collect();
        let r = a.restricted_to(&keep);
        assert_eq!(r.total(), 5);
        assert_eq!(r.count(1), 0);
        assert_eq!(r.count(2), 5);
    }

    #[test]
    fn from_iterator_counts_singletons() {
        let d: EmpiricalDist = [7u32, 7, 8].into_iter().collect();
        assert_eq!(d.count(7), 2);
        assert_eq!(d.count(8), 1);
    }
}
