//! A small FxHash-style hasher for hot-path maps.
//!
//! The analyses key almost every hash map by dense ids or short
//! normalised strings, where SipHash's DoS resistance buys nothing and
//! its per-byte cost dominates. This is the classic multiply-rotate
//! scheme (as used by rustc's FxHash): fold each 8-byte chunk into the
//! state with `rotate_left(5) ^ chunk` then multiply by a fixed odd
//! constant. It is deterministic — no random per-process seed — which
//! also keeps iteration-order-sensitive code reproducible across runs.

#![allow(
    clippy::disallowed_types,
    reason = "defines the deterministically seeded FxHashMap/FxHashSet aliases over the std maps"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. One `u64`, folded per chunk.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // chunks_exact(8) only yields 8-byte windows, so the
            // conversion cannot fail; the fallback is unreachable.
            if let Ok(word) = chunk.try_into() {
                self.add(u64::from_le_bytes(word));
            }
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length marker so "ab" and "ab\0" hash differently.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (no random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(
            hash_bytes(b"pharma-store.com"),
            hash_bytes(b"pharma-store.com")
        );
        assert_ne!(
            hash_bytes(b"pharma-store.com"),
            hash_bytes(b"pharma-store.net")
        );
        // Tail length marker: a shorter prefix must not collide with
        // its zero-padded extension.
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn maps_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a.com".into(), 1);
        m.insert("b.com".into(), 2);
        assert_eq!(m.get("a.com"), Some(&1));
        let s: FxHashSet<u64> = [1u64, 2, 3].into_iter().collect();
        assert!(s.contains(&2));
    }
}
