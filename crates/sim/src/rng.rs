//! Named deterministic random streams.
//!
//! Every source of randomness in the toolkit is an [`RngStream`]
//! derived from `(master_seed, stream name)`. Streams are mutually
//! independent in practice (xoshiro256++ seeded via SplitMix64 over a
//! 64-bit hash of the name), and — crucially — *stable*: the draws a
//! stream produces depend only on its name and the master seed, never
//! on which other streams exist or the order they are created in.
//! Adding an eleventh feed collector therefore cannot perturb the
//! ground truth generated for the original ten.
//!
//! The generator implements `rand_core::TryRng` (infallibly), so all
//! of `rand`'s distributions and sequence adapters work on it.

use rand::TryRng;
use std::convert::Infallible;

/// xoshiro256++ seeded from a name + master seed.
///
/// xoshiro256++ is a small, fast, well-studied generator; we implement
/// it locally (≈20 lines) so stream contents are stable across `rand`
/// version bumps — an explicit reproducibility guarantee of this
/// toolkit.
#[derive(Debug, Clone)]
pub struct RngStream {
    s: [u64; 4],
}

/// Precomputed 64-bit key of a stream name (its FNV-1a hash), for hot
/// loops that derive one child stream per event from the same name:
/// hash the name once, then [`RngStream::child_keyed`] per event.
pub fn name_key(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

impl RngStream {
    /// Derives the stream named `name` from `master_seed`.
    pub fn new(master_seed: u64, name: &str) -> RngStream {
        RngStream::from_key(master_seed ^ fnv1a(name.as_bytes()))
    }

    /// SplitMix64 expansion of the 64-bit key into 256 bits of state.
    fn from_key(key: u64) -> RngStream {
        let mut x = key;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut x);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        RngStream { s }
    }

    /// Derives a numbered child stream, e.g. one per campaign.
    pub fn child(&self, master_seed: u64, name: &str, index: u64) -> RngStream {
        RngStream::new(
            master_seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
            name,
        )
    }

    /// [`Self::child`] with the name hash precomputed via [`name_key`].
    /// Bit-identical to `child(master_seed, name, index)` for
    /// `key == name_key(name)`; skips re-hashing the name per call.
    pub fn child_keyed(master_seed: u64, key: u64, index: u64) -> RngStream {
        RngStream::from_key(master_seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407) ^ key)
    }

    /// [`Self::child_keyed`] with a second key folded in: the stream
    /// named by `(master_seed, key_a, key_b, index)`. `key_b` is mixed
    /// through a second odd multiplier so `(key_a, key_b)` and
    /// `(key_b, key_a)` name different streams. The replication layer
    /// keys bootstrap resampling on `(seed, metric, resample index)`
    /// this way, which is what makes CI bounds independent of worker
    /// count and resample evaluation order.
    pub fn child_keyed2(master_seed: u64, key_a: u64, key_b: u64, index: u64) -> RngStream {
        RngStream::from_key(
            master_seed
                ^ key_a
                ^ key_b.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }

    /// Fills `out` with the stream's next `out.len()` draws.
    /// Bit-identical to drawing `next_u64` that many times.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next();
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = (s[0].wrapping_add(s[3])).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl TryRng for RngStream {
    type Error = Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    #[inline]
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    #[inline]
    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dst.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64-bit offset basis: the `seed` that starts a fresh hash
/// in [`fnv1a64`].
pub const FNV1A64_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit over `bytes`, continuing from `seed`. Incremental:
/// hashing `a` then `b` from the returned value equals hashing `a ++ b`
/// from [`FNV1A64_OFFSET`].
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a64(FNV1A64_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngExt};

    #[test]
    fn same_name_same_stream() {
        let mut a = RngStream::new(1, "campaigns");
        let mut b = RngStream::new(1, "campaigns");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let mut a = RngStream::new(1, "campaigns");
        let mut b = RngStream::new(1, "benign");
        let same = (0..50).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::new(1, "x");
        let mut b = RngStream::new(2, "x");
        let same = (0..50).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn works_with_rand_ext_methods() {
        let mut r = RngStream::new(7, "ext");
        for _ in 0..1000 {
            let v: u32 = r.random_range(0..10);
            assert!(v < 10);
            let f: f64 = r.random();
            assert!((0.0..1.0).contains(&f));
        }
        let _ = r.random_bool(0.5);
    }

    #[test]
    fn fill_bytes_covers_remainders() {
        let mut r = RngStream::new(9, "bytes");
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn child_streams_are_distinct_and_stable() {
        let base = RngStream::new(3, "campaign");
        let mut c0 = base.child(3, "campaign", 0);
        let mut c1 = base.child(3, "campaign", 1);
        let mut c0b = base.child(3, "campaign", 0);
        assert_eq!(c0.next_u64(), c0b.next_u64());
        let same = (0..50).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn child_keyed_is_bit_identical_to_child() {
        let base = RngStream::new(41, "feeds/mx2");
        let key = super::name_key("feeds/mx2");
        for index in [0u64, 1, 7, 1 << 40, u64::MAX] {
            let mut a = base.child(41, "feeds/mx2", index);
            let mut b = RngStream::child_keyed(41, key, index);
            for _ in 0..64 {
                assert_eq!(a.next_u64(), b.next_u64(), "index {index}");
            }
        }
    }

    #[test]
    fn child_keyed2_is_stable_and_order_sensitive() {
        let (ka, kb) = (
            super::name_key("replicate/resample"),
            super::name_key("coverage/live/Hu"),
        );
        let mut a = RngStream::child_keyed2(11, ka, kb, 3);
        let mut b = RngStream::child_keyed2(11, ka, kb, 3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Swapping the two keys, changing either key, the index, or the
        // master seed all land on different streams.
        let mut base = RngStream::child_keyed2(11, ka, kb, 3);
        for mut other in [
            RngStream::child_keyed2(11, kb, ka, 3),
            RngStream::child_keyed2(11, ka, super::name_key("coverage/live/Bot"), 3),
            RngStream::child_keyed2(11, ka, kb, 4),
            RngStream::child_keyed2(12, ka, kb, 3),
        ] {
            let same = (0..50)
                .filter(|_| base.next_u64() == other.next_u64())
                .count();
            assert!(same <= 1);
            base = RngStream::child_keyed2(11, ka, kb, 3);
        }
    }

    #[test]
    fn child_keyed2_with_zero_second_key_is_not_child_keyed() {
        // key_b participates through a multiplier, so key_b = 0 is the
        // plain child_keyed stream — document that equivalence.
        let ka = super::name_key("x");
        let mut a = RngStream::child_keyed2(5, ka, 0, 9);
        let mut b = RngStream::child_keyed(5, ka, 9);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fill_u64_matches_single_draws() {
        let mut single = RngStream::new(13, "bulk");
        let mut batched = RngStream::new(13, "bulk");
        let mut out = [0u64; 257];
        batched.fill_u64(&mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, single.next_u64(), "draw {i}");
        }
        // And the streams stay in lockstep afterwards.
        assert_eq!(batched.next_u64(), single.next_u64());
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut r = RngStream::new(11, "uniformity");
        let mut buckets = [0usize; 16];
        let n = 64_000;
        for _ in 0..n {
            buckets[(r.next_u64() >> 60) as usize] += 1;
        }
        let expect = n / 16;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (b as f64 / expect as f64 - 1.0).abs() < 0.1,
                "bucket {i}: {b} vs {expect}"
            );
        }
    }
}
