//! Named deterministic random streams.
//!
//! Every source of randomness in the toolkit is an [`RngStream`]
//! derived from `(master_seed, stream key)`. Streams are mutually
//! independent in practice (xoshiro256++ seeded via SplitMix64 over a
//! 64-bit hash of the key's name), and — crucially — *stable*: the
//! draws a stream produces depend only on its name and the master
//! seed, never on which other streams exist or the order they are
//! created in. Adding an eleventh feed collector therefore cannot
//! perturb the ground truth generated for the original ten.
//!
//! A key is a [`StreamKey`]: each crate that derives streams declares
//! its keys once, as a private enum, so a stream cannot be keyed by a
//! bare string, and the workspace's `tests/workspace.rs` checks that
//! no two crates name the same stream.
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

/// The key of a named stream. A crate implements it once, on a private
/// enum with one variant per stream it derives, the way
/// [`crate::metrics::Stage`] names the pipeline stages.
pub trait StreamKey: Sized + 'static {
    /// Every stream the type names (test-only keys left out).
    const ALL: &'static [Self];

    /// The stream's name. Its hash keys the stream, so renaming a
    /// shipped key changes every draw the stream makes.
    fn name(&self) -> &str;

    /// The name's 64-bit key (its FNV-1a hash), for hot loops that
    /// derive one child stream per event: take it once, then
    /// [`RngStream::child_keyed`] per event.
    fn key(&self) -> u64 {
        fnv1a(self.name().as_bytes())
    }
}

/// The names of every key in `K::ALL`, so a crate can publish its
/// stream names without publishing its key type.
pub fn names<K: StreamKey>() -> Vec<&'static str> {
    K::ALL.iter().map(|k| k.name()).collect()
}

/// The 64-bit key of a bare stream name: [`StreamKey::key`] for a
/// name that has no key type. Clippy refuses it in the workspace
/// (`clippy.toml`), where every stream has a typed key; a name built
/// from data, such as a fault stage, calls it under a reasoned
/// `#[expect]`.
pub fn name_key(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

impl RngStream {
    /// Derives the stream `key` names from `master_seed`.
    pub fn new(master_seed: u64, key: impl StreamKey) -> RngStream {
        RngStream::from_key(master_seed ^ key.key())
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

    /// The numbered child `index` of the stream whose key is `key`
    /// ([`StreamKey::key`]), e.g. one per event. Child 0 is the stream
    /// [`Self::new`] derives.
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

    /// An ad-hoc stream name.
    struct Named(&'static str);

    impl StreamKey for Named {
        const ALL: &'static [Named] = &[];

        fn name(&self) -> &str {
            self.0
        }
    }

    #[test]
    fn same_name_same_stream() {
        let mut a = RngStream::new(1, Named("campaigns"));
        let mut b = RngStream::new(1, Named("campaigns"));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let mut a = RngStream::new(1, Named("campaigns"));
        let mut b = RngStream::new(1, Named("benign"));
        let same = (0..50).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::new(1, Named("x"));
        let mut b = RngStream::new(2, Named("x"));
        let same = (0..50).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn works_with_rand_ext_methods() {
        let mut r = RngStream::new(7, Named("ext"));
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
        let mut r = RngStream::new(9, Named("bytes"));
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn child_streams_are_distinct_and_stable() {
        let key = Named("campaign").key();
        let mut c0 = RngStream::child_keyed(3, key, 0);
        let mut c1 = RngStream::child_keyed(3, key, 1);
        let mut c0b = RngStream::child_keyed(3, key, 0);
        assert_eq!(c0.next_u64(), c0b.next_u64());
        let same = (0..50).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn child_zero_is_the_named_stream_and_name_key_its_key() {
        #[expect(
            clippy::disallowed_methods,
            reason = "pins the bare-name key to the typed one"
        )]
        let key = name_key("feeds/mx2");
        assert_eq!(key, Named("feeds/mx2").key());
        let mut a = RngStream::new(41, Named("feeds/mx2"));
        let mut b = RngStream::child_keyed(41, key, 0);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn child_keyed2_is_stable_and_order_sensitive() {
        let (ka, kb) = (
            Named("replicate/resample").key(),
            Named("coverage/live/Hu").key(),
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
            RngStream::child_keyed2(11, ka, Named("coverage/live/Bot").key(), 3),
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
        let ka = Named("x").key();
        let mut a = RngStream::child_keyed2(5, ka, 0, 9);
        let mut b = RngStream::child_keyed(5, ka, 9);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fill_u64_matches_single_draws() {
        let mut single = RngStream::new(13, Named("bulk"));
        let mut batched = RngStream::new(13, Named("bulk"));
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
        let mut r = RngStream::new(11, Named("uniformity"));
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
