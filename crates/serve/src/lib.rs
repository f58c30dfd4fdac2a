//! # taster-serve
//!
//! `taster serve`: a guarded, long-running daemon over the streaming
//! collection core. Collectors append into running columnar state
//! epoch by epoch; purity/coverage/timing queries are answered over a
//! *sealed* epoch (snapshot isolation) while ingestion advances the
//! next one; sealed state checkpoints atomically so a killed daemon
//! resumes byte-identically.
//!
//! Layering:
//!
//! * [`core`] — the engine: epochs, sealing, checkpoints, the final
//!   report. No sockets; the determinism tests drive it directly.
//! * [`checkpoint`] — the per-epoch delta chain, written with atomic
//!   write-rename and folded on resume.
//! * [`server`] — the single-threaded socket reactor with admission
//!   control, deadlines, the watchdog and graceful drain.
//! * [`loadgen`] — deterministic query storms (`taster loadgen`).
//! * [`protocol`] / [`error`] — the wire format and typed errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod core;
pub mod error;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use crate::core::{ServeConfig, ServeCore};
pub use checkpoint::Checkpoint;
pub use error::ServeError;
pub use loadgen::{LoadgenConfig, LoadgenOutcome};
pub use server::{ServerConfig, ServerStats};

#[cfg(test)]
mod tests {
    use crate::checkpoint::Checkpoint;
    use proptest::prelude::*;
    use taster_domain::bitset::DomainBitset;
    use taster_domain::DomainId;
    use taster_feeds::feed::DomainStats;
    use taster_feeds::{Feed, FeedId};
    use taster_sim::{SimTime, TimeWindow};

    fn arb_feed(id: FeedId) -> impl Strategy<Value = Feed> {
        let entries = proptest::collection::vec(
            (0u32..5_000, (0u64..1_000_000, 0u64..1_000_000, 1u64..50)),
            0..40,
        );
        let fqdns = proptest::option::of(proptest::collection::vec(any::<u64>(), 0..20));
        let samples = proptest::option::of(0u64..10_000);
        let gaps = proptest::collection::vec((0u64..1000, 0u64..1000), 0..3);
        (entries, fqdns, samples, (gaps, any::<bool>())).prop_map(
            move |(mut entries, fqdns, samples, (gaps, reports_volume))| {
                // `from_parts` treats duplicate domains as last-wins;
                // dedup so the round-trip comparison is exact.
                entries.sort_by_key(|(d, _)| *d);
                entries.dedup_by_key(|(d, _)| *d);
                Feed::from_parts(
                    id,
                    reports_volume,
                    samples,
                    entries.into_iter().map(|(d, (a, b, v))| {
                        (
                            DomainId(d),
                            DomainStats {
                                first_seen: SimTime(a.min(b)),
                                last_seen: SimTime(a.max(b)),
                                volume: v,
                            },
                        )
                    }),
                    fqdns,
                    gaps.into_iter()
                        .map(|(s, len)| TimeWindow::new(SimTime(s), SimTime(s + len)))
                        .collect(),
                )
            },
        )
    }

    fn assert_feed_eq(a: &Feed, b: &Feed) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.reports_volume, b.reports_volume);
        assert_eq!(a.unique_domains(), b.unique_domains());
        assert_eq!(a.fqdn_hashes_sorted(), b.fqdn_hashes_sorted());
        assert_eq!(a.gaps(), b.gaps());
        for (d, s) in a.iter() {
            assert_eq!(Some(s), b.stats(d));
        }
    }

    proptest! {
        /// Seal → snapshot bytes → restore equals the in-memory state,
        /// for arbitrary feed contents.
        #[test]
        fn checkpoint_round_trips(
            seeds in proptest::collection::vec(arb_feed(FeedId::Bot), 1..2),
            epoch in 0u64..1000,
            rows in 0u64..1_000_000,
        ) {
            // One arbitrary feed per slot, all ten slots present (the
            // decoder enforces the full FeedId::ALL layout).
            let template = seeds.first().cloned();
            let feeds: Vec<Feed> = FeedId::ALL
                .iter()
                .map(|&id| match &template {
                    Some(f) => Feed::from_parts(
                        id,
                        f.reports_volume,
                        f.samples,
                        f.iter(),
                        f.fqdn_hashes_sorted().map(|h| h.into_owned()),
                        f.gaps().to_vec(),
                    ),
                    None => Feed::new(id, false),
                })
                .collect();
            let ckpt = Checkpoint {
                fingerprint: "prop".to_string(),
                epoch,
                rows_done: rows,
                feeds,
            };
            let bytes = ckpt.encode();
            let back = Checkpoint::decode(&bytes).unwrap();
            prop_assert_eq!(back.epoch, ckpt.epoch);
            prop_assert_eq!(back.rows_done, ckpt.rows_done);
            prop_assert_eq!(&back.fingerprint, &ckpt.fingerprint);
            for (a, b) in ckpt.feeds.iter().zip(&back.feeds) {
                assert_feed_eq(a, b);
            }
            // Determinism: re-encoding the restored state reproduces
            // the exact bytes.
            prop_assert_eq!(back.encode(), bytes);
        }

        /// Corrupting any single byte is always detected.
        #[test]
        fn corruption_is_detected(flip in 0usize..512, xor in 1u8..255) {
            let feeds: Vec<Feed> = FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect();
            let ckpt = Checkpoint {
                fingerprint: "prop".to_string(),
                epoch: 3,
                rows_done: 77,
                feeds,
            };
            let mut bytes = ckpt.encode();
            let idx = flip % bytes.len();
            if let Some(b) = bytes.get_mut(idx) {
                *b ^= xor;
            }
            prop_assert!(Checkpoint::decode(&bytes).is_err());
        }
    }

    /// Word-boundary bitset round-trips: 63/64/65 set bits straddle
    /// the u64 word edge the checkpoint words serialize across.
    #[test]
    fn bitset_words_round_trip_at_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let ids: Vec<DomainId> = (0..n as u32).map(DomainId).collect();
            let set = DomainBitset::from_sorted_ids(&ids);
            let restored = DomainBitset::from_words(set.words().to_vec());
            assert_eq!(restored.len(), n, "popcount after restore, n={n}");
            assert_eq!(restored.words(), set.words(), "words, n={n}");
        }
        // Sparse pattern crossing several words.
        let ids: Vec<DomainId> = [0u32, 63, 64, 65, 200, 4095, 4096]
            .iter()
            .map(|&i| DomainId(i))
            .collect();
        let set = DomainBitset::from_sorted_ids(&ids);
        let restored = DomainBitset::from_words(set.words().to_vec());
        assert_eq!(restored.len(), ids.len());
        assert_eq!(restored.words(), set.words());
    }
}
