//! Chunk invariance: the streaming generate+collect core must produce
//! byte-identical reports at every chunk size and worker count — the
//! chunk is a memory knob, never an observable one.
//!
//! Per-event RNG and fault streams are keyed by each event's
//! time-sorted index, so where a chunk boundary (or shard boundary
//! inside a chunk) falls can change nothing. In core the resident log
//! is read in one visit whatever the chunk, so the chunked runs here
//! go out of core under a budget that spills the log: there each
//! chunk is its own read of the spill, and every run crosses chunk
//! boundaries. These tests pin that end-to-end against the in-core
//! report: full reports across a chunk × worker matrix, clean and
//! fault-injected, a chunk at or just above the log length, the empty
//! event log (which always fits in core), and a property test over
//! arbitrary chunk sizes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::sync::OnceLock;
use taster::core::{Experiment, Scenario};
use taster::sim::FaultProfile;

/// Chunk sizes under test: degenerate (1 row per pass), two prime/odd
/// sizes that split the log unevenly, and one chunk holding the whole
/// run.
const CHUNKS: [usize; 4] = [1, 7, 64, usize::MAX];
const WORKERS: [usize; 3] = [1, 2, 8];

/// A memory budget the scale-0.01 log does not fit in, so the run
/// spills it and reads it back one chunk at a time.
const SPILL_BUDGET: u64 = 64 << 10;

fn scenario() -> Scenario {
    Scenario::default_paper().with_scale(0.01).with_seed(71)
}

/// The full report at `chunk` and `workers`, in core.
fn report_with(mut s: Scenario, chunk: usize, workers: usize) -> String {
    s.feeds.chunk_size = chunk;
    s = s.with_threads(workers);
    Experiment::run(&s).render_report()
}

/// The full report at `chunk` and `workers`, out of core.
fn spilled_report_with(mut s: Scenario, chunk: usize, workers: usize) -> String {
    s.feeds.chunk_size = chunk;
    s.ecosystem.max_mem_bytes = Some(SPILL_BUDGET);
    let e = Experiment::run(&s.with_threads(workers));
    assert!(e.world.truth.cache().is_none(), "the budget must spill");
    e.render_report()
}

fn clean_reference() -> &'static String {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| report_with(scenario(), usize::MAX, 1))
}

#[test]
fn clean_reports_are_chunk_and_worker_invariant() {
    for chunk in CHUNKS {
        for workers in WORKERS {
            assert_eq!(
                &spilled_report_with(scenario(), chunk, workers),
                clean_reference(),
                "clean report differs at chunk {chunk}, {workers} workers"
            );
        }
    }
}

#[test]
fn faulted_reports_are_chunk_and_worker_invariant() {
    // `lossy-feeds` exercises the per-record fault stream (drops,
    // duplicates, truncations), whose draws are also keyed by sorted
    // event index and so must survive any chunking.
    let faulted = || scenario().with_faults(FaultProfile::lossy_feeds());
    let reference = report_with(faulted(), usize::MAX, 1);
    assert_ne!(
        &reference,
        clean_reference(),
        "lossy-feeds must actually perturb the report"
    );
    for chunk in CHUNKS {
        for workers in WORKERS {
            assert_eq!(
                spilled_report_with(faulted(), chunk, workers),
                reference,
                "faulted report differs at chunk {chunk}, {workers} workers"
            );
        }
    }
}

#[test]
fn empty_event_log_is_chunk_invariant() {
    // No campaigns and no poisoning: the spam event log is empty, but
    // benign trap mail and provider false positives still exist, so
    // the report is non-trivial. The streaming loop must still run
    // exactly one (empty) chunk for metrics parity.
    let empty = || {
        let mut s = Scenario::default_paper().with_scale(0.02).with_seed(5);
        s.ecosystem.campaign_scale = 0.0;
        s.ecosystem.poison = None;
        s
    };
    let e = Experiment::run(&empty());
    assert_eq!(e.world.truth.log.len, 0, "world should have no spam events");
    let reference = report_with(empty(), usize::MAX, 1);
    for chunk in [1, 64] {
        for workers in [1, 8] {
            assert_eq!(
                report_with(empty(), chunk, workers),
                reference,
                "empty-log report differs at chunk {chunk}, {workers} workers"
            );
        }
    }
}

#[test]
fn chunk_barely_larger_than_log_matches_exact_fit() {
    let n = Experiment::run(&scenario()).world.truth.log.len;
    assert!(n > 0);
    // Exact fit, one-over, and vastly-over must all read like "a
    // single chunk holds everything"; out of core the budget's rows
    // cap each read, so the last visit is a short one.
    let exact = spilled_report_with(scenario(), n, 1);
    assert_eq!(spilled_report_with(scenario(), n + 1, 2), exact);
    assert_eq!(&exact, clean_reference());
}

#[test]
fn memory_budget_matrix_is_invariant_and_within_budget() {
    use taster::core::profile::budget_peak_bytes;
    use taster::ecosystem::buffer::EventBuffer;
    use taster::ecosystem::EcosystemConfig;

    let events = Experiment::run(&scenario()).world.truth.log.len as u64;
    assert!(events > 0);
    let row = EventBuffer::bytes_per_event() as u64;
    // Tight: a 64-row streaming buffer plus 4 B per event of headroom
    // — far below the sorted-cache footprint, so the run must go
    // out-of-core. Loose: default budget, cache resident.
    let tight = 4 * events + 64 * row;
    assert!(
        tight < EcosystemConfig::cache_peak_bytes(events),
        "tight budget fails to force the out-of-core path"
    );
    for budget in [Some(tight), None] {
        for workers in WORKERS {
            let mut s = scenario().with_threads(workers);
            s.ecosystem.max_mem_bytes = budget;
            let peak = budget_peak_bytes(&s.ecosystem, events, s.feeds.chunk_size);
            assert!(
                peak <= s.ecosystem.mem_budget(),
                "peak {peak} exceeds budget {} ({budget:?}, {workers} workers)",
                s.ecosystem.mem_budget()
            );
            assert_eq!(
                &Experiment::run(&s).render_report(),
                clean_reference(),
                "report differs under budget {budget:?}, {workers} workers"
            );
        }
    }
}

/// Property test: any chunk size and worker count yields the
/// reference report. Drives [`proptest::run_test`] directly (instead
/// of the `proptest!` macro) to cap the cases at 6 — each case is a
/// full experiment, so the default 96 would dominate the suite.
#[test]
fn arbitrary_chunk_sizes_never_change_the_report() {
    proptest::run_test(
        "arbitrary_chunk_sizes_never_change_the_report",
        |rng, case| {
            if case >= 6 {
                return Ok(());
            }
            let chunk = Strategy::gen_value(&(1usize..5000), rng);
            let workers = Strategy::gen_value(&(1usize..=8usize), rng);
            prop_assert_eq!(
                &spilled_report_with(scenario(), chunk, workers),
                clean_reference(),
                "report differs at chunk {chunk}, {workers} workers"
            );
            Ok(())
        },
    );
}
