//! The out-of-core spill holds exactly the rows of the resident sorted
//! cache. Every pipeline stage reads the event log through
//! `GroundTruth::visit_sorted`, so this equivalence — all six event
//! columns plus each row's sorted index (`first + r`), row by row — is
//! what makes in-core and out-of-core reports byte-identical. Pinned at
//! two seeds under a budget that sorts in several runs, under a 1-row
//! budget, and for an empty log.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster::ecosystem::buffer::EventBuffer;
use taster::ecosystem::spill::SpillError;
use taster::ecosystem::{EcosystemConfig, GroundTruth};
use taster::sim::Obs;

const SEEDS: [u64; 2] = [7, 31];

fn config() -> EcosystemConfig {
    EcosystemConfig::default().with_scale(0.05)
}

/// Spills the world of `seed` under a `budget`-byte memory budget,
/// checks every spilled row against the in-core cache row at the same
/// sorted position, and returns the spill's observed metrics.
fn spill_matches_cache(seed: u64, budget: u64) -> Obs {
    let cached = GroundTruth::generate(&config(), seed).unwrap();
    let cache = cached
        .cache()
        .expect("the default budget keeps the log resident");
    let mut tight = config();
    tight.max_mem_bytes = Some(budget);
    let obs = Obs::on();
    let spilled = GroundTruth::generate_observed(&tight, seed, &obs).unwrap();
    assert!(
        spilled.cache().is_none(),
        "seed {seed}: the budget must spill"
    );
    assert_eq!(spilled.log.len, cache.len());
    let mut next = 0usize;
    spilled
        .visit_sorted(0..spilled.log.len, usize::MAX, |buf, rows| {
            for r in rows {
                let at = format!("seed {seed}, budget {budget}, sorted row {next}");
                assert_eq!(buf.first + r, next, "{at}: sorted index");
                assert_eq!(cache.first + next, buf.first + r, "{at}: sorted index");
                assert_eq!(buf.time[r], cache.time[next], "{at}: time");
                assert_eq!(buf.campaign[r], cache.campaign[next], "{at}: campaign");
                assert_eq!(
                    buf.advertised[r], cache.advertised[next],
                    "{at}: advertised"
                );
                assert_eq!(buf.chaff[r], cache.chaff[next], "{at}: chaff");
                assert_eq!(buf.target[r], cache.target[next], "{at}: target");
                assert_eq!(buf.delivery[r], cache.delivery[next], "{at}: delivery");
                next += 1;
            }
            Ok::<(), SpillError>(())
        })
        .unwrap();
    assert_eq!(next, cache.len(), "seed {seed}: every row visited once");
    obs
}

#[test]
fn spilled_rows_equal_cache_rows_when_sorted_in_several_runs() {
    for seed in SEEDS {
        let n = GroundTruth::generate(&config(), seed).unwrap().log.len as u64;
        // Room for a quarter of the log per run: four runs.
        let budget = n / 4 * EventBuffer::bytes_per_event() as u64;
        let obs = spill_matches_cache(seed, budget);
        let runs = obs.metrics.counter("generate/sort_runs");
        assert!(runs >= 3, "seed {seed}: {runs} sort runs");
    }
}

#[test]
fn spilled_rows_equal_cache_rows_under_a_one_row_budget() {
    for seed in SEEDS {
        spill_matches_cache(seed, EventBuffer::bytes_per_event() as u64);
    }
}

#[test]
fn an_empty_log_reads_the_same_under_any_budget() {
    // An empty log costs nothing to hold, so it stays resident even
    // under a 1-byte budget; `spill::tests` pins the empty spill file.
    let mut empty = config();
    empty.campaign_scale = 0.0;
    empty.poison = None;
    for budget in [None, Some(1)] {
        empty.max_mem_bytes = budget;
        let g = GroundTruth::generate(&empty, 3).unwrap();
        assert_eq!(g.log.len, 0);
        let mut visits = 0;
        g.visit_sorted(0..10, 4, |_, rows| {
            visits += 1;
            assert!(rows.is_empty());
            Ok::<(), SpillError>(())
        })
        .unwrap();
        assert_eq!(visits, 1, "budget {budget:?}: one empty visit");
    }
}

#[test]
fn sort_span_and_counters_appear_only_when_spilling() {
    let n = GroundTruth::generate(&config(), SEEDS[0]).unwrap().log.len as u64;
    let obs = spill_matches_cache(SEEDS[0], n / 4 * EventBuffer::bytes_per_event() as u64);
    assert!(obs.trace.deterministic_view().contains("generate/sort"));
    assert_eq!(
        obs.metrics.counter("generate/spill_bytes"),
        n * taster::ecosystem::spill::ROW_BYTES as u64 + 8
    );
    assert!(obs.metrics.counter("generate/sort_runs") > 0);

    // In core the sort is one span, without the spill's pass spans.
    let in_core = Obs::on();
    GroundTruth::generate_observed(&config(), SEEDS[0], &in_core).unwrap();
    let view = in_core.trace.deterministic_view();
    assert!(view.contains("span generate/sort\n"), "{view}");
    assert!(!view.contains("generate/sort/"), "{view}");
    assert_eq!(in_core.metrics.counter("generate/spill_bytes"), 0);
    assert!(in_core.metrics.render().is_empty());
}
