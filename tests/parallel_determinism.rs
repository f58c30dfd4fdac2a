//! The parallel pipeline is bit-identical to the serial one: for two
//! seeds, running the full experiment — feed collection, sharded
//! crawl/classification, and every analysis behind the text report —
//! at 1, 2 and 8 workers must produce byte-identical reports and
//! identical feed sets. This is the contract that lets `--threads`
//! change only wall-clock, never results.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster::core::{Experiment, Scenario};
use taster::feeds::{FeedId, FeedSet};

const SEEDS: [u64; 2] = [424_242, 20_100_801];
const WORKERS: [usize; 3] = [1, 2, 8];

fn scenario(seed: u64, workers: usize) -> Scenario {
    Scenario::default_paper()
        .with_scale(0.03)
        .with_seed(seed)
        .with_threads(workers)
}

fn assert_same_feeds(a: &FeedSet, b: &FeedSet, ctx: &str) {
    for id in FeedId::ALL {
        let (fa, fb) = (a.get(id), b.get(id));
        assert_eq!(fa.samples, fb.samples, "{ctx}: {id} samples");
        assert_eq!(
            fa.unique_domains(),
            fb.unique_domains(),
            "{ctx}: {id} uniques"
        );
        assert_eq!(fa.unique_fqdns(), fb.unique_fqdns(), "{ctx}: {id} fqdns");
        for (d, s) in fa.iter() {
            assert_eq!(Some(s), fb.stats(d), "{ctx}: {id} {d:?}");
        }
    }
}

#[test]
fn full_report_is_byte_identical_at_any_worker_count() {
    for seed in SEEDS {
        let serial = Experiment::run(&scenario(seed, 1));
        let serial_report = serial.render_report();
        for workers in WORKERS {
            let parallel = Experiment::run(&scenario(seed, workers));
            assert_same_feeds(
                &serial.feeds,
                &parallel.feeds,
                &format!("seed {seed}, {workers} workers"),
            );
            assert_eq!(
                serial_report,
                parallel.render_report(),
                "seed {seed}: report differs at {workers} workers"
            );
        }
    }
}

#[test]
fn faulted_pipeline_is_byte_identical_at_any_worker_count() {
    // Fault decisions are keyed by (seed, stage, event index), never by
    // shard, so the determinism contract extends to degraded runs.
    use taster::sim::FaultProfile;
    let faulted =
        |workers: usize| scenario(SEEDS[0], workers).with_faults(FaultProfile::lossy_feeds());
    let serial = Experiment::run(&faulted(1));
    let serial_report = serial.render_report();
    for workers in WORKERS {
        let parallel = Experiment::run(&faulted(workers));
        assert_same_feeds(
            &serial.feeds,
            &parallel.feeds,
            &format!("lossy-feeds, {workers} workers"),
        );
        assert_eq!(
            serial_report,
            parallel.render_report(),
            "lossy-feeds: report differs at {workers} workers"
        );
    }
}

#[test]
fn classification_is_identical_at_any_worker_count() {
    use taster::analysis::classify::Category;
    let seed = SEEDS[0];
    let serial = Experiment::run(&scenario(seed, 1));
    let parallel = Experiment::run(&scenario(seed, 8));
    assert_eq!(
        serial.classified.crawl.len(),
        parallel.classified.crawl.len()
    );
    for (d, r) in serial.classified.crawl.iter() {
        assert_eq!(parallel.classified.crawl.get(d), Some(r), "{d:?}");
    }
    for id in FeedId::ALL {
        for cat in [Category::All, Category::Live, Category::Tagged] {
            let (a, b) = (
                serial.classified.set(id, cat),
                parallel.classified.set(id, cat),
            );
            assert_eq!(a.len(), b.len(), "{id} {}", cat.label());
            for d in a.iter() {
                assert!(b.contains(d), "{id} {}: missing {d:?}", cat.label());
            }
        }
    }
}
