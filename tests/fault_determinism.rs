//! Fault injection preserves the determinism contract: a faulted run is
//! a pure function of `(scenario, seed, profile)`, so the full text
//! report — gap tables, degraded coverage, crawl dispositions and all —
//! must be byte-identical at 1, 2 and 8 workers. And the degenerate
//! extreme (a 100 %-outage blackout) must complete without panicking,
//! rendering an annotated report over ten empty feeds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster::core::{Experiment, Scenario};
use taster::feeds::FeedId;
use taster::sim::FaultProfile;

const WORKERS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 424_242;

fn scenario(profile: &str, workers: usize) -> Scenario {
    let faults = FaultProfile::by_name(profile).expect("a named profile");
    Scenario::default_paper()
        .with_scale(0.03)
        .with_seed(SEED)
        .with_threads(workers)
        .with_faults(faults)
}

#[test]
fn faulted_reports_are_byte_identical_at_any_worker_count() {
    for profile in ["off", "flaky-crawler", "feed-outage"] {
        let serial = Experiment::run(&scenario(profile, 1));
        let serial_report = serial.render_report();
        for workers in WORKERS {
            let parallel = Experiment::run(&scenario(profile, workers));
            for id in FeedId::ALL {
                let (fa, fb) = (serial.feeds.get(id), parallel.feeds.get(id));
                assert_eq!(
                    fa.samples, fb.samples,
                    "{profile}, {workers} workers: {id} samples"
                );
                assert_eq!(
                    fa.gaps(),
                    fb.gaps(),
                    "{profile}, {workers} workers: {id} gaps"
                );
            }
            assert_eq!(
                serial_report,
                parallel.render_report(),
                "{profile}: report differs at {workers} workers"
            );
        }
    }
}

#[test]
fn outage_profile_records_gap_markers_and_loses_samples() {
    let off = Experiment::run(&scenario("off", 2));
    let outage = Experiment::run(&scenario("feed-outage", 2));
    // The three stages named by the profile gain gap markers and lose
    // volume; an untouched feed stays byte-identical.
    for id in [FeedId::Mx2, FeedId::Hu, FeedId::Bot] {
        assert!(!outage.feeds.get(id).gaps().is_empty(), "{id} has no gaps");
        assert!(
            outage.feeds.get(id).samples < off.feeds.get(id).samples,
            "{id} lost no samples to its outage"
        );
    }
    let (a, b) = (off.feeds.get(FeedId::Mx1), outage.feeds.get(FeedId::Mx1));
    assert!(b.gaps().is_empty());
    assert_eq!(a.samples, b.samples);
    // The report carries the fault-model section only on the faulted run.
    let report = outage.render_report();
    assert!(report.contains("Fault model"));
    assert!(report.contains("feed-outage"));
    assert!(!off.render_report().contains("Fault model"));
}

#[test]
fn blackout_completes_without_panicking() {
    let e = Experiment::run(&scenario("blackout", 2));
    for id in FeedId::ALL {
        let feed = e.feeds.get(id);
        // Blacklists report no sample count at all; content feeds that
        // never saw a record leave theirs unset. Either way: zero.
        assert_eq!(
            feed.samples.unwrap_or(0),
            0,
            "{id} collected through a blackout"
        );
        assert_eq!(feed.unique_domains(), 0, "{id} has domains");
        assert!(!feed.gaps().is_empty(), "{id} missing its blackout gap");
    }
    // The full report renders end to end over ten empty feeds: no
    // panics, and no NaN leaking into any table.
    let report = e.render_report();
    assert!(report.contains("Fault model"));
    assert!(report.contains("blackout"));
    assert!(!report.contains("NaN"), "NaN leaked into the report");
}
