//! Reproducibility guarantees: an experiment is a pure function of
//! `(Scenario, seed)`, and independent observation layers do not
//! perturb each other.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster::core::{Experiment, Scenario};
use taster::ecosystem::{EcosystemConfig, GroundTruth};
use taster::feeds::FeedId;

fn scenario() -> Scenario {
    Scenario::default_paper()
        .with_scale(0.02)
        .with_seed(424_242)
}

#[test]
fn identical_scenarios_produce_identical_reports() {
    let a = Experiment::run(&scenario()).report().full_report();
    let b = Experiment::run(&scenario()).report().full_report();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_worlds() {
    let a = Experiment::run(&scenario());
    let b = Experiment::run(&scenario().with_seed(424_243));
    assert_ne!(
        a.world.truth.log.len, b.world.truth.log.len,
        "event counts almost surely differ across seeds"
    );
}

#[test]
fn ground_truth_is_independent_of_observation_layers() {
    // Generating the same world twice and observing it with different
    // feed configurations must leave the ground truth bit-identical:
    // collectors draw from their own RNG streams.
    let cfg = EcosystemConfig::default().with_scale(0.02);
    let t1 = GroundTruth::generate(&cfg, 7).unwrap();
    let t2 = GroundTruth::generate(&cfg, 7).unwrap();
    assert_eq!(t1.sorted_events().unwrap(), t2.sorted_events().unwrap());

    let mut s1 = scenario();
    s1.feeds.mx[0].capture_prob = 0.01;
    let mut s2 = scenario();
    s2.feeds.mx[0].capture_prob = 0.5;
    let e1 = Experiment::run(&s1);
    let e2 = Experiment::run(&s2);
    assert_eq!(e1.world.truth.log.len, e2.world.truth.log.len);
    // The changed collector differs…
    assert_ne!(
        e1.feeds.get(FeedId::Mx1).unique_domains(),
        e2.feeds.get(FeedId::Mx1).unique_domains()
    );
    // …but every other collector is unaffected.
    for id in FeedId::ALL.iter().filter(|&&f| f != FeedId::Mx1) {
        assert_eq!(
            e1.feeds.get(*id).unique_domains(),
            e2.feeds.get(*id).unique_domains(),
            "{id} perturbed by mx1's config"
        );
        assert_eq!(e1.feeds.get(*id).samples, e2.feeds.get(*id).samples);
    }
}

#[test]
fn scale_preserves_determinism() {
    for scale in [0.01, 0.03] {
        let s = Scenario::default_paper().with_scale(scale).with_seed(5);
        let a = Experiment::run(&s).report().table1_feed_summary();
        let b = Experiment::run(&s).report().table1_feed_summary();
        assert_eq!(a, b);
    }
}
