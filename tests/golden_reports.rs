//! Golden-report regression harness.
//!
//! Every user-visible rendering — the full analyze report (with the
//! metrics section), the degradation sweep, and the deterministic
//! profile view — is snapshotted under `tests/golden/` for two seeds
//! and three fault profiles. The pipeline is a pure function of
//! `(scenario, seed)`, so these bytes must never drift by accident.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! TASTER_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! On mismatch the failure message names the first divergent line of
//! actual vs. expected, so a drifted table is locatable without a
//! manual diff.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use taster::core::replicate::ReplicateOptions;
use taster::core::{ab, degradation, profile, replicate, report, Experiment, Scenario};
use taster::sim::{FaultProfile, Obs};

const SEEDS: [u64; 2] = [11, 424_242];
const SCALE: f64 = 0.02;

/// `(suffix, profile)` per golden fault variant.
fn fault_variants() -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("clean", FaultProfile::off()),
        ("flaky", FaultProfile::flaky_crawler()),
        ("blackout", FaultProfile::blackout()),
    ]
}

fn scenario(seed: u64) -> Scenario {
    Scenario::default_paper()
        .with_scale(SCALE)
        .with_seed(seed)
        .with_threads(2)
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the checked-in snapshot `name`, or
/// rewrites the snapshot when `TASTER_BLESS=1`. Failures report the
/// first divergent line.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("TASTER_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {name} ({e}); run `TASTER_BLESS=1 cargo test --test golden_reports` \
             to create it"
        )
    });
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if a != e {
            panic!(
                "golden {name} diverges at line {}:\n  expected: {e}\n  actual:   {a}",
                i + 1
            );
        }
    }
    panic!(
        "golden {name} diverges in length: expected {} lines, got {}",
        expected.lines().count(),
        actual.lines().count()
    );
}

#[test]
fn analyze_reports_match_goldens() {
    for seed in SEEDS {
        for (suffix, profile) in fault_variants() {
            let s = scenario(seed).with_faults(profile);
            let exp =
                Experiment::try_run_observed(&s, Obs::with(true, false)).expect("scenario runs");
            check_golden(
                &format!("analyze_s{seed}_{suffix}.txt"),
                &exp.render_report(),
            );
        }
    }
}

#[test]
fn degradation_sweeps_match_goldens() {
    // The sweep runs every canonical profile itself, so one golden per
    // seed covers the whole fault matrix.
    for seed in SEEDS {
        let s = scenario(seed);
        let sweep = degradation::degradation_sweep(&s).expect("sweep runs");
        check_golden(
            &format!("degradation_s{seed}.txt"),
            &degradation::render_degradation(&s.name, &sweep),
        );
    }
}

#[test]
fn profile_views_match_goldens() {
    for seed in SEEDS {
        for (suffix, fault) in fault_variants() {
            let s = scenario(seed).with_faults(fault);
            let (exp, _) = profile::run_end_to_end(&s).expect("profile runs");
            check_golden(
                &format!("profile_s{seed}_{suffix}.txt"),
                &profile::deterministic_profile(&exp),
            );
        }
    }
}

#[test]
fn replicate_reports_match_goldens() {
    // Two replicate counts × clean/flaky pins the whole statistical
    // rendering stack: derived seeds, per-metric bootstrap bounds, BCa
    // fallback markers and the fixed column layout.
    for seeds in [2usize, 4] {
        for (suffix, fault) in [
            ("clean", FaultProfile::off()),
            ("flaky", FaultProfile::flaky_crawler()),
        ] {
            let s = scenario(SEEDS[0]).with_faults(fault);
            let options = ReplicateOptions {
                seeds,
                resamples: 100,
                level: 0.95,
            };
            let rep = replicate::replicate(&s, options).expect("replication runs");
            check_golden(
                &format!("replicate_s{}_n{seeds}_{suffix}.txt", SEEDS[0]),
                &replicate::render_replication(&rep),
            );
        }
    }
}

#[test]
fn ab_reports_match_goldens() {
    // Paired A/B against two structurally different treatments; the
    // golden pins effect signs, CI bounds and both p-value columns.
    let options = ReplicateOptions {
        seeds: 3,
        resamples: 100,
        level: 0.95,
    };
    for treatment_name in ["quiet-world", "no-poisoning"] {
        let baseline = ab::scenario_by_name("paper", SCALE, SEEDS[0])
            .expect("baseline resolves")
            .with_threads(2);
        let treatment = ab::scenario_by_name(treatment_name, SCALE, SEEDS[0])
            .expect("treatment resolves")
            .with_threads(2);
        let cmp = ab::ab_compare(&baseline, &treatment, options).expect("comparison runs");
        check_golden(
            &format!("ab_s{}_{treatment_name}.txt", SEEDS[0]),
            &ab::render_ab(&cmp),
        );
    }
}

/// Every canonical stage key that appears in the report's metrics
/// section must appear as a top-level span of the profiled run and as
/// `<stage>_secs` in the `BENCH_pipeline.json` that `taster profile`
/// writes from those spans — this pins the contract that the bench
/// JSON can never silently lose a stage.
#[test]
fn report_stage_keys_all_reach_bench_json() {
    let (exp, e2e) = profile::run_end_to_end(&scenario(SEEDS[0])).expect("profile runs");
    let mut metrics = String::new();
    report::write_metrics(&exp, &mut metrics);
    let spans = exp.obs.trace.span_timings();
    let json = profile::bench_json_string(exp.scenario.seed, &[(SCALE, e2e)]);
    for stage in taster::sim::Stage::ALL.map(taster::sim::Stage::name) {
        assert!(
            metrics.contains(&format!("{stage}/")),
            "stage {stage} has no counter in the report metrics section:\n{metrics}"
        );
        assert!(
            spans.iter().any(|s| s.depth == 0 && s.name == stage),
            "stage {stage} has no top-level span"
        );
        assert!(
            json.contains(&format!("\"{stage}_secs\"")),
            "stage {stage} missing from bench JSON:\n{json}"
        );
    }
}
