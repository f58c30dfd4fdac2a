//! The observability layer must not weaken the determinism contract:
//! with tracing and metrics on, the *deterministic* views — the span
//! tree (no wall times) and the metrics render — are byte-identical
//! at 1, 2 and 8 workers, for clean and faulted runs alike. Worker
//! shards merge in event-range order and every aggregate is
//! order-free, so the worker count can change only wall-clock.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use taster::core::{profile, Experiment, Scenario};
use taster::sim::{FaultProfile, Obs};

const SEED: u64 = 424_242;
const WORKERS: [usize; 3] = [1, 2, 8];

fn scenario(workers: usize) -> Scenario {
    Scenario::default_paper()
        .with_scale(0.02)
        .with_seed(SEED)
        .with_threads(workers)
}

#[test]
fn deterministic_trace_and_metrics_are_worker_count_invariant() {
    let (serial, _) = profile::run_end_to_end(&scenario(1)).expect("serial profile");
    let serial_view = profile::deterministic_profile(&serial);
    let serial_metrics = serial.obs.metrics.render();
    assert!(!serial_metrics.is_empty(), "metrics recorded");
    for workers in WORKERS {
        let (parallel, _) = profile::run_end_to_end(&scenario(workers)).expect("parallel profile");
        assert_eq!(
            serial_view,
            profile::deterministic_profile(&parallel),
            "deterministic profile differs at {workers} workers"
        );
        assert_eq!(
            serial_metrics,
            parallel.obs.metrics.render(),
            "metrics render differs at {workers} workers"
        );
    }
}

#[test]
fn faulted_trace_and_metrics_are_worker_count_invariant() {
    // Fault-decision counters (drops, duplicates, outage skips) come
    // from per-worker shards; this pins that their totals — and the
    // gap events in the trace — cannot depend on sharding.
    let faulted = |w: usize| scenario(w).with_faults(FaultProfile::lossy_feeds());
    let (serial, _) = profile::run_end_to_end(&faulted(1)).expect("serial profile");
    let serial_view = profile::deterministic_profile(&serial);
    assert!(
        serial.obs.metrics.counter("collect/fault/dropped") > 0,
        "lossy-feeds drops records"
    );
    for workers in WORKERS {
        let (parallel, _) = profile::run_end_to_end(&faulted(workers)).expect("parallel profile");
        assert_eq!(
            serial_view,
            profile::deterministic_profile(&parallel),
            "faulted deterministic profile differs at {workers} workers"
        );
    }
}

#[test]
fn metrics_report_section_is_worker_count_invariant() {
    // The user-facing surface: `report --metrics` bytes, including the
    // appended metrics section, cannot depend on `--threads`.
    let run = |workers: usize| {
        let exp = Experiment::try_run_observed(&scenario(workers), Obs::with(true, false))
            .expect("observed run");
        exp.render_report()
    };
    let serial = run(1);
    assert!(serial.contains("== Pipeline metrics"), "section present");
    for workers in WORKERS {
        assert_eq!(
            serial,
            run(workers),
            "observed report differs at {workers} workers"
        );
    }
}

#[test]
fn trace_jsonl_differs_only_in_wall_times() {
    // The JSONL log keeps wall_ns (by design non-deterministic); with
    // wall_ns stripped, two runs at different worker counts agree.
    let strip = |jsonl: &str| -> String {
        jsonl
            .lines()
            .map(|line| match line.find(",\"wall_ns\":") {
                Some(i) => format!("{}}}", &line[..i]),
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (a, _) = profile::run_end_to_end(&scenario(1)).expect("profile");
    let (b, _) = profile::run_end_to_end(&scenario(8)).expect("profile");
    assert_eq!(
        strip(&a.obs.trace.to_jsonl()),
        strip(&b.obs.trace.to_jsonl())
    );
}

/// The id and the parent of the span named `name` in a JSONL trace log.
fn span_in(log: &str, name: &str) -> (String, String) {
    let line = log
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
        .expect("the span is logged");
    let field = |key: &str| {
        let key = format!("\"{key}\":");
        let at = line.find(&key).expect("spans log the field") + key.len();
        line[at..].split(',').next().unwrap_or_default().to_string()
    };
    (field("id"), field("parent"))
}

/// `report --trace` writes its log after the render, so the log holds
/// the `render` stage's span, a top-level one. The full report and
/// `report --section NAME`, as text or as CSV, alike render inside
/// that stage, and a section under a `render/<name>` child.
#[test]
fn report_trace_logs_the_render() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("report-trace.jsonl");
    for args in [
        &[][..],
        &["--section", "fig9"],
        &["--section", "table2", "--format", "csv"],
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_taster"))
            .args(["report", "--scale", "0.02"])
            .args(args)
            .arg("--trace")
            .arg(&path)
            .output()
            .expect("run taster");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let log = std::fs::read_to_string(&path).unwrap();
        let (render, parent) = span_in(&log, "render");
        assert_eq!(parent, "null", "{args:?}: {log}");
        let section = if args.contains(&"csv") {
            "render/table2"
        } else {
            "render/fig9"
        };
        assert_eq!(span_in(&log, section).1, render, "{args:?}: {log}");
    }
}
