//! `taster profile` is the pipeline bench: `--out` gets one entry per
//! `--scale` value, each holding that run's stage seconds, span tree
//! and memory figures (modelled and measured), and
//! `--min-events-per-sec` gates it. Without `--out` it writes no file.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;
use taster::core::profile::budget_peak_bytes;
use taster::core::Scenario;
use taster::sim::Stage;

/// The number after `"key": ` in one entry of a `BENCH_pipeline.json`
/// document.
fn field(entry: &str, key: &str) -> f64 {
    let value = entry.split(&format!("\"{key}\": ")).nth(1).expect(key);
    value.split([',', '\n']).next().unwrap().parse().expect(key)
}

#[test]
fn profile_out_records_the_end_to_end_run() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile-out.json");
    let run = Command::new(env!("CARGO_BIN_EXE_taster"))
        .args(["profile", "--scale", "0.02,0.03", "--seed", "5", "--out"])
        .arg(&out)
        .output()
        .expect("run taster");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = std::fs::read_to_string(&out).unwrap();
    let entries: Vec<&str> = json.split("\"scenario\": ").skip(1).collect();
    assert_eq!(entries.len(), 2, "{json}");
    let mut last_peak = 0.0;
    for (entry, scale) in entries.into_iter().zip([0.02, 0.03]) {
        assert_eq!(field(entry, "scale"), scale, "{entry}");
        for stage in Stage::ALL {
            field(entry, &format!("{}_secs", stage.name()));
        }
        assert!(
            entry.contains("{\"name\": \"generate/ground_truth\", \"depth\": 1"),
            "{entry}"
        );
        for key in ["generate_secs", "render_secs", "total_secs"] {
            assert!(field(entry, key) > 0.0, "{key} is zero: {entry}");
        }
        // One run, one clock: the total covers the stages inside it.
        let (generate, render) = (field(entry, "generate_secs"), field(entry, "render_secs"));
        assert!(field(entry, "total_secs") >= generate + render, "{entry}");
        let scenario = Scenario::default_paper().with_scale(scale).with_seed(5);
        let events = field(entry, "events") as u64;
        let peak = budget_peak_bytes(&scenario.ecosystem, events, scenario.feeds.chunk_size);
        assert_eq!(field(entry, "budget_peak_bytes") as u64, peak, "{entry}");
        // The measured peak is the process's high-water mark so far:
        // 0 only where `/proc/self/status` cannot be read, and never
        // lower than the entry before it.
        let rss = field(entry, "peak_rss_bytes");
        if Path::new("/proc/self/status").exists() {
            assert!(rss > 0.0, "{entry}");
        }
        assert!(rss >= last_peak, "{entry}");
        last_peak = rss;
    }
}

#[test]
fn profile_exits_1_below_the_collect_floor() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile-floor.json");
    let run = Command::new(env!("CARGO_BIN_EXE_taster"))
        .args(["profile", "--scale", "0.02", "--min-events-per-sec", "1e15"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run taster");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is below the floor"), "{stderr}");
}

#[test]
fn profile_without_out_writes_no_file() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile-no-out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_taster"))
        .args(["profile", "--scale", "0.02"])
        .current_dir(&dir)
        .output()
        .expect("run taster");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "profile wrote {left:?}");
}
