//! `taster profile --out` writes the end-to-end wall accounting of the
//! run it profiles, next to the stage timings.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;

/// The number after `"key": ` in a `BENCH_pipeline.json` document.
fn field(json: &str, key: &str) -> f64 {
    let value = json.split(&format!("\"{key}\": ")).nth(1).expect(key);
    value.split([',', '\n']).next().unwrap().parse().expect(key)
}

#[test]
fn profile_out_records_the_end_to_end_run() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile-out.json");
    let run = Command::new(env!("CARGO_BIN_EXE_taster"))
        .args(["profile", "--scale", "0.02", "--seed", "5", "--out"])
        .arg(&out)
        .output()
        .expect("run taster");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = std::fs::read_to_string(&out).unwrap();
    for key in ["generate_secs", "render_secs", "total_secs"] {
        assert!(field(&json, key) > 0.0, "{key} is zero: {json}");
    }
    // One run, one clock: the total covers the stages inside it.
    let (generate, render) = (field(&json, "generate_secs"), field(&json, "render_secs"));
    assert!(field(&json, "total_secs") >= generate + render, "{json}");
}
