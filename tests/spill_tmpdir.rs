//! Spill I/O failures are typed errors, never panics, on every path
//! that builds a world. These tests point `TMPDIR` at a path under a
//! regular file, so creating the spill fails with ENOTDIR; they live in
//! their own test binary because the variable holds for the whole
//! process.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::Command;
use taster::core::{build_world, Experiment, Scenario};
use taster::ecosystem::spill::SpillError;
use taster::feeds::PipelineError;
use taster::serve::{ServeConfig, ServeCore, ServeError};
use taster::sim::Obs;

fn assert_spill_create_failed(err: PipelineError, path: &str) {
    match err {
        PipelineError::Spill(SpillError::Io { op, kind, .. }) => {
            assert_eq!(op, "create", "{path}");
            assert_eq!(kind, ErrorKind::NotADirectory, "{path}");
        }
        other => panic!("{path}: expected a typed spill error, got {other}"),
    }
}

/// A regular file whose would-be child directory is an unusable
/// `TMPDIR`.
fn regular_file(dir: &Path, tag: &str) -> PathBuf {
    let base = dir.join(format!("taster-spill-tmpdir-{}-{tag}", std::process::id()));
    std::fs::write(&base, b"a regular file, not a directory").unwrap();
    base
}

#[test]
fn an_unusable_temp_dir_is_a_typed_spill_error() {
    let base = regular_file(&std::env::temp_dir(), "lib");
    std::env::set_var("TMPDIR", base.join("tmp"));

    let mut scenario = Scenario::default_paper().with_scale(0.02).with_seed(5);
    scenario.ecosystem.max_mem_bytes = Some(64 << 10);
    let run = Experiment::try_run(&scenario).err();
    let built = build_world(&scenario, &Obs::off()).err();
    let config = ServeConfig {
        epoch_events: 1000,
        checkpoint_dir: None,
    };
    let served = ServeCore::new(&scenario, config).err();
    std::fs::remove_file(&base).unwrap();

    let err = run.expect("an out-of-core run needs its spill");
    assert_spill_create_failed(err, "Experiment::try_run");
    let err = built.expect("the world builder needs its spill");
    assert_spill_create_failed(err, "build_world");
    match served.expect("a serve core needs its spill") {
        ServeError::Pipeline(err) => assert_spill_create_failed(err, "ServeCore::new"),
        other => panic!("ServeCore::new: expected a pipeline error, got {other}"),
    }
}

#[test]
fn every_world_building_command_exits_1_on_a_spill_failure() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let base = regular_file(dir, "cli");
    let bench_out = dir.join("spill-tmpdir-bench.json");
    let bench_out = bench_out.to_str().expect("UTF-8 path");
    let args: [&[&str]; 4] = [
        &["report"],
        &["sweep", "seeding"],
        &["summary"],
        &["bench-json", "--out", bench_out],
    ];
    let mut outcomes = Vec::new();
    for cmd in args {
        let out = Command::new(env!("CARGO_BIN_EXE_taster"))
            .args(cmd)
            .args(["--scale", "0.02", "--max-mem-bytes", "65536"])
            .env("TMPDIR", base.join("tmp"))
            .output()
            .expect("run taster");
        outcomes.push((cmd, out));
    }
    std::fs::remove_file(&base).unwrap();

    for (cmd, out) in outcomes {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "taster {cmd:?}: {stderr}");
        assert!(
            stderr.contains("cannot run scenario: event spill: spill create failed"),
            "taster {cmd:?}: {stderr}"
        );
    }
}
