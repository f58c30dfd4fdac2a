//! Spill I/O failures are typed errors, never panics. This test points
//! `TMPDIR` at a path under a regular file, so creating the spill fails
//! with ENOTDIR; it lives in its own test binary because the variable
//! holds for the whole process.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::ErrorKind;
use taster::core::{Experiment, Scenario};
use taster::ecosystem::spill::SpillError;
use taster::feeds::PipelineError;

#[test]
fn an_unusable_temp_dir_is_a_typed_spill_error() {
    let base = std::env::temp_dir().join(format!("taster-spill-tmpdir-{}", std::process::id()));
    std::fs::write(&base, b"a regular file, not a directory").unwrap();
    std::env::set_var("TMPDIR", base.join("tmp"));

    let mut scenario = Scenario::default_paper().with_scale(0.02).with_seed(5);
    scenario.ecosystem.max_mem_bytes = Some(64 << 10);
    let err = Experiment::try_run(&scenario)
        .err()
        .expect("an out-of-core run needs its spill");
    std::fs::remove_file(&base).unwrap();

    match err {
        PipelineError::Spill(SpillError::Io { op, kind, .. }) => {
            assert_eq!(op, "create");
            assert_eq!(kind, ErrorKind::NotADirectory);
        }
        other => panic!("expected a typed spill error, got {other}"),
    }
}
