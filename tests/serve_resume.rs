//! Crash-safe serving determinism: a `taster serve` run that is killed
//! at an arbitrary epoch and resumed from its checkpoint directory must
//! produce a final report byte-identical to an uninterrupted run — and
//! both must equal the one-shot batch pipeline — at 1, 2 and 8
//! workers, clean and under a faulted profile. The process-level test
//! drives the real daemon binary through the real socket: `loadgen`'s
//! `kill-midrun` storm aborts it mid-flight, then `--resume` finishes
//! the run.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use rand::RngExt;
use taster::core::{Experiment, Scenario};
use taster::serve::{core::fingerprint, ServeConfig, ServeCore};
use taster::sim::{FaultProfile, RngStream};

const WORKERS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 424_242;

fn scenario(profile: &str, workers: usize) -> Scenario {
    let faults = FaultProfile::by_name(profile).expect("canonical profile");
    Scenario::default_paper()
        .with_scale(0.02)
        .with_seed(SEED)
        .with_threads(workers)
        .with_faults(faults)
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("taster-serve-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill at a "random" (deterministic keyed-RNG) epoch, resume from the
/// checkpoint on disk, and require the final bytes to match both an
/// uninterrupted serve run and the batch pipeline.
#[test]
fn kill_at_random_epoch_resumes_byte_identical() {
    for profile in ["off", "lossy-feeds"] {
        // The batch pipeline is worker-invariant (pinned elsewhere);
        // render it once per profile as the reference bytes.
        let batch = Experiment::try_run(&scenario(profile, 1))
            .expect("batch run")
            .render_report();
        for workers in WORKERS {
            let scn = scenario(profile, workers);
            let par = scn.parallelism;
            let total = ServeCore::new(
                &scn,
                ServeConfig {
                    epoch_events: usize::MAX,
                    checkpoint_dir: None,
                },
            )
            .expect("probe core")
            .total_rows();
            // Five epochs over the log; crash somewhere strictly
            // inside the run, epoch chosen by a keyed stream so the
            // test is deterministic but not hand-picked.
            let epoch_events = total.div_ceil(5).max(1);
            let mut rng = RngStream::new(SEED, &format!("test/kill-epoch/{profile}/{workers}"));
            let kill_after = 1 + rng.random_range(0..3usize); // 1..=3 sealed epochs

            let dir = scratch(&format!("{profile}-{workers}"));
            let config = || ServeConfig {
                epoch_events,
                checkpoint_dir: Some(dir.clone()),
            };

            // Uninterrupted serve run (its checkpoints are then
            // discarded so the killed run starts fresh).
            let mut clean = ServeCore::new(&scn, config()).expect("clean core");
            clean.run_to_completion(&par).expect("clean run");
            let clean_report = clean.final_report(&par).expect("clean report").to_string();
            let _ = std::fs::remove_dir_all(&dir);

            // Batch pipeline must agree before any crash enters the
            // picture.
            assert_eq!(
                clean_report, batch,
                "{profile}/{workers}w: serve vs batch report"
            );

            // Killed run: seal `kill_after` epochs, then drop the core
            // on the floor (the crash) and resume from disk.
            let mut doomed = ServeCore::new(&scn, config()).expect("doomed core");
            for _ in 0..kill_after {
                let target = doomed.next_epoch_target();
                doomed
                    .advance_rows(&par, target - doomed.rows_done())
                    .expect("advance");
                doomed.seal(&par).expect("seal");
            }
            assert!(
                !doomed.ingest_complete(),
                "{profile}/{workers}w: kill epoch {kill_after} not mid-run"
            );
            drop(doomed);

            let mut resumed = ServeCore::resume(&scn, config()).expect("resume core");
            assert!(
                resumed.rows_done() > 0 && !resumed.ingest_complete(),
                "{profile}/{workers}w: resume should start from a mid-run checkpoint"
            );
            resumed.run_to_completion(&par).expect("resumed run");
            let resumed_report = resumed.final_report(&par).expect("resumed report");
            assert_eq!(
                clean_report, resumed_report,
                "{profile}/{workers}w: killed-and-resumed report differs (killed after \
                 {kill_after} epochs)"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Out of core every ingest slice and every watermark reads the
/// time-sorted spill instead of the resident cache. Under a budget far
/// below the cache, the served final report must still equal the batch
/// report, uninterrupted and when killed mid-run and resumed.
#[test]
fn out_of_core_serve_matches_batch_and_resumes_byte_identical() {
    let batch = Experiment::try_run(&scenario("off", 1))
        .expect("batch run")
        .render_report();
    let mut scn = scenario("off", 2);
    scn.ecosystem.max_mem_bytes = Some(64 << 10);
    let spilled = Experiment::try_run(&scn).expect("out-of-core batch run");
    assert!(
        spilled.world.truth.cache().is_none(),
        "the budget must force the log out of core"
    );
    assert_eq!(spilled.render_report(), batch, "out-of-core batch report");
    drop(spilled);

    let par = scn.parallelism;
    let dir = scratch("out-of-core");
    let config = || ServeConfig {
        epoch_events: 2_000,
        checkpoint_dir: Some(dir.clone()),
    };
    let mut clean = ServeCore::new(&scn, config()).expect("clean core");
    clean.run_to_completion(&par).expect("clean run");
    assert_eq!(
        clean.final_report(&par).expect("clean report"),
        batch,
        "out-of-core serve vs batch report"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut doomed = ServeCore::new(&scn, config()).expect("doomed core");
    for _ in 0..2 {
        let target = doomed.next_epoch_target();
        // Ragged ticks, as the daemon's watchdog would make them.
        while doomed.rows_done() < target {
            doomed.advance_rows(&par, 777).expect("advance");
        }
        doomed.seal(&par).expect("seal");
    }
    assert!(!doomed.ingest_complete(), "the kill must land mid-run");
    drop(doomed);
    let mut resumed = ServeCore::resume(&scn, config()).expect("resume core");
    assert!(resumed.rows_done() > 0, "resume starts from the checkpoint");
    resumed.run_to_completion(&par).expect("resumed run");
    assert_eq!(
        resumed.final_report(&par).expect("resumed report"),
        batch,
        "out-of-core killed-and-resumed report differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written for one configuration must refuse to resume
/// another: the fingerprint covers seed, scenario (scale), profile,
/// chunking and epoch size.
#[test]
fn resume_refuses_foreign_checkpoints() {
    let a = scenario("off", 1);
    let b = scenario("lossy-feeds", 1);
    assert_ne!(fingerprint(&a, 1000), fingerprint(&b, 1000));

    let dir = scratch("foreign");
    let par = a.parallelism;
    let mut core = ServeCore::new(
        &a,
        ServeConfig {
            epoch_events: 10_000,
            checkpoint_dir: Some(dir.clone()),
        },
    )
    .expect("core");
    let target = core.next_epoch_target();
    core.advance_rows(&par, target).expect("advance");
    core.seal(&par).expect("seal");
    drop(core);

    let err = match ServeCore::resume(
        &b,
        ServeConfig {
            epoch_events: 10_000,
            checkpoint_dir: Some(dir.clone()),
        },
    ) {
        Ok(_) => panic!("foreign checkpoint must be rejected"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("fingerprint"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Process-level crash: the real daemon binary, killed over the real
/// socket by `loadgen`'s `kill-midrun` storm (`--test-hooks` arms the
/// `die` request), must resume into a final report byte-identical to
/// `taster report` output for the same scenario.
#[test]
fn daemon_killed_over_socket_resumes_byte_identical() {
    use std::process::{Command, Stdio};

    let dir = scratch("daemon");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("s.sock");
    let ckpts = dir.join("ckpts");
    let report_path = dir.join("final-report.txt");
    let bin = env!("CARGO_BIN_EXE_taster");
    let scale = "0.05";
    let seed = "424242";

    // No --exit-when-done on the doomed daemon: it keeps serving after
    // ingestion completes, so the kill always lands.
    let mut daemon = Command::new(bin)
        .args([
            "serve",
            "--scale",
            scale,
            "--seed",
            seed,
            "--socket",
            socket.to_str().unwrap(),
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--epoch-events",
            "5000",
            "--tick-rows",
            "1024",
            "--test-hooks",
        ])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");

    let storm = Command::new(bin)
        .args([
            "loadgen",
            "--scale",
            scale,
            "--seed",
            seed,
            "--socket",
            socket.to_str().unwrap(),
            "--faults",
            "kill-midrun",
            "--rounds",
            "200",
            "--out",
            dir.join("BENCH_kill.json").to_str().unwrap(),
        ])
        .output()
        .expect("run loadgen");
    assert!(
        storm.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&storm.stderr)
    );
    let outcome = std::fs::read_to_string(dir.join("BENCH_kill.json")).expect("storm json");
    if !outcome.contains("\"killed_daemon\": true") {
        // Never wait() on a daemon the storm failed to kill.
        let _ = daemon.kill();
        let _ = daemon.wait();
        panic!("kill-midrun storm never landed: {outcome}");
    }
    let status = daemon.wait().expect("wait daemon");
    assert!(
        !status.success(),
        "daemon should have been killed by the storm, exited {status:?}"
    );

    let resumed = Command::new(bin)
        .args([
            "serve",
            "--scale",
            scale,
            "--seed",
            seed,
            "--socket",
            socket.to_str().unwrap(),
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--epoch-events",
            "5000",
            "--resume",
            "--exit-when-done",
            "--final-report",
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("resume daemon");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let batch = Command::new(bin)
        .args(["report", "--scale", scale, "--seed", seed])
        .output()
        .expect("batch report");
    assert!(batch.status.success());
    let served = std::fs::read(&report_path).expect("final report file");
    assert_eq!(
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&batch.stdout),
        "resumed daemon report differs from batch CLI output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
