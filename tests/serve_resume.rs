//! Crash-safe serving determinism: a `taster serve` run that is killed
//! at an arbitrary epoch and resumed from its checkpoint directory must
//! produce a final report byte-identical to an uninterrupted run — and
//! both must equal the one-shot batch pipeline — at 1, 2 and 8
//! workers, clean and under a faulted profile. The process-level test
//! drives the real daemon binary through the real socket: `loadgen`'s
//! `kill-midrun` storm aborts it mid-flight, then `--resume` finishes
//! the run. Checkpoints form a chain of per-epoch deltas, so the
//! tests also tear and rot single links, and reuse a directory across
//! runs of different configurations.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use rand::RngExt;
use taster::core::{Experiment, Scenario};
use taster::feeds::{Feed, FeedId};
use taster::serve::{core::fingerprint, Checkpoint, ServeConfig, ServeCore, ServerStats};
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

/// Event rows in the scenario's log.
fn total_rows(scn: &Scenario) -> usize {
    ServeCore::new(
        scn,
        ServeConfig {
            epoch_events: usize::MAX,
            checkpoint_dir: None,
        },
    )
    .expect("probe core")
    .total_rows()
}

/// Advances to each of the next `epochs` boundaries and seals there.
fn seal_epochs(core: &mut ServeCore, par: &taster::sim::Parallelism, epochs: usize) {
    for _ in 0..epochs {
        let target = core.next_epoch_target();
        core.advance_rows(par, target - core.rows_done())
            .expect("advance");
        core.seal(par).expect("seal");
    }
}

/// The `ckpt-*` file names in `dir`, sorted.
fn ckpt_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    names.sort();
    names
}

/// `ckpt-00000001.bin` up to `ckpt-<epochs>.bin`, no gap.
fn chain_names(epochs: u64) -> Vec<String> {
    (1..=epochs).map(|e| format!("ckpt-{e:08}.bin")).collect()
}

/// Summed size of the `ckpt-*` files in `dir`.
fn chain_bytes(dir: &Path) -> u64 {
    ckpt_files(dir)
        .iter()
        .map(|n| std::fs::metadata(dir.join(n)).expect("ckpt size").len())
        .sum()
}

/// Kill at a "random" (deterministic keyed-RNG) epoch, resume from the
/// checkpoint on disk, and require the final bytes to match both an
/// uninterrupted serve run and the batch pipeline.
#[test]
fn kill_at_random_epoch_resumes_byte_identical() {
    // `feed-outage` adds outage windows, which every seal carries as
    // gap markers.
    for profile in ["off", "lossy-feeds", "feed-outage"] {
        // The batch pipeline is worker-invariant (pinned elsewhere);
        // render it once per profile as the reference bytes.
        let batch = Experiment::try_run(&scenario(profile, 1))
            .expect("batch run")
            .render_report();
        for workers in WORKERS {
            let scn = scenario(profile, workers);
            let par = scn.parallelism;
            let total = total_rows(&scn);
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
            seal_epochs(&mut doomed, &par, kill_after);
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

/// A torn newest link and a rotted middle link: the resume folds the
/// consecutive valid prefix of the chain, starts from its last epoch,
/// removes the unusable files, and still finishes byte-identical.
#[test]
fn torn_or_rotted_links_resume_from_the_last_valid_epoch() {
    let scn = scenario("off", 2);
    let par = scn.parallelism;
    let batch = Experiment::try_run(&scenario("off", 1))
        .expect("batch run")
        .render_report();
    let epoch_events = total_rows(&scn).div_ceil(5).max(1);
    // (damage, the file damaged, the epoch the chain must end at)
    for (damage, victim, valid) in [("truncate-newest", 4u64, 3u64), ("flip-epoch-2", 2, 1)] {
        let dir = scratch(damage);
        let config = || ServeConfig {
            epoch_events,
            checkpoint_dir: Some(dir.clone()),
        };
        let mut doomed = ServeCore::new(&scn, config()).expect("doomed core");
        seal_epochs(&mut doomed, &par, 4);
        assert!(
            !doomed.ingest_complete(),
            "{damage}: the kill must land mid-run"
        );
        drop(doomed);
        assert_eq!(
            ckpt_files(&dir),
            chain_names(4),
            "{damage}: one file per seal"
        );

        let path = dir.join(format!("ckpt-{victim:08}.bin"));
        let mut bytes = std::fs::read(&path).expect("read victim");
        if damage == "truncate-newest" {
            bytes.truncate(bytes.len() - 8); // a torn write
        } else {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x5a; // bit rot
        }
        std::fs::write(&path, bytes).expect("damage victim");

        let mut resumed = ServeCore::resume(&scn, config()).expect("resume core");
        assert_eq!(resumed.epoch(), valid, "{damage}: resumed epoch");
        assert_eq!(
            resumed.rows_done(),
            valid as usize * epoch_events,
            "{damage}: resumed rows"
        );
        assert_eq!(
            ckpt_files(&dir),
            chain_names(valid),
            "{damage}: files past the chain are removed"
        );
        resumed.run_to_completion(&par).expect("resumed run");
        assert_eq!(
            resumed.final_report(&par).expect("resumed report"),
            batch,
            "{damage}: resumed report differs"
        );
        assert_eq!(ckpt_files(&dir), chain_names(5), "{damage}: chain rebuilt");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh run owns its checkpoint directory. Run A leaves a complete
/// chain; a fresh run of A under `lossy-feeds` in the same directory
/// seals one epoch and dies. Its resume must fold only its own
/// `ckpt-1` — not A's stale `ckpt-4`/`ckpt-5`, which would be folded
/// into the wrong state or refused for their fingerprint. Files that
/// are not checkpoints survive, and a hand-encoded `v1` (full-state)
/// checkpoint is refused with the fingerprint error.
#[test]
fn a_fresh_run_owns_its_checkpoint_directory() {
    let a = scenario("off", 1);
    let b = scenario("lossy-feeds", 1);
    let par = a.parallelism;
    let epoch_events = total_rows(&a).div_ceil(5).max(1);
    let dir = scratch("fresh-run");
    let config = || ServeConfig {
        epoch_events,
        checkpoint_dir: Some(dir.clone()),
    };

    let mut first = ServeCore::new(&a, config()).expect("run A");
    first.run_to_completion(&par).expect("run A to completion");
    drop(first);
    let notes = dir.join("notes.txt");
    std::fs::write(&notes, "not a checkpoint").expect("unrelated file");
    std::fs::write(dir.join("ckpt-00000009.tmp"), b"torn").expect("stale temp file");

    let mut doomed = ServeCore::new(&b, config()).expect("fresh run of A under lossy-feeds");
    seal_epochs(&mut doomed, &par, 1);
    drop(doomed);

    let mut resumed = ServeCore::resume(&b, config()).expect("resume the fresh run");
    assert_eq!((resumed.epoch(), resumed.rows_done()), (1, epoch_events));
    assert_eq!(
        ckpt_files(&dir),
        chain_names(1),
        "only the fresh run's chain"
    );
    resumed.run_to_completion(&par).expect("resumed run");
    let batch = Experiment::try_run(&b).expect("batch run").render_report();
    assert_eq!(resumed.final_report(&par).expect("resumed report"), batch);
    drop(resumed);
    assert_eq!(
        std::fs::read_to_string(&notes).expect("unrelated file survives"),
        "not a checkpoint"
    );

    // The previous format's full-state checkpoint: the same layout
    // under a `v1` fingerprint.
    let v1 = Checkpoint {
        fingerprint: fingerprint(&b, epoch_events).replacen("v2 ", "v1 ", 1),
        epoch: 1,
        rows_done: epoch_events as u64,
        feeds: FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect(),
    };
    assert!(v1.fingerprint.starts_with("v1 seed="), "{}", v1.fingerprint);
    std::fs::write(dir.join("ckpt-00000001.bin"), v1.encode()).expect("write v1 file");
    let err = match ServeCore::resume(&b, config()) {
        Ok(_) => panic!("a v1 checkpoint must be refused"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("fingerprint mismatch in"),
        "unexpected error: {err}"
    );
    assert!(notes.exists(), "a refused resume deletes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `status` ends with the seal health lines after the existing keys,
/// and `checkpoint_bytes` is the summed size of the chain on disk.
#[test]
fn status_reports_seal_health_and_chain_bytes() {
    let scn = scenario("off", 1);
    let par = scn.parallelism;
    let dir = scratch("status");
    let config = || ServeConfig {
        epoch_events: total_rows(&scn).div_ceil(6).max(1),
        checkpoint_dir: Some(dir.clone()),
    };
    let value = |body: &str, key: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{key} ")))
            .unwrap_or_else(|| panic!("status lacks {key}: {body}"))
            .parse()
            .expect("numeric status value")
    };

    let mut core = ServeCore::new(&scn, config()).expect("core");
    seal_epochs(&mut core, &par, 3);
    let body = ServerStats::default().render(&core);
    let keys: Vec<&str> = body.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(
        keys,
        [
            "rows",
            "epoch",
            "complete",
            "mem_bytes",
            "requests",
            "sheds",
            "timeouts",
            "malformed",
            "watchdog_trips",
            "epochs_sealed",
            "io_errors",
            "seal_ms_total",
            "seal_ms_max",
            "checkpoint_bytes",
        ]
    );
    assert_eq!(ckpt_files(&dir), chain_names(3));
    assert_eq!(value(&body, "checkpoint_bytes"), chain_bytes(&dir) as f64);
    let (total_ms, max_ms) = (value(&body, "seal_ms_total"), value(&body, "seal_ms_max"));
    assert!(max_ms > 0.0 && max_ms <= total_ms, "{body}");

    // A resume starts from the chain's size and keeps counting.
    drop(core);
    let mut resumed = ServeCore::resume(&scn, config()).expect("resume");
    seal_epochs(&mut resumed, &par, 2);
    let body = ServerStats::default().render(&resumed);
    assert_eq!(ckpt_files(&dir), chain_names(5));
    assert_eq!(value(&body, "checkpoint_bytes"), chain_bytes(&dir) as f64);
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
