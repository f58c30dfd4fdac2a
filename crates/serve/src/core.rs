//! The daemon's engine, independent of any socket: epoch-by-epoch
//! ingestion over [`IngestState`], snapshot-isolated sealed epochs,
//! checkpointing, and the final report.
//!
//! Separating this from the server loop keeps the determinism
//! arguments testable in-process: the kill-and-resume tests drive a
//! [`ServeCore`] directly, drop it at an arbitrary epoch, resume from
//! the checkpoint directory, and compare final report bytes.

use crate::checkpoint::{load_latest, Checkpoint};
use crate::error::ServeError;
use std::path::PathBuf;
use taster_analysis::Classified;
use taster_core::{Experiment, Scenario};
use taster_ecosystem::GroundTruth;
use taster_feeds::{FeedSet, IngestState, PipelineError};
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Parallelism, SimTime};

/// A frozen epoch: what readers query while ingestion advances the
/// next one. Sealing clones the building state, so queries never see
/// a half-applied slice (snapshot isolation).
pub struct SealedEpoch {
    /// Epoch counter (1-based; 0 means nothing sealed yet).
    pub epoch: u64,
    /// Rows ingested when the epoch sealed.
    pub rows_done: usize,
    /// Sim-time watermark of the sealed state.
    pub watermark: SimTime,
    /// The sealed, queryable feed set.
    pub feeds: FeedSet,
}

/// Engine configuration, independent of socket concerns.
pub struct ServeConfig {
    /// Event rows per epoch (an epoch seals each time this many more
    /// rows land; the last epoch may be short).
    pub epoch_events: usize,
    /// Where checkpoints go; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
}

/// The serve engine: world + running ingestion + last sealed epoch.
pub struct ServeCore {
    scenario: Scenario,
    world: MailWorld,
    plan: FaultPlan,
    state: IngestState,
    config: ServeConfig,
    epoch: u64,
    sealed: Option<SealedEpoch>,
    final_report: Option<String>,
}

impl ServeCore {
    /// Builds the world and an empty ingestion state.
    pub fn new(scenario: &Scenario, config: ServeConfig) -> Result<ServeCore, ServeError> {
        let (world, plan) = build_world(scenario)?;
        let state = IngestState::new(&world, &scenario.feeds, &plan)?;
        Ok(ServeCore {
            scenario: scenario.clone(),
            world,
            plan,
            state,
            config,
            epoch: 0,
            sealed: None,
            final_report: None,
        })
    }

    /// Builds the world, then restores the newest valid checkpoint
    /// from the configured directory. Without one (first run, or all
    /// checkpoints torn) this is [`ServeCore::new`]. A checkpoint from
    /// a different scenario fingerprint is a typed error.
    pub fn resume(scenario: &Scenario, config: ServeConfig) -> Result<ServeCore, ServeError> {
        let fingerprint = fingerprint(scenario, config.epoch_events);
        let Some(dir) = config.checkpoint_dir.clone() else {
            return Err(ServeError::Checkpoint(
                "--resume needs a checkpoint directory".to_string(),
            ));
        };
        let Some(ckpt) = load_latest(&dir, &fingerprint)? else {
            return ServeCore::new(scenario, config);
        };
        let (world, plan) = build_world(scenario)?;
        let rows_done = usize::try_from(ckpt.rows_done)
            .map_err(|_| ServeError::Checkpoint("row counter overflow".to_string()))?;
        let state = IngestState::resume(&world, &scenario.feeds, &plan, ckpt.feeds, rows_done)?;
        let mut core = ServeCore {
            scenario: scenario.clone(),
            world,
            plan,
            state,
            config,
            epoch: ckpt.epoch,
            sealed: None,
            final_report: None,
        };
        // Re-seal immediately so queries work before the next epoch
        // lands (the restored state *is* the sealed epoch). No new
        // checkpoint: the one we just loaded already covers this state.
        core.seal_inner(false)?;
        core.epoch = ckpt.epoch; // seal bumped it; keep the stored count
        Ok(core)
    }

    /// Total time-sorted rows in the event log.
    pub fn total_rows(&self) -> usize {
        self.state.total_rows()
    }

    /// Rows ingested so far (building state, not the sealed epoch).
    pub fn rows_done(&self) -> usize {
        self.state.rows_done()
    }

    /// True once every event row has been applied.
    pub fn ingest_complete(&self) -> bool {
        self.state.ingest_complete()
    }

    /// The next epoch boundary: the smallest multiple of
    /// `epoch_events` strictly above the building cursor, clamped to
    /// the log length. Boundaries are fixed multiples — not cursor
    /// offsets — so watchdog-shrunk ingestion slices cannot make the
    /// boundary recede and starve sealing.
    pub fn next_epoch_target(&self) -> usize {
        let e = self.config.epoch_events.max(1);
        ((self.state.rows_done() / e) + 1)
            .saturating_mul(e)
            .min(self.state.total_rows())
    }

    /// Ingests up to `rows` more event rows (bounded work slice for
    /// the daemon loop; the watchdog shrinks `rows` under pressure).
    /// Does not seal. Returns rows actually applied; fails only when
    /// the out-of-core event spill cannot be read.
    pub fn advance_rows(&mut self, par: &Parallelism, rows: usize) -> Result<usize, ServeError> {
        let target = self
            .state
            .rows_done()
            .saturating_add(rows)
            .min(self.next_epoch_target());
        Ok(self.state.advance(&self.world, &self.plan, par, target)?)
    }

    /// Seals the current building state into a queryable epoch, writes
    /// a checkpoint (when configured), and — once ingestion is
    /// complete — drains the source tails so the sealed set is final.
    pub fn seal(&mut self, par: &Parallelism) -> Result<&SealedEpoch, ServeError> {
        let _ = par; // sealing is clone+freeze; kept for API symmetry
        self.seal_inner(true)
    }

    fn seal_inner(&mut self, checkpoint: bool) -> Result<&SealedEpoch, ServeError> {
        self.epoch += 1;
        // Checkpoint the *pre-drain* building state: resume replays
        // source tails past the watermark itself, so draining before
        // the write would double-apply them after a restore.
        if checkpoint {
            if let Some(dir) = self.config.checkpoint_dir.clone() {
                let ckpt = Checkpoint {
                    fingerprint: fingerprint(&self.scenario, self.config.epoch_events),
                    epoch: self.epoch,
                    rows_done: self.state.rows_done() as u64,
                    feeds: self.state.feeds().to_vec(),
                };
                ckpt.write_atomic(&dir)?;
            }
        }
        let feeds = if self.state.ingest_complete() {
            self.state.finish(&self.plan)
        } else {
            self.state.sealed_snapshot(&self.plan)
        };
        self.sealed = Some(SealedEpoch {
            epoch: self.epoch,
            rows_done: self.state.rows_done(),
            watermark: self.state.watermark(),
            feeds,
        });
        // Unreachable None: assigned on the previous line; avoids an
        // unwrap under the workspace panic lint.
        self.sealed
            .as_ref()
            .ok_or_else(|| ServeError::Io("sealed epoch vanished".to_string()))
    }

    /// The last sealed epoch, if any.
    pub fn sealed(&self) -> Option<&SealedEpoch> {
        self.sealed.as_ref()
    }

    /// Current sealed-epoch counter (0 before the first seal).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rough resident-set estimate of the collection state (building
    /// feeds + sealed copy), for admission control. Deliberately
    /// simple: entry and hash-set counts times their in-memory record
    /// sizes — the daemon needs a threshold, not an allocator audit.
    pub fn estimated_bytes(&self) -> u64 {
        let building: u64 = self
            .state
            .feeds()
            .iter()
            .map(|f| {
                let entries = f.unique_domains() as u64;
                let fqdns = f.fqdn_hashes_sorted().map_or(0, |v| v.len() as u64);
                entries * 48 + fqdns * 8
            })
            .sum();
        // The sealed snapshot is a columnar clone of roughly the same
        // cardinality.
        building * 2
    }

    /// Runs ingestion to completion in epoch-sized steps (the batch
    /// path through the serve engine — used by `--exit-when-done` runs
    /// with no clients, and by the determinism tests).
    pub fn run_to_completion(&mut self, par: &Parallelism) -> Result<(), ServeError> {
        while !self.state.ingest_complete() {
            let target = self.next_epoch_target();
            self.state.advance(&self.world, &self.plan, par, target)?;
            self.seal(par)?;
        }
        if self.sealed.is_none() {
            self.seal(par)?;
        }
        Ok(())
    }

    /// Renders the final full report. Requires complete ingestion (a
    /// typed error otherwise — never a partial report). The result is
    /// cached; the bytes equal `taster report` for the same scenario,
    /// which the resume tests pin.
    pub fn final_report(&mut self, par: &Parallelism) -> Result<&str, ServeError> {
        if self.final_report.is_none() {
            if !self.state.ingest_complete() {
                return Err(ServeError::NotReady(format!(
                    "ingestion at {}/{} rows; the final report needs all of them",
                    self.state.rows_done(),
                    self.state.total_rows()
                )));
            }
            if self.sealed.is_none() {
                self.seal(par)?;
            }
            let feeds = match self.sealed.as_ref() {
                Some(s) => s.feeds.clone(),
                None => return Err(ServeError::Io("sealed epoch vanished".to_string())),
            };
            let classified = Classified::build_faulted(
                &self.world.truth,
                &feeds,
                self.scenario.classify,
                &self.plan,
                &self.scenario.parallelism,
            );
            let experiment = Experiment {
                scenario: self.scenario.clone(),
                world: self.world.clone(),
                feeds,
                classified,
                faults: self.plan.clone(),
                obs: Obs::off(),
            };
            self.final_report = Some(experiment.try_render_report()?);
        }
        self.final_report
            .as_deref()
            .ok_or_else(|| ServeError::Io("report cache vanished".to_string()))
    }
}

/// The configuration fingerprint stored in checkpoints: everything
/// that changes collection output or epoch boundaries.
pub fn fingerprint(scenario: &Scenario, epoch_events: usize) -> String {
    format!(
        "v1 seed={} scenario={} profile={} chunk={} epoch_events={}",
        scenario.seed,
        scenario.name,
        scenario.fault_plan().profile().name,
        scenario.feeds.chunk_size,
        epoch_events
    )
}

fn build_world(scenario: &Scenario) -> Result<(MailWorld, FaultPlan), ServeError> {
    scenario
        .validate()
        .map_err(|e| ServeError::Pipeline(PipelineError::InvalidScenario(e)))?;
    let truth = GroundTruth::generate(&scenario.ecosystem, scenario.seed)
        .map_err(|e| PipelineError::from_world(e, PipelineError::Generation))?;
    let world = MailWorld::build(truth, scenario.mail.clone())
        .map_err(|e| PipelineError::from_world(e, PipelineError::InvalidScenario))?;
    Ok((world, scenario.fault_plan()))
}
