//! The daemon's engine, independent of any socket: epoch-by-epoch
//! ingestion over [`IngestState`], snapshot-isolated sealed epochs,
//! checkpointing, and the final report.
//!
//! Separating this from the server loop keeps the determinism
//! arguments testable in-process: the kill-and-resume tests drive a
//! [`ServeCore`] directly, drop it at an arbitrary epoch, resume from
//! the checkpoint directory, and compare final report bytes.

use crate::checkpoint;
use crate::error::ServeError;
use std::path::PathBuf;
use std::sync::Arc;
use taster_analysis::Classified;
use taster_core::{build_world, Experiment, Scenario};
use taster_feeds::{Feed, FeedSet, IngestState};
use taster_mailsim::MailWorld;
use taster_sim::metrics::MetricsRegistry;
use taster_sim::{FaultPlan, Obs, Parallelism, SimTime};

/// A frozen epoch: what readers query while ingestion advances the
/// next one. Queries never see a half-applied slice (snapshot
/// isolation): ingestion only writes the delta, and a seal publishes a
/// new set instead of changing this one.
pub struct SealedEpoch {
    /// Epoch counter (1-based; 0 means nothing sealed yet).
    pub epoch: u64,
    /// Rows ingested when the epoch sealed.
    pub rows_done: usize,
    /// Sim-time watermark of the sealed state.
    pub watermark: SimTime,
    /// The sealed, queryable feed set. The ingestion state holds the
    /// same copy as the base the next epoch merges into.
    pub feeds: Arc<FeedSet>,
}

/// Engine configuration, independent of socket concerns.
pub struct ServeConfig {
    /// Event rows per epoch (an epoch seals each time this many more
    /// rows land; the last epoch may be short).
    pub epoch_events: usize,
    /// Where checkpoints go; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
}

/// Seal health, for the daemon's `status` reply.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SealStats {
    /// Wall time spent in seals (merge plus checkpoint write).
    pub(crate) secs_total: f64,
    /// The longest single seal: how long queries waited at most.
    pub(crate) secs_max: f64,
    /// Summed size of the checkpoint chain in the directory.
    pub(crate) checkpoint_bytes: u64,
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
    seal_stats: SealStats,
    final_report: Option<String>,
}

impl ServeCore {
    /// Builds the world and an empty ingestion state. A fresh run owns
    /// its checkpoint directory: every `ckpt-*.bin` and `ckpt-*.tmp`
    /// file already there is removed, and a new chain starts.
    pub fn new(scenario: &Scenario, config: ServeConfig) -> Result<ServeCore, ServeError> {
        let world = build_world(scenario, &Obs::off())?;
        let plan = scenario.fault_plan();
        let state = IngestState::new(&world, &scenario.feeds, &plan, &Obs::off())?;
        if let Some(dir) = &config.checkpoint_dir {
            checkpoint::clear(dir, 0)?;
        }
        Ok(ServeCore {
            scenario: scenario.clone(),
            world,
            plan,
            state,
            config,
            epoch: 0,
            sealed: None,
            seal_stats: SealStats::default(),
            final_report: None,
        })
    }

    /// Builds the world, then folds the longest valid checkpoint chain
    /// `ckpt-1..k` from the configured directory and replays only the
    /// rows after epoch k. Without one (first run, or `ckpt-1` torn)
    /// this is [`ServeCore::new`]. Files past the chain are removed; a
    /// checkpoint from a different scenario fingerprint is a typed
    /// error.
    pub fn resume(scenario: &Scenario, config: ServeConfig) -> Result<ServeCore, ServeError> {
        let fingerprint = fingerprint(scenario, config.epoch_events);
        let Some(dir) = config.checkpoint_dir.clone() else {
            return Err(ServeError::Checkpoint(
                "--resume needs a checkpoint directory".to_string(),
            ));
        };
        let Some(chain) = checkpoint::load_chain(&dir, &fingerprint)? else {
            return ServeCore::new(scenario, config);
        };
        let world = build_world(scenario, &Obs::off())?;
        let plan = scenario.fault_plan();
        let rows_done = usize::try_from(chain.rows_done)
            .map_err(|_| ServeError::Checkpoint("row counter overflow".to_string()))?;
        let state = IngestState::resume(
            &world,
            &scenario.feeds,
            &plan,
            chain.feeds,
            rows_done,
            &Obs::off(),
        )?;
        checkpoint::clear(&dir, chain.epoch)?;
        let mut core = ServeCore {
            scenario: scenario.clone(),
            world,
            plan,
            state,
            config,
            epoch: chain.epoch,
            sealed: None,
            seal_stats: SealStats {
                checkpoint_bytes: chain.bytes,
                ..SealStats::default()
            },
            final_report: None,
        };
        // Re-seal at once so queries work before the next epoch lands
        // (the restored state *is* epoch k). No new checkpoint: the
        // chain already covers this state.
        core.seal_epoch(chain.epoch, false)?;
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
        Ok(self
            .state
            .advance(&self.world, &self.plan, par, target, &Obs::off())?)
    }

    /// Seals the epoch's delta into a new queryable epoch, writes it
    /// as the next checkpoint of the chain (when configured), and —
    /// once ingestion is complete — drains the source tails so the
    /// sealed set is final. A failed checkpoint write is returned
    /// after the epoch sealed in memory; the chain then ends before
    /// it, and a resume replays from there.
    pub fn seal(&mut self, par: &Parallelism) -> Result<&SealedEpoch, ServeError> {
        let _ = par; // sealing is one merge pass; kept for API symmetry
        self.seal_epoch(self.epoch + 1, true)
    }

    fn seal_epoch(&mut self, epoch: u64, checkpoint: bool) -> Result<&SealedEpoch, ServeError> {
        let sw = MetricsRegistry::stopwatch();
        let rows_done = self.state.rows_done();
        let dir = self.config.checkpoint_dir.as_deref().filter(|_| checkpoint);
        let (scenario, epoch_events) = (&self.scenario, self.config.epoch_events);
        let (written, feeds) = self
            .state
            .seal_with(&Obs::off(), |delta: &[Feed]| match dir {
                Some(dir) => {
                    let fingerprint = fingerprint(scenario, epoch_events);
                    checkpoint::write(dir, &fingerprint, epoch, rows_done as u64, delta)
                }
                None => Ok(0),
            });
        self.epoch = epoch;
        self.sealed = Some(SealedEpoch {
            epoch,
            rows_done,
            watermark: self.state.watermark(),
            feeds,
        });
        let secs = sw.elapsed_secs();
        self.seal_stats.secs_total += secs;
        self.seal_stats.secs_max = self.seal_stats.secs_max.max(secs);
        self.seal_stats.checkpoint_bytes += written?;
        // Unreachable None: assigned above; avoids an unwrap under the
        // workspace panic lint.
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

    /// Seal durations and the checkpoint chain's size so far.
    pub(crate) fn seal_stats(&self) -> SealStats {
        self.seal_stats
    }

    /// Rough resident-set estimate of the collection state (sealed
    /// epoch + delta), for admission control. Deliberately simple and
    /// allocation-free: entry and FQDN counts times the in-memory size
    /// of a hash-map record (the sealed columns are smaller, so this
    /// errs high) — the daemon needs a threshold, not an allocator
    /// audit.
    pub fn estimated_bytes(&self) -> u64 {
        self.state
            .sealed()
            .iter()
            .chain(self.state.delta())
            .map(|f| f.unique_domains() as u64 * 48 + f.unique_fqdns().unwrap_or(0) as u64 * 8)
            .sum()
    }

    /// Runs ingestion to completion in epoch-sized steps (the batch
    /// path through the serve engine — used by `--exit-when-done` runs
    /// with no clients, and by the determinism tests).
    pub fn run_to_completion(&mut self, par: &Parallelism) -> Result<(), ServeError> {
        while !self.state.ingest_complete() {
            let target = self.next_epoch_target();
            self.state
                .advance(&self.world, &self.plan, par, target, &Obs::off())?;
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
                Some(s) => FeedSet::clone(&s.feeds),
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
/// that changes collection output or epoch boundaries. The `v2` prefix
/// marks per-epoch deltas; a `v1` (full-state) file fails the
/// fingerprint check instead of being folded as a delta.
pub fn fingerprint(scenario: &Scenario, epoch_events: usize) -> String {
    format!(
        "v2 seed={} scenario={} profile={} chunk={} epoch_events={}",
        scenario.seed,
        scenario.name,
        scenario.fault_plan().profile().name,
        scenario.feeds.chunk_size,
        epoch_events
    )
}
