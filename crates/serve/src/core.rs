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
    /// `None` only while the final report's render holds the world.
    world: Option<MailWorld>,
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
            world: Some(world),
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
            world: Some(world),
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
        let Some(world) = &self.world else {
            return Err(world_lent());
        };
        Ok(self
            .state
            .advance(world, &self.plan, par, target, &Obs::off())?)
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
    /// epoch + delta), which `status` reports as `mem_bytes`.
    /// Deliberately simple and allocation-free: entry and FQDN counts
    /// times the in-memory size of a hash-map record (the sealed
    /// columns are smaller, so this errs high) — an operator needs a
    /// trend, not an allocator audit.
    pub fn estimated_bytes(&self) -> u64 {
        let bytes = |domains: usize, fqdns: Option<usize>| {
            domains as u64 * 48 + fqdns.unwrap_or(0) as u64 * 8
        };
        let sealed = self.state.sealed().iter();
        let delta = self.state.delta().iter();
        sealed
            .map(|f| bytes(f.unique_domains(), f.unique_fqdns()))
            .chain(delta.map(|f| bytes(f.unique_domains(), f.unique_fqdns())))
            .sum()
    }

    /// Renders the final full report. Requires complete ingestion (a
    /// typed error otherwise — never a partial report). The result is
    /// cached; the bytes equal `taster report` for the same scenario,
    /// which the resume tests pin. The render borrows the world and
    /// the sealed feed set by move and copies neither.
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
            self.final_report = Some(self.render_lent()?);
        }
        self.final_report
            .as_deref()
            .ok_or_else(|| ServeError::Io("report cache vanished".to_string()))
    }

    /// Renders the report over the world and the last sealed feed set,
    /// both moved into the [`Experiment`] and moved back after the
    /// render, a failed one too. The sealed epoch drops its handle on
    /// the set first, so the state lends out the only one.
    fn render_lent(&mut self) -> Result<String, ServeError> {
        let Some(SealedEpoch {
            epoch,
            rows_done,
            watermark,
            feeds,
        }) = self.sealed.take()
        else {
            return Err(ServeError::Io("sealed epoch vanished".to_string()));
        };
        drop(feeds);
        let (scenario, plan, world) = (&self.scenario, &self.plan, &mut self.world);
        let (text, feeds) = self.state.lend_sealed(|feeds| {
            let Some(lent) = world.take() else {
                return (feeds, Err(world_lent()));
            };
            let classified = Classified::build_observed(
                &lent.truth,
                &feeds,
                scenario.classify,
                plan,
                &scenario.parallelism,
                &Obs::off(),
            );
            let experiment = Experiment {
                scenario: scenario.clone(),
                world: lent,
                feeds,
                classified,
                faults: plan.clone(),
                obs: Obs::off(),
            };
            let text = experiment.try_render_report().map_err(ServeError::from);
            *world = Some(experiment.world);
            (experiment.feeds, text)
        });
        self.sealed = Some(SealedEpoch {
            epoch,
            rows_done,
            watermark,
            feeds,
        });
        text
    }
}

/// The error for a world the final report's render still holds, which
/// no caller can observe: the render runs inside one `&mut` call.
fn world_lent() -> ServeError {
    ServeError::Io("the world is lent to the final report".to_string())
}

/// The configuration fingerprint stored in checkpoints: everything
/// that changes collection output or epoch boundaries. The resource
/// settings (`--threads`, `--chunk`, `--max-mem-bytes`) change neither,
/// so a resume may pick them anew. The `v2` prefix marks per-epoch
/// deltas; a `v1` (full-state) file fails the fingerprint check instead
/// of being folded as a delta.
pub fn fingerprint(scenario: &Scenario, epoch_events: usize) -> String {
    format!(
        "v2 seed={} scenario={} profile={} epoch_events={}",
        scenario.seed,
        scenario.name,
        scenario.fault_plan().profile().name,
        epoch_events
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_domain::DomainId;

    /// Where each feed's id and first-seen columns live.
    fn column_addresses(feeds: &FeedSet) -> Vec<(*const DomainId, *const SimTime)> {
        feeds
            .iter()
            .map(|f| {
                (
                    f.columns().ids().as_ptr(),
                    f.columns().first_seen().as_ptr(),
                )
            })
            .collect()
    }

    /// A daemon's loop without the socket: every row in, sealed at
    /// each epoch boundary.
    fn ingested(scenario: &Scenario, par: &Parallelism) -> ServeCore {
        let config = ServeConfig {
            epoch_events: 4_000,
            checkpoint_dir: None,
        };
        let mut core = ServeCore::new(scenario, config).expect("core");
        while !core.ingest_complete() {
            let boundary = core.next_epoch_target();
            core.advance_rows(par, 1_500).expect("advance");
            if core.rows_done() >= boundary {
                core.seal(par).expect("seal");
            }
        }
        core
    }

    #[test]
    fn the_final_report_lends_the_world_and_feeds_and_gets_them_back() {
        let scenario = Scenario::default_paper().with_scale(0.02).with_seed(11);
        let par = Parallelism::serial();
        let mut core = ingested(&scenario, &par);
        let epoch = |core: &ServeCore| {
            let s = core.sealed().expect("sealed");
            (
                s.epoch,
                s.rows_done,
                s.watermark,
                column_addresses(&s.feeds),
            )
        };
        let world = |core: &ServeCore| core.world.as_ref().map(|w| w.benign_mail.as_ptr());
        let before = (epoch(&core), world(&core));
        assert!(before.0 .0 > 1, "several epochs sealed");

        let first = core.final_report(&par).expect("report");
        let (cached, text) = (first.as_ptr(), first.to_string());
        // Same epoch, and the same allocations: a copy of the set or
        // the world on the way in or out would move them.
        assert_eq!((epoch(&core), world(&core)), before);
        assert_eq!(core.advance_rows(&par, 1_000).expect("advance"), 0);
        let again = core.final_report(&par).expect("cached report");
        assert_eq!(again.as_ptr(), cached, "the second call renders again");
        assert_eq!(again, text);

        let batch = Experiment::try_run(&scenario)
            .and_then(|e| e.try_render_report())
            .expect("batch report");
        assert_eq!(text, batch);
    }
}
