//! Incremental (epoch-by-epoch) feed collection for `taster serve`.
//!
//! The batch pipeline ([`crate::pipeline`]) collects the whole event
//! log in one pass. The serve daemon instead ingests the *time-sorted*
//! event rows in slices, sealing an epoch snapshot after each slice so
//! purity/coverage/timing become sliding-window queries over running
//! columnar state.
//!
//! Two properties of the engine make this safe:
//!
//! * every collection decision is keyed by `(seed, stream, sorted
//!   event index)` — a pure function of the event, not of slice
//!   boundaries — and
//! * [`Feed::record`] is commutative and associative (min first-seen,
//!   max last-seen, summed volume),
//!
//! so applying each event exactly once, in any partitioning, yields a
//! final [`FeedSet`] bit-identical to the batch pass. The non-event
//! sources (benign pollution, Hyb's report sample and web-spam corpus,
//! the Hu report stream, blacklist listings) draw from *sequential*
//! RNG streams, so [`IngestState::new`] pre-decides all of them up
//! front — in the exact order the batch pass would — and replays the
//! resulting fault-free records through a time cursor as the watermark
//! advances. This is also what makes crash recovery exact: a restored
//! checkpoint re-presamples the sources (deterministic), repositions
//! the cursors at the watermark, and replays only the remaining rows.
//!
//! A seal costs one epoch, not the whole run. The state keeps the last
//! sealed [`FeedSet`] and a *delta*: ten building feeds holding only
//! what was applied since that seal. Sealing sorts the delta and
//! merges it into the sealed columns in one linear pass
//! (`FeedSet::merged`); the delta is also exactly what a serve
//! checkpoint stores.

use crate::collectors::blacklist::blacklist_source_records;
use crate::collectors::hu::hu_source_records;
use crate::config::FeedsConfig;
use crate::engine::{
    apply_source_record, compute_fast_ok, run_rows, shard_ranges, MemberSpec, RunCtx, ShardObs,
    SourceRecord,
};
use crate::error::PipelineError;
use crate::feed::{Feed, FeedSet};
use crate::id::FeedId;
use crate::pipeline::content_members;
use std::sync::Arc;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Parallelism, SimTime};

/// One pre-decided source stream feeding one feed, replayed by time.
struct SourceStream {
    /// Index into the [`FeedId::ALL`]-ordered feed vector.
    feed: usize,
    /// Next unapplied record.
    cursor: usize,
    /// Records sorted (stably) by landing time.
    records: Vec<SourceRecord>,
}

/// Running collection state: the last sealed epoch, the delta applied
/// since, and the cursors that track how much of the event log and the
/// source streams has been applied. All fields are owned — no borrow of
/// the world — so the daemon can hold the state and the world side by
/// side.
pub struct IngestState {
    members: Vec<MemberSpec>,
    fast_ok: Vec<bool>,
    /// The last sealed epoch, outage gaps attached. Readers share it.
    sealed: Arc<FeedSet>,
    /// All ten feeds in [`FeedId::ALL`] order, building, holding only
    /// what was applied since the last seal.
    delta: Vec<Feed>,
    /// Time-sorted event rows already ingested (`0..rows_done`).
    rows_done: usize,
    total_rows: usize,
    watermark: SimTime,
    sources: Vec<SourceStream>,
}

/// Maps a member slot (0..7) to its index in [`FeedId::ALL`] order.
fn member_feed_index(member: &MemberSpec) -> usize {
    member.feed_id().index()
}

/// Ten empty building feeds in [`FeedId::ALL`] order, shaped like the
/// batch pipeline's: content members and Hu count samples, blacklists
/// do not.
fn empty_feeds(members: &[MemberSpec]) -> Vec<Feed> {
    let mut feeds: Vec<Feed> = FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect();
    for member in members {
        feeds[member_feed_index(member)] = member.empty_feed();
    }
    feeds[FeedId::Hu.index()].samples = Some(0);
    feeds
}

impl IngestState {
    /// Validates the configuration and pre-decides every non-event
    /// source, leaving all ten feeds empty and the row cursor at zero.
    pub fn new(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
    ) -> Result<IngestState, PipelineError> {
        config.validate().map_err(PipelineError::InvalidConfig)?;
        plan.profile()
            .validate()
            .map_err(PipelineError::InvalidFaultProfile)?;
        let members: Vec<MemberSpec> = content_members(config).to_vec();

        let mut obs = ShardObs::new(false);
        let mut sources = Vec::new();
        for member in &members {
            let records = crate::engine::member_source_records(world, member, plan, &mut obs);
            sources.push(SourceStream {
                feed: member_feed_index(member),
                cursor: 0,
                records,
            });
        }
        sources.push(SourceStream {
            feed: FeedId::Hu.index(),
            cursor: 0,
            records: hu_source_records(world, plan, &mut obs),
        });
        for (id, cfg) in [(FeedId::Dbl, &config.dbl), (FeedId::Uribl, &config.uribl)] {
            sources.push(SourceStream {
                feed: id.index(),
                cursor: 0,
                records: blacklist_source_records(world, cfg, id, plan, &mut obs),
            });
        }
        for s in &mut sources {
            s.records.sort_by_key(|r| r.time);
        }

        // Outage windows are known up front; every seal carries them
        // forward from this empty base, as the batch pipeline attaches
        // them to its final set.
        let mut base = empty_feeds(&members);
        note_gaps(&mut base, plan);
        Ok(IngestState {
            delta: empty_feeds(&members),
            sealed: Arc::new(FeedSet::new(base)),
            members,
            fast_ok: compute_fast_ok(world),
            rows_done: 0,
            total_rows: world.truth.log.len,
            watermark: SimTime::ZERO,
            sources,
        })
    }

    /// Rebuilds state from checkpoints: `feeds` is everything applied
    /// to the first `rows_done` rows (the epoch deltas of a checkpoint
    /// chain folded with [`Feed::merge`]), in [`FeedId::ALL`] order.
    /// They become the sealed epoch; source cursors are repositioned at
    /// the watermark — presampling is deterministic, so the skipped
    /// prefix is exactly the set of records the restored feeds already
    /// contain.
    pub fn resume(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
        feeds: Vec<Feed>,
        rows_done: usize,
    ) -> Result<IngestState, PipelineError> {
        let mut state = IngestState::new(world, config, plan)?;
        if rows_done > state.total_rows {
            return Err(PipelineError::InvalidScenario(format!(
                "checkpoint claims {rows_done} rows but the log has {}",
                state.total_rows
            )));
        }
        let shape_ok = feeds.len() == FeedId::ALL.len()
            && feeds
                .iter()
                .zip(&state.delta)
                .all(|(f, want)| f.id == want.id && f.reports_volume == want.reports_volume);
        if !shape_ok {
            return Err(PipelineError::InvalidScenario(format!(
                "checkpoint carries {} feeds that do not match the scenario's {}",
                feeds.len(),
                FeedId::ALL.len()
            )));
        }
        state.watermark = watermark_at(world, rows_done)?;
        state.rows_done = rows_done;
        state.sealed = Arc::new(state.sealed.merged(feeds));
        for s in &mut state.sources {
            s.cursor = s.records.partition_point(|r| r.time <= state.watermark);
        }
        Ok(state)
    }

    /// Time-sorted event rows in the log.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Rows already ingested.
    pub fn rows_done(&self) -> usize {
        self.rows_done
    }

    /// True once every event row has been applied.
    pub fn ingest_complete(&self) -> bool {
        self.rows_done == self.total_rows
    }

    /// Sim-time watermark: every event at or before it is ingested.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// The last sealed epoch (empty feeds before the first seal).
    pub fn sealed(&self) -> &FeedSet {
        &self.sealed
    }

    /// What was applied since the last seal: ten building feeds in
    /// [`FeedId::ALL`] order.
    pub fn delta(&self) -> &[Feed] {
        &self.delta
    }

    /// Ingests time-sorted rows `rows_done..target_row` on `par`
    /// workers, then replays every pre-decided source record up to the
    /// new watermark. Returns the number of rows applied; fails only
    /// when the out-of-core spill cannot be read, leaving the state as
    /// it was.
    pub fn advance(
        &mut self,
        world: &MailWorld,
        plan: &FaultPlan,
        par: &Parallelism,
        target_row: usize,
    ) -> Result<usize, PipelineError> {
        let target = target_row.min(self.total_rows);
        if target <= self.rows_done {
            return Ok(0);
        }
        let ctx = RunCtx::build(world, &self.members, plan, self.fast_ok.clone());
        let range = self.rows_done..target;
        // Every row carries its global sorted index, so each keyed
        // decision is the same however the slice is read. The slice
        // lands in the delta only once all of it was read.
        let mut pieces = Vec::new();
        let mut watermark = self.watermark;
        world
            .truth
            .visit_sorted(range.clone(), range.len(), |buf, rows| {
                if let Some(last) = rows.clone().next_back() {
                    watermark = buf.time[last];
                }
                let shards = shard_ranges(rows, par.workers());
                pieces.extend(par.par_map(shards, |rows| run_rows(&ctx, buf, rows, false)));
                Ok::<(), PipelineError>(())
            })?;
        for (shard, _metrics) in pieces {
            for (piece, member) in shard.into_iter().zip(&self.members) {
                self.delta[member_feed_index(member)].merge(piece);
            }
        }
        self.rows_done = target;
        self.watermark = watermark;
        self.replay_sources_to(self.watermark);
        Ok(target - range.start)
    }

    /// Applies every pre-decided source record with `time <= limit`.
    fn replay_sources_to(&mut self, limit: SimTime) {
        let mut obs = ShardObs::new(false);
        for s in &mut self.sources {
            while s.cursor < s.records.len() && s.records[s.cursor].time <= limit {
                apply_source_record(&mut self.delta[s.feed], &s.records[s.cursor], &mut obs);
                s.cursor += 1;
            }
        }
    }

    /// Seals the epoch: sorts the delta once, hands it to `on_delta`,
    /// and merges it into the sealed columns in one linear pass.
    /// Readers keep the previous [`FeedSet`] until they take the new
    /// one. Once every row has been ingested, the source records that
    /// land after the last event are drained into the new epoch too —
    /// *after* `on_delta`, which therefore sees what a checkpoint must
    /// hold: a resume replays those tails itself. The set sealed after
    /// the last row is bit-identical to the batch pipeline's
    /// [`crate::try_collect_all_faulted`].
    pub fn seal_with<R>(&mut self, on_delta: impl FnOnce(&[Feed]) -> R) -> (R, Arc<FeedSet>) {
        let mut delta = std::mem::replace(&mut self.delta, empty_feeds(&self.members));
        for feed in &mut delta {
            feed.seal();
        }
        let out = on_delta(&delta);
        if self.ingest_complete() {
            self.replay_sources_to(SimTime(u64::MAX));
            let tail = std::mem::replace(&mut self.delta, empty_feeds(&self.members));
            for (feed, mut tail) in delta.iter_mut().zip(tail) {
                tail.seal();
                *feed = feed.merged(&tail);
            }
        }
        self.sealed = Arc::new(self.sealed.merged(delta));
        (out, Arc::clone(&self.sealed))
    }
}

/// The sim-time watermark after `rows` time-sorted rows: the time of
/// the last ingested row (or zero before any row).
fn watermark_at(world: &MailWorld, rows: usize) -> Result<SimTime, PipelineError> {
    let mut watermark = SimTime::ZERO;
    if rows > 0 {
        world.truth.visit_sorted(rows - 1..rows, 1, |buf, last| {
            if let Some(r) = last.last() {
                watermark = buf.time[r];
            }
            Ok::<(), PipelineError>(())
        })?;
    }
    Ok(watermark)
}

/// Attaches outage windows as gap markers, as the batch pipeline does.
fn note_gaps(feeds: &mut [Feed], plan: &FaultPlan) {
    if plan.is_off() {
        return;
    }
    for feed in feeds {
        for window in plan.outage_windows(feed.id.label()) {
            feed.note_gap(window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_collect_all_faulted;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::MailConfig;
    use taster_sim::FaultProfile;

    fn world(scale: f64, seed: u64) -> MailWorld {
        let truth = GroundTruth::generate(&EcosystemConfig::default().with_scale(scale), seed)
            .expect("generate");
        MailWorld::build(truth, MailConfig::default().with_scale(scale)).expect("build")
    }

    fn assert_sets_equal(a: &FeedSet, b: &FeedSet) {
        for id in FeedId::ALL {
            let (x, y) = (a.get(id), b.get(id));
            assert_eq!(x.samples, y.samples, "{id} samples");
            assert_eq!(x.unique_domains(), y.unique_domains(), "{id} domains");
            assert_eq!(x.unique_fqdns(), y.unique_fqdns(), "{id} fqdns");
            assert_eq!(x.gaps(), y.gaps(), "{id} gaps");
            for (d, s) in x.iter() {
                assert_eq!(Some(s), y.stats(d), "{id} {d:?}");
            }
        }
    }

    fn seal(state: &mut IngestState) -> Arc<FeedSet> {
        state.seal_with(|_| ()).1
    }

    /// A sealed delta as a checkpoint round trip returns it: building.
    fn unseal(f: &Feed) -> Feed {
        Feed::from_parts(
            f.id,
            f.reports_volume,
            f.samples,
            f.iter(),
            f.fqdn_hashes_sorted().map(|h| h.into_owned()),
            f.gaps().to_vec(),
        )
    }

    #[test]
    fn epoch_ingestion_matches_batch_collection() {
        let w = world(0.02, 67);
        let cfg = FeedsConfig::default();
        for profile in [
            FaultProfile::off(),
            FaultProfile::lossy_feeds(),
            FaultProfile::feed_outage(),
        ] {
            let plan = FaultPlan::new(profile, w.truth.seed);
            let batch =
                try_collect_all_faulted(&w, &cfg, &plan, &Parallelism::serial()).expect("batch");
            let mut state = IngestState::new(&w, &cfg, &plan).expect("state");
            let par = Parallelism::fixed(2);
            // Ragged epochs on purpose, each sealed: boundaries must
            // not matter.
            let total = state.total_rows();
            for target in [total / 7, total / 3, total / 2 + 11, total] {
                state.advance(&w, &plan, &par, target).expect("advance");
                seal(&mut state);
            }
            assert_sets_equal(&batch, state.sealed());
        }
    }

    #[test]
    fn resume_from_restored_feeds_matches_uninterrupted() {
        let w = world(0.02, 67);
        let cfg = FeedsConfig::default();
        let plan = FaultPlan::new(FaultProfile::feed_outage(), w.truth.seed);
        let par = Parallelism::serial();

        let mut full = IngestState::new(&w, &cfg, &plan).expect("state");
        let total = full.total_rows();
        full.advance(&w, &plan, &par, total).expect("advance");
        let uninterrupted = seal(&mut full);

        // "Crash" after 40% of the rows, sealed in two epochs: keep
        // only the epoch deltas and the row counter, as a checkpoint
        // chain would, and fold them.
        let mut first = IngestState::new(&w, &cfg, &plan).expect("state");
        let stop = total * 2 / 5;
        let mut chain: Vec<Vec<Feed>> = Vec::new();
        for target in [stop / 2, stop] {
            first.advance(&w, &plan, &par, target).expect("advance");
            let (delta, _) = first.seal_with(|d| d.iter().map(unseal).collect());
            chain.push(delta);
        }
        let mut epochs = chain.into_iter();
        let mut feeds = epochs.next().expect("first epoch");
        for delta in epochs {
            for (acc, d) in feeds.iter_mut().zip(delta) {
                acc.merge(d);
            }
        }

        let mut resumed = IngestState::resume(&w, &cfg, &plan, feeds, stop).expect("resume");
        resumed.advance(&w, &plan, &par, total).expect("advance");
        let replayed = seal(&mut resumed);
        assert_sets_equal(&uninterrupted, &replayed);
    }
}
