//! The collection driver: every feed is collected by [`IngestState`].
//!
//! The driver ingests the *time-sorted* event rows in slices and seals
//! an epoch after each. `taster serve` seals as it goes, so
//! purity/coverage/timing become sliding-window queries over running
//! columnar state; the batch pipeline ([`crate::try_collect_all_observed`])
//! is the same driver advanced over every row and sealed once. Serve
//! output equals batch output because it is the same code.
//!
//! Two properties of the engine make any slicing safe:
//!
//! * every collection decision is keyed by `(seed, stream, sorted
//!   event index)` — a pure function of the event, not of slice, visit
//!   or shard boundaries — and
//! * [`FeedBuilder::record`] is commutative and associative (min
//!   first-seen, max last-seen, summed volume),
//!
//! so applying each event exactly once, in any partitioning, yields
//! the same [`FeedSet`]. The non-event sources (benign pollution, Hyb's
//! report sample and web-spam corpus, the Hu report stream, blacklist
//! listings) draw from *sequential* RNG streams, so each is
//! pre-decided up front into fault-free records and replayed through a
//! time cursor as the watermark advances. A stream added after rows
//! were ingested is still applied exactly once, by the next advance or
//! by the seal after the last row. This is also what makes crash
//! recovery exact: a restored checkpoint re-presamples the sources
//! (deterministic), repositions the cursors at the watermark, and
//! replays only the remaining rows.
//!
//! A seal costs one epoch, not the whole run. The state keeps the last
//! sealed [`FeedSet`] and a *delta*: ten [`FeedBuilder`]s holding only
//! what was applied since that seal, each worker shard merged in with
//! [`FeedBuilder::merge`]. Sealing sorts the delta into ten sealed
//! [`Feed`]s, which are exactly what a serve checkpoint stores, and
//! merges them into the sealed columns in one linear pass
//! ([`Feed::merged`]). That merge is the only epoch fold: the source
//! tails of the last epoch and a resumed checkpoint chain go through it
//! too.

use crate::collectors::blacklist::blacklist_source_records;
use crate::collectors::hu::hu_source_records;
use crate::config::{FeedsConfig, DEFAULT_CHUNK_SIZE};
use crate::engine::{
    apply_source_record, member_source_records, run_rows, shard_ranges, MemberSpec, RunCtx,
    ShardObs, SourceRecord,
};
use crate::error::PipelineError;
use crate::feed::{Feed, FeedBuilder, FeedSet};
use crate::id::FeedId;
use crate::pipeline::content_members;
use std::sync::Arc;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Parallelism, SimTime};

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
/// the world or of the observability handle — so the daemon can hold
/// the state and the world side by side.
pub struct IngestState {
    members: Vec<MemberSpec>,
    /// Most rows one out-of-core visit decodes.
    chunk_size: usize,
    /// The last sealed epoch, outage gaps attached. Readers share it.
    sealed: Arc<FeedSet>,
    /// All ten feeds in [`FeedId::ALL`] order, holding only what was
    /// applied since the last seal.
    delta: Vec<FeedBuilder>,
    /// Time-sorted event rows already ingested (`0..rows_done`).
    rows_done: usize,
    total_rows: usize,
    watermark: SimTime,
    sources: Vec<SourceStream>,
}

/// Ten empty builders in [`FeedId::ALL`] order: content members and
/// Hu count samples, blacklists do not.
fn empty_feeds(members: &[MemberSpec]) -> Vec<FeedBuilder> {
    let mut feeds: Vec<FeedBuilder> = FeedId::ALL
        .iter()
        .map(|&id| FeedBuilder::new(id, false))
        .collect();
    for member in members {
        feeds[member.feed_id().index()] = member.empty_feed();
    }
    feeds[FeedId::Hu.index()].samples = Some(0);
    feeds
}

impl IngestState {
    /// Validates the configuration and pre-decides every non-event
    /// source of all ten feeds, leaving the feeds empty and the row
    /// cursor at zero. Source-record counters land in `obs`.
    pub fn new(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
        obs: &Obs,
    ) -> Result<IngestState, PipelineError> {
        let mut state = IngestState::content(world, config, plan, obs)?;
        state.add_hu(world, plan, obs);
        state.add_blacklists(world, config, plan, obs);
        Ok(state)
    }

    /// The seven content collectors with their own non-event sources;
    /// [`IngestState::new`] adds the Hu and blacklist streams.
    pub(crate) fn content(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
        obs: &Obs,
    ) -> Result<IngestState, PipelineError> {
        config.validate().map_err(PipelineError::InvalidConfig)?;
        plan.profile()
            .validate()
            .map_err(PipelineError::InvalidFaultProfile)?;
        let members = content_members(config).to_vec();
        Ok(IngestState::with_members(
            world,
            members,
            config.chunk_size,
            plan,
            obs,
        ))
    }

    /// A driver over `members` alone (any roster, including one
    /// member), their non-event sources pre-decided.
    pub(crate) fn with_members(
        world: &MailWorld,
        members: Vec<MemberSpec>,
        chunk_size: usize,
        plan: &FaultPlan,
        obs: &Obs,
    ) -> IngestState {
        // Outage windows are known up front; every seal carries them
        // forward from this empty base.
        let mut base = empty_feeds(&members);
        if !plan.is_off() {
            for feed in &mut base {
                for window in plan.outage_windows(feed.id.label()) {
                    feed.note_gap(window);
                }
            }
        }
        let mut local = ShardObs::new(obs.metrics.is_on());
        let streams: Vec<(FeedId, Vec<SourceRecord>)> = members
            .iter()
            .map(|m| {
                (
                    m.feed_id(),
                    member_source_records(world, m, plan, &mut local),
                )
            })
            .collect();
        obs.metrics.absorb(&local.into_shard());
        let mut state = IngestState {
            delta: empty_feeds(&members),
            sealed: Arc::new(FeedSet::new(
                base.into_iter().map(FeedBuilder::seal).collect(),
            )),
            members,
            chunk_size: chunk_size.max(1),
            rows_done: 0,
            total_rows: world.truth.log.len,
            watermark: SimTime::ZERO,
            sources: Vec::new(),
        };
        for (id, records) in streams {
            state.add_source(id, records);
        }
        state
    }

    /// Adds the Hu feed's report stream.
    pub(crate) fn add_hu(&mut self, world: &MailWorld, plan: &FaultPlan, obs: &Obs) {
        let mut local = ShardObs::new(obs.metrics.is_on());
        let records = hu_source_records(world, plan, &mut local);
        obs.metrics.absorb(&local.into_shard());
        self.add_source(FeedId::Hu, records);
    }

    /// Adds the two blacklists' listing streams.
    pub(crate) fn add_blacklists(
        &mut self,
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
        obs: &Obs,
    ) {
        for (id, cfg) in [(FeedId::Dbl, &config.dbl), (FeedId::Uribl, &config.uribl)] {
            let mut local = ShardObs::new(obs.metrics.is_on());
            let records = blacklist_source_records(world, cfg, id, plan, &mut local);
            obs.metrics.absorb(&local.into_shard());
            self.add_source(id, records);
        }
    }

    /// Queues one pre-decided stream for `feed`, sorted by landing
    /// time, from its first record.
    fn add_source(&mut self, feed: FeedId, mut records: Vec<SourceRecord>) {
        records.sort_by_key(|r| r.time);
        self.sources.push(SourceStream {
            feed: feed.index(),
            cursor: 0,
            records,
        });
    }

    /// Rebuilds state from checkpoints: `feeds` is everything applied
    /// to the first `rows_done` rows (the sealed epoch deltas of a
    /// checkpoint chain folded with [`Feed::merged`]), in
    /// [`FeedId::ALL`] order. They are merged into the empty sealed
    /// epoch the same way; source cursors are repositioned at the
    /// watermark — presampling is deterministic, so the skipped prefix
    /// is exactly the set of records the restored feeds already
    /// contain.
    pub fn resume(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
        feeds: Vec<Feed>,
        rows_done: usize,
        obs: &Obs,
    ) -> Result<IngestState, PipelineError> {
        let mut state = IngestState::new(world, config, plan, obs)?;
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

    /// What was applied since the last seal: ten builders in
    /// [`FeedId::ALL`] order.
    pub fn delta(&self) -> &[FeedBuilder] {
        &self.delta
    }

    /// Ingests time-sorted rows `rows_done..target_row` on `par`
    /// workers, then replays every pre-decided source record up to the
    /// new watermark. Out of core each visit decodes at most
    /// [`FeedsConfig::chunk_size`] rows and lands in the delta before
    /// the next is read. Worker metric shards reach `obs` in (visit,
    /// shard) order. Returns the number of rows applied; fails only
    /// when the out-of-core spill cannot be read, keeping the rows
    /// read before the failure.
    pub fn advance(
        &mut self,
        world: &MailWorld,
        plan: &FaultPlan,
        par: &Parallelism,
        target_row: usize,
        obs: &Obs,
    ) -> Result<usize, PipelineError> {
        let target = target_row.min(self.total_rows);
        if target <= self.rows_done {
            return Ok(0);
        }
        let start = self.rows_done;
        let metrics_on = obs.metrics.is_on();
        let ctx = RunCtx::build(world, &self.members, plan);
        // Each buffer knows the global sorted index of its rows, so
        // each keyed decision is the same however the rows split into
        // visits and shards.
        world
            .truth
            .visit_sorted(start..target, self.chunk_size, |buf, rows| {
                let Some(last) = rows.clone().next_back() else {
                    return Ok(());
                };
                let shards = shard_ranges(rows.clone(), par.workers());
                let results = par.par_map(shards, |range| run_rows(&ctx, buf, range, metrics_on));
                let mut metrics = Vec::with_capacity(results.len());
                for (feeds, shard_metrics) in results {
                    for (piece, member) in feeds.into_iter().zip(&self.members) {
                        self.delta[member.feed_id().index()].merge(piece);
                    }
                    metrics.push(shard_metrics);
                }
                obs.metrics.absorb_in_order(&metrics);
                self.rows_done += rows.len();
                self.watermark = buf.time[last];
                Ok::<(), PipelineError>(())
            })?;
        self.replay_sources_to(self.watermark, obs);
        Ok(target - start)
    }

    /// Applies every pre-decided source record with `time <= limit`.
    fn replay_sources_to(&mut self, limit: SimTime, obs: &Obs) {
        let mut local = ShardObs::new(obs.metrics.is_on());
        for s in &mut self.sources {
            let due = s.records[s.cursor..].partition_point(|r| r.time <= limit);
            for rec in &s.records[s.cursor..s.cursor + due] {
                apply_source_record(&mut self.delta[s.feed], rec, &mut local);
            }
            s.cursor += due;
        }
        obs.metrics.absorb(&local.into_shard());
    }

    /// The delta, sealed, with a fresh empty one in its place.
    fn take_delta(&mut self) -> Vec<Feed> {
        std::mem::replace(&mut self.delta, empty_feeds(&self.members))
            .into_iter()
            .map(FeedBuilder::seal)
            .collect()
    }

    /// Applies every source record not applied yet, then frees them
    /// all: once the last row is in, no advance needs one again. Returns
    /// whether any record was applied.
    fn drain_sources(&mut self, obs: &Obs) -> bool {
        let tails_left = self.sources.iter().any(|s| s.cursor < s.records.len());
        self.replay_sources_to(SimTime(u64::MAX), obs);
        self.sources = Vec::new();
        tails_left
    }

    /// Seals the epoch: sorts the delta once, hands it to `on_delta`,
    /// and merges it into the sealed columns in one linear pass.
    /// Readers keep the previous [`FeedSet`] until they take the new
    /// one. Once every row has been ingested, the source records that
    /// land after the last event are drained into the new epoch too —
    /// *after* `on_delta`, which therefore sees what a checkpoint must
    /// hold: a resume replays those tails itself.
    pub fn seal_with<R>(
        &mut self,
        obs: &Obs,
        on_delta: impl FnOnce(&[Feed]) -> R,
    ) -> (R, Arc<FeedSet>) {
        let mut delta = self.take_delta();
        let out = on_delta(&delta);
        if self.ingest_complete() && self.drain_sources(obs) {
            for (feed, tail) in delta.iter_mut().zip(self.take_delta()) {
                *feed = feed.merged(tail);
            }
        }
        self.sealed = Arc::new(self.sealed.merged(delta));
        (out, Arc::clone(&self.sealed))
    }

    /// Lends the sealed set to `f` by value, keeps the set `f` hands
    /// back as the sealed one, and returns `f`'s result with a handle
    /// to it. The set moves without a copy when the state holds the
    /// only handle ([`Arc::unwrap_or_clone`]); an empty set stands in
    /// while `f` runs.
    pub fn lend_sealed<R>(&mut self, f: impl FnOnce(FeedSet) -> (FeedSet, R)) -> (R, Arc<FeedSet>) {
        let stand_in = empty_feeds(&self.members)
            .into_iter()
            .map(FeedBuilder::seal);
        let lent = std::mem::replace(&mut self.sealed, Arc::new(FeedSet::new(stand_in.collect())));
        let (feeds, out) = f(Arc::unwrap_or_clone(lent));
        self.sealed = Arc::new(feeds);
        (out, Arc::clone(&self.sealed))
    }

    /// Seals a run whose rows are all ingested, once, and returns the
    /// final set. No checkpoint needs the delta without its tails, so
    /// they drain straight into it, before the seal sorts, and the seal
    /// copies no feed.
    pub(crate) fn finish(mut self, obs: &Obs) -> FeedSet {
        debug_assert!(self.ingest_complete(), "finish before the last row");
        self.drain_sources(obs);
        self.seal_with(obs, |_| ());
        Arc::unwrap_or_clone(self.sealed)
    }
}

/// Collects one content member alone, fault-free and serially, through
/// the driver with a one-member roster: the body of the single-feed
/// wrappers ([`crate::collectors`]). Per-event RNG streams make the
/// feed bit-identical to its slot in [`crate::collect_all`]. Fails only
/// when the out-of-core spill cannot be read.
pub(crate) fn collect_one(world: &MailWorld, member: MemberSpec) -> Result<Feed, PipelineError> {
    let (plan, obs) = (FaultPlan::off(world.truth.seed), Obs::off());
    let id = member.feed_id();
    let mut state = IngestState::with_members(world, vec![member], DEFAULT_CHUNK_SIZE, &plan, &obs);
    let total = state.total_rows();
    state.advance(world, &plan, &Parallelism::serial(), total, &obs)?;
    Ok(state.finish(&obs).get(id).clone())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_collect_all_observed;
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
        state.seal_with(&Obs::off(), |_| ()).1
    }

    #[test]
    fn epoch_ingestion_matches_batch_collection() {
        let w = world(0.02, 67);
        let cfg = FeedsConfig::default();
        let obs = Obs::off();
        for profile in [
            FaultProfile::off(),
            FaultProfile::lossy_feeds(),
            FaultProfile::feed_outage(),
        ] {
            let plan = FaultPlan::new(profile, w.truth.seed);
            let batch = try_collect_all_observed(&w, &cfg, &plan, &Parallelism::serial(), &obs)
                .expect("batch");
            let mut state = IngestState::new(&w, &cfg, &plan, &obs).expect("state");
            let par = Parallelism::fixed(2);
            // Ragged epochs on purpose, each sealed: boundaries must
            // not matter.
            let total = state.total_rows();
            for target in [total / 7, total / 3, total / 2 + 11, total] {
                state
                    .advance(&w, &plan, &par, target, &obs)
                    .expect("advance");
                seal(&mut state);
            }
            assert_sets_equal(&batch, state.sealed());
        }
    }

    #[test]
    fn a_stream_added_after_rows_is_applied_exactly_once() {
        let w = world(0.02, 67);
        let cfg = FeedsConfig::default();
        let plan = FaultPlan::new(FaultProfile::lossy_feeds(), w.truth.seed);
        let (obs, par) = (Obs::off(), Parallelism::serial());
        let mut early = IngestState::new(&w, &cfg, &plan, &obs).expect("state");
        let total = early.total_rows();
        early
            .advance(&w, &plan, &par, total, &obs)
            .expect("advance");
        let early = early.finish(&obs);
        // Hu and the blacklists join half-way (caught up by the next
        // advance) or after the last row (applied by the seal).
        for join_at in [total / 2, total] {
            let mut late = IngestState::content(&w, &cfg, &plan, &obs).expect("state");
            late.advance(&w, &plan, &par, join_at, &obs)
                .expect("advance");
            late.add_hu(&w, &plan, &obs);
            late.add_blacklists(&w, &cfg, &plan, &obs);
            late.advance(&w, &plan, &par, total, &obs).expect("advance");
            assert_sets_equal(&early, &late.finish(&obs));
        }
    }

    #[test]
    fn sealing_the_last_epoch_frees_every_source_record() {
        let w = world(0.02, 67);
        let cfg = FeedsConfig::default();
        let plan = FaultPlan::off(w.truth.seed);
        let (obs, par) = (Obs::off(), Parallelism::serial());
        let batch = try_collect_all_observed(&w, &cfg, &plan, &par, &obs).expect("batch");
        let mut state = IngestState::new(&w, &cfg, &plan, &obs).expect("state");
        let total = state.total_rows();
        state
            .advance(&w, &plan, &par, total / 2, &obs)
            .expect("advance");
        seal(&mut state);
        assert!(state.sources.iter().any(|s| !s.records.is_empty()));
        state
            .advance(&w, &plan, &par, total, &obs)
            .expect("advance");
        let sealed = seal(&mut state);
        let left: usize = state.sources.iter().map(|s| s.records.len()).sum();
        assert_eq!(left, 0, "source records kept after the last epoch");
        assert_sets_equal(&batch, &sealed);
    }

    #[test]
    fn resume_from_restored_feeds_matches_uninterrupted() {
        let w = world(0.02, 67);
        let cfg = FeedsConfig::default();
        let plan = FaultPlan::new(FaultProfile::feed_outage(), w.truth.seed);
        let (obs, par) = (Obs::off(), Parallelism::serial());

        let mut full = IngestState::new(&w, &cfg, &plan, &obs).expect("state");
        let total = full.total_rows();
        full.advance(&w, &plan, &par, total, &obs).expect("advance");
        let uninterrupted = seal(&mut full);

        // "Crash" after 40% of the rows, sealed in two epochs: keep
        // only the sealed epoch deltas and the row counter, as a
        // checkpoint chain would, and fold them as a resume does.
        let mut first = IngestState::new(&w, &cfg, &plan, &obs).expect("state");
        let stop = total * 2 / 5;
        let mut chain: Vec<Vec<Feed>> = Vec::new();
        for target in [stop / 2, stop] {
            first
                .advance(&w, &plan, &par, target, &obs)
                .expect("advance");
            let (delta, _) = first.seal_with(&obs, <[Feed]>::to_vec);
            chain.push(delta);
        }
        let mut epochs = chain.into_iter();
        let mut feeds = epochs.next().expect("first epoch");
        for delta in epochs {
            feeds = feeds.iter().zip(delta).map(|(f, d)| f.merged(d)).collect();
        }

        let mut resumed = IngestState::resume(&w, &cfg, &plan, feeds, stop, &obs).expect("resume");
        resumed
            .advance(&w, &plan, &par, total, &obs)
            .expect("advance");
        let replayed = seal(&mut resumed);
        assert_sets_equal(&uninterrupted, &replayed);
    }
}
