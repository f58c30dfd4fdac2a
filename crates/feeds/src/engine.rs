//! The per-event kernel of the content collectors.
//!
//! Seven of the ten feeds (mx1–3, Ac1–2, Bot, Hyb's trap/harvest
//! sources) are *content* collectors: they walk the delivery event
//! stream, decide per event whether they captured the copy, and reduce
//! the message content to registered domains. Run naively that is
//! seven full passes over a materialised log, each rendering its own
//! copy of every captured message. [`run_rows`] instead fuses them:
//! one pass over a range of time-sorted rows serves every member, and
//! the collection driver ([`crate::IngestState`]) feeds it one visit of
//! the log at a time, split into one contiguous row range per worker.
//!
//! * **Per-event RNG streams keyed by sorted index.** Each member's
//!   capture decision for the event at time-sorted position *i* draws
//!   from a stream derived from `(seed, member name, i)` — a pure
//!   function of the event, not of how many draws earlier events
//!   consumed, which visit the event landed in, or how the visit was
//!   sharded. Feeds stay mutually independent, and the output is
//!   *bit-identical at any chunk size and worker count*.
//! * **Shard-and-merge parallelism.** Shard feeds merge with
//!   [`Feed::merge`], which is commutative and associative.
//! * **Render-free records.** A rendered body only ever contributes
//!   the advertised and chaff registered domains back to a feed, and
//!   every generated domain is its own registered domain under any
//!   renderer subdomain ([`DomainExtractor::fast_reducible`]). So the
//!   kernel replays just the renderer's URL-subdomain draws
//!   ([`replay_spam_url_hosts`]) and computes the record list and FQDN
//!   hashes directly. Only a truncation fault renders the body; either
//!   way every member sees the same copy, drawn from the same per-event
//!   render stream.
//!
//! The non-event sources (benign pollution, Hyb's report sample and
//! web-spam corpus) are pre-decided here as [`SourceRecord`]s, which
//! the driver replays by time.

use crate::config::{AcConfig, BotConfig, HybConfig, MxConfig};
use crate::feed::Feed;
use crate::id::FeedId;
use crate::parse::{fnv64_parts, DomainExtractor};
use rand::RngExt;
use std::ops::Range;
use taster_domain::DomainId;
use taster_ecosystem::buffer::EventBuffer;
use taster_ecosystem::campaign::{DeliveryVector, TargetClass};
use taster_mailsim::benign::BenignDest;
use taster_mailsim::render::{render_spam_into, replay_spam_url_hosts, SUBDOMAINS};
use taster_mailsim::MailWorld;
use taster_sim::fault::{truncate_payload, FaultPlan, RecordFault};
use taster_sim::metrics::{Histogram, MetricsShard};
use taster_sim::rng::name_key;
use taster_sim::{RngStream, SimTime, TimeWindow};

/// Stream name for the shared per-event message render.
const RENDER_STREAM: &str = "feeds/render-spam";

/// Bucket edges for the domains-per-captured-record histogram.
const DOMAINS_PER_RECORD_BOUNDS: [u64; 6] = [0, 1, 2, 5, 10, 20];

/// One content collector participating in the fused pass.
#[derive(Debug, Clone)]
pub(crate) enum MemberSpec {
    /// MX honeypot `index` (0 = mx1, 1 = mx2, 2 = mx3).
    Mx { config: MxConfig, index: u8 },
    /// Honey-account feed `index` (0 = Ac1, 1 = Ac2).
    Ac { config: AcConfig, index: u8 },
    /// The botnet monitor.
    Bot { config: BotConfig },
    /// The hybrid feed's event-driven sources (trap + harvest).
    Hyb { config: HybConfig },
}

impl MemberSpec {
    pub(crate) fn feed_id(&self) -> FeedId {
        match self {
            MemberSpec::Mx { index, .. } => {
                [FeedId::Mx1, FeedId::Mx2, FeedId::Mx3][*index as usize]
            }
            MemberSpec::Ac { index, .. } => [FeedId::Ac1, FeedId::Ac2][*index as usize],
            MemberSpec::Bot { .. } => FeedId::Bot,
            MemberSpec::Hyb { .. } => FeedId::Hyb,
        }
    }

    fn stream_name(&self) -> String {
        match self {
            MemberSpec::Mx { index, .. } => format!("feeds/mx{}", index + 1),
            MemberSpec::Ac { index, .. } => format!("feeds/ac{}", index + 1),
            MemberSpec::Bot { .. } => "feeds/bot".to_string(),
            MemberSpec::Hyb { .. } => "feeds/hyb".to_string(),
        }
    }

    fn reports_volume(&self) -> bool {
        !matches!(self, MemberSpec::Hyb { .. })
    }

    pub(crate) fn empty_feed(&self) -> Feed {
        let mut feed = Feed::new(self.feed_id(), self.reports_volume());
        feed.samples = Some(0);
        feed
    }
}

/// Read-only per-run context shared by every chunk and shard.
pub(crate) struct RunCtx<'w> {
    world: &'w MailWorld,
    members: &'w [MemberSpec],
    plan: &'w FaultPlan,
    seed: u64,
    outages: Vec<Vec<TimeWindow>>,
    faults_on: bool,
    /// Whether any record-fault rate is non-zero: outage-only profiles
    /// skip the per-record fault decision entirely.
    record_faults_on: bool,
    /// Per-member stream-name keys ([`name_key`]) for per-event child
    /// derivation without re-hashing the name.
    keys: Vec<u64>,
    /// Per-member precomputed [`FaultPlan::fault_key`]s.
    fault_keys: Vec<u64>,
    render_key: u64,
    monitored: Vec<bool>,
    extractor: DomainExtractor,
}

impl<'w> RunCtx<'w> {
    /// Builds the shared per-run context.
    pub(crate) fn build(
        world: &'w MailWorld,
        members: &'w [MemberSpec],
        plan: &'w FaultPlan,
    ) -> RunCtx<'w> {
        let truth = &world.truth;
        RunCtx {
            world,
            members,
            plan,
            seed: truth.seed,
            outages: members
                .iter()
                .map(|m| plan.outage_windows(m.feed_id().label()))
                .collect(),
            faults_on: !plan.is_off(),
            record_faults_on: plan.record_faults_possible(),
            keys: members.iter().map(|m| name_key(&m.stream_name())).collect(),
            fault_keys: members
                .iter()
                .map(|m| FaultPlan::fault_key(m.feed_id().label()))
                .collect(),
            render_key: name_key(RENDER_STREAM),
            monitored: truth.botnets.iter().map(|b| b.monitored).collect(),
            extractor: DomainExtractor::new(),
        }
    }
}

/// Shard-local observability accumulator: plain integers on the hot
/// path, converted to a [`MetricsShard`] once per shard. When `on` is
/// false every method is branch-and-return, so the unobserved pipeline
/// pays (almost) nothing.
pub(crate) struct ShardObs {
    pub(crate) on: bool,
    pub(crate) events: u64,
    pub(crate) renders: u64,
    pub(crate) captured: u64,
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
    pub(crate) truncated: u64,
    pub(crate) outage_skips: u64,
    pub(crate) snapshot_dropped: u64,
    pub(crate) domains_hist: Histogram,
}

impl ShardObs {
    pub(crate) fn new(on: bool) -> ShardObs {
        ShardObs {
            on,
            events: 0,
            renders: 0,
            captured: 0,
            dropped: 0,
            duplicated: 0,
            truncated: 0,
            outage_skips: 0,
            snapshot_dropped: 0,
            domains_hist: Histogram::new(&DOMAINS_PER_RECORD_BOUNDS),
        }
    }

    pub(crate) fn record_fault(&mut self, fault: RecordFault) {
        if !self.on {
            return;
        }
        match fault {
            RecordFault::Deliver => {}
            RecordFault::Drop => self.dropped += 1,
            RecordFault::Duplicate => self.duplicated += 1,
            RecordFault::Truncate => self.truncated += 1,
        }
    }

    pub(crate) fn record_domains(&mut self, n: u64) {
        if self.on {
            self.captured += 1;
            self.domains_hist.observe(n);
        }
    }

    pub(crate) fn into_shard(self) -> MetricsShard {
        let mut shard = MetricsShard::new();
        if !self.on {
            return shard;
        }
        shard.add("collect/events", self.events);
        shard.add("collect/renders", self.renders);
        shard.add("collect/records", self.captured);
        shard.add("collect/fault/dropped", self.dropped);
        shard.add("collect/fault/duplicated", self.duplicated);
        shard.add("collect/fault/truncated", self.truncated);
        shard.add("collect/outage_skips", self.outage_skips);
        shard.add("collect/fault/snapshot_dropped", self.snapshot_dropped);
        if self.domains_hist.total() > 0 {
            shard.merge_histogram("collect/domains_per_record", &self.domains_hist);
        }
        shard
    }
}

/// Splits `rows` into up to `parts` contiguous ranges of near-equal
/// size. The split only affects scheduling: shard outputs merge to the
/// same feeds wherever the boundaries fall.
pub(crate) fn shard_ranges(rows: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    let n = rows.len();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut start = rows.start;
    (0..parts)
        .map(|i| {
            let len = base + usize::from(i < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// An MX honeypot stores each message body without its terminating
/// newline, so that is the payload its collector parses.
fn mx_stored(body: &str) -> &str {
    debug_assert!(body.ends_with('\n'));
    &body[..body.len().saturating_sub(1)]
}

pub(crate) fn run_rows(
    ctx: &RunCtx<'_>,
    buf: &EventBuffer,
    rows: Range<usize>,
    metrics_on: bool,
) -> (Vec<Feed>, MetricsShard) {
    let mut shard_obs = ShardObs::new(metrics_on);
    shard_obs.events = rows.len() as u64;
    let truth = &ctx.world.truth;

    let mut feeds: Vec<Feed> = ctx.members.iter().map(MemberSpec::empty_feed).collect();

    // Buffers reused across every row in the shard.
    let mut body = String::with_capacity(512);
    let mut truncated_scratch: Vec<(DomainId, u64)> = Vec::new();
    let mut fast_records: Vec<(DomainId, u64)> = Vec::new();

    for r in rows {
        // The time-sorted index: the key of every per-event stream.
        let i = buf.sorted_idx[r] as u64;
        let time = buf.time[r];
        let advertised = DomainId(buf.advertised[r]);
        let chaff = buf.chaff(r);
        let target = buf.target[r];
        let delivery = buf.delivery[r];
        let campaign = &truth.campaigns[buf.campaign[r] as usize];

        let chaff_distinct = chaff.is_some_and(|c| c != advertised);
        // Per-event lazily-derived state, shared across members.
        let mut render_counted = false;
        let mut body_ready = false;
        let mut fast_ready = false;

        for (m, member) in ctx.members.iter().enumerate() {
            // A collector that is down records nothing. Checked before
            // any stream is derived: per-event child streams mean the
            // skip cannot perturb other events' draws.
            if ctx.faults_on && ctx.outages[m].iter().any(|w| w.contains(time)) {
                if shard_obs.on {
                    shard_obs.outage_skips += 1;
                }
                continue;
            }
            // Cheap structural filter first, against the chunk's
            // columns; the RNG stream is only derived for eligible
            // (member, event) pairs.
            let capture_prob = match member {
                MemberSpec::Mx { config, index } => {
                    if target != TargetClass::BruteForce {
                        continue;
                    }
                    if campaign.brute_mask & (1u8 << index) == 0 {
                        continue;
                    }
                    config.capture_prob
                }
                MemberSpec::Ac { config, .. } => {
                    let TargetClass::Harvested(vector) = target else {
                        continue;
                    };
                    if config.vector_mask & (1 << vector) == 0 {
                        continue;
                    }
                    config.capture_prob
                }
                MemberSpec::Bot { config } => {
                    let DeliveryVector::Botnet(b) = delivery else {
                        continue;
                    };
                    if !ctx.monitored.get(b.index()).copied().unwrap_or(false) {
                        continue;
                    }
                    config.capture_prob
                }
                MemberSpec::Hyb { config } => match target {
                    // The Hyb trap's addresses only ever leaked into
                    // the older direct-spammer lists, so it misses the
                    // botnet blasts — part of why Hyb's mail-volume
                    // coverage is so poor despite its domain breadth
                    // (§4.2.2).
                    TargetClass::BruteForce if matches!(delivery, DeliveryVector::Direct) => {
                        config.trap_prob
                    }
                    TargetClass::Harvested(v) if v == config.harvest_vector => config.harvest_prob,
                    _ => continue,
                },
            };
            let mut rng = RngStream::child_keyed(ctx.seed, ctx.keys[m], i);
            if !rng.random_bool(capture_prob) {
                continue;
            }

            // Fault disposition for the captured record, keyed by
            // (seed, feed label, sorted event index). A dropped record
            // is lost before the collector logs anything.
            let fault = if ctx.record_faults_on {
                ctx.plan.record_fault_keyed(ctx.fault_keys[m], i)
            } else {
                RecordFault::Deliver
            };
            shard_obs.record_fault(fault);
            if fault == RecordFault::Drop {
                continue;
            }
            let copies = if fault == RecordFault::Duplicate {
                2
            } else {
                1
            };

            // `collect/renders` counts events whose content reached at
            // least one member, though text is only produced for a
            // truncated copy.
            if shard_obs.on && !render_counted {
                shard_obs.renders += 1;
            }
            render_counted = true;

            // The record list this member parses out of the copy. Its
            // content is a pure function of (seed, event, fault): the
            // replayed records equal a real render's extraction
            // (asserted in debug builds), and only a truncated copy
            // is rendered and parsed.
            let records: &[(DomainId, u64)] = if fault == RecordFault::Truncate {
                if !body_ready {
                    let mut render_rng = RngStream::child_keyed(ctx.seed, ctx.render_key, i);
                    render_spam_into(&mut body, truth, advertised, chaff, time, &mut render_rng);
                    body_ready = true;
                }
                // Parse the surviving half of the payload this
                // member's collector stored.
                let payload = if matches!(member, MemberSpec::Mx { .. }) {
                    mx_stored(&body)
                } else {
                    &body
                };
                truncated_scratch.clear();
                ctx.extractor.registered_domains_into(
                    truncate_payload(payload),
                    &truth.universe.table,
                    &mut truncated_scratch,
                );
                &truncated_scratch
            } else {
                if !fast_ready {
                    let mut render_rng = RngStream::child_keyed(ctx.seed, ctx.render_key, i);
                    let (adv_sub, chaff_sub) =
                        replay_spam_url_hosts(&mut render_rng, chaff_distinct);
                    fast_records.clear();
                    let adv_text = truth.universe.table.text(advertised);
                    fast_records.push((
                        advertised,
                        fnv64_parts(&[SUBDOMAINS[adv_sub].as_bytes(), adv_text.as_bytes()]),
                    ));
                    if let (Some(c), Some(cs)) = (chaff, chaff_sub) {
                        let chaff_text = truth.universe.table.text(c);
                        fast_records.push((
                            c,
                            fnv64_parts(&[SUBDOMAINS[cs].as_bytes(), chaff_text.as_bytes()]),
                        ));
                    }
                    fast_ready = true;
                    #[cfg(debug_assertions)]
                    {
                        // The reference check: the replayed records
                        // equal a real render + extraction, for both
                        // payload forms.
                        let mut dbg_body = String::new();
                        let mut dbg_rng = RngStream::child_keyed(ctx.seed, ctx.render_key, i);
                        render_spam_into(
                            &mut dbg_body,
                            truth,
                            advertised,
                            chaff,
                            time,
                            &mut dbg_rng,
                        );
                        let mut dbg_records = Vec::new();
                        ctx.extractor.registered_domains_into(
                            &dbg_body,
                            &truth.universe.table,
                            &mut dbg_records,
                        );
                        debug_assert_eq!(
                            dbg_records, fast_records,
                            "replayed records vs full body"
                        );
                        dbg_records.clear();
                        ctx.extractor.registered_domains_into(
                            mx_stored(&dbg_body),
                            &truth.universe.table,
                            &mut dbg_records,
                        );
                        debug_assert_eq!(
                            dbg_records, fast_records,
                            "replayed records vs MX payload"
                        );
                    }
                }
                &fast_records
            };

            let feed = &mut feeds[m];
            for _ in 0..copies {
                feed.count_sample();
                for &(d, host) in records {
                    feed.record(d, time);
                    feed.note_fqdn(host);
                }
                shard_obs.record_domains(records.len() as u64);
            }
        }
    }
    (feeds, shard_obs.into_shard())
}

/// One pre-decided record from a non-event source (benign pollution,
/// Hyb's report sample and web-spam corpus; the Hu report stream and
/// blacklist listings reuse the same shape). Every fault decision has
/// already been taken — applying a `SourceRecord` draws no randomness
/// — so the driver's time cursor can split a stream's application
/// anywhere and produce the same feed.
#[derive(Debug, Clone)]
pub(crate) struct SourceRecord {
    /// When the record lands in the feed.
    pub(crate) time: SimTime,
    /// 1, or 2 for a duplicated record. Dropped records are never
    /// emitted (their metrics are counted at generation time).
    pub(crate) copies: u8,
    /// Whether each copy counts as a raw sample (false for blacklist
    /// listings, which deliver no samples).
    pub(crate) counts_sample: bool,
    /// Registered domains the record contributes (post-truncation).
    pub(crate) domains: Vec<DomainId>,
}

/// Applies one pre-decided source record to a building feed.
pub(crate) fn apply_source_record(feed: &mut Feed, rec: &SourceRecord, obs: &mut ShardObs) {
    for _ in 0..rec.copies {
        if rec.counts_sample {
            feed.count_sample();
        }
        for &d in &rec.domains {
            feed.record(d, rec.time);
        }
        obs.record_domains(rec.domains.len() as u64);
    }
}

/// Pre-decides a member's non-event sources: every RNG draw and fault
/// decision happens here, in one fixed serial order, so the emitted
/// records are a pure function of
/// `(world, member, plan)` — identical however the driver's time
/// cursor later splits their application.
pub(crate) fn member_source_records(
    world: &MailWorld,
    member: &MemberSpec,
    plan: &FaultPlan,
    local: &mut ShardObs,
) -> Vec<SourceRecord> {
    let mut out = Vec::new();
    let faults_on = !plan.is_off();
    let label = member.feed_id().label();
    let down = |t| faults_on && plan.outage_at(label, t);
    match member {
        MemberSpec::Mx { index, .. } => {
            // Legitimate pollution addressed to this honeypot.
            for mail in &world.benign_mail {
                if mail.dest == BenignDest::MxHoneypot(*index) && !down(mail.time) {
                    out.push(SourceRecord {
                        time: mail.time,
                        copies: 1,
                        counts_sample: true,
                        domains: mail.domains.clone(),
                    });
                }
            }
        }
        MemberSpec::Ac { index, .. } => {
            for mail in &world.benign_mail {
                if mail.dest == BenignDest::HoneyAccounts(*index) && !down(mail.time) {
                    out.push(SourceRecord {
                        time: mail.time,
                        copies: 1,
                        counts_sample: true,
                        domains: mail.domains.clone(),
                    });
                }
            }
        }
        MemberSpec::Bot { .. } => {}
        MemberSpec::Hyb { config } => {
            let seed = world.truth.seed;
            let record_faults_on = plan.record_faults_possible();
            // Partner sample of user reports.
            let reports_key = FaultPlan::fault_key("Hyb/reports");
            let mut rng = RngStream::new(seed, "feeds/hyb/reports");
            for (idx, report) in world.provider.reports.iter().enumerate() {
                if !rng.random_bool(config.report_sample_prob) || down(report.time) {
                    continue;
                }
                let fault = if record_faults_on {
                    plan.record_fault_keyed(reports_key, idx as u64)
                } else {
                    RecordFault::Deliver
                };
                local.record_fault(fault);
                if fault == RecordFault::Drop {
                    continue;
                }
                let copies = if fault == RecordFault::Duplicate {
                    2
                } else {
                    1
                };
                // A truncated report record lost the tail of its
                // pre-extracted domain list.
                let keep = if fault == RecordFault::Truncate {
                    report.domains.len() / 2
                } else {
                    report.domains.len()
                };
                out.push(SourceRecord {
                    time: report.time,
                    copies,
                    counts_sample: true,
                    domains: report.domains[..keep].to_vec(),
                });
            }
            // The non-e-mail web-spam corpus.
            let webspam_key = FaultPlan::fault_key("Hyb/webspam");
            let mut rng = RngStream::new(seed, "feeds/hyb/webspam");
            for (idx, &(time, domain)) in world.truth.webspam.iter().enumerate() {
                if !rng.random_bool(config.webspam_prob) || down(time) {
                    continue;
                }
                // Single-domain entries: truncation leaves nothing to
                // cut, so only drop/duplicate apply.
                let fault = if record_faults_on {
                    plan.record_fault_keyed(webspam_key, idx as u64)
                } else {
                    RecordFault::Deliver
                };
                local.record_fault(fault);
                if fault == RecordFault::Drop {
                    continue;
                }
                let copies = if fault == RecordFault::Duplicate {
                    2
                } else {
                    1
                };
                out.push(SourceRecord {
                    time,
                    copies,
                    counts_sample: true,
                    domains: vec![domain],
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FeedsConfig, DEFAULT_CHUNK_SIZE};
    use crate::IngestState;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::MailConfig;
    use taster_sim::{Obs, Parallelism};

    fn world_under(max_mem_bytes: Option<u64>) -> MailWorld {
        let mut config = EcosystemConfig::default().with_scale(0.02);
        config.max_mem_bytes = max_mem_bytes;
        let truth = GroundTruth::generate(&config, 71).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.02)).unwrap()
    }

    fn world() -> MailWorld {
        world_under(None)
    }

    fn all_members(cfg: &FeedsConfig) -> Vec<MemberSpec> {
        crate::pipeline::content_members(cfg).to_vec()
    }

    /// The collection driver over `members` alone, advanced over every
    /// row and sealed once; one feed per member.
    fn collect(
        world: &MailWorld,
        members: &[MemberSpec],
        plan: &FaultPlan,
        par: &Parallelism,
        chunk_size: usize,
    ) -> Vec<Feed> {
        let obs = Obs::off();
        let mut state = IngestState::with_members(world, members.to_vec(), chunk_size, plan, &obs);
        let total = state.total_rows();
        state
            .advance(world, plan, par, total, &obs)
            .expect("advance");
        let set = state.finish(&obs);
        members
            .iter()
            .map(|m| set.get(m.feed_id()).clone())
            .collect()
    }

    fn assert_feeds_equal(a: &Feed, b: &Feed) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.samples, b.samples, "{}", a.id);
        assert_eq!(a.unique_domains(), b.unique_domains(), "{}", a.id);
        assert_eq!(a.unique_fqdns(), b.unique_fqdns(), "{}", a.id);
        for (d, s) in a.iter() {
            assert_eq!(Some(s), b.stats(d), "{} domain {d:?}", a.id);
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        let w = world();
        let cfg = FeedsConfig::default();
        let members = all_members(&cfg);
        let plan = FaultPlan::off(w.truth.seed);
        let serial = collect(
            &w,
            &members,
            &plan,
            &Parallelism::serial(),
            DEFAULT_CHUNK_SIZE,
        );
        for workers in [2, 5, 8] {
            let parallel = collect(
                &w,
                &members,
                &plan,
                &Parallelism::fixed(workers),
                DEFAULT_CHUNK_SIZE,
            );
            for (a, b) in serial.iter().zip(&parallel) {
                assert_feeds_equal(a, b);
            }
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_feeds() {
        let cfg = FeedsConfig::default();
        let members = all_members(&cfg);
        let w = world();
        let plan = FaultPlan::off(w.truth.seed);
        let whole = collect(&w, &members, &plan, &Parallelism::serial(), usize::MAX);
        // In core the resident log is read in one visit whatever the
        // chunk; a 64 KiB budget spills it, so each chunk is its own
        // visit and the run crosses visit boundaries.
        let spilled = world_under(Some(64 << 10));
        assert!(spilled.truth.cache().is_none(), "the budget must spill");
        for chunk in [1, 7, 64, 4096] {
            for workers in [1, 3] {
                let chunked = collect(
                    &spilled,
                    &members,
                    &plan,
                    &Parallelism::fixed(workers),
                    chunk,
                );
                for (a, b) in whole.iter().zip(&chunked) {
                    assert_feeds_equal(a, b);
                }
            }
        }
    }

    #[test]
    fn single_member_run_matches_full_run() {
        // Per-event streams make each member's feed independent of
        // which other members run alongside it.
        let w = world();
        let cfg = FeedsConfig::default();
        let members = all_members(&cfg);
        let plan = FaultPlan::off(w.truth.seed);
        let full = collect(
            &w,
            &members,
            &plan,
            &Parallelism::serial(),
            DEFAULT_CHUNK_SIZE,
        );
        for (i, member) in members.iter().enumerate() {
            let solo = collect(
                &w,
                std::slice::from_ref(member),
                &plan,
                &Parallelism::fixed(3),
                DEFAULT_CHUNK_SIZE,
            );
            assert_feeds_equal(&full[i], &solo[0]);
        }
    }

    #[test]
    fn faulted_run_is_bit_identical_at_any_worker_count() {
        use taster_sim::FaultProfile;
        let w = world();
        let cfg = FeedsConfig::default();
        let members = all_members(&cfg);
        let plan = FaultPlan::new(FaultProfile::lossy_feeds(), w.truth.seed);
        let serial = collect(
            &w,
            &members,
            &plan,
            &Parallelism::serial(),
            DEFAULT_CHUNK_SIZE,
        );
        let spilled = world_under(Some(64 << 10));
        for (world, workers, chunk) in [
            (&w, 2, DEFAULT_CHUNK_SIZE),
            (&w, 8, DEFAULT_CHUNK_SIZE),
            (&spilled, 3, 113),
        ] {
            let parallel = collect(world, &members, &plan, &Parallelism::fixed(workers), chunk);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_feeds_equal(a, b);
            }
        }
        // And the faults actually bite: the lossy profile drops more
        // records than it duplicates, so sample counts shrink.
        let clean = collect(
            &w,
            &members,
            &FaultPlan::off(w.truth.seed),
            &Parallelism::serial(),
            DEFAULT_CHUNK_SIZE,
        );
        let faulted_samples: u64 = serial.iter().filter_map(|f| f.samples).sum();
        let clean_samples: u64 = clean.iter().filter_map(|f| f.samples).sum();
        assert!(faulted_samples < clean_samples);
    }

    #[test]
    fn outage_silences_members_inside_the_window() {
        use taster_sim::fault::Outage;
        use taster_sim::FaultProfile;
        let w = world();
        let cfg = FeedsConfig::default();
        let members = all_members(&cfg);
        let mut profile = FaultProfile::off();
        profile.name = "bot-down".to_string();
        profile.outages.push(Outage {
            stage: "Bot".to_string(),
            window: TimeWindow::new(SimTime::ZERO, SimTime(u64::MAX)),
        });
        let plan = FaultPlan::new(profile, w.truth.seed);
        let feeds = collect(
            &w,
            &members,
            &plan,
            &Parallelism::fixed(4),
            DEFAULT_CHUNK_SIZE,
        );
        let clean = collect(
            &w,
            &members,
            &FaultPlan::off(w.truth.seed),
            &Parallelism::fixed(4),
            DEFAULT_CHUNK_SIZE,
        );
        for (f, c) in feeds.iter().zip(&clean) {
            if f.id == FeedId::Bot {
                assert_eq!(f.samples, Some(0), "Bot must be silenced");
                assert_eq!(f.unique_domains(), 0);
            } else {
                // Other members are untouched by Bot's outage.
                assert_feeds_equal(f, c);
            }
        }
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for (n, parts) in [(0, 4), (1, 4), (10, 3), (100, 7), (5, 9)] {
            for lo in [0, 13] {
                let ranges = shard_ranges(lo..lo + n, parts);
                let mut next = lo;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, lo + n, "n={n} parts={parts}");
            }
        }
    }
}
