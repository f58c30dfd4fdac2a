//! Runs all ten collectors.

use crate::collectors::{collect_blacklist_observed, collect_hu_observed};
use crate::config::FeedsConfig;
use crate::engine::{collect_content, MemberSpec};
use crate::error::PipelineError;
use crate::feed::{Feed, FeedSet};
use crate::id::FeedId;
use taster_mailsim::MailWorld;
use taster_sim::metrics::{STAGE_BLACKLIST, STAGE_COLLECT};
use taster_sim::{FaultPlan, Obs, Parallelism, TimeWindow};

/// The seven content collectors in fused-pass order, built from the
/// configuration. Shared by the batch pipeline and the incremental
/// (serve) ingestion path so both see identical member specs.
pub(crate) fn content_members(config: &FeedsConfig) -> [MemberSpec; 7] {
    [
        MemberSpec::Mx {
            config: config.mx[0],
            index: 0,
        },
        MemberSpec::Mx {
            config: config.mx[1],
            index: 1,
        },
        MemberSpec::Mx {
            config: config.mx[2],
            index: 2,
        },
        MemberSpec::Ac {
            config: config.ac[0],
            index: 0,
        },
        MemberSpec::Ac {
            config: config.ac[1],
            index: 1,
        },
        MemberSpec::Bot { config: config.bot },
        MemberSpec::Hyb { config: config.hyb },
    ]
}

/// Collects all ten feeds over the world with the default
/// [`Parallelism`] (the `TASTER_THREADS` env override, else all
/// available cores). See [`collect_all_with`].
pub fn collect_all(world: &MailWorld, config: &FeedsConfig) -> FeedSet {
    collect_all_with(world, config, &Parallelism::default())
}

/// Collects all ten feeds over the world on `par` workers, fault-free.
/// See [`try_collect_all_faulted`] for the fault-injected variant.
///
/// Every collector decision draws from an RNG stream derived from
/// `(seed, feed, event)`, so the set is reproducible, *bit-identical
/// at any worker count*, and collectors are independent: removing one
/// cannot change another's contents. The seven content collectors run
/// fused and sharded over the event log (one render and one URL
/// extraction per captured delivery, shared across feeds); the three
/// cheap stream collectors (Hu and the two blacklists) fan out as
/// whole tasks.
pub fn collect_all_with(world: &MailWorld, config: &FeedsConfig, par: &Parallelism) -> FeedSet {
    match try_collect_all_faulted(world, config, &FaultPlan::off(world.truth.seed), par) {
        Ok(set) => set,
        // lint:allow(no-panic) -- documented panicking wrapper; the fallible path is try_collect_all_faulted
        Err(e) => panic!("feed collection failed: {e}"),
    }
}

/// Collects all ten feeds under a [`FaultPlan`], validating the
/// configuration and the fault profile up front.
///
/// With an off plan the output is byte-identical to
/// [`collect_all_with`] — fault streams live under disjoint
/// `fault/…` names and are never derived. With faults enabled, every
/// decision is keyed by `(seed, stage, event index)`, so the set stays
/// bit-identical at any worker count. Feeds that suffered outages
/// carry the outage windows as gap markers ([`Feed::gaps`]).
pub fn try_collect_all_faulted(
    world: &MailWorld,
    config: &FeedsConfig,
    plan: &FaultPlan,
    par: &Parallelism,
) -> Result<FeedSet, PipelineError> {
    try_collect_all_observed(world, config, plan, par, &Obs::off())
}

/// [`try_collect_all_faulted`] with observability.
///
/// Per-feed record/domain counters, fault-decision counters and the
/// domains-per-record histogram land in `obs.metrics` (worker shards
/// merged in event-range order, so totals match a serial pass);
/// per-feed outage gaps are recorded as trace events in feed order.
/// With `Obs::off()` the output — and every byte the pipeline later
/// renders — is identical to the unobserved entry points.
pub fn try_collect_all_observed(
    world: &MailWorld,
    config: &FeedsConfig,
    plan: &FaultPlan,
    par: &Parallelism,
    obs: &Obs,
) -> Result<FeedSet, PipelineError> {
    config.validate().map_err(PipelineError::InvalidConfig)?;
    plan.profile()
        .validate()
        .map_err(PipelineError::InvalidFaultProfile)?;
    let members = content_members(config);
    type Task<'w> = Box<dyn FnOnce() -> Feed + Send + 'w>;
    // Two disjoint stages so their wall times sum without overlap:
    // `collect` covers the eight record-capturing feeds (seven content
    // members + Hu), `blacklist` the two listing simulations.
    let (content, hu) = obs.stage(STAGE_COLLECT, || {
        let content = {
            let _span = obs.span("collect/content");
            collect_content(world, &members, plan, par, obs, config.chunk_size)
        };
        let hu = {
            let _span = obs.span("collect/hu");
            collect_hu_observed(world, plan, obs)
        };
        (content, hu)
    });
    let content = content?;
    let blacklists = obs.stage(STAGE_BLACKLIST, || {
        let _span = obs.span("collect/blacklists");
        // Counter adds are saturating (commutative + associative), so
        // concurrent absorption from these two tasks cannot change
        // the totals.
        let lists = par.par_run::<Feed, Task<'_>>(vec![
            Box::new(|| collect_blacklist_observed(world, &config.dbl, FeedId::Dbl, plan, obs)),
            Box::new(|| collect_blacklist_observed(world, &config.uribl, FeedId::Uribl, plan, obs)),
        ]);
        if obs.metrics.is_on() {
            for feed in &lists {
                obs.metrics.add(
                    &format!("blacklist/listings/{}", feed.id.label()),
                    feed.unique_domains() as u64,
                );
            }
        }
        lists
    });
    let mut feeds: Vec<Feed> = std::iter::once(hu)
        .chain(blacklists)
        .chain(content)
        .collect();
    if !plan.is_off() {
        for feed in &mut feeds {
            for window in plan.outage_windows(feed.id.label()) {
                feed.note_gap(window);
                obs.trace.event(
                    "gap",
                    &[
                        ("feed", feed.id.label()),
                        ("start", &window.start.0.to_string()),
                        ("end", &window.end.0.to_string()),
                    ],
                );
                obs.metrics.add("collect/gaps", 1);
            }
        }
    }
    let set = FeedSet::new(feeds);
    if obs.metrics.is_on() {
        for id in FeedId::ALL {
            let feed = set.get(id);
            let label = id.label();
            if let Some(samples) = feed.samples {
                obs.metrics
                    .add(&format!("collect/samples/{label}"), samples);
            }
            obs.metrics.add(
                &format!("collect/unique_domains/{label}"),
                feed.unique_domains() as u64,
            );
        }
    }
    Ok(set)
}

/// Rejects a collection run that produced no records in any feed
/// unless the fault plan explains the silence: a profile whose outage
/// windows black out the whole measurement window for every feed (the
/// canonical `blackout`) legitimately collects nothing, but any other
/// profile yielding ten empty feeds indicates a broken configuration —
/// downstream tables would render all-zero rows that look like data.
pub fn ensure_nonempty_collection(
    feeds: &FeedSet,
    plan: &FaultPlan,
    window: TimeWindow,
) -> Result<(), PipelineError> {
    let any_records = FeedId::ALL.iter().any(|&id| {
        let feed = feeds.get(id);
        feed.unique_domains() > 0 || feed.samples.is_some_and(|s| s > 0)
    });
    if any_records {
        return Ok(());
    }
    let fully_blacked_out = FeedId::ALL
        .iter()
        .all(|&id| covers(&plan.outage_windows(id.label()), window));
    if fully_blacked_out {
        return Ok(());
    }
    Err(PipelineError::EmptyCollection(format!(
        "fault profile '{}' produced no records in any of the ten feeds, \
         and its outage windows do not cover the measurement window",
        plan.profile().name
    )))
}

/// True when the union of `windows` covers all of `span`.
fn covers(windows: &[TimeWindow], span: TimeWindow) -> bool {
    if span.start >= span.end {
        return true;
    }
    let mut sorted: Vec<TimeWindow> = windows.to_vec();
    sorted.sort_by_key(|w| w.start);
    let mut reached = span.start;
    for w in sorted {
        if w.start > reached {
            return false;
        }
        reached = reached.max(w.end);
        if reached >= span.end {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::MailConfig;

    #[test]
    fn all_ten_feeds_collect() {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 67).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.02)).unwrap();
        let set = collect_all(&world, &FeedsConfig::default());
        for id in FeedId::ALL {
            let feed = set.get(id);
            assert_eq!(feed.id, id);
            assert!(feed.unique_domains() > 0, "{id} is empty");
        }
        // Blacklists are listing feeds: no raw sample counts.
        assert_eq!(set.get(FeedId::Dbl).samples, None);
        assert_eq!(set.get(FeedId::Uribl).samples, None);
        // Volume-bearing feeds are exactly the paper's six.
        for id in FeedId::ALL {
            assert_eq!(
                set.get(id).reports_volume,
                FeedId::WITH_VOLUME.contains(&id),
                "{id}"
            );
        }
    }

    #[test]
    fn empty_collection_is_a_typed_error_unless_blacked_out() {
        use taster_sim::{FaultProfile, SimTime};
        let window = TimeWindow::new(SimTime::ZERO, SimTime::from_days(30));
        let empty = || FeedSet::new(FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect());
        // Blackout explains total silence: every feed's outage windows
        // cover the whole measurement window.
        let blackout = FaultPlan::new(FaultProfile::blackout(), 7);
        assert!(ensure_nonempty_collection(&empty(), &blackout, window).is_ok());
        // A lossy profile does not: ten empty feeds must be reported
        // as a typed error, not rendered as silent zero rows.
        let lossy = FaultPlan::new(FaultProfile::lossy_feeds(), 7);
        let err = ensure_nonempty_collection(&empty(), &lossy, window).unwrap_err();
        assert!(matches!(err, PipelineError::EmptyCollection(_)));
        assert!(err.to_string().contains("lossy-feeds"), "{err}");
        // Any records at all make the check pass.
        let mut feeds: Vec<Feed> = FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect();
        feeds[0].record(taster_domain::DomainId(3), SimTime(5));
        assert!(ensure_nonempty_collection(&FeedSet::new(feeds), &lossy, window).is_ok());
    }

    #[test]
    fn worker_count_does_not_change_the_set() {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.02), 67).unwrap();
        let world = MailWorld::build(truth, MailConfig::default().with_scale(0.02)).unwrap();
        let cfg = FeedsConfig::default();
        let serial = collect_all_with(&world, &cfg, &taster_sim::Parallelism::serial());
        for workers in [2, 8] {
            let parallel = collect_all_with(&world, &cfg, &taster_sim::Parallelism::fixed(workers));
            for id in FeedId::ALL {
                let (a, b) = (serial.get(id), parallel.get(id));
                assert_eq!(a.samples, b.samples, "{id}");
                assert_eq!(a.unique_domains(), b.unique_domains(), "{id}");
                assert_eq!(a.unique_fqdns(), b.unique_fqdns(), "{id}");
                for (d, s) in a.iter() {
                    assert_eq!(Some(s), b.stats(d), "{id} {d:?}");
                }
            }
        }
    }
}
