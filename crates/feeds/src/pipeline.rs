//! Runs all ten collectors: the collection driver advanced over every
//! event row and sealed once.

use crate::config::FeedsConfig;
use crate::engine::MemberSpec;
use crate::error::PipelineError;
use crate::feed::FeedSet;
use crate::id::FeedId;
use crate::incremental::IngestState;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Parallelism, Stage, TimeWindow};

/// The seven content collectors in fused-pass order, built from the
/// configuration.
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

/// Collects all ten feeds over the world, fault-free, with the default
/// [`Parallelism`] (the `TASTER_THREADS` env override, else all
/// available cores). Panics when the out-of-core spill cannot be read;
/// the fallible path is [`try_collect_all_observed`].
pub fn collect_all(world: &MailWorld, config: &FeedsConfig) -> FeedSet {
    let plan = FaultPlan::off(world.truth.seed);
    match try_collect_all_observed(world, config, &plan, &Parallelism::default(), &Obs::off()) {
        Ok(set) => set,
        #[expect(
            clippy::panic,
            reason = "documented panicking wrapper; the fallible path is try_collect_all_observed"
        )]
        Err(e) => panic!("feed collection failed: {e}"),
    }
}

/// Collects all ten feeds under a [`FaultPlan`] on `par` workers: one
/// [`IngestState`] advanced over every event row and sealed once, so
/// the set is exactly what `taster serve` seals after its last epoch.
///
/// Every collector decision draws from an RNG stream derived from
/// `(seed, feed, event)`, so the set is reproducible, *bit-identical
/// at any worker count and chunk size*, and collectors are
/// independent: removing one cannot change another's contents. With
/// an off plan no fault stream is derived; with faults enabled every
/// decision is keyed by `(seed, stage, event index)`. Feeds that
/// suffered outages carry the outage windows as gap markers
/// ([`crate::Feed::gaps`]). The configuration and the fault profile are
/// validated up front.
///
/// Per-feed record/domain counters, fault-decision counters and the
/// domains-per-record histogram land in `obs.metrics` (worker shards
/// merged in event-range order, so totals match a serial pass);
/// per-feed outage gaps are recorded as trace events in feed order.
/// With `Obs::off()` the output — and every byte the pipeline later
/// renders — is identical to an unobserved run.
pub fn try_collect_all_observed(
    world: &MailWorld,
    config: &FeedsConfig,
    plan: &FaultPlan,
    par: &Parallelism,
    obs: &Obs,
) -> Result<FeedSet, PipelineError> {
    // Two disjoint stages so their wall times sum without overlap:
    // `collect` covers the eight record-capturing feeds (seven content
    // members + Hu), `blacklist` the two listing simulations. Hu and
    // the blacklists join after the event pass; the seal applies them.
    let mut state = obs.stage(Stage::Collect, || {
        let mut state = {
            let _span = obs.span("collect/content");
            let mut state = IngestState::content(world, config, plan, obs)?;
            let total = state.total_rows();
            state.advance(world, plan, par, total, obs)?;
            state
        };
        let _span = obs.span("collect/hu");
        state.add_hu(world, plan, obs);
        Ok::<IngestState, PipelineError>(state)
    })?;
    obs.stage(Stage::Blacklist, || {
        let _span = obs.span("collect/blacklists");
        state.add_blacklists(world, config, plan, obs);
    });
    let set = state.finish(obs);
    if obs.is_on() {
        for feed in set.iter() {
            let label = feed.id.label();
            for window in feed.gaps() {
                obs.trace.event(
                    "gap",
                    &[
                        ("feed", label),
                        ("start", &window.start.0.to_string()),
                        ("end", &window.end.0.to_string()),
                    ],
                );
                obs.metrics.add("collect/gaps", 1);
            }
            if let Some(samples) = feed.samples {
                obs.metrics
                    .add(&format!("collect/samples/{label}"), samples);
            }
            obs.metrics.add(
                &format!("collect/unique_domains/{label}"),
                feed.unique_domains() as u64,
            );
        }
        for id in [FeedId::Dbl, FeedId::Uribl] {
            obs.metrics.add(
                &format!("blacklist/listings/{}", id.label()),
                set.get(id).unique_domains() as u64,
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
    use crate::feed::Feed;
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
        let plan = FaultPlan::off(world.truth.seed);
        let collect = |workers| {
            let par = Parallelism::fixed(workers);
            try_collect_all_observed(&world, &cfg, &plan, &par, &Obs::off()).unwrap()
        };
        let serial = collect(1);
        for workers in [2, 8] {
            let parallel = collect(workers);
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
