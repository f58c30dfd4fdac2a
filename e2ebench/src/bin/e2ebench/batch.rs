//! The `report-incore` and `report-outofcore` iterations: the
//! `taster report` pipeline in process, at the memory budget the
//! caller chose.

use crate::{peak_rss_bytes, world_counts, write_report, Layers, Metrics, Opts};
use std::hint::black_box;
use taster::analysis::classify::Category;
use taster::analysis::Classified;
use taster::core::Experiment;
use taster::ecosystem::GroundTruth;
use taster::feeds::try_collect_all_observed;
use taster::mailsim::MailWorld;
use taster::sim::metrics::{MetricsRegistry, Stopwatch};
use taster::sim::Obs;

/// Runs the pipeline once. Untraced, it reports `setup_s`, `report_s`,
/// the collect window and peak RSS; traced, it also times every layer
/// call and runs the analysis groups one at a time before the render.
pub(crate) fn run(o: &Opts, clock: &Stopwatch) -> Result<Metrics, String> {
    let scenario = o.scenario();
    scenario
        .validate()
        .map_err(|e| format!("invalid scenario: {e}"))?;
    let par = scenario.parallelism;
    let plan = scenario.fault_plan();
    let mut layers = Layers::new(o.trace);

    let truth = layers
        .time("ecosystem.generate_s", || {
            GroundTruth::generate(&scenario.ecosystem, scenario.seed)
        })
        .map_err(|e| format!("generate: {e}"))?;
    let world = layers
        .time("mailsim.build_s", || {
            MailWorld::build(truth, scenario.mail.clone())
        })
        .map_err(|e| format!("mail world: {e}"))?;
    let setup_s = clock.elapsed_secs();
    let events = world.truth.log.len as u64;

    let collect = MetricsRegistry::stopwatch();
    let feeds = layers
        .time("feeds.collect_s", || {
            try_collect_all_observed(&world, &scenario.feeds, &plan, &par, &Obs::off())
        })
        .map_err(|e| format!("collect: {e}"))?;
    let collect_s = collect.elapsed_secs();
    let unique_domains: usize = feeds.iter().map(|f| f.unique_domains()).sum();

    let classified = layers.time("crawler.classify_s", || {
        Classified::build_observed(
            &world.truth,
            &feeds,
            scenario.classify,
            &plan,
            &par,
            &Obs::off(),
        )
    });
    let crawled = classified.crawl.len();
    if layers.is_on() {
        world_counts(&mut layers, &scenario, &world)?;
    }
    let e = Experiment {
        scenario: scenario.clone(),
        world,
        feeds,
        classified,
        faults: plan,
        obs: Obs::off(),
    };
    if layers.is_on() {
        time_analyses(&e, &mut layers);
    }
    let text = layers.time("core.render_s", || e.render_report());
    let report_s = clock.elapsed_secs();
    write_report(&o.report, &text)?;

    let untimed_frac = layers.untimed_frac(report_s);
    let mut m = layers.out;
    if o.trace {
        m.put("untimed_frac", untimed_frac);
        m.put("feeds.events_per_s", events as f64 / collect_s.max(1e-9));
        m.put("feeds.unique_domains", unique_domains as f64);
        m.put("crawler.domains", crawled as f64);
        m.put("core.report_bytes", (text.len() + 1) as f64);
    }
    m.put("setup_s", setup_s);
    m.put("report_s", report_s);
    m.put("collect_s", collect_s);
    m.put("events", events as f64);
    m.put("peak_rss_bytes", peak_rss_bytes("self")?);
    Ok(m)
}

/// The analysis groups `Experiment::observe_analyses` stages, plus the
/// two studies that replay the log, each timed as its own call. The
/// render repeats all of them; this is the traced run's extra cost.
fn time_analyses(e: &Experiment, layers: &mut Layers) {
    layers.time("analysis.coverage_s", || {
        black_box(e.table3());
        for cat in [Category::All, Category::Live, Category::Tagged] {
            black_box(e.fig2(cat));
        }
        black_box(e.exclusive_share(Category::Live));
    });
    layers.time("analysis.purity_s", || black_box(e.table2()));
    layers.time("analysis.proportionality_s", || {
        black_box((e.fig7(), e.fig8()));
    });
    layers.time("analysis.timing_s", || {
        black_box((e.fig9(), e.fig10(), e.fig11(), e.fig12()));
    });
    layers.time("analysis.blocking_s", || black_box(e.blocking()));
    layers.time("analysis.campaigns_s", || black_box(e.campaigns()));
}
