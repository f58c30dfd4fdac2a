//! The end-to-end experiment driver.

use crate::report;
use crate::scenario::Scenario;
use taster_analysis::affiliates::{affiliate_coverage, revenue_coverage, RevenueBar};
use taster_analysis::blocking::{blocking_study, BlockingResult};
use taster_analysis::campaigns::{campaign_study, CampaignCoverage};
use taster_analysis::classify::Category;
use taster_analysis::coverage::{
    coverage_table_par, exclusive_share_par, pairwise_overlap_par, CoverageRow,
};
use taster_analysis::granularity::{granularity_study, GranularityRow};
use taster_analysis::matrix::OverlapCell;
use taster_analysis::programs::program_coverage;
use taster_analysis::proportionality::{kendall_matrix_par, variation_matrix_par};
use taster_analysis::purity::{purity_par, PurityRow};
use taster_analysis::selection::{
    greedy_selection, type_redundancy, SelectionStep, TypeRedundancy,
};
use taster_analysis::summary::{feed_summary, SummaryRow};
use taster_analysis::timing::{
    duration_error_par, first_appearance_par, last_appearance_par, FIG9_FEEDS, HONEYPOT_FEEDS,
};
use taster_analysis::volume::{volume_coverage, VolumeBar};
use taster_analysis::{Classified, PairwiseMatrix};
use taster_ecosystem::GroundTruth;
use taster_feeds::{try_collect_all_observed, FeedId, FeedSet, PipelineError};
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Stage};
use taster_stats::Boxplot;

/// A fully-executed experiment: ground truth, mail world, feeds and
/// classification, with every paper table/figure available as a typed
/// accessor.
pub struct Experiment {
    /// The scenario that produced this run.
    pub scenario: Scenario,
    /// The mail world (includes the ground truth).
    pub world: MailWorld,
    /// The ten collected feeds.
    pub feeds: FeedSet,
    /// Crawl + live/tagged classification.
    pub classified: Classified,
    /// The fault plan the run executed under (off for clean runs).
    pub faults: FaultPlan,
    /// The observability handle the run executed under. Off (a no-op)
    /// unless the run came through [`Experiment::try_run_observed`].
    pub obs: Obs,
}

/// Validates `scenario` and builds its world — ground truth, then the
/// mail world — as the `generate` stage under `obs`. Every run builds
/// its world here (experiments, sweeps, the degradation sweep, the
/// collect-overhead probe and `taster serve`), so a failure is the
/// same typed error on every path: an event-spill fault is
/// [`PipelineError::Spill`], a rejected configuration
/// [`PipelineError::InvalidScenario`] or [`PipelineError::Generation`].
pub fn build_world(scenario: &Scenario, obs: &Obs) -> Result<MailWorld, PipelineError> {
    scenario
        .validate()
        .map_err(PipelineError::InvalidScenario)?;
    // One stage covers ground-truth generation *and* the mail-world
    // provider replay: both synthesize the world before any feed
    // exists, and splitting them would leave the span tree as the
    // only place the split is visible anyway.
    obs.stage(Stage::Generate, || {
        let truth = {
            let _span = obs.span("generate/ground_truth");
            GroundTruth::generate_observed(&scenario.ecosystem, scenario.seed, obs)
                .map_err(|e| PipelineError::from_world(e, PipelineError::Generation))?
        };
        let _span = obs.span("generate/mail_world");
        let world = MailWorld::build(truth, scenario.mail.clone())
            .map_err(|e| PipelineError::from_world(e, PipelineError::InvalidScenario))?;
        // Collection computes captured records without rendering,
        // which is exact only while every generated domain is its own
        // registered domain under any renderer subdomain.
        #[cfg(debug_assertions)]
        {
            let extractor = taster_feeds::parse::DomainExtractor::new();
            let table = &world.truth.universe.table;
            let bad = table.iter().find(|(_, t)| !extractor.fast_reducible(t));
            debug_assert!(bad.is_none(), "{bad:?} is not its own registered domain");
        }
        obs.metrics
            .add("generate/events", world.truth.log.len as u64);
        obs.metrics
            .add("generate/domains", world.truth.universe.len() as u64);
        obs.metrics.add(
            "generate/cached_events",
            world.truth.cache().map_or(0, |c| c.len() as u64),
        );
        Ok(world)
    })
}

impl Experiment {
    /// Runs the scenario end-to-end. Panics on an invalid scenario
    /// (validation errors are programmer errors here; use
    /// [`Experiment::try_run`] to handle them).
    pub fn run(scenario: &Scenario) -> Experiment {
        match Self::try_run(scenario) {
            Ok(e) => e,
            #[expect(
                clippy::panic,
                reason = "documented panicking wrapper; the fallible path is try_run"
            )]
            Err(e) => panic!("invalid scenario: {e}"),
        }
    }

    /// Runs the scenario, returning configuration errors as a typed
    /// [`PipelineError`]. With a fault profile set, feed collection
    /// and the crawl degrade deterministically instead of failing —
    /// even a 100 %-outage profile completes with empty feeds.
    pub fn try_run(scenario: &Scenario) -> Result<Experiment, PipelineError> {
        Self::try_run_observed(scenario, Obs::off())
    }

    /// [`Experiment::try_run`] under an observability handle: every
    /// pipeline stage runs inside its stage span, and every pipeline
    /// counter/histogram lands in `obs.metrics`. With `Obs::off()`
    /// this is `try_run` exactly, byte for byte.
    pub fn try_run_observed(scenario: &Scenario, obs: Obs) -> Result<Experiment, PipelineError> {
        let par = scenario.parallelism;
        let world = build_world(scenario, &obs)?;
        let plan = scenario.fault_plan();
        // Collect/blacklist staging happens inside the pipeline (the
        // two blacklists are timed as their own stage), and crawl vs.
        // set-derivation staging inside the classifier.
        let feeds = try_collect_all_observed(&world, &scenario.feeds, &plan, &par, &obs)?;
        let classified =
            Classified::build_observed(&world.truth, &feeds, scenario.classify, &plan, &par, &obs);
        Ok(Experiment {
            scenario: scenario.clone(),
            world,
            feeds,
            classified,
            faults: plan,
            obs,
        })
    }

    /// Runs the four post-classification analysis stage groups —
    /// coverage, purity, proportionality, timing — under this run's
    /// observability handle, each under its stage span (whose wall
    /// time is the stage's time) plus a result-size counter. The
    /// results are discarded: the point is the per-stage profile
    /// (`taster profile`), and every accessor is pure, so running them
    /// here cannot change later output.
    pub fn observe_analyses(&self) {
        let m = &self.obs.metrics;
        self.obs.stage(Stage::Coverage, || {
            let rows = self.table3();
            let mut cells = 0usize;
            for cat in [Category::All, Category::Live, Category::Tagged] {
                cells += self.fig2(cat).len();
            }
            std::hint::black_box(self.exclusive_share(Category::Live));
            m.add("coverage/rows", rows.len() as u64);
            m.add("coverage/pairwise_cells", cells as u64);
        });
        self.obs.stage(Stage::Purity, || {
            let rows = self.table2();
            m.add("purity/rows", rows.len() as u64);
        });
        self.obs.stage(Stage::Proportionality, || {
            let cells = self.fig7().len() + self.fig8().len();
            m.add("proportionality/cells", cells as u64);
        });
        self.obs.stage(Stage::Timing, || {
            let series =
                self.fig9().len() + self.fig10().len() + self.fig11().len() + self.fig12().len();
            // At small scales every boxplot can be empty (series == 0,
            // and zero adds don't materialize a counter), so also count
            // the candidate feeds examined — structurally non-zero, which
            // keeps the `timing/` stage visible in the metrics section.
            let examined = FIG9_FEEDS.len() + 3 * HONEYPOT_FEEDS.len();
            m.add("timing/feeds_examined", examined as u64);
            m.add("timing/series", series as u64);
        });
    }

    /// Renders the full report under this run's observability handle,
    /// inside the `render` stage span: the fault model on faulted runs,
    /// every section of [`report::SECTIONS`] in order, and the metrics
    /// section on metrics-observed runs, joined by blank lines. Fails
    /// with the typed error when a study cannot read the event log.
    pub fn try_render_report(&self) -> Result<String, PipelineError> {
        let text = self
            .obs
            .stage(Stage::Render, || report::full_report(self))?;
        self.obs.metrics.add("render/bytes", text.len() as u64);
        Ok(text)
    }

    /// [`Experiment::try_render_report`], with a failure rendered as a
    /// one-line report in place of the sections.
    pub fn render_report(&self) -> String {
        self.try_render_report()
            .unwrap_or_else(|e| format!("cannot render report: {e}\n"))
    }

    // ------------------------------------------------ typed results

    /// Table 1 rows.
    pub fn table1(&self) -> Vec<SummaryRow> {
        feed_summary(&self.feeds)
    }

    /// Table 2 rows.
    pub fn table2(&self) -> Vec<PurityRow> {
        purity_par(&self.classified, &self.scenario.parallelism)
    }

    /// Table 3 rows (also the Fig 1 scatter data).
    pub fn table3(&self) -> Vec<CoverageRow> {
        coverage_table_par(&self.classified, &self.scenario.parallelism)
    }

    /// Share of a category's union exclusive to a single feed.
    pub fn exclusive_share(&self, category: Category) -> f64 {
        exclusive_share_par(&self.classified, category, &self.scenario.parallelism)
    }

    /// Fig 2 matrix for a category.
    pub fn fig2(&self, category: Category) -> PairwiseMatrix<OverlapCell> {
        pairwise_overlap_par(&self.classified, category, &self.scenario.parallelism)
    }

    /// Fig 3 bars for a category.
    pub fn fig3(&self, category: Category) -> Vec<VolumeBar> {
        volume_coverage(&self.classified, &self.world.provider.oracle, category)
    }

    /// Fig 4 matrix (program coverage).
    pub fn fig4(&self) -> PairwiseMatrix<OverlapCell> {
        program_coverage(&self.classified)
    }

    /// Fig 5 matrix (RX affiliate-id coverage).
    pub fn fig5(&self) -> PairwiseMatrix<OverlapCell> {
        affiliate_coverage(&self.classified)
    }

    /// Fig 6 bars (revenue-weighted coverage).
    pub fn fig6(&self) -> Vec<RevenueBar> {
        revenue_coverage(&self.classified, &self.world.truth.roster)
    }

    /// Fig 7 matrix (variation distance, with Mail column).
    pub fn fig7(&self) -> PairwiseMatrix<f64> {
        variation_matrix_par(
            &self.feeds,
            &self.classified,
            &self.world.provider.oracle,
            &self.scenario.parallelism,
        )
    }

    /// Fig 8 matrix (Kendall tau-b, with Mail column).
    pub fn fig8(&self) -> PairwiseMatrix<f64> {
        kendall_matrix_par(
            &self.feeds,
            &self.classified,
            &self.world.provider.oracle,
            &self.scenario.parallelism,
        )
    }

    /// Campaign-granularity coverage against ground truth (beyond the
    /// paper — possible only in simulation).
    pub fn campaigns(&self) -> Vec<CampaignCoverage> {
        campaign_study(&self.world, &self.feeds)
    }

    /// FQDN-vs-registered-domain granularity per feed (§3.1's
    /// wildcarding argument, beyond the paper's figures).
    pub fn granularity(&self) -> Vec<GranularityRow> {
        granularity_study(&self.feeds)
    }

    /// Time-aware filter evaluation of every feed (beyond the paper).
    /// Fails only when the out-of-core event spill cannot be read.
    pub fn blocking(&self) -> Result<Vec<BlockingResult>, PipelineError> {
        Ok(blocking_study(&self.world, &self.feeds, &self.classified)?)
    }

    /// Greedy feed-acquisition order (beyond the paper; §5 guidance).
    pub fn selection(&self, category: Category) -> Vec<SelectionStep> {
        greedy_selection(&self.classified, category)
    }

    /// Within-type vs. across-type feed redundancy (§5 guidance).
    pub fn redundancy(&self, category: Category) -> Vec<TypeRedundancy> {
        type_redundancy(&self.classified, category)
    }

    /// Fig 9: relative first appearance, campaign start from all
    /// non-Bot/Hyb feeds, days.
    pub fn fig9(&self) -> Vec<(FeedId, Boxplot)> {
        first_appearance_par(
            &self.feeds,
            &self.classified,
            &FIG9_FEEDS,
            &FIG9_FEEDS,
            &self.scenario.parallelism,
        )
    }

    /// Fig 10: relative first appearance among honeypot feeds only.
    pub fn fig10(&self) -> Vec<(FeedId, Boxplot)> {
        first_appearance_par(
            &self.feeds,
            &self.classified,
            &HONEYPOT_FEEDS,
            &HONEYPOT_FEEDS,
            &self.scenario.parallelism,
        )
    }

    /// Fig 11: last-appearance error among honeypot feeds, hours.
    pub fn fig11(&self) -> Vec<(FeedId, Boxplot)> {
        last_appearance_par(
            &self.feeds,
            &self.classified,
            &HONEYPOT_FEEDS,
            &HONEYPOT_FEEDS,
            &self.scenario.parallelism,
        )
    }

    /// Fig 12: duration error among honeypot feeds, hours.
    pub fn fig12(&self) -> Vec<(FeedId, Boxplot)> {
        duration_error_par(
            &self.feeds,
            &self.classified,
            &HONEYPOT_FEEDS,
            &HONEYPOT_FEEDS,
            &self.scenario.parallelism,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> Experiment {
        // Large enough that even the narrowest feed intersection
        // (Fig 10's five-feed tagged set) is populated.
        Experiment::run(&Scenario::default_paper().with_scale(0.08).with_seed(11))
    }

    #[test]
    fn every_artifact_is_producible() {
        let e = experiment();
        assert_eq!(e.table1().len(), 10);
        assert_eq!(e.table2().len(), 10);
        assert_eq!(e.table3().len(), 10);
        assert_eq!(e.fig2(Category::Live).len(), 10);
        assert_eq!(e.fig3(Category::Tagged).len(), 10);
        assert_eq!(e.fig4().len(), 10);
        assert_eq!(e.fig5().len(), 10);
        assert_eq!(e.fig6().len(), 10);
        assert_eq!(e.fig7().len(), 6);
        assert_eq!(e.fig8().len(), 6);
        assert!(!e.fig10().is_empty());
        assert!(!e.fig11().is_empty());
        assert!(!e.fig12().is_empty());
        let share = e.exclusive_share(Category::Live);
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn invalid_scenario_is_reported() {
        let mut s = Scenario::default_paper();
        s.ecosystem.days = 0;
        assert!(Experiment::try_run(&s).is_err());
    }
}
