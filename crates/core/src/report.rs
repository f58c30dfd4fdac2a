//! Plain-text rendering of every table and figure.
//!
//! Output mirrors the paper's presentation: pairwise matrices print
//! `percent/count` cells, tables print the paper's columns, boxplot
//! figures print five-number summaries per feed. All rendering is
//! deterministic, so reports diff cleanly across runs.
//!
//! Every section streams into one caller-owned `String` via `write!`
//! — the full report is a single buffer that grows monotonically, not
//! a join over per-line `format!` temporaries. Shared inputs (the
//! Table 3 rows also feed Fig 1) are computed once per full render.

use crate::experiment::Experiment;
use std::fmt::Write as _;
use taster_analysis::blocking::BlockingResult;
use taster_analysis::classify::Category;
use taster_analysis::coverage::CoverageRow;
use taster_analysis::matrix::OverlapCell;
use taster_analysis::PairwiseMatrix;
use taster_feeds::{FeedId, PipelineError};
use taster_stats::summary::{count_label, grouped, percent_label};
use taster_stats::Boxplot;

/// `write!` into a `String` cannot fail; this keeps the render paths
/// free of `Result` plumbing without sprinkling `unwrap` around.
macro_rules! w {
    ($($arg:tt)*) => { let _ = write!($($arg)*); };
}

/// Formats an optional metric value as a four-decimal cell, `-` when
/// undefined. The shared cell format of the CI-annotated tables
/// (`taster replicate`, `taster ab`).
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        _ => "-".to_string(),
    }
}

/// Formats interval bounds as `[low, high]` with four decimals.
pub fn fmt_bounds(bounds: (f64, f64)) -> String {
    format!("[{:.4}, {:.4}]", bounds.0, bounds.1)
}

/// Formats a p-value cell: `<0.001` below the render resolution,
/// three decimals otherwise, `-` when the test was undefined.
pub fn fmt_p(p: Option<f64>) -> String {
    match p {
        Some(p) if p.is_finite() && p < 0.001 => "<0.001".to_string(),
        Some(p) if p.is_finite() => format!("{p:.3}"),
        _ => "-".to_string(),
    }
}

/// Renders an [`Experiment`] into paper-style text artifacts.
pub struct Report<'a> {
    experiment: &'a Experiment,
}

/// A section `taster report --section NAME` renders on its own: its
/// name and its text render.
pub type Section = (&'static str, fn(&Report<'_>) -> String);

/// Every section, in full-report order: the full report of a clean,
/// unobserved run is their renders joined by blank lines. `--section
/// all`, the default, names the full report itself.
pub const SECTIONS: &[Section] = &[
    ("table1", |r| r.table1_feed_summary()),
    ("table2", |r| r.table2_purity()),
    ("table3", |r| r.table3_coverage()),
    ("fig1", |r| r.fig1_exclusive_scatter()),
    ("fig2", |r| {
        let (live, tagged) = (Category::Live, Category::Tagged);
        format!("{}\n{}", r.fig2_pairwise(live), r.fig2_pairwise(tagged))
    }),
    ("fig3", |r| r.fig3_volume()),
    ("fig4", |r| r.fig4_programs()),
    ("fig5", |r| r.fig5_affiliates()),
    ("fig6", |r| r.fig6_revenue()),
    ("fig7", |r| r.fig7_variation()),
    ("fig8", |r| r.fig8_kendall()),
    ("fig9", |r| r.fig9_first_appearance()),
    ("fig10", |r| r.fig10_first_appearance_honeypots()),
    ("fig11", |r| r.fig11_last_appearance()),
    ("fig12", |r| r.fig12_duration()),
    ("selection", |r| {
        let (live, tagged) = (Category::Live, Category::Tagged);
        format!("{}\n{}", r.selection_study(live), r.selection_study(tagged))
    }),
    ("blocking", |r| r.blocking_study()),
    ("campaigns", |r| r.campaign_study()),
    ("granularity", |r| r.granularity_study()),
    ("concentration", |r| r.concentration_study()),
];

impl<'a> Report<'a> {
    /// Wraps an experiment.
    pub fn new(experiment: &'a Experiment) -> Report<'a> {
        Report { experiment }
    }

    /// The named entry of [`SECTIONS`], rendered; `None` for any other
    /// name.
    pub fn section(&self, name: &str) -> Option<String> {
        let (_, render) = SECTIONS.iter().find(|(n, _)| *n == name)?;
        Some(render(self))
    }

    fn header(&self, out: &mut String, title: &str) {
        w!(
            out,
            "== {title}\n   scenario: {}\n",
            self.experiment.scenario.name
        );
    }

    /// Table 1: feed summary.
    pub fn table1_feed_summary(&self) -> String {
        let mut out = String::new();
        self.write_table1(&mut out);
        out
    }

    fn write_table1(&self, out: &mut String) {
        self.header(out, "Table 1: spam domain feeds");
        w!(
            out,
            "{:<6} {:<22} {:>14} {:>10}\n",
            "Feed",
            "Type",
            "Samples",
            "Unique"
        );
        for row in self.experiment.table1() {
            w!(
                out,
                "{:<6} {:<22} {:>14} {:>10}\n",
                row.feed.label(),
                row.kind,
                row.samples.map_or("n/a".to_string(), grouped),
                grouped(row.unique_domains as u64),
            );
        }
    }

    /// Table 2: purity indicators.
    pub fn table2_purity(&self) -> String {
        let mut out = String::new();
        self.write_table2(&mut out);
        out
    }

    fn write_table2(&self, out: &mut String) {
        self.header(out, "Table 2: feed purity");
        w!(
            out,
            "{:<6} {:>6} {:>6} {:>7} {:>6} {:>6}\n",
            "Feed",
            "DNS",
            "HTTP",
            "Tagged",
            "ODP",
            "Alexa"
        );
        for row in self.experiment.table2() {
            w!(
                out,
                "{:<6} {:>6} {:>6} {:>7} {:>6} {:>6}\n",
                row.feed.label(),
                percent_label(row.dns),
                percent_label(row.http),
                percent_label(row.tagged),
                percent_label(row.odp),
                percent_label(row.alexa),
            );
        }
    }

    /// Table 3: coverage totals and exclusive contributions.
    pub fn table3_coverage(&self) -> String {
        let mut out = String::new();
        self.write_table3(&mut out, &self.experiment.table3());
        out
    }

    fn write_table3(&self, out: &mut String, rows: &[CoverageRow]) {
        self.header(out, "Table 3: feed domain coverage");
        w!(
            out,
            "{:<6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}\n",
            "Feed",
            "All",
            "AllExcl",
            "Live",
            "LiveExcl",
            "Tag",
            "TagExcl"
        );
        for row in rows {
            w!(
                out,
                "{:<6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}\n",
                row.feed.label(),
                grouped(row.all.total as u64),
                grouped(row.all.exclusive as u64),
                grouped(row.live.total as u64),
                grouped(row.live.exclusive as u64),
                grouped(row.tagged.total as u64),
                grouped(row.tagged.exclusive as u64),
            );
        }
        w!(
            out,
            "exclusive share: live {:.0}%, tagged {:.0}%\n",
            self.experiment.exclusive_share(Category::Live) * 100.0,
            self.experiment.exclusive_share(Category::Tagged) * 100.0,
        );
    }

    /// Fig 1: distinct-vs-exclusive scatter (printed as a table of
    /// log10 coordinates).
    pub fn fig1_exclusive_scatter(&self) -> String {
        let mut out = String::new();
        self.write_fig1(&mut out, &self.experiment.table3());
        out
    }

    fn write_fig1(&self, out: &mut String, rows: &[CoverageRow]) {
        self.header(out, "Fig 1: distinct vs exclusive domains (log10)");
        w!(
            out,
            "{:<6} {:>13} {:>14} {:>13} {:>14}\n",
            "Feed",
            "live distinct",
            "live exclusive",
            "tag distinct",
            "tag exclusive"
        );
        let log = |n: usize| {
            if n == 0 {
                "-inf".to_string()
            } else {
                format!("{:.2}", (n as f64).log10())
            }
        };
        for row in rows {
            w!(
                out,
                "{:<6} {:>13} {:>14} {:>13} {:>14}\n",
                row.feed.label(),
                log(row.live.total),
                log(row.live.exclusive),
                log(row.tagged.total),
                log(row.tagged.exclusive),
            );
        }
    }

    /// Fig 2: pairwise domain intersection for one category.
    pub fn fig2_pairwise(&self, category: Category) -> String {
        let mut out = String::new();
        self.write_overlap_matrix(
            &mut out,
            &format!("Fig 2: pairwise feed intersection ({})", category.label()),
            &self.experiment.fig2(category),
        );
        out
    }

    /// Fig 3: volume coverage with Alexa+ODP overhang.
    pub fn fig3_volume(&self) -> String {
        let mut out = String::new();
        self.write_fig3(&mut out);
        out
    }

    fn write_fig3(&self, out: &mut String) {
        self.header(out, "Fig 3: feed volume coverage (incoming-mail oracle)");
        for category in [Category::Live, Category::Tagged] {
            w!(out, "-- {} domains --\n", category.label());
            w!(
                out,
                "{:<6} {:>9} {:>12}  bar\n",
                "Feed",
                "covered",
                "alexa+odp"
            );
            for bar in self.experiment.fig3(category) {
                let c = (bar.covered * 40.0).round() as usize;
                let o = (bar.benign_overhang * 40.0).round() as usize;
                w!(
                    out,
                    "{:<6} {:>8.1}% {:>11.1}%  {}{}\n",
                    bar.feed.label(),
                    bar.covered * 100.0,
                    bar.benign_overhang * 100.0,
                    "#".repeat(c),
                    "+".repeat(o),
                );
            }
        }
    }

    /// Fig 4: affiliate-program coverage matrix.
    pub fn fig4_programs(&self) -> String {
        let mut out = String::new();
        self.write_overlap_matrix(
            &mut out,
            "Fig 4: pairwise affiliate-program coverage",
            &self.experiment.fig4(),
        );
        out
    }

    /// Fig 5: RX affiliate-id coverage matrix.
    pub fn fig5_affiliates(&self) -> String {
        let mut out = String::new();
        self.write_overlap_matrix(
            &mut out,
            "Fig 5: pairwise RX-Promotion affiliate-id coverage",
            &self.experiment.fig5(),
        );
        out
    }

    /// Fig 6: revenue-weighted affiliate coverage.
    pub fn fig6_revenue(&self) -> String {
        let mut out = String::new();
        self.write_fig6(&mut out);
        out
    }

    fn write_fig6(&self, out: &mut String) {
        self.header(
            out,
            "Fig 6: RX-Promotion affiliate coverage weighted by revenue",
        );
        w!(
            out,
            "{:<6} {:>10} {:>16} {:>7}\n",
            "Feed",
            "affiliates",
            "revenue (USD M)",
            "share"
        );
        for bar in self.experiment.fig6() {
            w!(
                out,
                "{:<6} {:>10} {:>16.2} {:>7}\n",
                bar.feed.label(),
                bar.affiliates,
                bar.revenue_usd / 1.0e6,
                percent_label(bar.revenue_share),
            );
        }
    }

    /// Fig 7: pairwise variation distance (+Mail).
    pub fn fig7_variation(&self) -> String {
        let mut out = String::new();
        self.write_float_matrix(
            &mut out,
            "Fig 7: pairwise variational distance of tagged-domain frequency",
            &self.experiment.fig7(),
        );
        out
    }

    /// Fig 8: pairwise Kendall tau-b (+Mail).
    pub fn fig8_kendall(&self) -> String {
        let mut out = String::new();
        self.write_float_matrix(
            &mut out,
            "Fig 8: pairwise Kendall rank correlation of tagged-domain frequency",
            &self.experiment.fig8(),
        );
        out
    }

    /// Fig 9: relative first appearance, all-feed baseline (days).
    pub fn fig9_first_appearance(&self) -> String {
        let mut out = String::new();
        self.write_boxplots(
            &mut out,
            "Fig 9: relative first appearance (days; campaign start from all feeds excl. Bot/Hyb)",
            &self.experiment.fig9(),
            "d",
        );
        out
    }

    /// Fig 10: relative first appearance, honeypot baseline (days).
    pub fn fig10_first_appearance_honeypots(&self) -> String {
        let mut out = String::new();
        self.write_boxplots(
            &mut out,
            "Fig 10: relative first appearance (days; campaign start from honeypot feeds only)",
            &self.experiment.fig10(),
            "d",
        );
        out
    }

    /// Fig 11: last-appearance error (hours).
    pub fn fig11_last_appearance(&self) -> String {
        let mut out = String::new();
        self.write_boxplots(
            &mut out,
            "Fig 11: last appearance vs campaign end (hours)",
            &self.experiment.fig11(),
            "h",
        );
        out
    }

    /// Fig 12: duration error (hours).
    pub fn fig12_duration(&self) -> String {
        let mut out = String::new();
        self.write_boxplots(
            &mut out,
            "Fig 12: domain lifetime vs campaign duration (hours)",
            &self.experiment.fig12(),
            "h",
        );
        out
    }

    /// Beyond the paper: greedy acquisition order and within-type
    /// redundancy (the §5 diversity guidance, quantified).
    pub fn selection_study(&self, category: Category) -> String {
        let mut out = String::new();
        self.write_selection_study(&mut out, category);
        out
    }

    fn write_selection_study(&self, out: &mut String, category: Category) {
        self.header(
            out,
            &format!("Feed-portfolio study ({} domains)", category.label()),
        );
        out.push_str("-- greedy acquisition order --\n");
        w!(
            out,
            "{:<5} {:<6} {:>10} {:>12} {:>9}\n",
            "step",
            "feed",
            "marginal",
            "cumulative",
            "coverage"
        );
        for (i, s) in self.experiment.selection(category).iter().enumerate() {
            w!(
                out,
                "{:<5} {:<6} {:>10} {:>12} {:>8.0}%\n",
                i + 1,
                s.feed.label(),
                grouped(s.marginal as u64),
                grouped(s.cumulative as u64),
                s.cumulative_fraction * 100.0,
            );
        }
        out.push_str("-- within-type vs across-type similarity (Jaccard) --\n");
        w!(out, "{:<22} {:>8} {:>8}\n", "type", "within", "across");
        let mut scratch = String::new();
        for r in self.experiment.redundancy(category) {
            scratch.clear();
            w!(scratch, "{:?}", r.kind);
            w!(
                out,
                "{:<22} {:>8} {:>8.2}\n",
                scratch,
                r.within.map_or("-".to_string(), |w| format!("{w:.2}")),
                r.across,
            );
        }
    }

    /// Beyond the paper: campaign-granularity coverage and the
    /// domain-proxy fragmentation check.
    pub fn campaign_study(&self) -> String {
        let mut out = String::new();
        self.write_campaign_study(&mut out);
        out
    }

    fn write_campaign_study(&self, out: &mut String) {
        self.header(
            out,
            "Campaign-granularity coverage (ground-truth validation)",
        );
        w!(
            out,
            "{:<6} {:>12} {:>12} {:>14}\n",
            "Feed",
            "loud cov",
            "quiet cov",
            "fragmentation"
        );
        for r in self.experiment.campaigns() {
            w!(
                out,
                "{:<6} {:>11.0}% {:>11.0}% {:>13.0}%\n",
                r.feed.label(),
                r.loud_coverage() * 100.0,
                r.quiet_coverage() * 100.0,
                r.mean_fragmentation * 100.0,
            );
        }
    }

    /// Beyond the paper: FQDN wildcarding per URL-granularity feed.
    pub fn granularity_study(&self) -> String {
        let mut out = String::new();
        self.write_granularity_study(&mut out);
        out
    }

    fn write_granularity_study(&self, out: &mut String) {
        self.header(out, "Reporting granularity: FQDNs per registered domain");
        w!(
            out,
            "{:<6} {:>11} {:>10} {:>9}\n",
            "Feed",
            "registered",
            "FQDNs",
            "factor"
        );
        for r in self.experiment.granularity() {
            w!(
                out,
                "{:<6} {:>11} {:>10} {:>9}\n",
                r.feed.label(),
                grouped(r.registered as u64),
                r.fqdns.map_or("-".to_string(), |f| grouped(f as u64)),
                r.wildcard_factor()
                    .map_or("-".to_string(), |f| format!("{f:.2}x")),
            );
        }
    }

    /// Beyond the paper: heavy-tail concentration of the simulated
    /// world (campaign volume and RX affiliate revenue).
    pub fn concentration_study(&self) -> String {
        let mut out = String::new();
        self.write_concentration_study(&mut out);
        out
    }

    fn write_concentration_study(&self, out: &mut String) {
        use taster_stats::concentration::{gini, top_share};
        let truth = &self.experiment.world.truth;
        let volumes: Vec<f64> = truth
            .campaigns
            .iter()
            .filter(|c| !c.poison)
            .map(|c| c.volume as f64)
            .collect();
        let revenues: Vec<f64> = truth
            .roster
            .affiliates_of(taster_ecosystem::program::RX_PROGRAM)
            .iter()
            .map(|&a| truth.roster.affiliate(a).annual_revenue_usd)
            .collect();
        self.header(out, "Concentration: who dominates the simulated ecosystem");
        for (label, values) in [
            ("campaign volume", &volumes),
            ("RX affiliate revenue", &revenues),
        ] {
            w!(
                out,
                "{:<22} gini {:.2}, top 1% holds {:.0}%, top 10% holds {:.0}%\n",
                label,
                gini(values).unwrap_or(0.0),
                top_share(values, 0.01).unwrap_or(0.0) * 100.0,
                top_share(values, 0.10).unwrap_or(0.0) * 100.0,
            );
        }
    }

    /// Beyond the paper: each feed replayed as a production filter. A
    /// failed read of the event log renders as a one-line error.
    pub fn blocking_study(&self) -> String {
        let mut out = String::new();
        self.write_blocking_study(&mut out, &self.experiment.blocking());
        out
    }

    fn write_blocking_study(
        &self,
        out: &mut String,
        rows: &Result<Vec<BlockingResult>, PipelineError>,
    ) {
        self.header(out, "Filter replay: each feed as a domain blacklist");
        w!(
            out,
            "{:<6} {:>9} {:>10} {:>13} {:>9}\n",
            "Feed",
            "blocked",
            "eventual",
            "latency loss",
            "ham lost"
        );
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                w!(out, "blocking study failed: {e}\n");
                return;
            }
        };
        for r in rows {
            w!(
                out,
                "{:<6} {:>8.1}% {:>9.1}% {:>12.1}% {:>8.2}%\n",
                r.feed.label(),
                r.spam_block_rate() * 100.0,
                r.eventual_block_rate() * 100.0,
                r.latency_loss() * 100.0,
                r.ham_block_rate() * 100.0,
            );
        }
    }

    /// Fault model: what degradation was injected and what it cost.
    /// Only rendered for faulted runs ([`Experiment::faults`] on);
    /// clean reports stay byte-identical to a fault-free build.
    fn write_fault_model(&self, out: &mut String) {
        let plan = &self.experiment.faults;
        let profile = plan.profile();
        let crawl = &self.experiment.classified.crawl;
        self.header(out, "Fault model: injected degradation");
        w!(out, "profile: {}\n", profile.name);
        w!(
            out,
            "record faults: drop {:.1}%, duplicate {:.1}%, truncate {:.1}%\n",
            profile.record_drop_prob * 100.0,
            profile.record_duplicate_prob * 100.0,
            profile.record_truncate_prob * 100.0,
        );
        w!(
            out,
            "crawler: DNS SERVFAIL {:.1}%, HTTP timeout {:.1}%, {} retries, {}s backoff\n",
            profile.dns_servfail_prob * 100.0,
            profile.http_timeout_prob * 100.0,
            profile.crawl_max_retries,
            profile.crawl_backoff_secs,
        );
        w!(
            out,
            "crawl dispositions: {} timeouts, {} unreachable, {} attempts, {}s simulated backoff\n",
            crawl.timeouts(),
            crawl.unreachable(),
            crawl.total_attempts(),
            crawl.total_backoff_secs(),
        );
        w!(out, "{:<6} {:>5}  gap windows\n", "Feed", "gaps");
        for id in FeedId::ALL {
            let feed = self.experiment.feeds.get(id);
            let gaps = feed.gaps();
            let windows = gaps
                .iter()
                .map(|w| format!("d{:.0}–d{:.0}", w.start.days_f64(), w.end.days_f64()))
                .collect::<Vec<_>>()
                .join(", ");
            w!(
                out,
                "{:<6} {:>5}  {}\n",
                id.label(),
                gaps.len(),
                if windows.is_empty() { "-" } else { &windows },
            );
        }
    }

    /// Pipeline metrics: every counter and histogram the observed run
    /// recorded, in the registry's deterministic render order (sorted
    /// by name, wall times excluded). Only rendered when the run was
    /// observed with metrics on ([`Experiment::obs`]); unobserved
    /// reports stay byte-identical to an uninstrumented build.
    pub fn metrics_section(&self) -> String {
        let mut out = String::new();
        self.write_metrics_section(&mut out);
        out
    }

    fn write_metrics_section(&self, out: &mut String) {
        self.header(out, "Pipeline metrics");
        out.push_str(&self.experiment.obs.metrics.render());
    }

    /// Every table and figure, in paper order. Faulted runs prepend
    /// the fault model; metrics-observed runs append the metrics
    /// section; a plain run renders exactly the clean sections. A
    /// failed read of the event log renders inside the blocking
    /// section; [`Report::try_full_report`] returns it instead.
    pub fn full_report(&self) -> String {
        self.render_full(&self.experiment.blocking())
    }

    /// [`Report::full_report`], or the typed error when the blocking
    /// study cannot read the event log.
    pub fn try_full_report(&self) -> Result<String, PipelineError> {
        let blocking = self.experiment.blocking()?;
        Ok(self.render_full(&Ok(blocking)))
    }

    fn render_full(&self, blocking: &Result<Vec<BlockingResult>, PipelineError>) -> String {
        let mut out = String::with_capacity(32 * 1024);
        if !self.experiment.faults.is_off() {
            self.write_fault_model(&mut out);
            out.push('\n');
        }
        self.write_clean_sections(&mut out, blocking);
        if self.experiment.obs.metrics.is_on() {
            out.push('\n');
            self.write_metrics_section(&mut out);
        }
        out
    }

    fn write_clean_sections(
        &self,
        out: &mut String,
        blocking: &Result<Vec<BlockingResult>, PipelineError>,
    ) {
        // Table 3's rows also drive Fig 1: compute them once.
        let table3 = self.experiment.table3();
        self.write_table1(out);
        out.push('\n');
        self.write_table2(out);
        out.push('\n');
        self.write_table3(out, &table3);
        out.push('\n');
        self.write_fig1(out, &table3);
        out.push('\n');
        for category in [Category::Live, Category::Tagged] {
            self.write_overlap_matrix(
                out,
                &format!("Fig 2: pairwise feed intersection ({})", category.label()),
                &self.experiment.fig2(category),
            );
            out.push('\n');
        }
        self.write_fig3(out);
        out.push('\n');
        self.write_overlap_matrix(
            out,
            "Fig 4: pairwise affiliate-program coverage",
            &self.experiment.fig4(),
        );
        out.push('\n');
        self.write_overlap_matrix(
            out,
            "Fig 5: pairwise RX-Promotion affiliate-id coverage",
            &self.experiment.fig5(),
        );
        out.push('\n');
        self.write_fig6(out);
        out.push('\n');
        self.write_float_matrix(
            out,
            "Fig 7: pairwise variational distance of tagged-domain frequency",
            &self.experiment.fig7(),
        );
        out.push('\n');
        self.write_float_matrix(
            out,
            "Fig 8: pairwise Kendall rank correlation of tagged-domain frequency",
            &self.experiment.fig8(),
        );
        out.push('\n');
        self.write_boxplots(
            out,
            "Fig 9: relative first appearance (days; campaign start from all feeds excl. Bot/Hyb)",
            &self.experiment.fig9(),
            "d",
        );
        out.push('\n');
        self.write_boxplots(
            out,
            "Fig 10: relative first appearance (days; campaign start from honeypot feeds only)",
            &self.experiment.fig10(),
            "d",
        );
        out.push('\n');
        self.write_boxplots(
            out,
            "Fig 11: last appearance vs campaign end (hours)",
            &self.experiment.fig11(),
            "h",
        );
        out.push('\n');
        self.write_boxplots(
            out,
            "Fig 12: domain lifetime vs campaign duration (hours)",
            &self.experiment.fig12(),
            "h",
        );
        out.push('\n');
        self.write_selection_study(out, Category::Live);
        out.push('\n');
        self.write_selection_study(out, Category::Tagged);
        out.push('\n');
        self.write_blocking_study(out, blocking);
        out.push('\n');
        self.write_campaign_study(out);
        out.push('\n');
        self.write_granularity_study(out);
        out.push('\n');
        self.write_concentration_study(out);
    }

    fn write_overlap_matrix(&self, out: &mut String, title: &str, m: &PairwiseMatrix<OverlapCell>) {
        self.header(out, title);
        if m.is_empty() {
            out.push_str("   (no rows)\n");
            return;
        }
        out.push_str("   cell = |row ∩ col| as % of col / count\n");
        w!(out, "{:<7}", "");
        for col in &m.feeds {
            w!(out, "{:>10}", col.label());
        }
        if let Some(extra) = m.extra_label {
            w!(out, "{:>10}", extra);
        }
        out.push('\n');
        // One scratch buffer per matrix: the `%/count` composition is
        // re-padded into the cell width without a fresh allocation.
        let mut scratch = String::new();
        let cell = |out: &mut String, scratch: &mut String, c: &OverlapCell| {
            scratch.clear();
            w!(
                scratch,
                "{}/{}",
                percent_label(c.fraction),
                count_label(c.count)
            );
            w!(out, "{:>10}", scratch);
        };
        for &row in &m.feeds {
            w!(out, "{:<7}", row.label());
            for &col in &m.feeds {
                cell(out, &mut scratch, &m.get(row, col));
            }
            if m.extra_label.is_some() {
                cell(out, &mut scratch, &m.get_extra(row));
            }
            out.push('\n');
        }
    }

    fn write_float_matrix(&self, out: &mut String, title: &str, m: &PairwiseMatrix<f64>) {
        self.header(out, title);
        if m.is_empty() {
            out.push_str("   (no rows)\n");
            return;
        }
        w!(out, "{:<7}", "");
        for col in &m.feeds {
            w!(out, "{:>7}", col.label());
        }
        if let Some(extra) = m.extra_label {
            w!(out, "{:>7}", extra);
        }
        out.push('\n');
        for &row in &m.feeds {
            w!(out, "{:<7}", row.label());
            for &col in &m.feeds {
                w!(out, "{:>7.2}", m.get(row, col));
            }
            if m.extra_label.is_some() {
                w!(out, "{:>7.2}", m.get_extra(row));
            }
            out.push('\n');
        }
    }

    fn write_boxplots(
        &self,
        out: &mut String,
        title: &str,
        rows: &[(FeedId, Boxplot)],
        unit: &str,
    ) {
        self.header(out, title);
        if rows.is_empty() {
            out.push_str("   (no data)\n");
            return;
        }
        w!(
            out,
            "{:<6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "Feed",
            "n",
            "p5",
            "q1",
            "median",
            "q3",
            "p95"
        );
        for (feed, b) in rows {
            w!(
                out,
                "{:<6} {:>6} {:>7.2}{u} {:>7.2}{u} {:>7.2}{u} {:>7.2}{u} {:>7.2}{u}\n",
                feed.label(),
                b.n,
                b.p5,
                b.q1,
                b.median,
                b.q3,
                b.p95,
                u = unit,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SECTIONS;
    use crate::{Experiment, Scenario};
    use taster_analysis::classify::Category;

    #[test]
    fn full_report_renders_every_section() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(21));
        let report = e.report().full_report();
        for needle in [
            "Table 1", "Table 2", "Table 3", "Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
            "Fig 7", "Fig 8", "Fig 9", "Fig 10", "Fig 11", "Fig 12",
        ] {
            assert!(report.contains(needle), "missing section {needle}");
        }
        // Feed labels appear.
        for label in [
            "Hu", "dbl", "uribl", "mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot", "Hyb",
        ] {
            assert!(report.contains(label), "missing feed {label}");
        }
    }

    /// The streaming full render is exactly the per-section renders
    /// joined with blank lines — the single-buffer path cannot drift
    /// from the public section API.
    #[test]
    fn full_report_matches_joined_sections() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(21));
        let r = e.report();
        let joined: Vec<String> = SECTIONS.iter().map(|(_, render)| render(&r)).collect();
        assert_eq!(r.full_report(), joined.join("\n"));
    }

    #[test]
    fn extra_study_sections_render() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(21));
        let r = e.report();
        let blocking = r.blocking_study();
        assert!(blocking.contains("Filter replay"));
        assert!(blocking.contains("latency loss"));
        let campaigns = r.campaign_study();
        assert!(campaigns.contains("fragmentation"));
        let granularity = r.granularity_study();
        assert!(granularity.contains("FQDNs"));
        let concentration = r.concentration_study();
        assert!(concentration.contains("gini"));
        let selection = r.selection_study(Category::Live);
        assert!(selection.contains("greedy acquisition order"));
        // Every feed label appears in each per-feed section.
        for section in [&blocking, &campaigns, &granularity] {
            for label in ["Hu", "dbl", "uribl", "Bot", "Hyb"] {
                assert!(section.contains(label), "{label} missing");
            }
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let s = Scenario::default_paper().with_scale(0.02).with_seed(5);
        let a = Experiment::run(&s).report().full_report();
        let b = Experiment::run(&s).report().full_report();
        assert_eq!(a, b);
    }

    #[test]
    fn category_sections_differ() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(9));
        let live = e.report().fig2_pairwise(Category::Live);
        let tagged = e.report().fig2_pairwise(Category::Tagged);
        assert_ne!(live, tagged);
    }
}
