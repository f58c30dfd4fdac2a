//! Plain-text rendering of every table and figure.
//!
//! Output mirrors the paper's presentation: pairwise matrices print
//! `percent/count` cells, tables print the paper's columns, boxplot
//! figures print five-number summaries per feed. All rendering is
//! deterministic, so reports diff cleanly across runs.
//!
//! [`SECTIONS`] declares every section once: its name, its text writer
//! and, where it has one, its CSV writer. Every render walks that table
//! and streams into one caller-owned `String` via `write!`: the full
//! report ([`Experiment::try_render_report`]) is every row's text
//! joined by blank lines, each row timed by its own `render/<name>`
//! span, and [`section`] looks one row up by name for
//! `taster report --section NAME`.

use crate::experiment::Experiment;
use crate::export;
use std::fmt::Write as _;
use taster_analysis::classify::Category;
use taster_analysis::matrix::OverlapCell;
use taster_analysis::PairwiseMatrix;
use taster_feeds::{FeedId, PipelineError};
use taster_stats::infer::BootstrapCi;
use taster_stats::summary::{count_label, grouped, percent_label};
use taster_stats::Boxplot;

/// `write!` into a `String` cannot fail; this keeps the render paths
/// free of `Result` plumbing without sprinkling `unwrap` around.
macro_rules! w {
    ($($arg:tt)*) => { let _ = write!($($arg)*); };
}
pub(crate) use w;

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

/// Percent label for a confidence level: `0.95` → `95`, `0.975` →
/// `97.5`.
pub(crate) fn fmt_level(level: f64) -> String {
    let pct = level * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{pct}")
    }
}

/// Formats a CI's BCa bounds, marked `*` when BCa was undefined and
/// the bounds fell back to the percentile interval; a marked cell sets
/// `marked`, and the table then ends with [`BCA_FOOTNOTE`].
pub(crate) fn fmt_bca(ci: &BootstrapCi, marked: &mut bool) -> String {
    *marked |= ci.bca_fell_back;
    let marker = if ci.bca_fell_back { "*" } else { "" };
    format!("{}{marker}", fmt_bounds(ci.bca))
}

/// The footnote under a table with a [`fmt_bca`] marker.
pub(crate) const BCA_FOOTNOTE: &str =
    "*  BCa undefined here; bounds fall back to the percentile interval\n";

/// Writes `rows`, the header first, as a text table: each column as
/// wide as its widest cell, one space between columns, the first
/// `left` columns left-aligned and the rest right-aligned. The shared
/// layout of the CI-annotated tables (`taster replicate`, `taster ab`).
pub(crate) fn write_table<const N: usize>(out: &mut String, left: usize, rows: &[[String; N]]) {
    let mut widths = [0usize; N];
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.chars().count());
        }
    }
    for row in rows {
        for (c, (cell, &width)) in row.iter().zip(&widths).enumerate() {
            if c > 0 {
                out.push(' ');
            }
            if c < left {
                w!(out, "{cell:<width$}");
            } else {
                w!(out, "{cell:>width$}");
            }
        }
        out.push('\n');
    }
}

/// JSON value for an optional float (`null` when undefined).
pub(crate) fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// JSON values for optional interval bounds (`null` without an
/// interval).
pub(crate) fn json_bounds(bounds: Option<(f64, f64)>) -> (String, String) {
    (json_opt(bounds.map(|b| b.0)), json_opt(bounds.map(|b| b.1)))
}

/// What a text writer returns: only a study that reads the event log
/// can fail, with the spill's typed error.
type Written = Result<(), PipelineError>;

/// One section of the report.
pub struct Section {
    /// The name `taster report --section NAME` takes.
    pub name: &'static str,
    /// Appends the section's text.
    text: fn(&Experiment, &mut String) -> Written,
    /// Appends the section's CSV form, when it has one.
    pub csv: Option<fn(&Experiment, &mut String)>,
}

/// Every section, in full-report order. `--section all`, the default,
/// names the full report itself.
#[rustfmt::skip]
pub const SECTIONS: &[Section] = &[
    Section { name: "table1", text: table1, csv: Some(export::table1) },
    Section { name: "table2", text: table2, csv: Some(export::table2) },
    Section { name: "table3", text: table3, csv: Some(export::table3) },
    Section { name: "fig1", text: fig1, csv: None },
    Section { name: "fig2", text: fig2, csv: Some(export::fig2) },
    Section { name: "fig3", text: fig3, csv: Some(export::fig3) },
    Section { name: "fig4", text: fig4, csv: Some(export::fig4) },
    Section { name: "fig5", text: fig5, csv: Some(export::fig5) },
    Section { name: "fig6", text: fig6, csv: None },
    Section { name: "fig7", text: fig7, csv: Some(export::fig7) },
    Section { name: "fig8", text: fig8, csv: Some(export::fig8) },
    Section { name: "fig9", text: fig9, csv: Some(export::fig9) },
    Section { name: "fig10", text: fig10, csv: Some(export::fig10) },
    Section { name: "fig11", text: fig11, csv: Some(export::fig11) },
    Section { name: "fig12", text: fig12, csv: Some(export::fig12) },
    Section { name: "selection", text: selection, csv: None },
    Section { name: "blocking", text: blocking, csv: None },
    Section { name: "campaigns", text: campaigns, csv: None },
    Section { name: "granularity", text: granularity, csv: None },
    Section { name: "concentration", text: concentration, csv: None },
];

/// The section named `name`; `None` for any other name.
pub fn section(name: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.name == name)
}

impl Section {
    /// The section's text.
    pub fn render(&self, e: &Experiment) -> Result<String, PipelineError> {
        let mut out = String::new();
        self.write(e, &mut out)?;
        Ok(out)
    }

    /// Appends the section's text under its `render/<name>` span.
    fn write(&self, e: &Experiment, out: &mut String) -> Written {
        let _span = e.obs.span(&format!("render/{}", self.name));
        (self.text)(e, out)
    }

    /// The section's CSV form, rendered under its `render/<section>`
    /// span; `None` when it has none.
    pub fn render_csv(&self, e: &Experiment) -> Option<String> {
        let csv = self.csv?;
        let _span = e.obs.span(&format!("render/{}", self.name));
        let mut out = String::new();
        csv(e, &mut out);
        Some(out)
    }
}

/// The full report: the fault model on faulted runs, then every
/// section in table order, each under its `render/<section>` span,
/// then the metrics section on metrics-observed runs, one blank line
/// between each. A plain run renders exactly the sections.
pub(crate) fn full_report(e: &Experiment) -> Result<String, PipelineError> {
    let mut out = String::with_capacity(32 * 1024);
    if !e.faults.is_off() {
        fault_model(e, &mut out);
        out.push('\n');
    }
    for (i, section) in SECTIONS.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        section.write(e, &mut out)?;
    }
    if e.obs.metrics.is_on() {
        out.push('\n');
        write_metrics(e, &mut out);
    }
    Ok(out)
}

/// Appends the pipeline metrics section: every counter and histogram
/// the observed run recorded, in the registry's deterministic render
/// order (sorted by name, wall times excluded). The full report ends
/// with it when the run was observed with metrics on
/// ([`Experiment::obs`]); unobserved reports stay byte-identical to an
/// uninstrumented build.
pub fn write_metrics(e: &Experiment, out: &mut String) {
    header(e, out, "Pipeline metrics");
    out.push_str(&e.obs.metrics.render());
}

fn header(e: &Experiment, out: &mut String, title: &str) {
    w!(out, "== {title}\n   scenario: {}\n", e.scenario.name);
}

fn table1(e: &Experiment, out: &mut String) -> Written {
    header(e, out, "Table 1: spam domain feeds");
    w!(
        out,
        "{:<6} {:<22} {:>14} {:>10}\n",
        "Feed",
        "Type",
        "Samples",
        "Unique"
    );
    for row in e.table1() {
        w!(
            out,
            "{:<6} {:<22} {:>14} {:>10}\n",
            row.feed.label(),
            row.kind,
            row.samples.map_or("n/a".to_string(), grouped),
            grouped(row.unique_domains as u64),
        );
    }
    Ok(())
}

fn table2(e: &Experiment, out: &mut String) -> Written {
    header(e, out, "Table 2: feed purity");
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
    for row in e.table2() {
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
    Ok(())
}

/// Table 3: coverage totals and exclusive contributions.
fn table3(e: &Experiment, out: &mut String) -> Written {
    header(e, out, "Table 3: feed domain coverage");
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
    for row in e.table3() {
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
        e.exclusive_share(Category::Live) * 100.0,
        e.exclusive_share(Category::Tagged) * 100.0,
    );
    Ok(())
}

/// Fig 1: distinct-vs-exclusive scatter, printed as a table of log10
/// coordinates of Table 3's rows.
fn fig1(e: &Experiment, out: &mut String) -> Written {
    header(e, out, "Fig 1: distinct vs exclusive domains (log10)");
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
    for row in e.table3() {
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
    Ok(())
}

/// Fig 2: pairwise domain intersection, live then tagged.
fn fig2(e: &Experiment, out: &mut String) -> Written {
    for category in [Category::Live, Category::Tagged] {
        if category == Category::Tagged {
            out.push('\n');
        }
        let title = format!("Fig 2: pairwise feed intersection ({})", category.label());
        overlap_matrix(e, out, &title, &e.fig2(category))?;
    }
    Ok(())
}

/// Fig 3: volume coverage with Alexa+ODP overhang.
fn fig3(e: &Experiment, out: &mut String) -> Written {
    header(e, out, "Fig 3: feed volume coverage (incoming-mail oracle)");
    for category in [Category::Live, Category::Tagged] {
        w!(out, "-- {} domains --\n", category.label());
        w!(
            out,
            "{:<6} {:>9} {:>12}  bar\n",
            "Feed",
            "covered",
            "alexa+odp"
        );
        for bar in e.fig3(category) {
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
    Ok(())
}

fn fig4(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 4: pairwise affiliate-program coverage";
    overlap_matrix(e, out, title, &e.fig4())
}

fn fig5(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 5: pairwise RX-Promotion affiliate-id coverage";
    overlap_matrix(e, out, title, &e.fig5())
}

/// Fig 6: revenue-weighted affiliate coverage.
fn fig6(e: &Experiment, out: &mut String) -> Written {
    header(
        e,
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
    for bar in e.fig6() {
        w!(
            out,
            "{:<6} {:>10} {:>16.2} {:>7}\n",
            bar.feed.label(),
            bar.affiliates,
            bar.revenue_usd / 1.0e6,
            percent_label(bar.revenue_share),
        );
    }
    Ok(())
}

fn fig7(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 7: pairwise variational distance of tagged-domain frequency";
    float_matrix(e, out, title, &e.fig7())
}

fn fig8(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 8: pairwise Kendall rank correlation of tagged-domain frequency";
    float_matrix(e, out, title, &e.fig8())
}

fn fig9(e: &Experiment, out: &mut String) -> Written {
    let title =
        "Fig 9: relative first appearance (days; campaign start from all feeds excl. Bot/Hyb)";
    boxplots(e, out, title, &e.fig9(), "d")
}

fn fig10(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 10: relative first appearance (days; campaign start from honeypot feeds only)";
    boxplots(e, out, title, &e.fig10(), "d")
}

fn fig11(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 11: last appearance vs campaign end (hours)";
    boxplots(e, out, title, &e.fig11(), "h")
}

fn fig12(e: &Experiment, out: &mut String) -> Written {
    let title = "Fig 12: domain lifetime vs campaign duration (hours)";
    boxplots(e, out, title, &e.fig12(), "h")
}

/// Beyond the paper: greedy acquisition order and within-type
/// redundancy (the §5 diversity guidance, quantified), live then
/// tagged.
fn selection(e: &Experiment, out: &mut String) -> Written {
    for category in [Category::Live, Category::Tagged] {
        if category == Category::Tagged {
            out.push('\n');
        }
        let title = format!("Feed-portfolio study ({} domains)", category.label());
        header(e, out, &title);
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
        for (i, s) in e.selection(category).iter().enumerate() {
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
        for r in e.redundancy(category) {
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
    Ok(())
}

/// Beyond the paper: each feed replayed as a production filter. Fails
/// when the event log cannot be read.
fn blocking(e: &Experiment, out: &mut String) -> Written {
    let rows = e.blocking()?;
    header(e, out, "Filter replay: each feed as a domain blacklist");
    w!(
        out,
        "{:<6} {:>9} {:>10} {:>13} {:>9}\n",
        "Feed",
        "blocked",
        "eventual",
        "latency loss",
        "ham lost"
    );
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
    Ok(())
}

/// Beyond the paper: campaign-granularity coverage and the
/// domain-proxy fragmentation check.
fn campaigns(e: &Experiment, out: &mut String) -> Written {
    header(
        e,
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
    for r in e.campaigns() {
        w!(
            out,
            "{:<6} {:>11.0}% {:>11.0}% {:>13.0}%\n",
            r.feed.label(),
            r.loud_coverage() * 100.0,
            r.quiet_coverage() * 100.0,
            r.mean_fragmentation * 100.0,
        );
    }
    Ok(())
}

/// Beyond the paper: FQDN wildcarding per URL-granularity feed.
fn granularity(e: &Experiment, out: &mut String) -> Written {
    header(e, out, "Reporting granularity: FQDNs per registered domain");
    w!(
        out,
        "{:<6} {:>11} {:>10} {:>9}\n",
        "Feed",
        "registered",
        "FQDNs",
        "factor"
    );
    for r in e.granularity() {
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
    Ok(())
}

/// Beyond the paper: heavy-tail concentration of the simulated world
/// (campaign volume and RX affiliate revenue).
fn concentration(e: &Experiment, out: &mut String) -> Written {
    use taster_stats::concentration::{gini, top_share};
    let truth = &e.world.truth;
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
    header(
        e,
        out,
        "Concentration: who dominates the simulated ecosystem",
    );
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
    Ok(())
}

/// Fault model: what degradation was injected and what it cost. Only
/// rendered for faulted runs ([`Experiment::faults`] on); clean reports
/// stay byte-identical to a fault-free build.
fn fault_model(e: &Experiment, out: &mut String) {
    let profile = e.faults.profile();
    let crawl = &e.classified.crawl;
    header(e, out, "Fault model: injected degradation");
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
        let gaps = e.feeds.get(id).gaps();
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

fn overlap_matrix(
    e: &Experiment,
    out: &mut String,
    title: &str,
    m: &PairwiseMatrix<OverlapCell>,
) -> Written {
    let legend = "   cell = |row ∩ col| as % of col / count\n";
    // One scratch buffer per matrix: the `%/count` composition is
    // re-padded into the cell width without a fresh allocation.
    let mut scratch = String::new();
    matrix(e, out, title, m, legend, 10, |out, c| {
        scratch.clear();
        w!(
            scratch,
            "{}/{}",
            percent_label(c.fraction),
            count_label(c.count)
        );
        w!(out, "{:>10}", scratch);
    })
}

fn float_matrix(e: &Experiment, out: &mut String, title: &str, m: &PairwiseMatrix<f64>) -> Written {
    matrix(e, out, title, m, "", 7, |out, v| {
        w!(out, "{v:>7.2}");
    })
}

/// A pairwise matrix under `title` and `legend`: a row of column
/// labels, then one row per feed, each cell written by `cell` and
/// `width` wide.
fn matrix<T: Copy>(
    e: &Experiment,
    out: &mut String,
    title: &str,
    m: &PairwiseMatrix<T>,
    legend: &str,
    width: usize,
    mut cell: impl FnMut(&mut String, T),
) -> Written {
    header(e, out, title);
    if m.is_empty() {
        out.push_str("   (no rows)\n");
        return Ok(());
    }
    out.push_str(legend);
    w!(out, "{:<7}", "");
    for col in &m.feeds {
        w!(out, "{:>width$}", col.label());
    }
    if let Some(extra) = m.extra_label {
        w!(out, "{:>width$}", extra);
    }
    out.push('\n');
    for &row in &m.feeds {
        w!(out, "{:<7}", row.label());
        for &col in &m.feeds {
            cell(out, m.get(row, col));
        }
        if m.extra_label.is_some() {
            cell(out, m.get_extra(row));
        }
        out.push('\n');
    }
    Ok(())
}

fn boxplots(
    e: &Experiment,
    out: &mut String,
    title: &str,
    rows: &[(FeedId, Boxplot)],
    unit: &str,
) -> Written {
    header(e, out, title);
    if rows.is_empty() {
        out.push_str("   (no data)\n");
        return Ok(());
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{section, SECTIONS};
    use crate::{Experiment, Scenario};

    fn text(e: &Experiment, name: &str) -> String {
        section(name).unwrap().render(e).unwrap()
    }

    #[test]
    fn full_report_renders_every_section() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(21));
        let report = e.render_report();
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

    /// The full render is exactly the single-section renders joined
    /// with blank lines: both walk the one table.
    #[test]
    fn full_report_matches_joined_sections() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(21));
        let joined: Vec<String> = SECTIONS.iter().map(|s| s.render(&e).unwrap()).collect();
        assert_eq!(e.render_report(), joined.join("\n"));
        assert_eq!(SECTIONS.len(), 20);
        assert_eq!(SECTIONS.iter().filter(|s| s.csv.is_some()).count(), 13);
        assert!(section("all").is_none() && section("nope").is_none());
    }

    #[test]
    fn extra_study_sections_render() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(21));
        let blocking = text(&e, "blocking");
        assert!(blocking.contains("Filter replay"));
        assert!(blocking.contains("latency loss"));
        let campaigns = text(&e, "campaigns");
        assert!(campaigns.contains("fragmentation"));
        let granularity = text(&e, "granularity");
        assert!(granularity.contains("FQDNs"));
        let concentration = text(&e, "concentration");
        assert!(concentration.contains("gini"));
        let selection = text(&e, "selection");
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
        let a = Experiment::run(&s).render_report();
        let b = Experiment::run(&s).render_report();
        assert_eq!(a, b);
    }

    /// `taster ab` and `taster replicate` label a 97.5 % level alike.
    #[test]
    fn level_labels_keep_fractional_percents() {
        assert_eq!(super::fmt_level(0.95), "95");
        assert_eq!(super::fmt_level(0.975), "97.5");
    }

    /// Fig 2 and the selection study render both categories, live
    /// first, each under its own header.
    #[test]
    fn category_sections_render_live_then_tagged() {
        let e = Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(9));
        for name in ["fig2", "selection"] {
            let text = text(&e, name);
            let (live, tagged) = text.split_once("\n\n").unwrap();
            assert!(live.lines().next().unwrap().contains("(live"), "{name}");
            assert!(tagged.lines().next().unwrap().contains("(tagged"), "{name}");
            assert_ne!(live, tagged.replace("tagged", "live"), "{name}");
        }
    }
}
