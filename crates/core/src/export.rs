//! CSV export of every artifact, for downstream plotting.
//!
//! The text report mirrors the paper; real replications want to
//! re-plot. Every table and figure is exportable as RFC 4180-ish CSV
//! (quoted fields where needed, `\n` records), via the same typed
//! accessors the report renderer uses. The CLI exposes these through
//! `taster report --format csv`.

use crate::experiment::Experiment;
use taster_analysis::classify::Category;
use taster_analysis::matrix::OverlapCell;
use taster_analysis::PairwiseMatrix;
use taster_feeds::FeedId;
use taster_stats::Boxplot;

/// Quotes a CSV field when necessary.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn row(fields: &[String]) -> String {
    let mut out = fields
        .iter()
        .map(|f| field(f))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    out
}

/// CSV exporter over an experiment.
pub struct CsvExport<'a> {
    experiment: &'a Experiment,
}

impl<'a> CsvExport<'a> {
    /// Wraps an experiment.
    pub fn new(experiment: &'a Experiment) -> CsvExport<'a> {
        CsvExport { experiment }
    }

    /// Table 1 as CSV.
    pub fn table1(&self) -> String {
        let mut out = row(&[
            "feed".into(),
            "type".into(),
            "samples".into(),
            "unique".into(),
        ]);
        for r in self.experiment.table1() {
            out += &row(&[
                r.feed.label().into(),
                r.kind.into(),
                r.samples.map_or(String::new(), |s| s.to_string()),
                r.unique_domains.to_string(),
            ]);
        }
        out
    }

    /// Table 2 as CSV (fractions, not percent strings).
    pub fn table2(&self) -> String {
        let mut out = row(&[
            "feed".into(),
            "dns".into(),
            "http".into(),
            "tagged".into(),
            "odp".into(),
            "alexa".into(),
        ]);
        for r in self.experiment.table2() {
            out += &row(&[
                r.feed.label().into(),
                format!("{:.6}", r.dns),
                format!("{:.6}", r.http),
                format!("{:.6}", r.tagged),
                format!("{:.6}", r.odp),
                format!("{:.6}", r.alexa),
            ]);
        }
        out
    }

    /// Table 3 as CSV.
    pub fn table3(&self) -> String {
        let mut out = row(&[
            "feed".into(),
            "all_total".into(),
            "all_exclusive".into(),
            "live_total".into(),
            "live_exclusive".into(),
            "tagged_total".into(),
            "tagged_exclusive".into(),
        ]);
        for r in self.experiment.table3() {
            out += &row(&[
                r.feed.label().into(),
                r.all.total.to_string(),
                r.all.exclusive.to_string(),
                r.live.total.to_string(),
                r.live.exclusive.to_string(),
                r.tagged.total.to_string(),
                r.tagged.exclusive.to_string(),
            ]);
        }
        out
    }

    /// An overlap matrix (Figs 2, 4, 5) as long-form CSV.
    pub fn overlap_matrix(&self, m: &PairwiseMatrix<OverlapCell>) -> String {
        let mut out = row(&[
            "row".into(),
            "col".into(),
            "count".into(),
            "fraction".into(),
        ]);
        for &r in &m.feeds {
            for &c in &m.feeds {
                let cell = m.get(r, c);
                out += &row(&[
                    r.label().into(),
                    c.label().into(),
                    cell.count.to_string(),
                    format!("{:.6}", cell.fraction),
                ]);
            }
            if let Some(extra) = m.extra_label {
                let cell = m.get_extra(r);
                out += &row(&[
                    r.label().into(),
                    extra.into(),
                    cell.count.to_string(),
                    format!("{:.6}", cell.fraction),
                ]);
            }
        }
        out
    }

    /// A float matrix (Figs 7–8) as long-form CSV.
    pub fn float_matrix(&self, m: &PairwiseMatrix<f64>) -> String {
        let mut out = row(&["row".into(), "col".into(), "value".into()]);
        for &r in &m.feeds {
            for &c in &m.feeds {
                out += &row(&[
                    r.label().into(),
                    c.label().into(),
                    format!("{:.6}", m.get(r, c)),
                ]);
            }
            if let Some(extra) = m.extra_label {
                out += &row(&[
                    r.label().into(),
                    extra.into(),
                    format!("{:.6}", m.get_extra(r)),
                ]);
            }
        }
        out
    }

    /// Boxplot rows (Figs 9–12) as CSV.
    pub fn boxplots(&self, rows: &[(FeedId, Boxplot)]) -> String {
        let mut out = row(&[
            "feed".into(),
            "n".into(),
            "min".into(),
            "p5".into(),
            "q1".into(),
            "median".into(),
            "q3".into(),
            "p95".into(),
            "max".into(),
        ]);
        for (f, b) in rows {
            out += &row(&[
                f.label().into(),
                b.n.to_string(),
                format!("{:.6}", b.min),
                format!("{:.6}", b.p5),
                format!("{:.6}", b.q1),
                format!("{:.6}", b.median),
                format!("{:.6}", b.q3),
                format!("{:.6}", b.p95),
                format!("{:.6}", b.max),
            ]);
        }
        out
    }

    /// Fig 3 bars as CSV (both categories).
    pub fn volume_bars(&self) -> String {
        let mut out = row(&[
            "category".into(),
            "feed".into(),
            "covered".into(),
            "benign_overhang".into(),
        ]);
        for cat in [Category::Live, Category::Tagged] {
            for b in self.experiment.fig3(cat) {
                out += &row(&[
                    cat.label().into(),
                    b.feed.label().into(),
                    format!("{:.6}", b.covered),
                    format!("{:.6}", b.benign_overhang),
                ]);
            }
        }
        out
    }

    /// Exports the named entry of [`CSV_SECTIONS`]; `None` for any
    /// other name.
    pub fn section(&self, name: &str) -> Option<String> {
        let (_, export) = CSV_SECTIONS.iter().find(|(n, _)| *n == name)?;
        Some(export(self))
    }
}

/// A report section ([`SECTIONS`](crate::report::SECTIONS)) with a
/// CSV form: its name and that form.
pub type CsvSection = (&'static str, fn(&CsvExport<'_>) -> String);

/// Every section with a CSV form, in full-report order.
pub const CSV_SECTIONS: &[CsvSection] = &[
    ("table1", |c| c.table1()),
    ("table2", |c| c.table2()),
    ("table3", |c| c.table3()),
    ("fig2", |c| {
        c.overlap_matrix(&c.experiment.fig2(Category::Live))
            + &c.overlap_matrix(&c.experiment.fig2(Category::Tagged))
    }),
    ("fig3", |c| c.volume_bars()),
    ("fig4", |c| c.overlap_matrix(&c.experiment.fig4())),
    ("fig5", |c| c.overlap_matrix(&c.experiment.fig5())),
    ("fig7", |c| c.float_matrix(&c.experiment.fig7())),
    ("fig8", |c| c.float_matrix(&c.experiment.fig8())),
    ("fig9", |c| c.boxplots(&c.experiment.fig9())),
    ("fig10", |c| c.boxplots(&c.experiment.fig10())),
    ("fig11", |c| c.boxplots(&c.experiment.fig11())),
    ("fig12", |c| c.boxplots(&c.experiment.fig12())),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn experiment() -> Experiment {
        Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(33))
    }

    #[test]
    fn every_section_exports_parsable_csv() {
        let e = experiment();
        let csv = CsvExport::new(&e);
        for name in [
            "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8",
        ] {
            let text = csv.section(name).unwrap_or_else(|| panic!("{name}"));
            let mut lines = text.lines();
            let header = lines.next().unwrap();
            let cols = header.split(',').count();
            assert!(cols >= 3, "{name}: header {header}");
            for line in lines {
                if line.split(',').count() != cols {
                    // Header repetition at category boundary (fig2).
                    assert_eq!(line.split(',').count(), cols, "{name}: {line}");
                }
            }
        }
        assert!(csv.section("nope").is_none());
    }

    #[test]
    fn quoting_is_applied() {
        assert_eq!(super::field("plain"), "plain");
        assert_eq!(super::field("a,b"), "\"a,b\"");
        assert_eq!(super::field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn table2_values_are_fractions() {
        let e = experiment();
        let text = CsvExport::new(&e).table2();
        for line in text.lines().skip(1) {
            for v in line.split(',').skip(1) {
                let f: f64 = v.parse().unwrap();
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
