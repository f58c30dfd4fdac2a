//! CSV forms of the report sections, for downstream plotting.
//!
//! The text report mirrors the paper; real replications want to
//! re-plot. Each table and figure with a tabular shape is exportable as
//! RFC 4180-ish CSV (quoted fields where needed, `\n` records), via the
//! same typed accessors the text writers use. Each writer here is the
//! CSV column of its [`SECTIONS`](crate::report::SECTIONS) row, which
//! `taster report --section NAME --format csv` prints.

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

/// Table 1.
pub(crate) fn table1(e: &Experiment, out: &mut String) {
    out.push_str("feed,type,samples,unique\n");
    for r in e.table1() {
        *out += &row(&[
            r.feed.label().into(),
            r.kind.into(),
            r.samples.map_or(String::new(), |s| s.to_string()),
            r.unique_domains.to_string(),
        ]);
    }
}

/// Table 2 (fractions, not percent strings).
pub(crate) fn table2(e: &Experiment, out: &mut String) {
    out.push_str("feed,dns,http,tagged,odp,alexa\n");
    for r in e.table2() {
        *out += &row(&[
            r.feed.label().into(),
            format!("{:.6}", r.dns),
            format!("{:.6}", r.http),
            format!("{:.6}", r.tagged),
            format!("{:.6}", r.odp),
            format!("{:.6}", r.alexa),
        ]);
    }
}

/// Table 3.
pub(crate) fn table3(e: &Experiment, out: &mut String) {
    out.push_str(
        "feed,all_total,all_exclusive,live_total,live_exclusive,\
         tagged_total,tagged_exclusive\n",
    );
    for r in e.table3() {
        *out += &row(&[
            r.feed.label().into(),
            r.all.total.to_string(),
            r.all.exclusive.to_string(),
            r.live.total.to_string(),
            r.live.exclusive.to_string(),
            r.tagged.total.to_string(),
            r.tagged.exclusive.to_string(),
        ]);
    }
}

/// Fig 2: the live matrix, then the tagged one.
pub(crate) fn fig2(e: &Experiment, out: &mut String) {
    overlap_matrix(out, &e.fig2(Category::Live));
    overlap_matrix(out, &e.fig2(Category::Tagged));
}

/// Fig 3's bars, both categories.
pub(crate) fn fig3(e: &Experiment, out: &mut String) {
    out.push_str("category,feed,covered,benign_overhang\n");
    for cat in [Category::Live, Category::Tagged] {
        for b in e.fig3(cat) {
            *out += &row(&[
                cat.label().into(),
                b.feed.label().into(),
                format!("{:.6}", b.covered),
                format!("{:.6}", b.benign_overhang),
            ]);
        }
    }
}

pub(crate) fn fig4(e: &Experiment, out: &mut String) {
    overlap_matrix(out, &e.fig4());
}

pub(crate) fn fig5(e: &Experiment, out: &mut String) {
    overlap_matrix(out, &e.fig5());
}

pub(crate) fn fig7(e: &Experiment, out: &mut String) {
    float_matrix(out, &e.fig7());
}

pub(crate) fn fig8(e: &Experiment, out: &mut String) {
    float_matrix(out, &e.fig8());
}

pub(crate) fn fig9(e: &Experiment, out: &mut String) {
    boxplots(out, &e.fig9());
}

pub(crate) fn fig10(e: &Experiment, out: &mut String) {
    boxplots(out, &e.fig10());
}

pub(crate) fn fig11(e: &Experiment, out: &mut String) {
    boxplots(out, &e.fig11());
}

pub(crate) fn fig12(e: &Experiment, out: &mut String) {
    boxplots(out, &e.fig12());
}

/// An overlap matrix (Figs 2, 4, 5) as long-form CSV.
fn overlap_matrix(out: &mut String, m: &PairwiseMatrix<OverlapCell>) {
    out.push_str("row,col,count,fraction\n");
    for &r in &m.feeds {
        for &c in &m.feeds {
            let cell = m.get(r, c);
            *out += &row(&[
                r.label().into(),
                c.label().into(),
                cell.count.to_string(),
                format!("{:.6}", cell.fraction),
            ]);
        }
        if let Some(extra) = m.extra_label {
            let cell = m.get_extra(r);
            *out += &row(&[
                r.label().into(),
                extra.into(),
                cell.count.to_string(),
                format!("{:.6}", cell.fraction),
            ]);
        }
    }
}

/// A float matrix (Figs 7–8) as long-form CSV.
fn float_matrix(out: &mut String, m: &PairwiseMatrix<f64>) {
    out.push_str("row,col,value\n");
    for &r in &m.feeds {
        for &c in &m.feeds {
            *out += &row(&[
                r.label().into(),
                c.label().into(),
                format!("{:.6}", m.get(r, c)),
            ]);
        }
        if let Some(extra) = m.extra_label {
            *out += &row(&[
                r.label().into(),
                extra.into(),
                format!("{:.6}", m.get_extra(r)),
            ]);
        }
    }
}

/// Boxplot rows (Figs 9–12).
fn boxplots(out: &mut String, rows: &[(FeedId, Boxplot)]) {
    out.push_str("feed,n,min,p5,q1,median,q3,p95,max\n");
    for (f, b) in rows {
        *out += &row(&[
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
}

#[cfg(test)]
mod tests {
    use crate::report::{section, SECTIONS};
    use crate::{Experiment, Scenario};

    fn experiment() -> Experiment {
        Experiment::run(&Scenario::default_paper().with_scale(0.02).with_seed(33))
    }

    #[test]
    fn every_section_exports_parsable_csv() {
        let e = experiment();
        for s in SECTIONS.iter().filter(|s| s.csv.is_some()) {
            let text = s.render_csv(&e).unwrap();
            let mut lines = text.lines();
            let header = lines.next().unwrap();
            let cols = header.split(',').count();
            assert!(cols >= 3, "{}: header {header}", s.name);
            for line in lines {
                assert_eq!(line.split(',').count(), cols, "{}: {line}", s.name);
            }
        }
        assert!(section("fig6").unwrap().render_csv(&e).is_none());
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
        let text = section("table2").unwrap().render_csv(&e).unwrap();
        for line in text.lines().skip(1) {
            for v in line.split(',').skip(1) {
                let f: f64 = v.parse().unwrap();
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
