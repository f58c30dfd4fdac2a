//! End-to-end shape-target tests.
//!
//! DESIGN.md §4 defines what "reproduced" means for this toolkit: the
//! paper's *qualitative* findings must hold on the default scenario.
//! These tests run one moderately-sized experiment (scale 0.3, seed
//! 20100801) and assert each finding with tolerant bounds;
//! EXPERIMENTS.md records the full-scale numbers.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;
use taster::analysis::classify::Category;
use taster::core::{Experiment, Scenario};
use taster::feeds::FeedId;

fn experiment() -> &'static Experiment {
    static EXP: OnceLock<Experiment> = OnceLock::new();
    EXP.get_or_init(|| {
        Experiment::run(
            &Scenario::default_paper()
                .with_scale(0.3)
                .with_seed(20_100_801),
        )
    })
}

fn purity_of(id: FeedId) -> taster::analysis::purity::PurityRow {
    experiment()
        .table2()
        .into_iter()
        .find(|r| r.feed == id)
        .unwrap()
}

/// Target 1: `Hu` is small in volume yet has the largest unique live
/// and tagged domain coverage.
#[test]
fn target1_hu_breadth_despite_low_volume() {
    let e = experiment();
    let hu_samples = e.feeds.get(FeedId::Hu).samples.unwrap();
    for big in [FeedId::Mx2, FeedId::Bot, FeedId::Mx1] {
        assert!(
            hu_samples < e.feeds.get(big).samples.unwrap(),
            "Hu ({hu_samples}) smaller than {big}"
        );
    }
    let rows = e.table3();
    let hu = rows.iter().find(|r| r.feed == FeedId::Hu).unwrap();
    for r in &rows {
        assert!(hu.live.total >= r.live.total, "Hu live vs {}", r.feed);
        assert!(hu.tagged.total >= r.tagged.total, "Hu tagged vs {}", r.feed);
    }
    // Hu's tagged coverage of the union is dominant (paper: 96 %).
    let m = e.fig2(Category::Tagged);
    assert!(
        m.get_extra(FeedId::Hu).fraction > 0.8,
        "Hu tagged union coverage {:.2}",
        m.get_extra(FeedId::Hu).fraction
    );
}

/// Target 2: the poisoning collapses `Bot` and `mx2` registration
/// purity while the other honeypots stay high.
#[test]
fn target2_poisoning_collapses_bot_and_mx2() {
    let bot = purity_of(FeedId::Bot);
    let mx2 = purity_of(FeedId::Mx2);
    let mx1 = purity_of(FeedId::Mx1);
    let mx3 = purity_of(FeedId::Mx3);
    assert!(bot.dns < 0.10, "Bot DNS {:.3}", bot.dns);
    assert!(mx2.dns < 0.45, "mx2 DNS {:.3}", mx2.dns);
    assert!(mx1.dns > 0.9, "mx1 DNS {:.3}", mx1.dns);
    assert!(mx3.dns > 0.9, "mx3 DNS {:.3}", mx3.dns);
}

/// Target 3: blacklists have the lowest Alexa/ODP contamination and
/// perfect registration purity.
#[test]
fn target3_blacklists_are_purest() {
    for id in [FeedId::Dbl, FeedId::Uribl] {
        let r = purity_of(id);
        assert!(r.dns > 0.99, "{id} DNS {:.3}", r.dns);
        assert!(r.odp + r.alexa < 0.03, "{id} benign {:.3}", r.odp + r.alexa);
    }
    // Honeypots are measurably dirtier.
    let mx1 = purity_of(FeedId::Mx1);
    assert!(mx1.odp + mx1.alexa > 0.05);
}

/// Target 4: a large share of live domains is exclusive to one feed;
/// tagged exclusivity is much lower.
#[test]
fn target4_exclusive_shares() {
    let e = experiment();
    let live = e.exclusive_share(Category::Live);
    let tagged = e.exclusive_share(Category::Tagged);
    assert!(live > 0.3, "live exclusive share {live:.2}");
    assert!(tagged < live, "tagged {tagged:.2} < live {live:.2}");
}

/// Target 5: Alexa/ODP domains dominate live-domain volume in
/// content-derived feeds, but not in the curated blacklists.
#[test]
fn target5_benign_volume_overhang() {
    let e = experiment();
    let bars = e.fig3(Category::Live);
    let get = |id: FeedId| bars.iter().find(|b| b.feed == id).copied().unwrap();
    for id in [FeedId::Mx1, FeedId::Mx2, FeedId::Ac1, FeedId::Hu] {
        let b = get(id);
        assert!(
            b.benign_overhang > b.covered,
            "{id}: overhang {:.2} vs covered {:.2}",
            b.benign_overhang,
            b.covered
        );
    }
    let dbl = get(FeedId::Dbl);
    assert!(
        dbl.benign_overhang < dbl.covered * 2.0,
        "dbl overhang small"
    );
}

/// Target 6: `Bot` covers few programs and almost no RX affiliates;
/// `Hu` covers nearly everything.
#[test]
fn target6_program_and_affiliate_coverage() {
    let e = experiment();
    let programs = e.fig4();
    let bot_prog = programs.get_extra(FeedId::Bot).count;
    let hu_prog = programs.get_extra(FeedId::Hu).count;
    assert!(bot_prog <= 20, "Bot programs {bot_prog}");
    assert!(hu_prog as f64 >= 0.8 * 45.0, "Hu programs {hu_prog}");

    let affs = e.fig5();
    let hu = affs.get_extra(FeedId::Hu).count;
    let bot = affs.get_extra(FeedId::Bot).count;
    let dbl = affs.get_extra(FeedId::Dbl).count;
    let mx2 = affs.get_extra(FeedId::Mx2).count;
    assert!(bot * 5 < hu, "Bot {bot} ≪ Hu {hu}");
    assert!(
        mx2 < dbl,
        "mx2 {mx2} < dbl {dbl} (honeypots see few affiliates)"
    );
    assert!(dbl < hu, "dbl {dbl} < Hu {hu}");

    // Fig 6: revenue coverage is skewed towards the feeds that catch
    // the big spammers.
    let rev = e.fig6();
    let share = |id: FeedId| rev.iter().find(|b| b.feed == id).unwrap().revenue_share;
    let aff_frac = dbl as f64 / hu as f64;
    let rev_frac = share(FeedId::Dbl) / share(FeedId::Hu).max(1e-9);
    assert!(
        rev_frac > aff_frac,
        "dbl revenue share ({rev_frac:.2}) exceeds its affiliate share ({aff_frac:.2})"
    );
}

/// Target 7: proportionality — MX feeds resemble each other, Ac2 is
/// the outlier, and mx3 is closer to Bot than to the other MX feeds.
#[test]
fn target7_proportionality_structure() {
    let e = experiment();
    let m = e.fig7();
    let mx12 = m.get(FeedId::Mx1, FeedId::Mx2);
    let mx1_ac2 = m.get(FeedId::Mx1, FeedId::Ac2);
    let mx3_bot = m.get(FeedId::Mx3, FeedId::Bot);
    let mx3_mx1 = m.get(FeedId::Mx3, FeedId::Mx1);
    assert!(mx12 < 0.35, "mx1↔mx2 δ {mx12:.2}");
    assert!(mx12 < mx1_ac2, "Ac2 outlier: {mx12:.2} < {mx1_ac2:.2}");
    assert!(
        mx3_bot < mx3_mx1,
        "mx3 closer to Bot ({mx3_bot:.2}) than to mx1 ({mx3_mx1:.2})"
    );
    // Kendall agrees on feed self-similarity bounds.
    let k = e.fig8();
    for a in FeedId::WITH_VOLUME {
        for b in FeedId::WITH_VOLUME {
            assert!((-1.0..=1.0).contains(&k.get(a, b)));
        }
    }
}

/// Target 8: timing — `Hu` and `dbl` see domains within ~a day of
/// campaign start, honeypots lag by more; the honeypot-only baseline
/// compresses the latencies.
#[test]
fn target8_timing_structure() {
    let e = experiment();
    let fig9 = e.fig9();
    let get = |rows: &[(FeedId, taster::stats::Boxplot)], id: FeedId| {
        rows.iter()
            .find(|(f, _)| *f == id)
            .map(|(_, b)| *b)
            .unwrap()
    };
    let hu = get(&fig9, FeedId::Hu);
    let dbl = get(&fig9, FeedId::Dbl);
    let mx1 = get(&fig9, FeedId::Mx1);
    let ac1 = get(&fig9, FeedId::Ac1);
    assert!(hu.median < 1.2, "Hu median {:.2}d", hu.median);
    assert!(dbl.median < 1.0, "dbl median {:.2}d", dbl.median);
    assert!(
        mx1.median > hu.median,
        "mx1 {:.2} > Hu {:.2}",
        mx1.median,
        hu.median
    );
    assert!(ac1.median > dbl.median);

    let fig10 = e.fig10();
    for id in [FeedId::Mx1, FeedId::Mx2, FeedId::Ac1] {
        let wide = get(&fig9, id);
        let narrow = get(&fig10, id);
        assert!(
            narrow.median <= wide.median,
            "{id}: narrow {:.2} ≤ wide {:.2}",
            narrow.median,
            wide.median
        );
    }

    // Figs 11–12: error distributions are non-negative with sub-two-day
    // medians and longer tails.
    for rows in [e.fig11(), e.fig12()] {
        for (id, b) in rows {
            assert!(b.min >= -1e-9, "{id}");
            assert!(b.median < 48.0, "{id} median {:.1}h", b.median);
            assert!(b.p95 >= b.median);
        }
    }
}
