//! # taster-stats
//!
//! The statistics substrate of the *Taster's Choice* toolkit.
//!
//! The paper's proportionality analysis (§4.3) compares feeds as
//! *empirical domain distributions* using two metrics, and its timing
//! analysis (§4.4) reports quartile boxplots; the ecosystem simulator
//! additionally needs heavy-tailed samplers. This crate provides all
//! of that with no dependencies beyond `rand`:
//!
//! * [`empirical::EmpiricalDist`] — a volume-weighted empirical
//!   distribution over dense keys.
//! * [`variation::variation_distance`] — total variation distance
//!   ½·Σ|pᵢ−qᵢ| (Fig 7).
//! * [`kendall::kendall_tau_b`] — tie-adjusted Kendall rank correlation
//!   (Fig 8), O(n log n) with an O(n²) reference used by tests.
//! * [`quantile`](mod@quantile) — interpolated quantiles and
//!   [`quantile::Boxplot`] five-number summaries (Figs 9–12).
//! * [`sample`] — Zipf, bounded-Pareto and log-normal samplers used to
//!   shape campaign volumes, affiliate revenue and benign-domain
//!   popularity.
//! * [`infer`] — replication inference: Welch and paired t-tests and
//!   keyed percentile+BCa bootstrap CIs over [`infer::MetricSamples`]
//!   tables.
//! * [`concentration`] — Gini coefficient and top-k shares for the
//!   heavy-tail statements the paper makes in prose.
//! * [`summary`] — means, standard deviations and counting helpers.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]
#![warn(missing_docs)]

pub mod concentration;
pub mod empirical;
pub mod infer;
pub mod kendall;
pub mod quantile;
pub mod sample;
pub mod summary;
pub mod variation;

pub use empirical::EmpiricalDist;
pub use kendall::kendall_tau_b;
pub use quantile::{quantile, Boxplot};
pub use variation::variation_distance;
