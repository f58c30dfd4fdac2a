//! # taster-analysis
//!
//! The paper's primary contribution: feed-quality analytics along the
//! four axes of §4, implemented over the data model of `taster-feeds`
//! and the crawl results of `taster-crawler`.
//!
//! * [`classify`] — crawls the union of feed contents and derives each
//!   feed's *all* / *live* / *tagged* domain sets (§4.1.4), optionally
//!   restricting blacklists to the base-feed union exactly as the
//!   paper had to (§3.4).
//! * [`summary`] — Table 1 (feed sizes).
//! * [`purity`] — Table 2 (DNS / HTTP / Tagged positive indicators,
//!   ODP / Alexa negative indicators).
//! * [`coverage`] — Table 3 and Figs 1–2 (totals, exclusive
//!   contributions, pairwise intersection matrices).
//! * [`volume`] — Fig 3 (oracle-weighted volume coverage, with the
//!   Alexa+ODP overhang).
//! * [`programs`] — Fig 4 (affiliate-program coverage matrix).
//! * [`affiliates`] — Figs 5–6 (RX-Promotion affiliate-ID coverage and
//!   revenue-weighted coverage).
//! * [`blocking`] — beyond the paper's figures: time-aware evaluation
//!   of each feed as a production filter (spam blocked vs. ham lost,
//!   and how much blocking latency costs).
//! * [`granularity`] — beyond the paper's figures: the FQDN-vs-
//!   registered-domain wildcard factor behind the §3.1 blacklisting
//!   granularity argument.
//! * [`campaigns`] — beyond the paper's figures: campaign-granularity
//!   validation of the domain-as-proxy assumption, possible only with
//!   simulated ground truth.
//! * [`selection`] — beyond the paper's figures: greedy feed-portfolio
//!   selection and within-type redundancy, operationalising the §5
//!   diversity guidance.
//! * [`proportionality`] — Figs 7–8 (pairwise variation distance and
//!   Kendall tau-b against each other and the incoming-mail oracle).
//! * [`timing`] — Figs 9–12 (relative first/last appearance and
//!   duration error boxplots).
//! * [`matrix`] — the shared labelled-matrix container.
//! * [`error`] — the typed [`error::AnalysisError`] surface.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)
)]

pub mod affiliates;
pub mod blocking;
pub mod campaigns;
pub mod classify;
pub mod coverage;
pub mod error;
pub mod granularity;
pub mod matrix;
pub mod programs;
pub mod proportionality;
pub mod purity;
pub mod selection;
pub mod summary;
pub mod timing;
pub mod volume;

pub use classify::{Classified, ClassifyOptions};
pub use error::AnalysisError;
pub use matrix::PairwiseMatrix;
