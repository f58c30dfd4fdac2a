//! # taster-crawler
//!
//! The web-crawling and content-tagging substrate — the simulated
//! counterpart of the Click Trajectories full-fidelity crawler the
//! paper relied on (§3.4).
//!
//! Given a set of domains collected by the feeds, the crawler:
//!
//! 1. checks **DNS registration** against the registration oracle
//!    (Table 2's "DNS" column),
//! 2. issues **HTTP fetches**, following redirect chains through
//!    landing domains to the final storefront (Table 2's "HTTP"),
//! 3. renders the final page and matches it against the **storefront
//!    signature set** of the 45 classified programs (Table 2's
//!    "Tagged"), extracting the embedded affiliate identifier where the
//!    program exposes one (RX-Promotion, Figs 5–6),
//! 4. reports **Alexa/ODP membership** (the negative purity columns).
//!
//! The oracles are deterministic views over ground truth — the
//! simulation's stand-in for the real DNS and web. Signature matching,
//! however, genuinely operates on rendered HTML: a tagging bug would
//! produce wrong tables, not a silently-correct shortcut.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_types
    )
)]

pub mod crawl;
pub mod oracle;
pub mod page;
pub mod tagger;

pub use crawl::{CrawlReport, CrawlResult, Crawler, Disposition, Tag};
pub use oracle::{DnsOracle, HttpOracle, ListMembership};
pub use tagger::SignatureSet;
