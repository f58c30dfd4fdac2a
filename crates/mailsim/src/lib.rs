//! # taster-mailsim
//!
//! The mail-delivery substrate: everything that happens between a
//! campaign emitting a copy and a feed collector observing it.
//!
//! * [`render`] — RFC 5322-flavoured message rendering. Collectors that
//!   model full-content feeds (MX honeypots, botnet monitors) parse
//!   advertised domains back *out* of rendered bodies through
//!   `taster-domain`'s URL scanner and suffix list, exactly as a real
//!   pipeline would.
//! * [`provider`] — the very large Web-mail provider behind the `Hu`
//!   feed and the *incoming mail oracle* (§4.2.2): per-class reach of
//!   address lists into the provider's user base, baseline filtering,
//!   "this is spam" user reports with human-time delays, and the
//!   volume-saturating feedback loop (reported domains get filtered,
//!   capping high-volume campaigns' representation).
//! * [`benign`] — legitimate mail that pollutes collectors: typo'd
//!   recipient domains landing in MX honeypots (doppelganger traffic,
//!   §3.3), dummy sign-up addresses, and user-reported legitimate
//!   newsletters.
//! * [`world`] — [`world::MailWorld`]: ground truth plus all derived
//!   mail-layer streams, the single input the feed layer consumes.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_types
    )
)]
#![warn(missing_docs)]

pub mod benign;
pub mod config;
pub mod provider;
pub mod render;
pub mod world;

pub use config::MailConfig;
pub use world::MailWorld;
