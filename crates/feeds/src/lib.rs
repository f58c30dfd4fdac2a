//! # taster-feeds
//!
//! The ten spam-domain feeds of the paper (Table 1), re-created by
//! *collection mechanism* over the simulated ecosystem:
//!
//! | Feed   | Type                  | Collector                        |
//! |--------|-----------------------|----------------------------------|
//! | `Hu`   | Human identified      | [`collectors::hu`]               |
//! | `dbl`  | Domain blacklist      | [`collectors::blacklist`]        |
//! | `uribl`| Domain blacklist      | [`collectors::blacklist`]        |
//! | `mx1-3`| MX honeypots          | [`collectors::mx`]               |
//! | `Ac1-2`| Seeded honey accounts | [`collectors::ac`]               |
//! | `Bot`  | Botnet monitor        | [`collectors::bot`]              |
//! | `Hyb`  | Hybrid                | [`collectors::hyb`]              |
//!
//! Full-content collectors (honeypots, the botnet monitor) receive
//! *rendered message text* and recover registered domains through the
//! URL scanner and public-suffix engine — the same lowest-common-
//! denominator reduction the paper performs (§3). Blacklists are
//! meta-feeds with binary listing semantics and no volume information.
//!
//! One driver collects every feed: [`IngestState`] ingests the
//! time-sorted event log in slices through a fused per-event kernel
//! and replays each feed's pre-decided non-event records by time.
//! [`try_collect_all_observed`] advances it over every row and seals
//! once; `taster serve` advances it epoch by epoch and seals after
//! each, so the daemon's final set is the batch set by construction.
//!
//! The output is a [`feed::FeedSet`]: ten sealed [`feed::Feed`]s, each
//! a map from registered domain to first-seen/last-seen/volume, plus
//! raw sample counts — everything the analyses in `taster-analysis`
//! consume. Collection writes into [`feed::FeedBuilder`]s.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)
)]

pub mod collectors;
pub mod config;
mod engine;
pub mod error;
pub mod feed;
pub mod id;
pub mod incremental;
pub mod parse;
pub mod pipeline;
pub mod table;

pub use config::FeedsConfig;
pub use error::PipelineError;
pub use feed::{DomainStats, Feed, FeedBuilder, FeedSet};
pub use id::{FeedId, FeedKind};
pub use incremental::IngestState;
pub use pipeline::{collect_all, try_collect_all_observed};
pub use table::FeedColumns;

use taster_sim::rng::StreamKey;

/// The collectors' RNG streams: one per sampling feed, the shared
/// per-event message render, and the hybrid feed's two non-e-mail
/// sources.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Mx1,
    Mx2,
    Mx3,
    Ac1,
    Ac2,
    Bot,
    Hyb,
    Dbl,
    Uribl,
    RenderSpam,
    HybReports,
    HybWebspam,
}

impl StreamKey for Stream {
    const ALL: &'static [Stream] = &[
        Stream::Mx1,
        Stream::Mx2,
        Stream::Mx3,
        Stream::Ac1,
        Stream::Ac2,
        Stream::Bot,
        Stream::Hyb,
        Stream::Dbl,
        Stream::Uribl,
        Stream::RenderSpam,
        Stream::HybReports,
        Stream::HybWebspam,
    ];

    fn name(&self) -> &str {
        match self {
            Stream::Mx1 => "feeds/mx1",
            Stream::Mx2 => "feeds/mx2",
            Stream::Mx3 => "feeds/mx3",
            Stream::Ac1 => "feeds/ac1",
            Stream::Ac2 => "feeds/ac2",
            Stream::Bot => "feeds/bot",
            Stream::Hyb => "feeds/hyb",
            Stream::Dbl => "feeds/dbl",
            Stream::Uribl => "feeds/uribl",
            Stream::RenderSpam => "feeds/render-spam",
            Stream::HybReports => "feeds/hyb/reports",
            Stream::HybWebspam => "feeds/hyb/webspam",
        }
    }
}

/// The names of the RNG streams the collectors draw from.
pub fn stream_names() -> Vec<&'static str> {
    taster_sim::rng::names::<Stream>()
}
