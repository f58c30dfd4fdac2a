//! # taster-domain
//!
//! Registered-domain modelling for the *Taster's Choice* spam-feed
//! analysis toolkit.
//!
//! The paper compares spam feeds at the granularity of **registered
//! domains** — the part of a fully-qualified domain name that its owner
//! registered with a registrar (e.g. `ucsd.edu` for `cs.ucsd.edu`).
//! Everything in the higher layers (ground-truth generation, feed
//! collection, purity/coverage/timing analytics) keys off this notion,
//! so this crate provides:
//!
//! * [`name::DomainName`] — a validated, normalised fully-qualified
//!   domain name (FQDN).
//! * [`psl`] — a public-suffix rule engine (normal, wildcard and
//!   exception rules, as in the Mozilla Public Suffix List format) and
//!   [`psl::SuffixList::registered_domain`] which maps an FQDN to its
//!   registered domain.
//! * [`url`] — a small URL parser sufficient for extracting advertised
//!   domains from spam message bodies.
//! * [`interner::DomainTable`] — an interner mapping registered domains
//!   to dense [`DomainId`]s so that set/multiset analytics over millions
//!   of observations stay cheap.
//! * [`bitset::DomainBitset`] — packed-word set algebra over those dense
//!   ids (union/intersection/difference popcount kernels) plus a
//!   [`bitset::RankIndex`] for O(1) member→row lookups into columnar
//!   tables, and [`fx`] — the deterministic FxHash-style hasher used by
//!   the hot-path maps.
//! * [`punycode`] — an RFC 3492 codec for the `xn--` IDN labels that
//!   appear in homograph spam domains.
//! * [`gen`] — domain-name generators used by the ecosystem simulator:
//!   brandable (pharma-store-like) names and DGA-style random names (the
//!   Rustock poisoning incident of §4.1.1). The MX honeypots' benign
//!   pollution of §3.3 cites existing benign domains instead
//!   (`taster-mailsim`'s `benign` module).
//!
//! ## Example
//!
//! ```
//! use taster_domain::{DomainName, psl::SuffixList};
//!
//! let psl = SuffixList::builtin();
//! let name = DomainName::parse("shop.cheap-pills.co.uk").unwrap();
//! let reg = psl.registered_domain(&name).unwrap();
//! assert_eq!(reg.as_str(), "cheap-pills.co.uk");
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]
#![warn(missing_docs)]

pub mod bitset;
pub mod fx;
pub mod gen;
pub mod interner;
pub mod label;
pub mod name;
pub mod psl;
pub mod punycode;
pub mod url;

pub use bitset::{DomainBitset, RankIndex};
pub use interner::{DomainId, DomainTable};
pub use name::{DomainName, DomainParseError};
pub use psl::{RegisteredDomain, SuffixList};
pub use url::{Url, UrlParseError};
