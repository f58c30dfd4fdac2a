//! # taster-ecosystem
//!
//! The ground-truth spam ecosystem simulator.
//!
//! The paper's ten feeds observed the *same* underlying phenomenon —
//! the 2010 spam ecosystem — through different apertures. That data is
//! proprietary and gone, so this crate rebuilds the phenomenon itself:
//! affiliate programs and their affiliates, campaigns with heavy-tailed
//! volumes and distinct targeting strategies, botnet and direct
//! delivery, domain rotation, benign/chaff pollution, and the Rustock
//! random-domain poisoning incident. The output is a deterministic,
//! time-sorted stream of [`event::SpamEvent`]s plus a complete domain
//! registry ([`domains::DomainUniverse`]) that the crawler and feed
//! layers consume.
//!
//! ## Structure of the simulation
//!
//! * [`program`] — the affiliate-marketing layer: 45 *tagged* programs
//!   (pharmaceutical, replica, "OEM" software — the Click Trajectories
//!   classification) including **RX-Promotion** with its 846 affiliate
//!   identifiers and leaked annual revenue, plus untagged verticals
//!   (casino, dating, e-books…) that make live ≫ tagged, as observed.
//! * [`botnet`] — botnets and the poisoning window (§4.1.1).
//! * [`campaign`] — campaigns: every campaign has a low-volume
//!   *trickle* phase (deliverability testing against real users)
//!   followed by a *blast* phase; loud campaigns blast brute-force and
//!   harvested address lists, quiet ones stay on purchased/social
//!   lists. This two-phase structure is what makes human/blacklist
//!   feeds early and honeypots days late (Fig 9).
//! * [`domains`] — the domain registry: storefronts, landing/redirect
//!   domains, the benign (Alexa/ODP) universe, and poison domains.
//! * [`event`] — per-delivered-copy spam events.
//! * [`ground_truth`] — ties it together: [`ground_truth::GroundTruth`]
//!   is a pure function of ([`config::EcosystemConfig`], seed).
//! * [`spill`] — the out-of-core, time-sorted event log.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod botnet;
pub mod buffer;
pub mod campaign;
pub mod config;
pub mod domains;
pub mod event;
pub mod ground_truth;
pub mod ids;
pub mod program;
pub mod spill;

pub use config::EcosystemConfig;
pub use ground_truth::{GroundTruth, WorldError};
pub use ids::{AffiliateId, BotnetId, CampaignId, ProgramId, Vertical};
