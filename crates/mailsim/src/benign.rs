//! Legitimate mail that leaks into spam collectors.
//!
//! No spam source is pure (§3.3). MX honeypots receive mail meant for
//! lexically-similar domains (sender typos — "doppelganger domains")
//! and mail to dummy addresses users invent for sign-up forms
//! (`test.com` syndrome); honey accounts receive username-typo mail.
//! These messages cite ordinary, often Alexa/ODP-listed, domains —
//! they are the benign false positives of Table 2.

use crate::config::MailConfig;
use crate::Stream;
use rand::RngExt;
use taster_domain::DomainId;
use taster_ecosystem::GroundTruth;
use taster_sim::{RngStream, SimTime, DAY};

/// Where a benign message landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenignDest {
    /// MX honeypot *i* (0 = mx1, 1 = mx2, 2 = mx3).
    MxHoneypot(u8),
    /// Honey-account feed *i* (0 = Ac1, 1 = Ac2).
    HoneyAccounts(u8),
}

/// One legitimate message delivered to a collector's trap.
#[derive(Debug, Clone)]
pub struct BenignMailEvent {
    /// Delivery time.
    pub time: SimTime,
    /// Destination trap.
    pub dest: BenignDest,
    /// Domains cited in the body (1–3).
    pub domains: Vec<DomainId>,
}

/// Generates all benign trap traffic for the scenario.
///
/// Mutates the universe: a configurable fraction of cited domains are
/// *previously unseen* small legitimate sites (interned on first use),
/// which is what gives honeypot feeds their long tail of benign unique
/// domains.
///
/// `mx_size_factor[i]` scales the typo rate of each MX honeypot with
/// its address-space size (a bigger abandoned domain portfolio attracts
/// more stray mail).
pub fn generate_benign_traffic(
    truth: &mut GroundTruth,
    config: &MailConfig,
    mx_size_factor: &[f64; 3],
) -> Vec<BenignMailEvent> {
    let mut rng = RngStream::new(truth.seed, Stream::Benign);
    let days = truth.config.days;
    let mut out = Vec::new();

    let emit = |dest: BenignDest,
                per_day: f64,
                rng: &mut RngStream,
                truth: &mut GroundTruth,
                out: &mut Vec<BenignMailEvent>| {
        let total = (per_day * days as f64).round() as u64;
        for _ in 0..total {
            let time = SimTime(rng.random_range(0..days * DAY));
            let n = rng.random_range(1..=3usize);
            let mut domains = Vec::with_capacity(n);
            for _ in 0..n {
                let d = if rng.random_bool(config.benign_fresh_domain_prob) {
                    truth.universe.fresh_benign_name(rng)
                } else {
                    truth.universe.sample_benign_uniform(rng)
                };
                domains.push(d);
            }
            out.push(BenignMailEvent {
                time,
                dest,
                domains,
            });
        }
    };

    for (i, factor) in mx_size_factor.iter().enumerate() {
        emit(
            BenignDest::MxHoneypot(i as u8),
            config.mx_benign_per_day * factor,
            &mut rng,
            truth,
            &mut out,
        );
    }
    for i in 0..2u8 {
        emit(
            BenignDest::HoneyAccounts(i),
            config.account_benign_per_day,
            &mut rng,
            truth,
            &mut out,
        );
    }

    out.sort_by_key(|e| e.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::domains::DomainKind;
    use taster_ecosystem::EcosystemConfig;

    fn world() -> GroundTruth {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(0.05), 23).unwrap()
    }

    #[test]
    fn traffic_is_sorted_and_scaled_by_size() {
        let mut truth = world();
        let cfg = MailConfig::default();
        let events = generate_benign_traffic(&mut truth, &cfg, &[1.0, 4.0, 0.5]);
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let count = |d: BenignDest| events.iter().filter(|e| e.dest == d).count();
        let mx1 = count(BenignDest::MxHoneypot(0));
        let mx2 = count(BenignDest::MxHoneypot(1));
        let mx3 = count(BenignDest::MxHoneypot(2));
        assert!(mx2 > 2 * mx1, "mx2 {mx2} vs mx1 {mx1}");
        assert!(mx1 > mx3);
        assert!(count(BenignDest::HoneyAccounts(0)) > 0);
        assert!(count(BenignDest::HoneyAccounts(1)) > 0);
    }

    #[test]
    fn cited_domains_are_benign_and_some_are_fresh() {
        let mut truth = world();
        let before = truth.universe.len();
        let cfg = MailConfig::default();
        let events = generate_benign_traffic(&mut truth, &cfg, &[1.0, 1.0, 1.0]);
        assert!(
            truth.universe.len() > before,
            "fresh benign domains interned"
        );
        for e in &events {
            assert!(!e.domains.is_empty() && e.domains.len() <= 3);
            for &d in &e.domains {
                assert_eq!(truth.universe.record(d).kind, DomainKind::Benign);
            }
        }
    }

    #[test]
    fn deterministic() {
        let mk = || {
            let mut truth = world();
            let cfg = MailConfig::default();
            generate_benign_traffic(&mut truth, &cfg, &[1.0, 2.0, 1.0])
                .iter()
                .map(|e| (e.time, e.domains.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
