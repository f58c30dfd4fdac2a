//! Botnets.
//!
//! Botnet spam is loud: large volumes blasted at brute-force address
//! lists, typically for the small set of programs where the botnet
//! operator is himself an affiliate (paper §4.2.3: "botnet operators
//! frequently act as affiliates themselves and thus only advertise for
//! a modest number of programs"). We model a handful of botnets, each
//! tied to a few operator affiliates drawn from a shared program pool,
//! with a subset monitored by the `Bot` feed collector.

use crate::config::EcosystemConfig;
use crate::ids::{AffiliateId, BotnetId, ProgramId};
use crate::program::ProgramRoster;
use rand::{Rng, RngExt};

/// A simulated spamming botnet.
#[derive(Debug, Clone)]
pub struct Botnet {
    /// Botnet id; `botnets[i].id == i`.
    pub id: BotnetId,
    /// Synthesised name (the paper's era: Rustock, Cutwail, Grum…).
    pub name: String,
    /// Affiliates whose campaigns this botnet delivers (the operator's
    /// own affiliate accounts plus a few renters).
    pub operator_affiliates: Vec<AffiliateId>,
    /// Whether the `Bot` feed runs captive instances of this botnet's
    /// malware (monitored botnets contribute to the feed; unmonitored
    /// ones are the feed's blind spot).
    pub monitored: bool,
    /// Whether this botnet runs the random-domain poisoning campaign
    /// during the poison window (Rustock's behaviour).
    pub poisons: bool,
}

/// Generates the botnet roster.
///
/// The operator affiliates of all botnets together span (at most)
/// `config.botnet_program_pool` distinct programs, reproducing the
/// paper's observation that the `Bot` feed saw only ~15 programs.
pub fn generate_botnets<R: Rng>(
    config: &EcosystemConfig,
    roster: &ProgramRoster,
    rng: &mut R,
) -> Vec<Botnet> {
    // Pick the shared program pool from the *tagged* programs first
    // (botnet spam in the study period was dominated by pharma), then
    // untagged if the pool is larger than the tagged roster.
    let tagged: Vec<ProgramId> = roster.tagged_programs().collect();
    let mut pool: Vec<ProgramId> = Vec::new();
    let mut candidates = tagged;
    for p in roster.programs.iter().filter(|p| !p.tagged) {
        candidates.push(p.id);
    }
    let take = config.botnet_program_pool.min(candidates.len());
    // Deterministic reservoir-free selection: shuffle and take.
    for i in 0..take {
        let j = rng.random_range(i..candidates.len());
        candidates.swap(i, j);
        pool.push(candidates[i]);
    }

    let names = [
        "ruststorm",
        "cutgrain",
        "grumble",
        "maelstrom",
        "lethic-like",
        "bagbot",
        "kelvin",
        "srizzy",
    ];
    let mut botnets = Vec::with_capacity(config.botnets);
    for i in 0..config.botnets {
        let id = BotnetId(i as u8);
        // 2–4 operator affiliates per botnet, drawn from pool programs.
        let n_ops = rng.random_range(2..=4usize);
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let program = pool[rng.random_range(0..pool.len())];
            let affs = roster.affiliates_of(program);
            if !affs.is_empty() {
                ops.push(affs[rng.random_range(0..affs.len())]);
            }
        }
        ops.sort_unstable();
        ops.dedup();
        botnets.push(Botnet {
            id,
            name: names[i % names.len()].to_string(),
            operator_affiliates: ops,
            monitored: i < config.monitored_botnets,
            // Botnet 0 plays the Rustock role.
            poisons: i == 0 && config.poison.is_some(),
        });
    }
    botnets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stream;
    use std::collections::HashSet;
    use taster_sim::RngStream;

    fn setup() -> (EcosystemConfig, ProgramRoster, Vec<Botnet>) {
        let cfg = EcosystemConfig::default();
        let mut rng = RngStream::new(3, Stream::Test("botnet-test"));
        let roster = ProgramRoster::generate(&cfg, &mut rng);
        let botnets = generate_botnets(&cfg, &roster, &mut rng);
        (cfg, roster, botnets)
    }

    #[test]
    fn roster_shape() {
        let (cfg, _, botnets) = setup();
        assert_eq!(botnets.len(), cfg.botnets);
        assert_eq!(
            botnets.iter().filter(|b| b.monitored).count(),
            cfg.monitored_botnets
        );
        assert_eq!(botnets.iter().filter(|b| b.poisons).count(), 1);
        assert!(botnets[0].poisons, "botnet 0 is the Rustock stand-in");
    }

    #[test]
    fn program_pool_is_bounded() {
        let (cfg, roster, botnets) = setup();
        let programs: HashSet<_> = botnets
            .iter()
            .flat_map(|b| &b.operator_affiliates)
            .map(|&a| roster.affiliate(a).program)
            .collect();
        assert!(programs.len() <= cfg.botnet_program_pool);
        assert!(!programs.is_empty());
    }

    #[test]
    fn operators_exist() {
        let (_, roster, botnets) = setup();
        for b in &botnets {
            assert!(
                !b.operator_affiliates.is_empty(),
                "{} has operators",
                b.name
            );
            for &a in &b.operator_affiliates {
                assert!(a.index() < roster.affiliates.len());
            }
        }
    }

    #[test]
    fn no_poison_config_means_no_poisoner() {
        let cfg = EcosystemConfig {
            poison: None,
            ..Default::default()
        };
        let mut rng = RngStream::new(3, Stream::Test("botnet-test"));
        let roster = ProgramRoster::generate(&cfg, &mut rng);
        let botnets = generate_botnets(&cfg, &roster, &mut rng);
        assert!(botnets.iter().all(|b| !b.poisons));
    }
}
