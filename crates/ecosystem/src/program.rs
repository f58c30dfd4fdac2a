//! Affiliate programs and affiliates.
//!
//! Today's spammers operate primarily as *advertisers*: they work with
//! an affiliate program which handles web design, payment processing
//! and fulfilment, earning a 30–50 % commission (paper §4.2.3). The
//! Click Trajectories project identified 45 leading programs across
//! pharmaceuticals, replica goods and "OEM" software; one of them,
//! **RX-Promotion**, embeds an affiliate identifier in its storefront
//! pages, and a leaked document revealed each affiliate's 2010 annual
//! revenue — the basis of the paper's Figs 5 and 6.

use crate::config::EcosystemConfig;
use crate::ids::{AffiliateId, ProgramId, Vertical};
use rand::{Rng, RngExt};
use taster_stats::sample::LogNormal;

/// An affiliate program.
#[derive(Debug, Clone)]
pub struct AffiliateProgram {
    /// Program id; the roster guarantees `programs[i].id == i`.
    pub id: ProgramId,
    /// Synthesised program name.
    pub name: String,
    /// Goods vertical.
    pub vertical: Vertical,
    /// Whether the Click Trajectories signatures tag this program's
    /// storefronts (the 45 tagged programs) — untagged programs produce
    /// live-but-untagged domains.
    pub tagged: bool,
    /// Whether storefront pages embed the affiliate identifier
    /// (RX-Promotion only).
    pub embeds_affiliate_id: bool,
}

/// An affiliate (advertiser) of one program.
#[derive(Debug, Clone)]
pub struct Affiliate {
    /// Roster-wide affiliate id.
    pub id: AffiliateId,
    /// The program this affiliate advertises for.
    pub program: ProgramId,
    /// Synthetic 2010 annual revenue in USD (log-normal), standing in
    /// for the leaked RX-Promotion revenue document.
    pub annual_revenue_usd: f64,
}

/// The full program/affiliate roster.
#[derive(Debug, Clone)]
pub struct ProgramRoster {
    /// All programs; index == `ProgramId`.
    pub programs: Vec<AffiliateProgram>,
    /// All affiliates; index == `AffiliateId`.
    pub affiliates: Vec<Affiliate>,
    /// Affiliates of each program.
    by_program: Vec<Vec<AffiliateId>>,
}

/// Index of the RX-Promotion program in every roster.
pub const RX_PROGRAM: ProgramId = ProgramId(0);

impl ProgramRoster {
    /// Generates the roster described by `config`.
    pub fn generate<R: Rng>(config: &EcosystemConfig, rng: &mut R) -> ProgramRoster {
        let mut programs = Vec::new();
        let mut affiliates: Vec<Affiliate> = Vec::new();
        let mut by_program: Vec<Vec<AffiliateId>> = Vec::new();
        let revenue = LogNormal::new(config.revenue_mu, config.revenue_sigma);

        let add_program = |programs: &mut Vec<AffiliateProgram>,
                           by_program: &mut Vec<Vec<AffiliateId>>,
                           name: String,
                           vertical: Vertical,
                           tagged: bool,
                           embeds: bool| {
            let id = ProgramId(programs.len() as u16);
            programs.push(AffiliateProgram {
                id,
                name,
                vertical,
                tagged,
                embeds_affiliate_id: embeds,
            });
            by_program.push(Vec::new());
            id
        };

        // Tagged programs. Program 0 is RX-Promotion. Vertical split
        // loosely follows the Click Trajectories roster: mostly
        // pharma, then replica, then software.
        for i in 0..config.tagged_programs {
            let vertical = match i {
                0 => Vertical::Pharma,
                _ if i % 9 == 4 => Vertical::Software,
                _ if i % 3 == 1 => Vertical::Replica,
                _ => Vertical::Pharma,
            };
            let name = if i == 0 {
                "RX-Promotion".to_string()
            } else {
                format!("{}-partnerka-{:02}", vertical.label(), i)
            };
            add_program(&mut programs, &mut by_program, name, vertical, true, i == 0);
        }

        // Untagged programs.
        for i in 0..config.untagged_programs {
            let vertical = match i % 3 {
                0 => Vertical::Casino,
                1 => Vertical::Dating,
                _ => Vertical::Ebook,
            };
            let name = format!("{}-network-{:02}", vertical.label(), i);
            add_program(&mut programs, &mut by_program, name, vertical, false, false);
        }

        // Affiliates.
        for p in 0..programs.len() {
            let pid = ProgramId(p as u16);
            let n = if pid == RX_PROGRAM {
                config.rx_affiliates
            } else if programs[p].tagged {
                rng.random_range(config.tagged_affiliates.0..=config.tagged_affiliates.1)
            } else {
                rng.random_range(config.untagged_affiliates.0..=config.untagged_affiliates.1)
            };
            for _ in 0..n {
                let id = AffiliateId(affiliates.len() as u32);
                affiliates.push(Affiliate {
                    id,
                    program: pid,
                    annual_revenue_usd: revenue.sample(rng),
                });
                by_program[p].push(id);
            }
        }

        ProgramRoster {
            programs,
            affiliates,
            by_program,
        }
    }

    /// Program lookup.
    pub fn program(&self, id: ProgramId) -> &AffiliateProgram {
        &self.programs[id.index()]
    }

    /// Affiliate lookup.
    pub fn affiliate(&self, id: AffiliateId) -> &Affiliate {
        &self.affiliates[id.index()]
    }

    /// Affiliates of one program.
    pub fn affiliates_of(&self, id: ProgramId) -> &[AffiliateId] {
        &self.by_program[id.index()]
    }

    /// All tagged program ids.
    pub fn tagged_programs(&self) -> impl Iterator<Item = ProgramId> + '_ {
        self.programs.iter().filter(|p| p.tagged).map(|p| p.id)
    }

    /// Total revenue of RX-Promotion affiliates (the Fig 6 denominator).
    pub fn rx_total_revenue(&self) -> f64 {
        self.affiliates_of(RX_PROGRAM)
            .iter()
            .map(|&a| self.affiliate(a).annual_revenue_usd)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stream;
    use taster_sim::RngStream;

    fn roster() -> ProgramRoster {
        let mut rng = RngStream::new(1, Stream::Test("roster-test"));
        ProgramRoster::generate(&EcosystemConfig::default(), &mut rng)
    }

    #[test]
    fn counts_match_config() {
        let r = roster();
        let cfg = EcosystemConfig::default();
        assert_eq!(
            r.programs.len(),
            cfg.tagged_programs + cfg.untagged_programs
        );
        assert_eq!(r.tagged_programs().count(), cfg.tagged_programs);
        assert_eq!(r.affiliates_of(RX_PROGRAM).len(), cfg.rx_affiliates);
    }

    #[test]
    fn rx_is_program_zero_and_embeds_ids() {
        let r = roster();
        let rx = r.program(RX_PROGRAM);
        assert_eq!(rx.name, "RX-Promotion");
        assert!(rx.tagged);
        assert!(rx.embeds_affiliate_id);
        assert!(r.programs.iter().filter(|p| p.embeds_affiliate_id).count() == 1);
    }

    #[test]
    fn ids_are_dense_and_consistent() {
        let r = roster();
        for (i, p) in r.programs.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
        for (i, a) in r.affiliates.iter().enumerate() {
            assert_eq!(a.id.index(), i);
            assert!(r.affiliates_of(a.program).contains(&a.id));
        }
    }

    #[test]
    fn revenue_is_heavy_tailed() {
        let r = roster();
        let mut revs: Vec<f64> = r
            .affiliates_of(RX_PROGRAM)
            .iter()
            .map(|&a| r.affiliate(a).annual_revenue_usd)
            .collect();
        revs.sort_by(f64::total_cmp);
        let total: f64 = revs.iter().sum();
        let top10: f64 = revs.iter().rev().take(revs.len() / 10).sum();
        // Top decile must hold a disproportionate share of revenue.
        assert!(top10 / total > 0.35, "top10 share {}", top10 / total);
        assert!(r.rx_total_revenue() > 0.0);
    }

    #[test]
    fn untagged_programs_are_untagged_verticals() {
        let r = roster();
        for p in r.programs.iter().filter(|p| !p.tagged) {
            assert!(!p.vertical.is_tagged());
        }
    }
}
