//! DNS, HTTP and list-membership oracles.
//!
//! These are the simulation's interfaces to "the rest of the
//! Internet". Each is a deterministic view over ground truth, shaped
//! like the real resource it stands in for: the DNS oracle answers
//! registration queries, the HTTP oracle resolves redirect chains to a
//! terminal response, and the list oracle answers Alexa-rank /
//! ODP-listing queries.

use taster_domain::DomainId;
use taster_ecosystem::GroundTruth;

/// DNS registration oracle.
///
/// The paper checked the com/net/org/biz/us/aero/info zone files from
/// 16 months before to 16 months after the window; the oracle answers
/// the same question from the ground-truth registration bit.
#[derive(Debug, Clone, Copy)]
pub struct DnsOracle<'a> {
    truth: &'a GroundTruth,
}

impl<'a> DnsOracle<'a> {
    /// Builds the oracle over the generated world.
    pub fn new(truth: &'a GroundTruth) -> Self {
        DnsOracle { truth }
    }

    /// Whether `domain` was registered during the measurement period.
    pub fn registered(&self, domain: DomainId) -> bool {
        self.truth.universe.record(domain).registered
    }
}

/// Outcome of one HTTP fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// 200-class response from `final_domain` after `hops` redirects.
    Ok {
        /// The domain that served the final page.
        final_domain: DomainId,
        /// Number of redirect hops followed.
        hops: u8,
    },
    /// Connection failure, NXDOMAIN hosting, or non-200 terminal reply.
    Failed,
}

/// HTTP oracle: resolves redirect chains and reports terminal
/// liveness.
#[derive(Debug, Clone, Copy)]
pub struct HttpOracle<'a> {
    truth: &'a GroundTruth,
}

impl<'a> HttpOracle<'a> {
    /// Builds the oracle over the generated world.
    pub fn new(truth: &'a GroundTruth) -> Self {
        HttpOracle { truth }
    }

    /// Fetches `domain`, following redirects like the full-fidelity
    /// crawler (a specially instrumented browser) did.
    ///
    /// A fetch succeeds when the *initial* domain is live (it must
    /// accept the connection to serve a redirect) and the redirect
    /// terminus is live as well.
    pub fn fetch(&self, domain: DomainId) -> FetchOutcome {
        let universe = &self.truth.universe;
        if !universe.record(domain).live {
            return FetchOutcome::Failed;
        }
        let mut hops = 0u8;
        let mut cur = domain;
        while let Some(next) = universe.redirect_target(cur) {
            if next == cur || hops >= 8 {
                break;
            }
            cur = next;
            hops += 1;
        }
        if universe.record(cur).live {
            FetchOutcome::Ok {
                final_domain: cur,
                hops,
            }
        } else {
            FetchOutcome::Failed
        }
    }
}

/// Alexa / Open Directory membership oracle.
#[derive(Debug, Clone, Copy)]
pub struct ListMembership<'a> {
    truth: &'a GroundTruth,
}

impl<'a> ListMembership<'a> {
    /// Builds the oracle.
    pub fn new(truth: &'a GroundTruth) -> Self {
        ListMembership { truth }
    }

    /// Alexa rank (1-based), if the domain is on the top list.
    pub fn alexa_rank(&self, domain: DomainId) -> Option<u32> {
        self.truth.universe.record(domain).alexa_rank
    }

    /// Whether the domain is listed in the Open Directory.
    pub fn odp_listed(&self, domain: DomainId) -> bool {
        self.truth.universe.record(domain).odp
    }

    /// Whether the domain is on either list.
    pub fn benign_listed(&self, domain: DomainId) -> bool {
        self.alexa_rank(domain).is_some() || self.odp_listed(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_ecosystem::domains::DomainKind;
    use taster_ecosystem::EcosystemConfig;

    fn world() -> GroundTruth {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 29).unwrap()
    }

    #[test]
    fn dns_matches_ground_truth() {
        let truth = world();
        let dns = DnsOracle::new(&truth);
        for (id, rec) in truth.universe.iter().take(2000) {
            assert_eq!(dns.registered(id), rec.registered);
        }
    }

    #[test]
    fn fetch_follows_redirects_to_storefront() {
        let truth = world();
        let http = HttpOracle::new(&truth);
        let mut followed = 0;
        for (id, rec) in truth.universe.iter() {
            if rec.kind == DomainKind::Landing && rec.live {
                match http.fetch(id) {
                    FetchOutcome::Ok { final_domain, hops } => {
                        assert!(hops >= 1);
                        assert!(matches!(
                            truth.universe.record(final_domain).kind,
                            DomainKind::Storefront { .. }
                        ));
                        followed += 1;
                    }
                    FetchOutcome::Failed => {
                        // Dead storefront behind a live landing.
                        let t = truth.universe.resolve_final(id);
                        assert!(!truth.universe.record(t).live);
                    }
                }
            }
        }
        assert!(followed > 0, "some landing chains resolve");
    }

    #[test]
    fn dead_domains_fail() {
        let truth = world();
        let http = HttpOracle::new(&truth);
        let dead = truth
            .universe
            .iter()
            .find(|(_, r)| !r.live)
            .expect("some dead domain exists")
            .0;
        assert_eq!(http.fetch(dead), FetchOutcome::Failed);
    }

    #[test]
    fn list_membership_reflects_records() {
        let truth = world();
        let lists = ListMembership::new(&truth);
        let mut alexa = 0;
        let mut odp = 0;
        for (id, rec) in truth.universe.iter() {
            assert_eq!(lists.alexa_rank(id), rec.alexa_rank);
            assert_eq!(lists.odp_listed(id), rec.odp);
            if lists.alexa_rank(id).is_some() {
                alexa += 1;
                assert!(lists.benign_listed(id));
            }
            if rec.odp {
                odp += 1;
            }
        }
        assert!(alexa > 0 && odp > 0);
    }
}
