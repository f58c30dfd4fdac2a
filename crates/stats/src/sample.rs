//! Heavy-tailed samplers for the ecosystem simulator.
//!
//! Spam is dominated by a small number of very large players (the
//! paper's core extrapolation assumption, §1), so the simulator draws
//! campaign volumes, affiliate revenue and benign-domain popularity
//! from heavy-tailed laws:
//!
//! * [`Zipf`] — rank-frequency sampling over a finite universe
//!   (benign-domain popularity, recipient selection).
//! * [`BoundedPareto`] — Pareto values truncated to `[min, max]`
//!   (campaign volumes; the truncation keeps the default scenario
//!   bounded).
//! * [`LogNormal`] — multiplicative noise (affiliate revenue,
//!   per-feed observation jitter), via Box–Muller.
//!
//! All samplers are generic over `rand::Rng`, take their parameters at
//! construction and validate them eagerly.

use rand::{Rng, RngExt};

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Uses the classic inverted-CDF-over-precomputed-table approach,
/// giving exact sampling at O(log n) per draw after O(n) setup — the
/// universes involved (≤ a few hundred thousand benign domains) make
/// the table cheap, and determinism matters more than setup time here.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf sampler; panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite, non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating error at the top end (no-op only
        // for the degenerate empty table).
        if let Some(top) = cdf.last_mut() {
            *top = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn universe(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a 0-based rank (0 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of 0-based rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let hi = self.cdf[k];
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        hi - lo
    }
}

/// Pareto distribution truncated to `[min, max]`.
///
/// Sampling is by inversion of the truncated CDF:
/// `F(x) = (1 − (m/x)^α) / (1 − (m/M)^α)`.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    alpha: f64,
    min: f64,
    max: f64,
}

impl BoundedPareto {
    /// Creates a sampler; panics unless `0 < min < max` and `alpha > 0`.
    pub fn new(alpha: f64, min: f64, max: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite());
        assert!(min > 0.0 && max > min && max.is_finite());
        BoundedPareto { alpha, min, max }
    }

    /// Draws one value in `[min, max]`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let ha = (self.min / self.max).powf(self.alpha); // (m/M)^α
        let x = self.min / (1.0 - u * (1.0 - ha)).powf(1.0 / self.alpha);
        x.clamp(self.min, self.max)
    }
}

/// Log-normal distribution: `exp(μ + σZ)` with `Z ~ N(0,1)`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a sampler; panics unless `sigma ≥ 0` and both finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Draws one value.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw via Box–Muller (the cosine branch; we do
/// not cache the sine branch so that the consumption pattern of the
/// underlying RNG stream is position-independent).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // u ∈ (0, 1] to avoid ln(0).
    let u: f64 = 1.0 - rng.random::<f64>();
    let v: f64 = rng.random();
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// Draws an exponentially-distributed value with the given mean.
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0);
    let u: f64 = 1.0 - rng.random::<f64>();
    -mean * u.ln()
}

/// Draws a Poisson-distributed count (Knuth's method for small means,
/// normal approximation above 64 — adequate for event scheduling).
pub fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0;
    }
    if mean > 64.0 {
        let x = mean + mean.sqrt() * standard_normal(rng);
        return x.max(0.0).round() as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(123)
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(1000, 1.1);
        let mut r = rng();
        let mut hits0 = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut r) == 0 {
                hits0 += 1;
            }
        }
        let expect = z.pmf(0);
        let got = hits0 as f64 / n as f64;
        assert!((got - expect).abs() < 0.02, "got {got}, expect {expect}");
        assert!(expect > z.pmf(1));
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let sum: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_pareto_within_bounds_and_skewed() {
        let p = BoundedPareto::new(1.2, 10.0, 1e6);
        let mut r = rng();
        let draws: Vec<f64> = (0..20_000).map(|_| p.sample(&mut r)).collect();
        assert!(draws.iter().all(|&x| (10.0..=1e6).contains(&x)));
        let mut sorted = draws.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[draws.len() / 2];
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(
            mean > 2.0 * median,
            "heavy tail: mean {mean} vs median {median}"
        );
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let ln = LogNormal::new(3.0, 1.0);
        let mut r = rng();
        let mut draws: Vec<f64> = (0..20_000).map(|_| ln.sample(&mut r)).collect();
        draws.sort_by(f64::total_cmp);
        let median = draws[draws.len() / 2];
        let expect = 3.0f64.exp();
        assert!(
            (median / expect - 1.0).abs() < 0.1,
            "median {median} vs {expect}"
        );
    }

    #[test]
    fn poisson_mean_roughly_correct() {
        let mut r = rng();
        for mean in [0.5, 4.0, 30.0, 200.0] {
            let n = 5000;
            let total: u64 = (0..n).map(|_| poisson(&mut r, mean)).sum();
            let got = total as f64 / n as f64;
            assert!((got / mean - 1.0).abs() < 0.1, "mean {mean}: got {got}");
        }
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 20_000;
        let total: f64 = (0..n).map(|_| exponential(&mut r, 7.0)).sum();
        let got = total / n as f64;
        assert!((got / 7.0 - 1.0).abs() < 0.05, "got {got}");
    }

    #[test]
    fn samplers_are_deterministic() {
        let z = Zipf::new(100, 1.0);
        let a: Vec<usize> = {
            let mut r = SmallRng::seed_from_u64(5);
            (0..10).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = SmallRng::seed_from_u64(5);
            (0..10).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
