//! Statistical inference over replicated experiments.
//!
//! The paper's headline numbers are single-run point estimates; this
//! module turns N-seed replications into defensible comparisons:
//!
//! * [`MetricSamples`] — a fixed-layout columnar table of per-replicate
//!   metric values (one row per seed, one column per metric).
//! * [`welch_t`], [`paired_t`] — two-sample significance
//!   tests. Degenerate inputs (too few samples, zero variance) return
//!   `None`, never `NaN`.
//! * [`bootstrap_ci_keyed`] — percentile *and* BCa bootstrap intervals
//!   whose resampling indices come from caller-supplied keyed RNG
//!   streams, one fresh stream per resample index. Because resample
//!   `r` never consumes draws meant for resample `r+1`, CI bounds are
//!   bit-stable at any worker count and across partial reruns.
//!
//! The special functions (regularized incomplete beta for Student-t
//! tails, `erfc` for the normal CDF, an inverse normal quantile) are
//! implemented locally so p-values are bit-stable across platforms and
//! dependency bumps, like every other number in this toolkit.

use crate::quantile::quantile_sorted;
use crate::summary::mean;
use rand::{Rng, RngExt};

// ---------------------------------------------------------------- tests

/// A t-statistic with its degrees of freedom and two-sided p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTest {
    /// The t statistic.
    pub statistic: f64,
    /// Degrees of freedom (Welch–Satterthwaite for [`welch_t`]).
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Mean and sample variance (n−1); `None` for n < 2.
fn mean_var(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    Some((m, var))
}

/// Welch's unequal-variance t-test of `treatment` against `control`,
/// two-sided. Positive statistic means the treatment mean is larger.
///
/// Returns `None` — not `NaN` — when either sample has fewer than two
/// values or both variances are zero (a t statistic is undefined on a
/// degenerate pair).
pub fn welch_t(control: &[f64], treatment: &[f64]) -> Option<TTest> {
    let (mc, vc) = mean_var(control)?;
    let (mt, vt) = mean_var(treatment)?;
    let sec = vc / control.len() as f64;
    let set = vt / treatment.len() as f64;
    let se2 = sec + set;
    if se2 <= 0.0 {
        return None;
    }
    let statistic = (mt - mc) / se2.sqrt();
    let df = se2 * se2
        / (sec * sec / (control.len() - 1) as f64 + set * set / (treatment.len() - 1) as f64);
    Some(TTest {
        statistic,
        df,
        p_value: student_t_two_sided_p(statistic, df),
    })
}

/// Paired t-test on per-index differences `treatment[i] − control[i]`,
/// two-sided. `None` when the samples have different lengths, fewer
/// than two pairs, or zero difference variance.
pub fn paired_t(control: &[f64], treatment: &[f64]) -> Option<TTest> {
    if control.len() != treatment.len() {
        return None;
    }
    let diffs: Vec<f64> = control.iter().zip(treatment).map(|(c, t)| t - c).collect();
    let (md, vd) = mean_var(&diffs)?;
    if vd <= 0.0 {
        return None;
    }
    let n = diffs.len() as f64;
    let statistic = md / (vd / n).sqrt();
    let df = n - 1.0;
    Some(TTest {
        statistic,
        df,
        p_value: student_t_two_sided_p(statistic, df),
    })
}

// ------------------------------------------------- special functions

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_7e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Continued-fraction kernel of the incomplete beta (Lentz's method).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-14;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0`,
/// clamped to `[0, 1]` at the boundaries.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Two-sided Student-t p-value for statistic `t` at `df` degrees of
/// freedom, via `I_{df/(df+t²)}(df/2, ½)`. Clamped to `[0, 1]`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() || df.is_nan() || df <= 0.0 {
        return 1.0;
    }
    reg_inc_beta(df / 2.0, 0.5, df / (df + t * t)).clamp(0.0, 1.0)
}

/// Complementary error function (Numerical-Recipes rational Chebyshev
/// fit, |error| < 1.2e-7 — plenty for rendered p-values, and exactly
/// reproducible everywhere).
fn erfc_approx(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc_approx(-x / std::f64::consts::SQRT_2)
}

/// Two-sided normal p-value for statistic `z`.
pub fn normal_two_sided_p(z: f64) -> f64 {
    if !z.is_finite() {
        return 1.0;
    }
    (erfc_approx(z.abs() / std::f64::consts::SQRT_2)).clamp(0.0, 1.0)
}

/// Inverse standard normal CDF `Φ⁻¹(p)` (Acklam's rational
/// approximation, |relative error| < 1.15e-9). Returns `None` outside
/// the open interval `(0, 1)`.
pub fn normal_quantile(p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 1.0) {
        return None;
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    Some(x)
}

// ------------------------------------------------- keyed bootstrap

/// A percentile + BCa bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate of the statistic on the original sample.
    pub estimate: f64,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
    /// Number of bootstrap resamples the bounds were read from.
    pub resamples: usize,
    /// Percentile interval `(low, high)`.
    pub percentile: (f64, f64),
    /// Bias-corrected-and-accelerated interval `(low, high)`. Equal to
    /// `percentile` when [`Self::bca_fell_back`] is set.
    pub bca: (f64, f64),
    /// BCa was undefined (one-point sample, zero jackknife spread, or
    /// every resample on one side of the estimate) and fell back to
    /// the percentile bounds.
    pub bca_fell_back: bool,
}

/// Fills `out` with `n` with-replacement indices into a sample of
/// length `n`, drawn from `rng`. The index layout is the only thing a
/// bootstrap consumes from the RNG, so two equal streams always
/// produce the same resample.
pub fn resample_indices<R: Rng>(rng: &mut R, n: usize, out: &mut Vec<usize>) {
    out.clear();
    for _ in 0..n {
        out.push(rng.random_range(0..n));
    }
}

/// Percentile + BCa bootstrap CI for `statistic` over `values`, with
/// the resampling stream for resample `r` supplied by `stream(r)`.
///
/// Handing every resample index its *own* RNG stream — instead of one
/// shared sequential generator — is what makes the bounds bit-stable:
/// no matter how the resamples are ordered, batched or parallelized,
/// resample `r` always sees the same indices. Callers key the stream
/// on `(seed, metric, r)`.
///
/// The BCa bounds adjust the percentile bounds for median bias (`z₀`)
/// and skew (jackknife acceleration `a`); when either is undefined the
/// interval falls back to the percentile bounds and says so via
/// [`BootstrapCi::bca_fell_back`]. Returns `None` on an empty sample,
/// zero resamples, a level outside `(0, 1)`, or a statistic that is
/// undefined on the sample or any resample of it.
pub fn bootstrap_ci_keyed<R: Rng>(
    values: &[f64],
    statistic: impl Fn(&[f64]) -> Option<f64>,
    resamples: usize,
    level: f64,
    mut stream: impl FnMut(u64) -> R,
) -> Option<BootstrapCi> {
    if values.is_empty() || resamples == 0 || !(level > 0.0 && level < 1.0) {
        return None;
    }
    let estimate = statistic(values)?;
    let n = values.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0f64; n];
    let mut idx: Vec<usize> = Vec::with_capacity(n);
    for r in 0..resamples {
        let mut rng = stream(r as u64);
        resample_indices(&mut rng, n, &mut idx);
        for (slot, &i) in buf.iter_mut().zip(&idx) {
            *slot = values[i];
        }
        stats.push(statistic(&buf)?);
    }
    let mut sorted = stats.clone();
    sorted.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let percentile = (
        quantile_sorted(&sorted, alpha),
        quantile_sorted(&sorted, 1.0 - alpha),
    );
    let bca = bca_bounds(values, &statistic, estimate, &stats, &sorted, alpha);
    Some(BootstrapCi {
        estimate,
        level,
        resamples,
        percentile,
        bca: bca.unwrap_or(percentile),
        bca_fell_back: bca.is_none(),
    })
}

/// The BCa-adjusted quantile bounds, or `None` when bias correction or
/// acceleration is undefined and the caller should fall back to the
/// plain percentile bounds.
fn bca_bounds(
    values: &[f64],
    statistic: &impl Fn(&[f64]) -> Option<f64>,
    estimate: f64,
    stats: &[f64],
    sorted: &[f64],
    alpha: f64,
) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    // Bias correction: the normal quantile of the fraction of
    // resamples below the estimate. Undefined when every resample
    // lands on one side (z₀ = ±∞).
    let below = stats.iter().filter(|&&s| s < estimate).count();
    if below == 0 || below == stats.len() {
        return None;
    }
    let z0 = normal_quantile(below as f64 / stats.len() as f64)?;
    // Jackknife acceleration. Undefined when the leave-one-out
    // statistics do not spread (all-equal samples) or are themselves
    // undefined.
    let mut jack = Vec::with_capacity(n);
    let mut rest = Vec::with_capacity(n - 1);
    for i in 0..n {
        rest.clear();
        rest.extend(
            values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &v)| v),
        );
        jack.push(statistic(&rest)?);
    }
    let jack_mean = mean(&jack)?;
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for &j in &jack {
        let d = jack_mean - j;
        num += d * d * d;
        den += d * d;
    }
    if den <= 0.0 {
        return None;
    }
    let accel = num / (6.0 * den.powf(1.5));
    let adjusted = |z_alpha: f64| -> Option<f64> {
        let w = z0 + z_alpha;
        let denom = 1.0 - accel * w;
        if denom <= 0.0 {
            return None;
        }
        Some(normal_cdf(z0 + w / denom))
    };
    let p_lo = adjusted(normal_quantile(alpha)?)?;
    let p_hi = adjusted(normal_quantile(1.0 - alpha)?)?;
    Some((quantile_sorted(sorted, p_lo), quantile_sorted(sorted, p_hi)))
}

// ------------------------------------------------- MetricSamples

/// A fixed-layout columnar table of replicated metric values: one row
/// per replicate (seed), one column per metric name. Cells are
/// `Option<f64>` because some metrics (e.g. small-scale timing
/// medians) are legitimately undefined for some seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSamples {
    names: Vec<String>,
    rows: Vec<Vec<Option<f64>>>,
}

impl MetricSamples {
    /// An empty table with a fixed column layout.
    pub fn new(names: Vec<String>) -> MetricSamples {
        MetricSamples {
            names,
            rows: Vec::new(),
        }
    }

    /// Appends one replicate's row. Errors when the row width does not
    /// match the column layout — a layout mismatch means two replicates
    /// measured different things and must never be averaged silently.
    pub fn push_row(&mut self, row: Vec<Option<f64>>) -> Result<(), String> {
        if row.len() != self.names.len() {
            return Err(format!(
                "metric row has {} cells, layout has {} columns",
                row.len(),
                self.names.len()
            ));
        }
        self.rows.push(row);
        Ok(())
    }

    /// The metric names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of replicate rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of metric columns.
    pub fn metrics(&self) -> usize {
        self.names.len()
    }

    /// The cell at `(row, metric)`; `None` when out of range or the
    /// metric was undefined for that replicate.
    pub fn value(&self, row: usize, metric: usize) -> Option<f64> {
        self.rows.get(row)?.get(metric).copied()?
    }

    /// One metric's column in replicate order (undefined cells kept).
    pub fn column(&self, metric: usize) -> Vec<Option<f64>> {
        self.rows
            .iter()
            .map(|r| r.get(metric).copied().flatten())
            .collect()
    }

    /// One metric's *defined* values in replicate order.
    pub fn defined(&self, metric: usize) -> Vec<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.get(metric).copied().flatten())
            .collect()
    }

    /// Column index of `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn stream_for(seed: u64) -> impl FnMut(u64) -> SmallRng {
        move |r| SmallRng::seed_from_u64(seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[test]
    fn normal_cdf_matches_tables() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for p in [0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999] {
            let x = normal_quantile(p).unwrap();
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p} x={x}");
        }
        assert_eq!(normal_quantile(0.0), None);
        assert_eq!(normal_quantile(1.0), None);
        assert!(normal_quantile(0.5).unwrap().abs() < 1e-9);
    }

    #[test]
    fn student_t_p_matches_tables() {
        // t = 2.228, df = 10 is the classic 0.05 two-sided critical
        // value.
        assert!((student_t_two_sided_p(2.228_139, 10.0) - 0.05).abs() < 1e-4);
        // Large df converges to the normal tail.
        let p_t = student_t_two_sided_p(1.96, 1e6);
        let p_z = normal_two_sided_p(1.96);
        assert!((p_t - p_z).abs() < 1e-4);
        assert!((student_t_two_sided_p(0.0, 5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn welch_detects_a_shift() {
        let a: Vec<f64> = (0..20).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..20).map(|i| 11.0 + (i % 5) as f64 * 0.1).collect();
        let t = welch_t(&a, &b).unwrap();
        assert!(t.statistic > 5.0);
        assert!(t.p_value < 1e-6);
        let same = welch_t(&a, &a).unwrap();
        assert!(same.statistic.abs() < 1e-12);
        assert!(same.p_value > 0.999);
    }

    #[test]
    fn degenerate_inputs_are_none_not_nan() {
        assert_eq!(welch_t(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(welch_t(&[1.0, 1.0], &[2.0, 2.0]), None);
        assert_eq!(paired_t(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(paired_t(&[1.0, 2.0], &[2.0, 3.0]), None); // constant diff
        assert_eq!(paired_t(&[1.0], &[2.0]), None);
    }

    #[test]
    fn paired_t_detects_a_consistent_shift() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.6, 2.4, 3.5, 4.6, 5.4];
        let t = paired_t(&a, &b).unwrap();
        assert!(t.statistic > 4.0, "{t:?}");
        assert!(t.p_value < 0.05);
        assert_eq!(t.df, 4.0);
    }

    #[test]
    fn bootstrap_is_deterministic_per_key() {
        let values: Vec<f64> = (0..30).map(|i| (i * i % 17) as f64).collect();
        let a = bootstrap_ci_keyed(&values, mean, 200, 0.95, stream_for(7)).unwrap();
        let b = bootstrap_ci_keyed(&values, mean, 200, 0.95, stream_for(7)).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci_keyed(&values, mean, 200, 0.95, stream_for(8)).unwrap();
        assert_ne!(a.percentile, c.percentile);
    }

    #[test]
    fn bootstrap_brackets_the_mean() {
        let values: Vec<f64> = (0..50).map(|i| 10.0 + (i % 10) as f64).collect();
        let ci = bootstrap_ci_keyed(&values, mean, 400, 0.95, stream_for(3)).unwrap();
        assert!(ci.percentile.0 <= ci.estimate && ci.estimate <= ci.percentile.1);
        assert!(ci.bca.0 <= ci.bca.1);
        assert!(!ci.bca_fell_back, "healthy sample should support BCa");
        assert!((ci.estimate - 14.5).abs() < 1e-9);
    }

    #[test]
    fn bca_falls_back_on_degenerate_samples() {
        // One point: percentile collapses to it, BCa undefined.
        let one = bootstrap_ci_keyed(&[5.0], mean, 100, 0.95, stream_for(1)).unwrap();
        assert_eq!(one.percentile, (5.0, 5.0));
        assert_eq!(one.bca, (5.0, 5.0));
        assert!(one.bca_fell_back);
        // All-equal values: jackknife spread is zero.
        let flat = bootstrap_ci_keyed(&[2.0; 8], mean, 100, 0.95, stream_for(2)).unwrap();
        assert_eq!(flat.percentile, (2.0, 2.0));
        assert!(flat.bca_fell_back);
    }

    #[test]
    fn bootstrap_rejects_invalid_input() {
        assert!(bootstrap_ci_keyed(&[], mean, 100, 0.95, stream_for(0)).is_none());
        assert!(bootstrap_ci_keyed(&[1.0], mean, 0, 0.95, stream_for(0)).is_none());
        assert!(bootstrap_ci_keyed(&[1.0], mean, 100, 1.0, stream_for(0)).is_none());
        assert!(bootstrap_ci_keyed(&[1.0], mean, 100, 0.0, stream_for(0)).is_none());
        assert!(bootstrap_ci_keyed(&[1.0], |_| None, 100, 0.95, stream_for(0)).is_none());
    }

    #[test]
    fn metric_samples_enforce_layout() {
        let mut t = MetricSamples::new(vec!["a".to_string(), "b".to_string()]);
        t.push_row(vec![Some(1.0), None]).unwrap();
        t.push_row(vec![Some(2.0), Some(3.0)]).unwrap();
        assert!(t.push_row(vec![Some(1.0)]).is_err());
        assert_eq!(t.rows(), 2);
        assert_eq!(t.metrics(), 2);
        assert_eq!(t.index_of("b"), Some(1));
        assert_eq!(t.index_of("c"), None);
        assert_eq!(t.column(1), vec![None, Some(3.0)]);
        assert_eq!(t.defined(0), vec![1.0, 2.0]);
        assert_eq!(t.defined(1), vec![3.0]);
        assert_eq!(t.value(0, 0), Some(1.0));
        assert_eq!(t.value(0, 1), None);
        assert_eq!(t.value(9, 0), None);
    }
}
