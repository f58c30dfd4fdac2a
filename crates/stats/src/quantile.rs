//! Interpolated quantiles and boxplot summaries.
//!
//! The timing analysis (paper §4.4, Figs 9–12) reports 25th/50th/75th
//! percentile boxes with whisker-like tail percentiles. We use the
//! standard linear-interpolation estimator (type 7 in the R taxonomy):
//! for sorted data `x₀..x_{n−1}`, `Q(p) = x_k + γ(x_{k+1} − x_k)` with
//! `h = p(n−1)`, `k = ⌊h⌋`, `γ = h − k`.

/// Interpolated quantile of unsorted data; `p ∈ [0, 1]`.
///
/// Returns `None` on empty input. Not-a-number inputs are rejected by
/// debug assertion (the toolkit never produces them).
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    debug_assert!(values.iter().all(|v| !v.is_nan()));
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, p))
}

/// Interpolated quantile of already-sorted data; `p` is clamped to
/// `[0, 1]`. Panics on empty input.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    let p = p.clamp(0.0, 1.0);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n - 1) as f64;
    let k = h.floor() as usize;
    let gamma = h - k as f64;
    if k + 1 >= n {
        sorted[n - 1]
    } else {
        sorted[k] + gamma * (sorted[k + 1] - sorted[k])
    }
}

/// A five-number-plus-tails summary of a sample, mirroring the boxplots
/// in Figs 9–12 (median bar, 25–75 % box, and the 5th/95th percentile
/// whiskers the paper quotes in prose).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    /// Number of observations.
    pub n: usize,
    /// Smallest observation.
    pub min: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile (bottom of the box).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (top of the box).
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
}

impl Boxplot {
    /// Summarises a sample; `None` on empty input.
    pub fn from_values(values: &[f64]) -> Option<Boxplot> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Boxplot {
            n: sorted.len(),
            min: sorted[0],
            p5: quantile_sorted(&sorted, 0.05),
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.50),
            q3: quantile_sorted(&sorted, 0.75),
            p95: quantile_sorted(&sorted, 0.95),
            max: sorted[sorted.len() - 1],
        })
    }
}

impl std::fmt::Display for Boxplot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.2} p5={:.2} q1={:.2} med={:.2} q3={:.2} p95={:.2} max={:.2}",
            self.n, self.min, self.p5, self.q1, self.median, self.q3, self.p95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), Some(2.5));
    }

    #[test]
    fn extremes() {
        let v = [5.0, 1.0, 9.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(9.0));
    }

    #[test]
    fn interpolation_matches_type7() {
        // R: quantile(c(1,2,3,4), 0.25) = 1.75 (type 7)
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), Some(1.75));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.25));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn clamps_p() {
        assert_eq!(quantile(&[1.0, 2.0], -1.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0], 2.0), Some(2.0));
    }

    #[test]
    fn boxplot_summary() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = Boxplot::from_values(&v).unwrap();
        assert_eq!(b.n, 100);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 100.0);
        assert!((b.median - 50.5).abs() < 1e-12);
        assert!((b.q1 - 25.75).abs() < 1e-12);
        assert!((b.q3 - 75.25).abs() < 1e-12);
        assert!(b.p5 < b.q1 && b.q3 < b.p95);
    }

    #[test]
    fn boxplot_empty() {
        assert_eq!(Boxplot::from_values(&[]), None);
    }
}
