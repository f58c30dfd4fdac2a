//! Concentration measures: Gini coefficient and top-k shares.
//!
//! The paper's core extrapolation assumption is that spam is
//! "dominated by small collections of large players" (§1) — campaign
//! volumes, affiliate revenue and benign-domain popularity are all
//! heavy-tailed. These measures let the toolkit state that
//! quantitatively: a Gini coefficient near 0 is an equal world, near 1
//! a winner-take-all one.

/// Gini coefficient of a set of non-negative magnitudes.
///
/// Returns `None` for an empty input or an all-zero total. Values are
/// clamped into `[0, 1]` against floating error.
pub fn gini(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    debug_assert!(values.iter().all(|&v| v >= 0.0 && v.is_finite()));
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return None;
    }
    // G = (2·Σ i·x_i) / (n·Σ x_i) − (n+1)/n, with i 1-based over the
    // ascending sort.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    let g = (2.0 * weighted) / (n * total) - (n + 1.0) / n;
    Some(g.clamp(0.0, 1.0))
}

/// Share of total mass held by the top `fraction` of values.
pub fn top_share(values: &[f64], fraction: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&fraction) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let k = ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[..k].iter().sum::<f64>() / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_world_has_zero_gini() {
        let g = gini(&[5.0; 40]).unwrap();
        assert!(g < 0.01, "gini {g}");
    }

    #[test]
    fn winner_take_all_approaches_one() {
        let mut values = vec![0.0; 99];
        values.push(1000.0);
        let g = gini(&values).unwrap();
        assert!(g > 0.97, "gini {g}");
    }

    #[test]
    fn known_value() {
        // For [1, 3]: G = 1/4 exactly.
        let g = gini(&[1.0, 3.0]).unwrap();
        assert!((g - 0.25).abs() < 1e-12, "gini {g}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(gini(&[]), None);
        assert_eq!(gini(&[0.0, 0.0]), None);
        assert_eq!(top_share(&[], 0.1), None);
    }

    #[test]
    fn top_share_of_pareto_like_data() {
        let values: Vec<f64> = (1..=1000)
            .map(|i| 1.0 / (i as f64).powf(1.1) * 1e6)
            .collect();
        let top1 = top_share(&values, 0.01).unwrap();
        assert!(top1 > 0.3, "top 1% holds {top1:.2}");
        assert!((top_share(&values, 1.0).unwrap() - 1.0).abs() < 1e-12);
    }
}
