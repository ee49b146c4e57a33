//! Order statistics over host-time samples.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; 0 for an empty slice.
pub(crate) fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 for an empty
/// slice.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank quantile `q` in `[0, 1]` of integer samples; 0 when empty.
pub(crate) fn quantile_u64(samples: &[u64], q: f64) -> u64 {
    let mut v: Vec<u64> = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_u64(&s, 0.5), 50);
        assert_eq!(quantile_u64(&s, 0.99), 99);
        assert_eq!(quantile_u64(&s, 1.0), 100);
        assert_eq!(quantile_u64(&[], 0.5), 0);
        let f: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quantile(&f, 0.05), 2.0);
        assert_eq!(quantile(&f, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.05), 0.0);
    }
}
