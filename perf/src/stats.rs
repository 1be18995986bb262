//! Order statistics the reports are built from.

/// Median of `values` (mean of the two middle samples for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail the sample supports: the highest order statistic that still has
/// at least ten samples beyond it, with its percentile rank. With fewer than
/// eleven samples no such statistic exists and the median (rank 50) is
/// returned instead, so the report never presents a maximum as a percentile.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 11 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Run-to-run spread of repeated measurements: the distance between the
/// first and third quartile as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (the benchmark driver's
/// definition). 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = values.len();
    if m < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartile_spread(&[11.0, 1.0, 4.0, 2.0, 7.0]), 7.5 / 4.0);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartile_spread(&[10.0, 12.0]), 3.0 / 11.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), 5.5 / 5.5);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let (value, rank) = supported_tail(&v);
        assert_eq!(value, 390.0);
        assert_eq!(rank, 97.5);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);

        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (value, rank) = supported_tail(&v);
        assert_eq!(value, 1.0);
        assert!((rank - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_to_the_median_below_eleven_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (5.5, 50.0));
    }
}
