//! Order statistics used by the report and by `--compare`.

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `target` percentile (e.g. 0.90), lowered until at least
/// [`MIN_BEYOND`] samples lie above it. Returns `(percentile, value)` — the
/// percentile actually reported, which is `target` itself from 100 samples
/// on — or `None` with fewer than `MIN_BEYOND + 1` samples.
pub fn tail_percentile(values: &[f64], target: f64) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps e.g. 0.9 · 100 from rounding up past rank 90.
    let nearest_rank = ((target * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1;
    let idx = nearest_rank.min(n - 1 - MIN_BEYOND);
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// `--compare` and the steadiness check use. `None` with fewer than two
/// values or a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn p90_at_exactly_one_hundred_samples_leaves_ten_beyond() {
        let (pct, value) = tail_percentile(&ramp(100), 0.90).unwrap();
        assert_eq!(pct, 90.0);
        assert_eq!(value, 90.0);
        let beyond = ramp(100).iter().filter(|&&x| x > value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn percentile_is_lowered_until_ten_samples_lie_beyond() {
        // 50 samples: p90 would leave 5 beyond, so the rule reports p80.
        let (pct, value) = tail_percentile(&ramp(50), 0.90).unwrap();
        assert_eq!(value, 40.0);
        assert_eq!(pct, 80.0);
        assert_eq!(ramp(50).iter().filter(|&&x| x > value).count(), 10);
        // With many samples the target itself is kept.
        let (pct, value) = tail_percentile(&ramp(1000), 0.90).unwrap();
        assert_eq!((pct, value), (90.0, 900.0));
        // Too few samples for any percentile with ten beyond it.
        assert!(tail_percentile(&ramp(10), 0.90).is_none());
        assert_eq!(tail_percentile(&ramp(11), 0.90), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(relative_spread(&ramp(10)), Some((8.25 - 2.75) / 5.5));
    }
}
