//! The benchmark's own arithmetic: medians, percentiles, the tail-percentile
//! rule and the run-to-run spread.

/// A sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0–100) by linear interpolation between closest ranks.
///
/// # Panics
/// Panics on an empty slice: every reported timing has at least one sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (the 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of the ladder 75/90/95/99/99.9 that still has at
/// least ten samples beyond it; `None` below 40 samples, where only the
/// median is reported.
pub fn tail_percentile(n_samples: usize) -> Option<f64> {
    // (percentile, one sample in how many lies beyond it)
    [(99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10), (75.0, 4)]
        .into_iter()
        .find(|&(_, one_in)| n_samples >= 10 * one_in)
        .map(|(p, _)| p)
}

/// Run-to-run spread of one metric as a share of its median: the distance
/// between the first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the rule the acceptance
/// harness applies to ten runs); with fewer than four values, the full range.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    let width = if n < 4 {
        v[n - 1] - v[0]
    } else {
        let quartile = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        quartile(3) - quartile(1)
    };
    width / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 20], n=4) == [10.25, 11.5, 18.0]
        assert!((spread(&[10.0, 12.0, 11.0, 20.0]) - 7.75 / 11.5).abs() < 1e-12);
        // Two sets: the range over the median.
        assert!((spread(&[1.0, 1.1]) - 0.1 / 1.05).abs() < 1e-12);
    }
}
