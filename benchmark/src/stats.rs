//! Timed samples and their order statistics.

/// Samples that must lie beyond a reported percentile, so that a tail
/// number rests on more than one or two slow events.
const MIN_BEYOND: usize = 10;

/// One timed request (or regeneration) that succeeded.
pub struct Sample {
    /// From send (or spawn) to its last event (or exit).
    pub latency_ms: f64,
    /// From send to its first cell (or first output byte).
    pub first_ms: Option<f64>,
    /// Cells (or table rows) it produced.
    pub cells: usize,
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64 / 100.0).ceil().max(1.0) as usize;
    if sorted.len() < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spread reported here is the
/// spread a reader recomputes from the raw values. A single sample is its
/// own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    // A line-for-line port, including its extrapolation past the ends.
    let at = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (sorted[j - 1] * (4 - delta) as f64 + sorted[j] * delta as f64) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&samples, 99.0), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Some(990.0));
        assert_eq!(percentile(&many, 99.1), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0].repeat(10);
        assert_eq!(percentile(&samples, 50.0), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
