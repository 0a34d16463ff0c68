//! Order statistics for reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond its nearest rank, so a tail figure never rests on a handful of
/// observations.
pub const TAIL_MIN: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1]`: the `ceil(q·n)`-th smallest
/// sample. `None` when fewer than [`TAIL_MIN`] samples lie beyond that
/// rank (the figure is not supported by the sample).
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile must lie in (0, 1]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_MIN {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100: rank 90, ten samples beyond it.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        // p99 of 100: rank 99, one beyond.
        assert_eq!(tail_percentile(&hundred, 0.99), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // rank ceil(89.1) = 90, only nine beyond.
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        assert_eq!(tail_percentile(&ninety_nine, 0.5), Some(50.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
