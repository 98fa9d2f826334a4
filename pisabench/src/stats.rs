//! Exact order statistics over raw per-operation samples.
//!
//! Percentiles are taken by the nearest-rank rule from every recorded
//! sample, never from bucketed histograms. A failed or undecided
//! operation is recorded as a miss ([`MISS`]), which sorts after every
//! real latency: it counts as missing any latency limit and pushes the
//! percentiles up instead of silently shrinking the sample.

/// The sample value of an operation that failed or never decided.
pub const MISS: f64 = f64::INFINITY;

/// The value reported for a percentile that lands on a miss: JSON has
/// no infinity, so the largest finite double stands in for it.
pub const MISS_REPORTED: f64 = f64::MAX;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, or `None`
/// when there are no samples. Misses sort last.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied()
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile:
/// a tail percentile is trustworthy when this is at least ten.
pub fn beyond(count: usize, q: f64) -> usize {
    let rank = ((q * count as f64).ceil() as usize).clamp(1, count.max(1));
    count.saturating_sub(rank)
}

/// The conventional median (mean of the two middle values for an even
/// count), for repeated measurements of one quantity.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted[mid - 1] + sorted[mid]) / 2.0)
    }
}

/// A percentile ready for the report: misses become [`MISS_REPORTED`].
pub fn reported(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        MISS_REPORTED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_known_series() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.95), Some(95.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.001), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut s = one_to(37);
        s.reverse();
        s.swap(3, 30);
        assert_eq!(percentile(&s, 0.5), Some(19.0));
        assert_eq!(percentile(&s, 0.95), Some(36.0));
    }

    #[test]
    fn tail_needs_two_hundred_samples_for_ten_beyond_p95() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(1, 0.95), 0);
        assert_eq!(beyond(0, 0.95), 0);
    }

    #[test]
    fn failures_count_as_misses() {
        // 94 fast sessions and 6 failures: more than 5 % missed, so the
        // p95 is a miss even though every decided session was fast.
        let mut s = vec![10.0; 94];
        s.extend(std::iter::repeat_n(MISS, 6));
        assert_eq!(percentile(&s, 0.5), Some(10.0));
        assert_eq!(percentile(&s, 0.95), Some(MISS));
        assert_eq!(reported(MISS), MISS_REPORTED);
        // With exactly 5 % failed the p95 is still a real latency.
        let mut s = vec![10.0; 95];
        s.extend(std::iter::repeat_n(MISS, 5));
        assert_eq!(percentile(&s, 0.95), Some(10.0));
        // Half failed: the median itself misses.
        let mut s = vec![1.0; 4];
        s.extend(std::iter::repeat_n(MISS, 5));
        assert_eq!(percentile(&s, 0.5), Some(MISS));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
