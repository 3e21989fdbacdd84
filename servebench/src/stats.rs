//! Order statistics for latency samples and run-to-run spread.

/// Nearest rank (1-based) of quantile `q` among `n` samples, with the
/// product rounded first so `0.999 * 10_000` is rank 9990, not 9991.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 * 1e6).round() / 1e6).ceil() as usize
}

/// The value at quantile `q` (0..=1) of an ascending slice, by the
/// nearest-rank rule. Empty input gives 0.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = rank(q, sorted.len());
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles (p50, p90, p99, p99.9,
/// p99.99) that still has at least ten samples above it, so a reported
/// tail is never one or two outliers. Returns `(percentile, value)`;
/// fewer than eleven samples give the median.
pub fn tail_percentile(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    let mut best = 50.0;
    for p in [90.0, 99.0, 99.9, 99.99] {
        if n >= rank(p / 100.0, n) + 10 {
            best = p;
        }
    }
    (best, quantile_sorted(sorted, best / 100.0))
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mean of the middle half of the values (the top and bottom quarter
/// dropped, by count). As robust as the median to a minority of outlying
/// windows, and smoother than it on coarse-grained samples.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves 10 above it, p99 leaves only 1.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&v), (90.0, 90));
        // 1000 samples: p99 leaves 10 above it, p99.9 only 1.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v), (99.0, 990));
        // 10_000: p99.9 leaves exactly 10.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail_percentile(&v), (99.9, 9990));
        // 999 samples: p99 rank is 990, only 9 above — falls back to p90.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&v).0, 90.0);
        // Too few samples for any tail: the median.
        let v: Vec<u64> = (1..=5).collect();
        assert_eq!(tail_percentile(&v), (50.0, 3));
    }

    #[test]
    fn interquartile_mean_drops_outer_quarters() {
        // 8 values: drop 2 low, 2 high.
        let v = [100.0, 1.0, 5.0, 6.0, 7.0, 8.0, 2.0, 1000.0];
        assert_eq!(interquartile_mean(&v), (5.0 + 6.0 + 7.0 + 8.0) / 4.0);
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
