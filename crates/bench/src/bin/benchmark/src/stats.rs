//! Order statistics for timings: quartiles, percentiles and the tail the
//! sample supports.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles` (rank `i·(n+1)/k` with linear interpolation,
//! clamped to the sample), so the quartiles printed here match what a
//! reader computes from the same values with the standard library.

/// Summary of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (second quartile).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

/// The `i`-th of the `k`-quantiles of `sorted` (`0 < i < k`), by the
/// exclusive method; a single value is its own quantile.
///
/// # Panics
///
/// Panics on an empty sample or `i` outside `1..k`.
pub fn quantile(sorted: &[f64], i: usize, k: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(0 < i && i < k, "quantile index {i} outside 1..{k}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / k).clamp(1, n - 1);
    // Integer arithmetic throughout, as in the reference implementation:
    // `delta` may be negative or exceed `k` once `j` is clamped.
    let delta = (i * m) as f64 - (j * k) as f64;
    (sorted[j - 1] * (k as f64 - delta) + sorted[j] * delta) / k as f64
}

/// The percentiles the tail is chosen from, highest first, as `(label, i, k)`
/// for [`quantile`].
const TAILS: [(f64, usize, usize); 3] = [(99.9, 999, 1000), (99.0, 99, 100), (90.0, 9, 10)];

/// Summarises `values` (any order, all finite).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = sorted.len();
    let tail = TAILS
        .iter()
        .find(|&&(label, _, _)| n as f64 * (1.0 - label / 100.0) >= 10.0 - 1e-9)
        .map(|&(label, i, k)| (label, quantile(&sorted, i, k)))
        .or_else(|| (n >= 20).then(|| (50.0, quantile(&sorted, 1, 2))));
    Summary {
        n,
        median: quantile(&sorted, 1, 2),
        q1: quantile(&sorted, 1, 4),
        q3: quantile(&sorted, 3, 4),
        tail,
    }
}

/// The value at percentile `label` (one of 50, 90, 99, 99.9) of `values`.
///
/// # Panics
///
/// Panics on an empty sample or an unsupported label.
pub fn percentile(values: &[f64], label: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    if label == 50.0 {
        return quantile(&sorted, 1, 2);
    }
    let &(_, i, k) = TAILS
        .iter()
        .find(|&&(l, _, _)| l == label)
        .expect("supported percentile");
    quantile(&sorted, i, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from Python 3.12:
    // statistics.quantiles(data, n=4) and statistics.median(data).
    #[test]
    fn quartiles_match_the_exclusive_method() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let s = summarize(&[7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 5.0, 8.0));
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]);
        assert_eq!((s.q1, s.median, s.q3), (27.5, 55.0, 82.5));
    }

    #[test]
    fn small_samples_clamp_to_the_data() {
        // Python: quantiles([3, 8], n=4) == [1.75, 5.5, 9.25].
        let s = summarize(&[8.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 5.5, 9.25));
        let s = summarize(&[4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
        assert_eq!(s.tail, None);
        // Python: quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0].
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn ties_collapse_the_spread() {
        let s = summarize(&[5.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (5.0, 5.0, 5.0));
        let s = summarize(&[1.0, 2.0, 2.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 2.0, 2.5));
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        let values = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(summarize(&values(19)).tail, None);
        assert_eq!(summarize(&values(20)).tail, Some((50.0, 10.5)));
        assert_eq!(summarize(&values(99)).tail.map(|t| t.0), Some(50.0));
        // p90 of 1..=100 by the exclusive method: rank 90.9.
        let (label, value) = summarize(&values(100)).tail.unwrap();
        assert_eq!(label, 90.0);
        assert!((value - 90.9).abs() < 1e-9);
        assert_eq!(summarize(&values(1000)).tail.map(|t| t.0), Some(99.0));
        assert_eq!(summarize(&values(10_000)).tail.map(|t| t.0), Some(99.9));
    }

    #[test]
    fn percentiles_agree_with_the_summary() {
        let values: Vec<f64> = (0..500).map(|v| ((v * 37) % 500) as f64).collect();
        let s = summarize(&values);
        assert_eq!(percentile(&values, 50.0), s.median);
        // 500 samples support p90 (50 beyond) but not p99 (5 beyond).
        assert_eq!(s.tail, Some((90.0, percentile(&values, 90.0))));
        // Python: quantiles(range(500), n=100)[98] == 494.99.
        assert!((percentile(&values, 99.0) - 494.99).abs() < 1e-9);
    }
}
