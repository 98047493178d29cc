//! Sample summaries: medians, nearest-rank percentiles, and the rule that
//! decides which tail percentile a sample supports.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support percentile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// A latency sample summarised as the median and p99, with the sample
/// count printed beside them.
#[derive(Clone, Debug)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Summarises `samples` (any order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median, or `None` for an empty sample.
    pub fn p50(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| quantile(&self.sorted, 0.5))
    }

    /// Percentile `q`, or `None` when the sample does not support it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        supports(self.n(), q).then(|| quantile(&self.sorted, q))
    }

    /// `"p50 1.234 p99 5.678 (n=3000, 30 beyond p99)"`, with
    /// `unsupported` in place of a percentile the sample cannot carry.
    pub fn describe(&self, q: f64) -> String {
        let fmt = |v: Option<f64>| v.map_or("unsupported".into(), |v| format!("{v:.4}"));
        format!(
            "p50 {} p{} {} (n={}, {} beyond p{})",
            fmt(self.p50()),
            q * 100.0,
            fmt(self.tail(q)),
            self.n(),
            beyond(self.n(), q),
            q * 100.0,
        )
    }
}

/// The median of `values` (any order), or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank upper quartile of `values` (any order), or 0 for an
/// empty slice.
pub fn upper_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples leave exactly 10 beyond the nearest-rank p99.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // The workloads' floors: 3000 open-loop jobs and 1500 small jobs.
        assert!(supports(3000, 0.99));
        assert!(supports(1500, 0.99));
        // A p50 of 19 samples has 9 beyond it: unsupported as a tail.
        assert!(!supports(19, 0.5));
        assert!(supports(20, 0.5));
    }

    #[test]
    fn unsupported_tails_are_withheld() {
        let small = Dist::new((1..=500).map(f64::from).collect());
        assert_eq!(small.tail(0.99), None);
        assert_eq!(small.p50(), Some(250.0));
        assert!(small.describe(0.99).contains("unsupported"));
        let big = Dist::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(big.tail(0.99), Some(990.0));
        assert!(big.describe(0.99).contains("(n=1000, 10 beyond p99)"));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn upper_quartile_is_nearest_rank() {
        // 12 rounds: the 9th smallest, whatever the order.
        let rounds: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(upper_quartile(&rounds), 9.0);
        assert_eq!(upper_quartile(&[5.0]), 5.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }
}
