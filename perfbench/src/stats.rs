//! Order statistics over timing samples.

/// Median of `xs` (0 for an empty sample).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The 10th percentile of `xs`, nearest rank (0 for an empty sample): the
/// benchmark's low-quantile summary of a timing.
pub fn low(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(&xs, 0.1)
}

/// The `p`-quantile (0..=1) of an ascending sample, nearest rank
/// (0 for an empty sample).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`-quantile of a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// A latency sample in seconds, sorted once.
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn new(mut xs: Vec<f64>) -> Latencies {
        xs.sort_by(f64::total_cmp);
        Latencies(xs)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn median(&self) -> f64 {
        median(self.0.clone())
    }

    /// The `p`-quantile in milliseconds.
    pub fn ms(&self, p: f64) -> f64 {
        percentile(&self.0, p) * 1e3
    }

    /// Report note for a tail quantile: the sample count and whether at
    /// least ten samples lie beyond it.
    pub fn tail_note(&self, p: f64) -> String {
        let past = beyond(self.len(), p);
        let warn = if past < 10 {
            ", fewer than 10 beyond"
        } else {
            ""
        };
        format!("n={}, {} beyond{}", self.len(), past, warn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(low(xs.iter().rev().copied().collect()), 10.0);
        assert_eq!(low(vec![5.0, 7.0]), 5.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.99), 1);
    }
}
