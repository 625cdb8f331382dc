//! Sample summaries: medians, the supported tail, and quantiles read off
//! the program's own log-linear histograms.

use propeller_obs::metrics::bucket_bounds;
use propeller_obs::HistogramSnapshot;

/// The tail percentile a sample of `n` supports: the highest quantile with
/// at least ten samples beyond it, capped at p99.
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Linear-interpolated `q`-quantile of `values` (sorted in place); 0 for
/// an empty sample (a layer the workload never reached: the sample count
/// beside it in the run's metadata says so).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// A latency sample with its summary.
#[derive(Debug, Default, Clone)]
pub struct Sample(pub Vec<f64>);

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p50(&self) -> f64 {
        median(&mut self.0.clone())
    }

    /// The supported tail ([`tail_q`]).
    pub fn tail(&self) -> f64 {
        quantile(&mut self.0.clone(), tail_q(self.0.len()))
    }

    pub fn extend(&mut self, other: &Sample) {
        self.0.extend_from_slice(&other.0);
    }
}

/// `end - start`, bucket-wise: the recordings made between two snapshots.
pub fn hist_delta(end: &HistogramSnapshot, start: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    let Some(start) = start else { return end.clone() };
    let buckets: Vec<u64> = end
        .buckets
        .iter()
        .enumerate()
        .map(|(i, n)| n.saturating_sub(start.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot {
        count: buckets.iter().sum(),
        sum: end.sum.saturating_sub(start.sum),
        max: end.max,
        buckets,
    }
}

/// The `q`-quantile of a registry histogram, interpolated by rank inside
/// the log-linear bucket that holds it (the registry's own `quantile`
/// returns the bucket's upper bound). 0 when the histogram is empty.
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).max(1.0).min(h.count as f64);
    let mut seen = 0u64;
    for (idx, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= rank {
            let (lo, hi) = bucket_bounds(idx);
            let within = (rank - seen as f64) / n as f64;
            return lo as f64 + (hi + 1 - lo) as f64 * within;
        }
        seen += n;
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100_000), 0.99);
        assert!((tail_q(500) - 0.98).abs() < 1e-12);
        let mut v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&mut v), 51.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let hist = propeller_obs::Histogram::default();
        for v in [100u64, 100, 100, 100] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let p50 = hist_quantile(&snap, 0.5);
        let (lo, hi) = bucket_bounds(snap.buckets.iter().position(|&n| n > 0).unwrap());
        assert!(p50 >= lo as f64 && p50 <= (hi + 1) as f64, "{p50} in [{lo}, {hi}]");
        assert_eq!(hist_quantile(&propeller_obs::HistogramSnapshot::default(), 0.5), 0.0);
    }
}
