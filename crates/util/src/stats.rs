//! Statistics used across the pipeline and the evaluation harness.
//!
//! * [`OnlineStats`] — Welford's online mean/variance, mergeable so that
//!   per-worker accumulators can be reduced without precision loss.
//! * [`Accuracy`] — correct/total accounting with Wilson score intervals
//!   (the evaluation tables print these so readers can judge whether a
//!   scaled-down run is compatible with the paper's point estimates).
//! * [`WilsonInterval`] — the interval itself.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (Chan et al. parallel variance).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// A Wilson score interval for a binomial proportion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WilsonInterval {
    /// Lower bound in `[0, 1]`.
    pub lo: f64,
    /// Upper bound in `[0, 1]`.
    pub hi: f64,
}

impl WilsonInterval {
    /// The 95% Wilson score interval for `successes` out of `trials`.
    ///
    /// Returns the degenerate `[0, 1]` interval when `trials == 0`.
    pub fn wilson95(successes: u64, trials: u64) -> Self {
        Self::wilson(successes, trials, 1.959963984540054)
    }

    /// Wilson interval at an arbitrary normal quantile `z`.
    pub fn wilson(successes: u64, trials: u64, z: f64) -> Self {
        if trials == 0 {
            return Self { lo: 0.0, hi: 1.0 };
        }
        let n = trials as f64;
        let p = successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        Self { lo: (centre - half).max(0.0), hi: (centre + half).min(1.0) }
    }

    /// True when `p` falls inside the interval (inclusive).
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Correct/total accuracy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Accuracy {
    /// Number of correctly answered items.
    pub correct: u64,
    /// Number of graded items.
    pub total: u64,
}

impl Accuracy {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one graded item.
    pub fn record(&mut self, correct: bool) {
        self.total += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// Merge two accumulators.
    pub fn merge(&mut self, other: &Accuracy) {
        self.correct += other.correct;
        self.total += other.total;
    }

    /// Point accuracy in `[0, 1]` (0 when empty).
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// 95% Wilson interval around the point accuracy.
    pub fn interval(&self) -> WilsonInterval {
        WilsonInterval::wilson95(self.correct, self.total)
    }
}

/// Relative improvement of `new` over `old`, in percent.
///
/// This is the quantity plotted in the paper's Figures 4–6
/// (`100 * (new - old) / old`). Returns `None` when `old` is zero.
pub fn relative_improvement_pct(old: f64, new: f64) -> Option<f64> {
    if old == 0.0 {
        None
    } else {
        Some(100.0 * (new - old) / old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.571428571428571).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));

        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..300].iter().for_each(|&x| a.push(x));
        xs[300..].iter().for_each(|&x| b.push(x));
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn wilson_known_value() {
        // 8/10 successes, z=1.96 → approx [0.490, 0.943].
        let iv = WilsonInterval::wilson95(8, 10);
        assert!((iv.lo - 0.4901625).abs() < 1e-3, "lo {}", iv.lo);
        assert!((iv.hi - 0.9433178).abs() < 1e-3, "hi {}", iv.hi);
        assert!(iv.contains(0.8));
    }

    #[test]
    fn wilson_edges() {
        let zero = WilsonInterval::wilson95(0, 0);
        assert_eq!((zero.lo, zero.hi), (0.0, 1.0));
        let all = WilsonInterval::wilson95(50, 50);
        assert!(all.hi <= 1.0 && all.lo > 0.9);
        let none = WilsonInterval::wilson95(0, 50);
        assert!(none.lo == 0.0 && none.hi < 0.1);
    }

    #[test]
    fn wilson_narrows_with_n() {
        let small = WilsonInterval::wilson95(80, 100);
        let large = WilsonInterval::wilson95(8000, 10000);
        assert!(large.width() < small.width() / 5.0);
    }

    #[test]
    fn accuracy_accounting() {
        let mut acc = Accuracy::new();
        for i in 0..100 {
            acc.record(i % 4 != 0);
        }
        assert_eq!(acc.total, 100);
        assert_eq!(acc.correct, 75);
        assert!((acc.value() - 0.75).abs() < 1e-12);
        assert!(acc.interval().contains(0.75));

        let mut other = Accuracy::new();
        other.record(true);
        acc.merge(&other);
        assert_eq!(acc.total, 101);
        assert_eq!(acc.correct, 76);
    }

    #[test]
    fn relative_improvement() {
        assert_eq!(relative_improvement_pct(0.5, 0.75), Some(50.0));
        assert_eq!(relative_improvement_pct(0.4, 0.2), Some(-50.0));
        assert_eq!(relative_improvement_pct(0.0, 0.5), None);
    }
}
