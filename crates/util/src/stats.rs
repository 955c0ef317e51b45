//! Statistics used across the pipeline and the evaluation harness.
//!
//! * [`Accuracy`] — correct/total accounting with Wilson score intervals.
//!   The evaluation tables print point estimates only; the interval is
//!   read by `examples/quickstart.rs`, which prints one per accuracy so a
//!   reader can judge whether a scaled-down run is compatible with the
//!   paper's point estimates.
//! * [`WilsonInterval`] — the interval itself.

use serde::Serialize;

/// A Wilson score interval for a binomial proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub(crate) fn wilson95(successes: u64, trials: u64) -> Self {
        Self::wilson(successes, trials, 1.959963984540054)
    }

    /// Wilson interval at an arbitrary normal quantile `z`.
    pub(crate) fn wilson(successes: u64, trials: u64, z: f64) -> Self {
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
}

/// Correct/total accuracy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
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

    impl WilsonInterval {
        /// True when `p` falls inside the interval (inclusive).
        fn contains(&self, p: f64) -> bool {
            p >= self.lo && p <= self.hi
        }

        /// Interval width.
        fn width(&self) -> f64 {
            self.hi - self.lo
        }
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
    }

    #[test]
    fn relative_improvement() {
        assert_eq!(relative_improvement_pct(0.5, 0.75), Some(50.0));
        assert_eq!(relative_improvement_pct(0.4, 0.2), Some(-50.0));
        assert_eq!(relative_improvement_pct(0.0, 0.5), None);
    }
}
