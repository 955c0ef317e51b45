//! Minimal wall-clock instrumentation for pipeline stage metrics.

use std::time::{Duration, Instant};

/// A named wall-clock scope.
///
/// ```
/// use mcqa_util::ScopeTimer;
/// let t = ScopeTimer::start("embed");
/// // ... work ...
/// let elapsed = t.elapsed();
/// assert!(elapsed.as_nanos() > 0 || elapsed.as_nanos() == 0); // monotonic
/// ```
#[derive(Debug)]
pub struct ScopeTimer {
    label: &'static str,
    start: Instant,
}

impl ScopeTimer {
    /// Start timing a named scope.
    pub fn start(label: &'static str) -> Self {
        Self { label, start: Instant::now() }
    }

    /// The scope's label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Time elapsed since `start`.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Items/second for `n` items processed in this scope (0 when no time
    /// has passed yet, avoiding ±inf in reports).
    pub fn throughput(&self, n: usize) -> f64 {
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            0.0
        } else {
            n as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_monotonic() {
        let t = ScopeTimer::start("x");
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
        assert_eq!(t.label(), "x");
    }

    #[test]
    fn throughput_no_div_by_zero() {
        let t = ScopeTimer::start("x");
        // Either a sane number or 0, never inf/NaN.
        let tp = t.throughput(100);
        assert!(tp.is_finite());
    }
}
