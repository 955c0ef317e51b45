//! Minimal wall-clock instrumentation for pipeline stage metrics.

use std::time::{Duration, Instant};

/// A wall-clock scope.
///
/// ```
/// use mcqa_util::ScopeTimer;
/// let t = ScopeTimer::start();
/// // ... work ...
/// let secs = t.elapsed_secs();
/// assert!(secs >= 0.0 && t.elapsed_secs() >= secs); // monotonic
/// ```
#[derive(Debug)]
pub struct ScopeTimer {
    start: Instant,
}

impl ScopeTimer {
    /// Start timing a scope.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Time elapsed since `start`.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_monotonic() {
        let t = ScopeTimer::start();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }
}
