//! The service's observability ledger.
//!
//! Lock-free atomic counters updated on the submit and dispatch paths,
//! snapshotted into [`ServiceSnapshot`] for reporting — the same
//! ledger-then-snapshot shape as the model layer's call ledger, so the
//! serving surface reads like the rest of the repo's cost accounting.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Batch-size histogram buckets: `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+`.
pub const BATCH_BUCKETS: usize = 8;

fn bucket_of(batch: usize) -> usize {
    match batch {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

/// Live counters, shared between the submit path and the dispatcher.
#[derive(Default)]
pub struct ServiceStats {
    admitted: AtomicU64,
    rejected: AtomicU64,
    served_ok: AtomicU64,
    served_err: AtomicU64,
    batches: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    queue_nanos: AtomicU64,
    encode_nanos: AtomicU64,
    search_nanos: AtomicU64,
}

impl ServiceStats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn admit(&self, requests: u64) {
        self.admitted.fetch_add(requests, Relaxed);
    }

    pub(crate) fn reject(&self) {
        self.rejected.fetch_add(1, Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Relaxed);
        self.batch_hist[bucket_of(size)].fetch_add(1, Relaxed);
    }

    pub(crate) fn record_served(&self, ok: bool) {
        if ok {
            self.served_ok.fetch_add(1, Relaxed);
        } else {
            self.served_err.fetch_add(1, Relaxed);
        }
    }

    pub(crate) fn add_queue_secs(&self, secs: f64) {
        self.queue_nanos.fetch_add((secs * 1e9) as u64, Relaxed);
    }

    pub(crate) fn add_encode_secs(&self, secs: f64) {
        self.encode_nanos.fetch_add((secs * 1e9) as u64, Relaxed);
    }

    pub(crate) fn add_search_secs(&self, secs: f64) {
        self.search_nanos.fetch_add((secs * 1e9) as u64, Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let batch_hist: [u64; BATCH_BUCKETS] =
            std::array::from_fn(|i| self.batch_hist[i].load(Relaxed));
        ServiceSnapshot {
            admitted: self.admitted.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            served_ok: self.served_ok.load(Relaxed),
            served_err: self.served_err.load(Relaxed),
            batches: self.batches.load(Relaxed),
            // The size-1 bucket; an empty batch is never recorded.
            fast_path_hits: batch_hist[0],
            batch_hist,
            queue_secs: self.queue_nanos.load(Relaxed) as f64 / 1e9,
            encode_secs: self.encode_nanos.load(Relaxed) as f64 / 1e9,
            search_secs: self.search_nanos.load(Relaxed) as f64 / 1e9,
        }
    }
}

/// A point-in-time view of the service ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected at admission ([`crate::ServeError::Saturated`]).
    pub rejected: u64,
    /// Requests answered with hits.
    pub served_ok: u64,
    /// Requests answered with a per-request error (unknown store, dim
    /// mismatch, missing encoder or text).
    pub served_err: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Dispatches that carried one request: it arrived on an empty queue,
    /// so there was nothing to coalesce it with (`batch_hist[0]`).
    pub fast_path_hits: u64,
    /// Batch-size histogram (bucket bounds: see [`BATCH_BUCKETS`]).
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Summed per-request queue wait.
    pub queue_secs: f64,
    /// Summed batch-group encode wall time.
    pub encode_secs: f64,
    /// Summed batch-group search wall time.
    pub search_secs: f64,
}

impl ServiceSnapshot {
    /// Total requests answered (ok + error).
    pub fn served(&self) -> u64 {
        self.served_ok + self.served_err
    }

    /// Mean requests per dispatched micro-batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served() as f64 / self.batches as f64
        }
    }

    /// Fraction of submissions shed at admission (`rejected / offered`).
    pub fn saturation(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_all_sizes() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(16), 4);
        assert_eq!(bucket_of(32), 5);
        assert_eq!(bucket_of(64), 6);
        assert_eq!(bucket_of(65), 7);
        assert_eq!(bucket_of(10_000), 7);
    }

    #[test]
    fn snapshot_derives() {
        let s = ServiceStats::new();
        s.admit(1);
        s.admit(9); // a replay is one unit of nine requests
        s.reject();
        s.record_batch(4);
        s.record_batch(6);
        s.record_batch(1);
        for i in 0..10 {
            s.record_served(i > 0); // one error, nine ok
        }
        s.add_queue_secs(0.5);
        let snap = s.snapshot();
        assert_eq!(snap.admitted, 10);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.served(), 10);
        assert_eq!(snap.served_err, 1);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.fast_path_hits, 1, "the size-1 bucket");
        assert_eq!(snap.batch_hist[2], 1, "4 lands in 3-4");
        assert_eq!(snap.batch_hist[3], 1, "6 lands in 5-8");
        assert!((snap.mean_batch() - 10.0 / 3.0).abs() < 1e-12);
        assert!((snap.saturation() - 1.0 / 11.0).abs() < 1e-12);
        assert!((snap.queue_secs - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_snapshot_is_zero_not_nan() {
        let snap = ServiceStats::new().snapshot();
        assert_eq!(snap.mean_batch(), 0.0);
        assert_eq!(snap.saturation(), 0.0);
    }
}
