//! A concurrent content-addressed completion cache.
//!
//! Keys are [`crate::ModelRequest::cache_key`] — a walk of every field
//! that affects the completion into a stable hasher, with an answer
//! request's model and item standing in as the digests they computed at
//! construction. Keys live and die with the process: the cache is never
//! persisted, so the key is not a wire format. Because every backend is a
//! deterministic function of the request, a cached response is
//! indistinguishable from a fresh one; the cache exists so repeated
//! evaluation passes (the no-math subset re-answers the full set's items,
//! ablations re-run conditions, repeated `run_cards` calls) skip
//! regeneration entirely.
//!
//! The cache is single-flight: each key owns one slot, created under the
//! map lock and filled outside it, so concurrent first touches of one key
//! complete it once and every other caller waits for that completion. How
//! many requests reach the backend is therefore a function of the request
//! list, not of the schedule.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::endpoint::ModelResponse;

/// The cache: `request content address → response`.
#[derive(Default)]
pub struct ResponseCache {
    map: RwLock<HashMap<u64, Arc<OnceLock<ModelResponse>>>>,
}

impl ResponseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The response stored under `key`, completing it with `complete` when
    /// no caller has yet. Returns the response and whether *this* call ran
    /// `complete`: exactly one caller per key does, and a caller that
    /// arrives while it runs waits for its result. `complete` must not wait
    /// on another request to this cache, or the two could wait on each
    /// other.
    pub fn get_or_complete(
        &self,
        key: u64,
        complete: impl FnOnce() -> ModelResponse,
    ) -> (ModelResponse, bool) {
        let slot = self.slot(key);
        let mut completed = false;
        let response = slot
            .get_or_init(|| {
                completed = true;
                complete()
            })
            .clone();
        (response, completed)
    }

    /// The slot for `key`, created under the write lock when absent.
    fn slot(&self, key: u64) -> Arc<OnceLock<ModelResponse>> {
        if let Some(slot) = self.map.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return Arc::clone(slot);
        }
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_default())
    }

    /// Number of cached completions (a slot whose completion panicked
    /// holds none).
    pub fn len(&self) -> usize {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        map.values().filter(|slot| slot.get().is_some()).count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached completion (e.g. between unrelated runs).
    pub fn clear(&self) {
        self.map.write().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::RoleOutput;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    fn response(text: &str) -> ModelResponse {
        ModelResponse { output: RoleOutput::Trace(text.to_string()), tokens_in: 1, tokens_out: 2 }
    }

    #[test]
    fn stores_and_retrieves() {
        let cache = ResponseCache::new();
        assert!(cache.is_empty());
        assert_eq!(
            cache.get_or_complete(7, || response("Answer: A")),
            (response("Answer: A"), true)
        );
        assert_eq!(
            cache.get_or_complete(7, || unreachable!("stored")),
            (response("Answer: A"), false)
        );
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_use() {
        let cache = ResponseCache::new();
        let completions = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, completions) = (&cache, &completions);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let key = (i + t) % 10;
                        let (r, _) = cache.get_or_complete(key, || {
                            completions.fetch_add(1, Ordering::Relaxed);
                            response(&format!("r{key}"))
                        });
                        assert_eq!(r, response(&format!("r{key}")));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 10);
        assert_eq!(completions.load(Ordering::Relaxed), 10, "one completion per key");
    }

    #[test]
    fn a_key_in_flight_is_completed_once() {
        // The first caller is held inside its completion until a second
        // caller of the same key is on its way in: the second must take the
        // first's response (waiting for it if it arrives in time) rather
        // than complete the key again.
        let cache = &ResponseCache::new();
        let (started_tx, started_rx) = mpsc::channel();
        let (calling_tx, calling_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let first = s.spawn(move || {
                cache.get_or_complete(3, || {
                    started_tx.send(()).expect("test alive");
                    go_rx.recv().expect("released");
                    response("first")
                })
            });
            started_rx.recv().expect("first is completing");
            let second = s.spawn(move || {
                calling_tx.send(()).expect("test alive");
                cache.get_or_complete(3, || response("second"))
            });
            calling_rx.recv().expect("second is calling");
            go_tx.send(()).expect("first alive");
            assert_eq!(first.join().expect("first"), (response("first"), true));
            assert_eq!(second.join().expect("second"), (response("first"), false));
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_first_touches_complete_once() {
        let cache = ResponseCache::new();
        let start = Barrier::new(8);
        let completed: Vec<bool> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|i| {
                    let (cache, start) = (&cache, &start);
                    s.spawn(move || {
                        start.wait();
                        cache.get_or_complete(11, || response(&format!("r{i}")))
                    })
                })
                .collect();
            let results: Vec<_> = racers.into_iter().map(|h| h.join().expect("racer")).collect();
            let winner = &results[0].0;
            assert!(results.iter().all(|(r, _)| r == winner), "every racer reads one response");
            results.into_iter().map(|(_, c)| c).collect()
        });
        assert_eq!(completed.iter().filter(|c| **c).count(), 1, "exactly one racer completed");
        assert_eq!(cache.len(), 1);
    }
}
