//! A concurrent content-addressed completion cache.
//!
//! Keys are [`crate::ModelRequest::cache_key`] — a walk of every field
//! that affects the completion into a stable hasher, with an answer
//! request's model standing in as the digest it computed at construction.
//! Keys live and die with the process: the cache is never persisted, so
//! the key is not a wire format. Because every backend is a deterministic
//! function of the request, a cached response is indistinguishable from a
//! fresh one; the cache exists so repeated evaluation passes (the no-math
//! subset re-answers the full set's items, ablations re-run conditions,
//! repeated `run_cards` calls) skip regeneration entirely.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use crate::endpoint::ModelResponse;

/// The cache: `request content address → response`.
#[derive(Default)]
pub struct ResponseCache {
    map: RwLock<HashMap<u64, ModelResponse>>,
}

impl ResponseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a response by content address.
    pub fn get(&self, key: u64) -> Option<ModelResponse> {
        self.map.read().unwrap_or_else(PoisonError::into_inner).get(&key).cloned()
    }

    /// Store a response under its content address.
    pub fn insert(&self, key: u64, response: ModelResponse) {
        self.map.write().unwrap_or_else(PoisonError::into_inner).insert(key, response);
    }

    /// Number of cached completions.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(PoisonError::into_inner).len()
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

    fn response(text: &str) -> ModelResponse {
        ModelResponse { output: RoleOutput::Trace(text.to_string()), tokens_in: 1, tokens_out: 2 }
    }

    #[test]
    fn stores_and_retrieves() {
        let cache = ResponseCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(7).is_none());
        cache.insert(7, response("Answer: A"));
        assert_eq!(cache.get(7), Some(response("Answer: A")));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_use() {
        let cache = ResponseCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let key = (i + t) % 10;
                        if cache.get(key).is_none() {
                            cache.insert(key, response(&format!("r{key}")));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 10);
    }
}
