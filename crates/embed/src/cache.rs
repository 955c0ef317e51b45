//! A concurrent encode cache.
//!
//! Question texts are embedded repeatedly (once per retrieval condition per
//! model); the cache makes those lookups free and is safe to share across
//! pool workers.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use crate::encoder::BioEncoder;

/// A concurrent `text → embedding` cache keyed by a stable 64-bit hash of
/// the text (collisions are harmless for retrieval: the encoder is
/// deterministic, so a collision would only ever deduplicate work for
/// different texts with the same hash — probability ~2⁻⁶⁴ per pair).
pub struct EmbeddingCache<'e> {
    encoder: &'e BioEncoder,
    map: RwLock<HashMap<u64, Vec<f32>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl<'e> EmbeddingCache<'e> {
    /// Create a cache over `encoder`.
    pub fn new(encoder: &'e BioEncoder) -> Self {
        Self {
            encoder,
            map: RwLock::new(HashMap::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Encode through the cache.
    pub fn encode(&self, text: &str) -> Vec<f32> {
        use std::sync::atomic::Ordering::Relaxed;
        let key = mcqa_util::fnv1a(text.as_bytes());
        if let Some(v) = self.map.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return v.clone();
        }
        let v = self.encoder.encode(text);
        self.misses.fetch_add(1, Relaxed);
        self.map.write().unwrap_or_else(PoisonError::into_inner).insert(key, v.clone());
        v
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// Number of cached embeddings.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EmbedConfig;

    #[test]
    fn caches_and_counts() {
        let enc = BioEncoder::new(EmbedConfig::default());
        let cache = EmbeddingCache::new(&enc);
        let a = cache.encode("dose rate effects");
        let b = cache.encode("dose rate effects");
        assert_eq!(a, b);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        let _ = cache.encode("another text");
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn cached_value_matches_direct() {
        let enc = BioEncoder::new(EmbedConfig::default());
        let cache = EmbeddingCache::new(&enc);
        let via_cache = cache.encode("fractionation schedule");
        assert_eq!(via_cache, enc.encode("fractionation schedule"));
    }

    #[test]
    fn concurrent_use() {
        let enc = BioEncoder::new(EmbedConfig::default());
        let cache = EmbeddingCache::new(&enc);
        std::thread::scope(|s| {
            for _t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50 {
                        let text = format!("text {}", i % 10); // keys shared across threads
                        let _ = cache.encode(&text);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 10);
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 200);
        assert!(misses >= 10);
    }
}
