//! Resident decoded-panel cache: the batch-of-1 latency fix.
//!
//! F16 storage halves the wire/RAM footprint but taxes every search with a
//! full-matrix decode. Micro-batching amortises that across concurrent
//! queries; a *lone* query cannot be batched, so it pays the whole decode —
//! the latency floor ROADMAP calls "the part batching can't buy".
//!
//! [`PanelCache`] removes the tax by keeping decoded F32 panels resident
//! under a bounded byte budget. Keys are `(segment, start_row, floats)` so
//! one cache can serve several backing stores (the PQ index keys by
//! inverted-list id) and coexisting block sizes can never alias. Panels are
//! held as `Arc<Vec<f32>>` and cloned out of the lock, so eviction can
//! never invalidate a panel a concurrent search is still scoring.
//!
//! Bit-identity is structural, not asserted: a miss runs the *caller's*
//! decode closure — the same decode loop the uncached path uses — and a hit
//! replays those exact bytes. `tests/panel_cache.rs` property-tests the
//! equivalence across precisions, budgets, and eviction schedules anyway.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Byte-budget policy for a [`PanelCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanelBudget {
    /// Size the budget off the store itself: room for the full decoded
    /// matrix, i.e. decode-once-pin for hot stores (the default).
    #[default]
    Auto,
    /// Explicit ceiling in bytes. `Bytes(0)` disables caching entirely —
    /// every panel decodes into caller scratch, exactly the legacy path.
    Bytes(usize),
}

impl PanelBudget {
    /// Resolve the policy against a store's full decoded size.
    fn effective(self, auto_cap_bytes: usize) -> usize {
        match self {
            PanelBudget::Auto => auto_cap_bytes,
            PanelBudget::Bytes(b) => b,
        }
    }
}

#[derive(Debug)]
struct Entry {
    panel: Arc<Vec<f32>>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(u64, usize, usize), Entry>,
    /// Sum of `panel.len() * 4` over the map — the budget denominator.
    bytes: usize,
    /// Monotone LRU clock (bumped on every touch).
    tick: u64,
}

/// A bounded cache of decoded F32 panels with LRU eviction.
///
/// Interior-mutable: searches run behind `&self`, so the map sits in a
/// [`Mutex`] held only for lookups/inserts — never across a
/// decode or a score. Hit/miss counters are atomics for the same reason.
#[derive(Debug)]
pub struct PanelCache {
    budget: PanelBudget,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PanelCache {
    fn default() -> Self {
        Self::new(PanelBudget::Auto)
    }
}

/// A clone starts empty: cloned indexes can mutate independently, so they
/// must not share (or copy) resident panels — only the budget policy.
impl Clone for PanelCache {
    fn clone(&self) -> Self {
        Self::new(self.budget)
    }
}

impl PanelCache {
    /// Create an empty cache under `budget`.
    pub fn new(budget: PanelBudget) -> Self {
        Self {
            budget,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Decodes and scores run outside the lock and a panel is a pure
    /// function of the matrix bytes, so a holder that panicked left nothing
    /// a later lookup can misread: recover the guard.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured budget policy.
    pub fn budget(&self) -> PanelBudget {
        self.budget
    }

    /// Replace the budget policy. Drops every resident panel: a shrink must
    /// re-fit and a grow is rare enough that starting cold keeps this O(1).
    pub fn set_budget(&mut self, budget: PanelBudget) {
        self.budget = budget;
        self.invalidate();
    }

    /// Drop every resident panel (the backing matrix changed). Counters
    /// survive — they describe the cache's lifetime, not its contents.
    pub fn invalidate(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Bytes of decoded panels currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Number of panels currently resident.
    pub fn resident_panels(&self) -> usize {
        self.lock().map.len()
    }

    /// Lifetime cache hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses (including uncacheable oversized panels).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fetch-or-decode the panel of `floats` f32s at `(seg, start)` and run
    /// `use_panel` over it.
    ///
    /// On a hit the resident panel is cloned out of the lock (an `Arc`
    /// bump) and replayed. On a miss `decode` fills a fresh buffer which is
    /// then made resident, evicting least-recently-used panels until the
    /// effective budget holds. When caching is off — budget 0, or a panel
    /// alone exceeding the budget — `decode` fills `scratch` instead and
    /// nothing is retained, which is exactly the legacy uncached path.
    ///
    /// `auto_cap_bytes` is the store's full decoded size, the budget
    /// [`PanelBudget::Auto`] resolves to.
    #[allow(clippy::too_many_arguments)]
    pub fn with_panel<R>(
        &self,
        seg: u64,
        start: usize,
        floats: usize,
        auto_cap_bytes: usize,
        scratch: &mut Vec<f32>,
        decode: impl FnOnce(&mut [f32]),
        use_panel: impl FnOnce(&[f32]) -> R,
    ) -> R {
        let budget = self.budget.effective(auto_cap_bytes);
        let panel_bytes = floats * 4;
        if budget == 0 || panel_bytes > budget {
            // Uncacheable: decode into caller scratch, retain nothing.
            self.misses.fetch_add(1, Ordering::Relaxed);
            if scratch.len() < floats {
                scratch.resize(floats, 0.0);
            }
            decode(&mut scratch[..floats]);
            return use_panel(&scratch[..floats]);
        }

        let key = (seg, start, floats);
        if let Some(panel) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.get_mut(&key).map(|e| {
                e.last_used = tick;
                Arc::clone(&e.panel)
            })
        } {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return use_panel(&panel);
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut buf = vec![0.0f32; floats];
        decode(&mut buf);
        let panel = Arc::new(buf);
        {
            let mut inner = self.lock();
            // Two threads can race the same miss; the loser's insert
            // replaces an identical panel (decode is a pure function of the
            // matrix bytes), so only the accounting needs care.
            if let Some(old) = inner.map.remove(&key) {
                inner.bytes -= old.panel.len() * 4;
            }
            while inner.bytes + panel_bytes > budget {
                let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                    break;
                };
                let evicted = inner.map.remove(&victim).expect("victim resident");
                inner.bytes -= evicted.panel.len() * 4;
            }
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.insert(key, Entry { panel: Arc::clone(&panel), last_used: tick });
            inner.bytes += panel_bytes;
        }
        use_panel(&panel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(cache: &PanelCache, seg: u64, start: usize, floats: usize, cap: usize) -> Vec<f32> {
        let mut scratch = Vec::new();
        cache.with_panel(
            seg,
            start,
            floats,
            cap,
            &mut scratch,
            |buf| {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = (seg as f32) * 1000.0 + start as f32 + i as f32;
                }
            },
            |panel| panel.to_vec(),
        )
    }

    #[test]
    fn hit_replays_decoded_bytes() {
        let cache = PanelCache::new(PanelBudget::Bytes(1 << 20));
        let a = fetch(&cache, 0, 0, 16, 0);
        let b = fetch(&cache, 0, 0, 16, 0);
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.resident_bytes(), 64);
    }

    #[test]
    fn budget_zero_disables_caching() {
        let cache = PanelCache::new(PanelBudget::Bytes(0));
        fetch(&cache, 0, 0, 16, 0);
        fetch(&cache, 0, 0, 16, 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // Room for exactly two 16-float panels.
        let cache = PanelCache::new(PanelBudget::Bytes(128));
        fetch(&cache, 0, 0, 16, 0);
        fetch(&cache, 0, 16, 16, 0);
        assert_eq!(cache.resident_panels(), 2);
        // Touch panel 0 so panel 16 is the LRU victim.
        fetch(&cache, 0, 0, 16, 0);
        fetch(&cache, 0, 32, 16, 0);
        assert_eq!(cache.resident_panels(), 2);
        assert!(cache.resident_bytes() <= 128);
        // Panel 0 survived (hit), panel 16 was evicted (miss).
        let hits = cache.hits();
        fetch(&cache, 0, 0, 16, 0);
        assert_eq!(cache.hits(), hits + 1);
        let misses = cache.misses();
        fetch(&cache, 0, 16, 16, 0);
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn oversized_panel_bypasses_cache() {
        let cache = PanelCache::new(PanelBudget::Bytes(32));
        fetch(&cache, 0, 0, 16, 0); // 64 bytes > 32-byte budget
        assert_eq!(cache.resident_panels(), 0);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn auto_budget_resolves_to_store_size() {
        let cache = PanelCache::new(PanelBudget::Auto);
        fetch(&cache, 0, 0, 16, 64); // store is exactly one panel
        fetch(&cache, 0, 0, 16, 64);
        assert_eq!(cache.hits(), 1);
        // A zero-sized store caches nothing under Auto.
        let empty = PanelCache::new(PanelBudget::Auto);
        fetch(&empty, 0, 0, 16, 0);
        assert_eq!(empty.resident_panels(), 0);
    }

    #[test]
    fn invalidate_clears_but_keeps_counters() {
        let cache = PanelCache::new(PanelBudget::Bytes(1 << 20));
        fetch(&cache, 0, 0, 16, 0);
        cache.invalidate();
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.resident_panels(), 0);
        assert_eq!(cache.misses(), 1);
        fetch(&cache, 0, 0, 16, 0);
        assert_eq!(cache.misses(), 2, "re-decoded after invalidate");
    }

    #[test]
    fn clone_starts_cold_with_same_budget() {
        let cache = PanelCache::new(PanelBudget::Bytes(256));
        fetch(&cache, 0, 0, 16, 0);
        let fresh = cache.clone();
        assert_eq!(fresh.budget(), PanelBudget::Bytes(256));
        assert_eq!(fresh.resident_panels(), 0);
        assert_eq!(fresh.hits() + fresh.misses(), 0);
    }

    #[test]
    fn distinct_segments_do_not_alias() {
        let cache = PanelCache::new(PanelBudget::Bytes(1 << 20));
        let a = fetch(&cache, 1, 0, 8, 0);
        let b = fetch(&cache, 2, 0, 8, 0);
        assert_ne!(a, b);
        assert_eq!(cache.misses(), 2);
    }
}
