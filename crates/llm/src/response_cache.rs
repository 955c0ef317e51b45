//! Concurrent content-addressed completion caches, one per call kind that
//! repeats within a run.
//!
//! A key is a walk of the typed fields a call kind's completion depends on,
//! plus the call's seed, into a stable hasher — an answer's model and item
//! standing in as the digests they computed at construction. Keys live and
//! die with the process: the caches are never persisted, so the key is not a
//! wire format. Because the simulator is a deterministic function of those
//! fields, a cached completion is indistinguishable from a fresh one; the
//! caches exist so repeated evaluation passes (the no-math subset
//! re-answers the full set's items, ablations re-run conditions, repeated
//! `run_cards` calls) skip regeneration entirely.
//!
//! A cache is single-flight: each key owns one slot, created under the map
//! lock and filled outside it, so concurrent first touches of one key
//! complete it once and every other caller waits for that completion. How
//! many calls reach the simulator is therefore a function of the call list,
//! not of the schedule. A completion that panics leaves its slot empty, and
//! the key's next caller completes it afresh.
//!
//! A cache is [`SHARDS`] maps, each behind its own lock, picked by six of
//! the key's high bits: the first touches of an evaluation's tens of
//! thousands of keys take write locks, and one lock over one map would
//! make every worker wait on every other's insert.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::answer::AnswerOutcome;
use crate::judge::GradeResult;

/// The identity hasher for content addresses. Hashing a key again would
/// buy nothing: every key is already a `StableHasher` digest, whose
/// `finish` is a splitmix64 finalisation, so its low bits (the bucket),
/// its top seven bits (the control byte) and the six below those (the
/// shard, see [`shard`]) are all fully mixed and disjoint. Keys are built
/// by the hub from typed call fields, never taken from outside input, so
/// no caller can choose colliding ones.
#[derive(Default)]
struct ContentAddress(u64);

impl Hasher for ContentAddress {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a cache key is one u64 content address")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Maps per cache.
const SHARDS: usize = 64;

/// The shard holding `key`: bits 51–56, below the seven the map's control
/// bytes read, so the keys of one shard still spread over every control
/// byte.
fn shard(key: u64) -> usize {
    (key >> 51) as usize % SHARDS
}

/// One shard of a cache: `content address → completion slot`.
type Shard<V> = RwLock<HashMap<u64, Arc<OnceLock<V>>, BuildHasherDefault<ContentAddress>>>;

/// One kind's cache: `content address → completion`, over [`SHARDS`]
/// independently locked maps.
pub(crate) struct ResponseCache<V> {
    shards: [Shard<V>; SHARDS],
}

impl<V> Default for ResponseCache<V> {
    fn default() -> Self {
        Self { shards: std::array::from_fn(|_| RwLock::default()) }
    }
}

impl<V: Clone> ResponseCache<V> {
    /// The completion stored under `key`, completing it with `complete`
    /// when no caller has yet. Returns the completion and whether *this*
    /// call ran `complete`: exactly one caller per key does, and a caller
    /// that arrives while it runs waits for its result. `complete` must not
    /// wait on another call to this cache, or the two could wait on each
    /// other.
    pub(crate) fn get_or_complete(&self, key: u64, complete: impl FnOnce() -> V) -> (V, bool) {
        let shard = &self.shards[shard(key)];
        let found = {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                // A hit clones the completion under the read lock.
                Some(slot) => match slot.get() {
                    Some(value) => return (value.clone(), false),
                    None => Some(Arc::clone(slot)),
                },
                None => None,
            }
        };
        // A miss, or a key in flight: wait on (or fill) its slot outside
        // the map lock.
        let slot = found.unwrap_or_else(|| {
            let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        });
        let mut completed = false;
        let value = slot
            .get_or_init(|| {
                completed = true;
                complete()
            })
            .clone();
        (value, completed)
    }

    /// Number of cached completions (a slot whose completion panicked
    /// holds none).
    pub(crate) fn len(&self) -> usize {
        let count = |shard: &Shard<V>| {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            map.values().filter(|slot| slot.get().is_some()).count()
        };
        self.shards.iter().map(count).sum()
    }
}

/// A hub's caches: one per call kind that repeats within a run (grading,
/// math classification, answering). The kinds issued once per input —
/// question generation, trace distillation, quality scoring — keep none,
/// since every entry would be written and never read.
#[derive(Default)]
pub struct ResponseCaches {
    pub(crate) grades: ResponseCache<GradeResult>,
    pub(crate) math_flags: ResponseCache<bool>,
    pub(crate) answers: ResponseCache<AnswerOutcome>,
}

impl ResponseCaches {
    /// Distinct completions cached, over every kind.
    pub fn len(&self) -> usize {
        self.grades.len() + self.math_flags.len() + self.answers.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    impl<V: Clone> ResponseCache<V> {
        /// True when nothing is cached.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    fn response(text: &str) -> String {
        text.to_string()
    }

    #[test]
    fn stores_and_retrieves() {
        let cache = ResponseCache::<String>::default();
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
    }

    #[test]
    fn a_panicking_completion_does_not_wedge_its_key() {
        let cache = ResponseCache::<String>::default();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_complete(5, || panic!("completion failed"))
        }));
        assert!(failed.is_err(), "the panic reaches the caller");
        assert_eq!(cache.len(), 0, "a failed completion stores nothing");
        assert!(cache.is_empty());
        // The key is not left in flight: its next caller completes it.
        assert_eq!(cache.get_or_complete(5, || response("retry")), (response("retry"), true));
        assert_eq!(cache.get_or_complete(5, || unreachable!("stored")), (response("retry"), false));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_use() {
        let cache = ResponseCache::<String>::default();
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

    /// One key in each shard, the bits outside the shard's varied too.
    fn keys_over_every_shard() -> Vec<u64> {
        (0..SHARDS as u64).map(|s| s << 51 | (s * 0x9E37) ^ (s % 7) << 58).collect()
    }

    /// Many keys in one shard: their control-byte and bucket bits differ.
    fn keys_in_one_shard() -> Vec<u64> {
        (0..96u64).map(|i| i << 57 | 5 << 51 | i.wrapping_mul(0x9E37_79B9)).collect()
    }

    #[test]
    fn the_key_sets_land_where_they_say() {
        let shards: HashSet<usize> = keys_over_every_shard().into_iter().map(shard).collect();
        assert_eq!(shards.len(), SHARDS);
        let shards: HashSet<usize> = keys_in_one_shard().into_iter().map(shard).collect();
        assert_eq!(shards.len(), 1);
    }

    #[test]
    fn a_key_in_flight_is_completed_once() {
        // The first caller is held inside its completion until a second
        // caller of the same key is on its way in: the second must take the
        // first's response (waiting for it if it arrives in time) rather
        // than complete the key again. Key by key, over every shard and
        // over many keys of one shard, on one cache.
        for keys in [vec![3], keys_over_every_shard(), keys_in_one_shard()] {
            let cache = &ResponseCache::<String>::default();
            for &key in &keys {
                let (started_tx, started_rx) = mpsc::channel();
                let (calling_tx, calling_rx) = mpsc::channel();
                let (go_tx, go_rx) = mpsc::channel::<()>();
                std::thread::scope(|s| {
                    let first = s.spawn(move || {
                        cache.get_or_complete(key, || {
                            started_tx.send(()).expect("test alive");
                            go_rx.recv().expect("released");
                            response(&format!("first {key}"))
                        })
                    });
                    started_rx.recv().expect("first is completing");
                    let second = s.spawn(move || {
                        calling_tx.send(()).expect("test alive");
                        cache.get_or_complete(key, || response("second"))
                    });
                    calling_rx.recv().expect("second is calling");
                    go_tx.send(()).expect("first alive");
                    let want = response(&format!("first {key}"));
                    assert_eq!(first.join().expect("first"), (want.clone(), true));
                    assert_eq!(second.join().expect("second"), (want, false));
                });
            }
            assert_eq!(cache.len(), keys.len(), "one completion per distinct key");
        }
    }

    #[test]
    fn racing_first_touches_complete_once() {
        // Eight racers touch every key of the set, each from its own
        // starting point, on one cache: a lone key, one key per shard, and
        // many keys of one shard.
        const RACERS: usize = 8;
        for keys in [vec![11], keys_over_every_shard(), keys_in_one_shard()] {
            let cache = ResponseCache::<String>::default();
            let completions: Vec<AtomicUsize> = keys.iter().map(|_| AtomicUsize::new(0)).collect();
            let start = Barrier::new(RACERS);
            let results: Vec<Vec<(String, bool)>> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..RACERS)
                    .map(|r| {
                        let (cache, start, keys, completions) =
                            (&cache, &start, &keys, &completions);
                        s.spawn(move || {
                            start.wait();
                            let mut out = vec![(String::new(), false); keys.len()];
                            let offset = r * keys.len() / RACERS;
                            for j in (0..keys.len()).map(|j| (j + offset) % keys.len()) {
                                out[j] = cache.get_or_complete(keys[j], || {
                                    completions[j].fetch_add(1, Ordering::Relaxed);
                                    response(&format!("r{r} {}", keys[j]))
                                });
                            }
                            out
                        })
                    })
                    .collect();
                racers.into_iter().map(|h| h.join().expect("racer")).collect()
            });
            for (j, key) in keys.iter().enumerate() {
                let winner = &results[0][j].0;
                assert!(
                    results.iter().all(|r| &r[j].0 == winner),
                    "every racer reads one response for {key:#x}"
                );
                let completed = results.iter().filter(|r| r[j].1).count();
                assert_eq!(completed, 1, "exactly one racer completed {key:#x}");
                assert_eq!(completions[j].load(Ordering::Relaxed), 1, "{key:#x}");
            }
            assert_eq!(cache.len(), keys.len(), "one completion per distinct key");
        }
    }

    proptest::proptest! {
        /// The pass-through-hashed cache behaves as a `BTreeMap` keyed by
        /// the same u64: each key completes once, every later call reads
        /// that completion, and `len()` counts the distinct keys. A third
        /// of the keys share their low 58 bits and differ only in the high
        /// ones, where an identity hash sends them all down one probe
        /// chain; a third are small and repeat; a third are arbitrary.
        #[test]
        fn pass_through_cache_matches_a_btreemap_oracle(
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..96),
        ) {
            let cache = ResponseCache::<String>::default();
            let mut oracle = std::collections::BTreeMap::new();
            let mut completions = std::collections::BTreeMap::<u64, usize>::new();
            for (i, x) in draws.into_iter().enumerate() {
                let key = match x % 3 {
                    0 => ((x >> 2) % 8) << 58 | 0x0000_5eed_0000_0000,
                    1 => (x >> 2) % 12,
                    _ => x,
                };
                let (got, completed) = cache.get_or_complete(key, || {
                    *completions.entry(key).or_default() += 1;
                    response(&format!("call {i} for {key:#x}"))
                });
                let fresh = !oracle.contains_key(&key);
                let want = oracle.entry(key).or_insert_with(|| got.clone());
                proptest::prop_assert_eq!(&got, want);
                proptest::prop_assert_eq!(completed, fresh);
                proptest::prop_assert_eq!(cache.len(), oracle.len());
            }
            proptest::prop_assert!(completions.values().all(|&n| n == 1), "{:?}", completions);
            proptest::prop_assert_eq!(completions.len(), oracle.len());
        }
    }
}
