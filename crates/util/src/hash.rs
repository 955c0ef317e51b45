//! Stable, portable 64-bit hashing.
//!
//! The standard library's `DefaultHasher` is explicitly *not* stable across
//! releases, and `HashMap` iteration order is randomised per process. The
//! pipeline needs hashes that are identical on every platform, in every run,
//! and independent of thread scheduling, because:
//!
//! 1. simulated model behaviour is keyed on `(model, item, decision)` hashes;
//! 2. artifact ids (chunk ids, question ids) must be reproducible so that
//!    provenance links survive re-runs;
//! 3. the embedder's feature hashing must produce the same vector for the
//!    same text forever.
//!
//! We provide FNV-1a for byte streams plus SplitMix64 as a finaliser/mixer.
//! [`StableHasher`] is also what the model layer walks a request's fields
//! into to address its response cache; those keys are process-local, so
//! that use needs determinism within a run, not stability across releases.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with FNV-1a (64-bit).
///
/// Fast, allocation-free, and stable. Good dispersion for short keys after
/// a [`splitmix64`] finalisation.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 mixing step: a bijective avalanche function on `u64`.
///
/// Used both as a finaliser for FNV output and as a cheap counter-based RNG
/// (`splitmix64(seed + i)` yields a high-quality pseudo-random stream that
/// can be indexed in O(1), which is what makes order-independent parallel
/// determinism possible).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An incremental stable hasher combining FNV-1a accumulation with a
/// SplitMix64 finaliser.
///
/// ```
/// use mcqa_util::StableHasher;
/// let mut h = StableHasher::new();
/// h.write_str("tinyllama");
/// h.write_u64(42);
/// let a = h.finish();
/// // Identical inputs always produce identical outputs.
/// let mut h2 = StableHasher::new();
/// h2.write_str("tinyllama");
/// h2.write_u64(42);
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Create a hasher with the canonical FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Create a hasher whose stream is domain-separated by `seed`.
    ///
    /// Different seeds yield statistically independent hash functions, used
    /// to derive independent Bernoulli decisions from the same key material.
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        let mut h = Self::new();
        h.write_u64(splitmix64(seed));
        h
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a UTF-8 string (length-prefixed to avoid concatenation
    /// ambiguity: `("ab","c")` must differ from `("a","bc")`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorb a `u64` in little-endian byte order.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Finalise with an avalanche mix so that low-entropy inputs still
    /// disperse across the full 64-bit range.
    #[inline]
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// `FNV_PRIME⁷`: absorbing seven zero bytes is seven bare multiplications.
const FNV_PRIME_POW7: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < 7 {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// Two [`StableHasher`] streams fed the same bytes in lock step.
///
/// Feature hashing derives two independent hashes of every feature from
/// two differently prefixed hashers. Forking both prefix states once and
/// advancing them together turns that into a single pass over the feature
/// bytes with two independent multiply chains per byte — and lets the
/// feature be streamed in pieces instead of being formatted into a
/// `String` first. `finish` equals what two [`StableHasher`]s forked from
/// the same prefixes and fed the same calls would return.
#[derive(Debug, Clone, Copy)]
pub struct PairedHasher {
    lanes: [u64; 2],
}

impl PairedHasher {
    /// Continue from the current states of `a` and `b`.
    #[inline]
    pub fn new(a: &StableHasher, b: &StableHasher) -> Self {
        Self { lanes: [a.state, b.state] }
    }

    /// Absorb raw bytes into both streams ([`StableHasher::write`]).
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let [mut a, mut b] = self.lanes;
        for &byte in bytes {
            a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b];
    }

    /// Absorb the length prefix [`StableHasher::write_str`] puts before a
    /// string's bytes, so a string can then be streamed in pieces with
    /// [`PairedHasher::write`].
    #[inline]
    pub fn write_len(&mut self, len: usize) {
        if len < 256 {
            // One significant little-endian byte, then seven zero bytes.
            for lane in &mut self.lanes {
                *lane = (*lane ^ len as u64).wrapping_mul(FNV_PRIME).wrapping_mul(FNV_PRIME_POW7);
            }
        } else {
            self.write(&(len as u64).to_le_bytes());
        }
    }

    /// Both streams' [`StableHasher::finish`].
    #[inline]
    pub fn finish(&self) -> [u64; 2] {
        self.lanes.map(splitmix64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn splitmix_is_bijective_on_sample() {
        // Injectivity spot check over a contiguous range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn hasher_matches_fnv_then_mix() {
        let mut h = StableHasher::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), splitmix64(fnv1a(b"foobar")));
    }

    #[test]
    fn length_prefix_disambiguates() {
        let key = |parts: [&str; 2]| {
            let mut h = StableHasher::new();
            parts.iter().for_each(|p| h.write_str(p));
            h.finish()
        };
        assert_ne!(key(["ab", "c"]), key(["a", "bc"]));
    }

    #[test]
    fn seeded_streams_differ() {
        let mut a = StableHasher::with_seed(1);
        let mut b = StableHasher::with_seed(2);
        a.write_str("x");
        b.write_str("x");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn paired_hasher_matches_two_stable_hashers() {
        let (mut a, mut b) = (StableHasher::with_seed(7), StableHasher::with_seed(7));
        a.write_u32(0);
        b.write_u32(1);
        let long = "x".repeat(300);
        for parts in
            [vec![""], vec!["a"], vec!["#", "αβγ"], vec!["hx-29", "_", "cell"], vec![&long]]
        {
            let whole = parts.concat();
            let mut paired = PairedHasher::new(&a, &b);
            paired.write_len(whole.len());
            for part in &parts {
                paired.write(part.as_bytes());
            }
            let (mut ha, mut hb) = (a.clone(), b.clone());
            ha.write_str(&whole);
            hb.write_str(&whole);
            assert_eq!(paired.finish(), [ha.finish(), hb.finish()], "{parts:?}");
        }
    }

    #[test]
    fn dispersion_of_counter_stream() {
        // Counter-mode SplitMix should have ~uniform bit balance.
        let mut ones = 0u64;
        let n = 4096u64;
        for i in 0..n {
            ones += splitmix64(i).count_ones() as u64;
        }
        let mean_bits = ones as f64 / n as f64;
        assert!((mean_bits - 32.0).abs() < 1.0, "mean bits {mean_bits}");
    }
}
