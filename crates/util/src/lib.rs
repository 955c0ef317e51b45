//! Shared low-level utilities for the `distllm-rs` workspace.
//!
//! Everything in this crate is dependency-light and deterministic:
//!
//! * [`hash`] — stable 64-bit hashing (FNV-1a and SplitMix64 finalisation)
//!   that is identical across platforms, runs, and thread counts. All
//!   "stochastic" behaviour in the simulated language models is keyed off
//!   these hashes so that results are reproducible bit-for-bit.
//! * [`stochastic`] — keyed Bernoulli draws, uniform floats, and categorical
//!   picks derived from stable hashes.
//! * [`mod@f16`] — a half-precision (IEEE 754 binary16) codec used by the
//!   embedding store, mirroring the paper's FP16 FAISS databases.
//! * [`kernel`] — multi-accumulator dot/norm/L2 kernels with a fixed
//!   accumulation order, the scalar core of exact vector search.
//! * [`codec`] — bounds-checked byte cursor, varint/zigzag, and
//!   little-endian put helpers shared by every serialised artifact format.
//! * [`hits`] — the shared [`SearchResult`] hit type, its one canonical
//!   ordering ([`cmp_hits`]: descending score, ascending id), and the
//!   bounded [`TopK`] accumulator — common to dense, lexical, and fused
//!   retrieval.
//! * [`stats`] — accuracy accounting and Wilson score intervals used by the
//!   evaluation harness.
//! * [`timer`] — lightweight wall-clock scopes for the runtime's stage
//!   metrics.

pub mod codec;
pub mod f16;
pub mod hash;
pub mod hits;
pub mod kernel;
pub mod stats;
pub mod stochastic;
pub mod timer;

pub use f16::F16;
pub use hash::{fnv1a, splitmix64, PairedHasher, StableHasher};
pub use hits::{cmp_hits, sort_hits, SearchResult, TopK};
pub use stats::{Accuracy, WilsonInterval};
pub use stochastic::KeyedStochastic;
pub use timer::ScopeTimer;
