//! The per-role call ledger: the cost-accounting surface of the model
//! layer.
//!
//! Every request through a [`crate::ModelHub`] is tallied here — per role:
//! calls, batch submissions and token in/out estimates. The ledger counts,
//! it does not time: the stage rows that run model calls (`generate+judge`,
//! `traces`, `eval-answer`) already time the same work. Every call reaches
//! the simulator, so every call pays its tokens. The ledger renders as
//! greppable `[models] key=value` lines, which `repro models` and
//! `repro fig1` print.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The model roles the paper's workflow employs: one ledger row each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// GPT-4.1: question generation and reasoning-trace distillation.
    Teacher,
    /// The LLM judge: quality scoring and answer grading.
    Judge,
    /// GPT-5: math-question classification.
    Classifier,
    /// An evaluated SLM answering one MCQ.
    Answerer,
}

impl Role {
    /// All roles in canonical order.
    pub(crate) const ALL: [Role; 4] =
        [Role::Teacher, Role::Judge, Role::Classifier, Role::Answerer];

    /// Lowercase label used in ledger lines and metrics rows.
    pub fn label(self) -> &'static str {
        match self {
            Role::Teacher => "teacher",
            Role::Judge => "judge",
            Role::Classifier => "classifier",
            Role::Answerer => "answerer",
        }
    }

    /// Position in [`Role::ALL`].
    pub(crate) fn index(self) -> usize {
        match self {
            Role::Teacher => 0,
            Role::Judge => 1,
            Role::Classifier => 2,
            Role::Answerer => 3,
        }
    }
}

/// A snapshot of one role's tallies. Every field is a count, so a
/// snapshot is a function of the calls served, not of when or on which
/// thread they ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleStats {
    /// Requests served.
    pub calls: u64,
    /// Batch submissions that contained at least one request for this role.
    pub batches: u64,
    /// Requests that arrived via a batch submission.
    pub(crate) batched_calls: u64,
    /// Prompt tokens sent to the backend.
    pub tokens_in: u64,
    /// Completion tokens received from the backend.
    pub tokens_out: u64,
}

impl RoleStats {
    /// Requests that reached the backend: every request, so this is
    /// [`RoleStats::calls`]. Read only by `perfbench/src/paper_repro.rs`
    /// (`llm.backend_calls`), until the benchmark unregisters that name.
    pub fn backend_calls(&self) -> u64 {
        self.calls
    }

    /// The share of requests served without the backend: none, so this is
    /// 0. Read only by `perfbench/src/paper_repro.rs`
    /// (`llm.cache_hit_rate`), until the benchmark unregisters that name.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }

    /// Mean requests per batch submission (0 when nothing was batched).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_calls as f64 / self.batches as f64
        }
    }

    fn merge(&mut self, other: &RoleStats) {
        self.calls += other.calls;
        self.batches += other.batches;
        self.batched_calls += other.batched_calls;
        self.tokens_in += other.tokens_in;
        self.tokens_out += other.tokens_out;
    }
}

#[derive(Default)]
struct RoleCounters {
    calls: AtomicU64,
    batches: AtomicU64,
    batched_calls: AtomicU64,
    tokens_in: AtomicU64,
    tokens_out: AtomicU64,
}

impl RoleCounters {
    fn snapshot(&self) -> RoleStats {
        RoleStats {
            calls: self.calls.load(Relaxed),
            batches: self.batches.load(Relaxed),
            batched_calls: self.batched_calls.load(Relaxed),
            tokens_in: self.tokens_in.load(Relaxed),
            tokens_out: self.tokens_out.load(Relaxed),
        }
    }
}

/// How many counter shards a ledger holds. More recording threads than
/// this share shards: a collision costs speed, never a count.
const SHARDS: usize = 16;

/// One shard: a full set of per-role counters on cache lines of its own,
/// so threads on different shards never contend for a line.
#[derive(Default)]
#[repr(align(128))]
struct Shard {
    roles: [RoleCounters; Role::ALL.len()],
}

/// The calling thread's shard, picked once per thread: threads take shards
/// round-robin in the order they first record, in any ledger.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Relaxed) % SHARDS;
    }
    SHARD.with(|shard| *shard)
}

/// The ledger: per-role counters, safe to share across pool workers. Each
/// thread records into its own shard and a read sums the shards, so a
/// call costs a few uncontended atomic adds.
#[derive(Default)]
pub struct CallLedger {
    shards: [Shard; SHARDS],
}

impl CallLedger {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `role`'s counters in the calling thread's shard.
    fn counters(&self, role: Role) -> &RoleCounters {
        &self.shards[shard_index()].roles[role.index()]
    }

    /// Record one served request.
    pub(crate) fn record_call(&self, role: Role, tokens_in: usize, tokens_out: usize) {
        let c = self.counters(role);
        c.calls.fetch_add(1, Relaxed);
        c.tokens_in.fetch_add(tokens_in as u64, Relaxed);
        c.tokens_out.fetch_add(tokens_out as u64, Relaxed);
    }

    /// Record a batch submission containing `n` requests for `role`.
    pub(crate) fn record_batch(&self, role: Role, n: usize) {
        let c = self.counters(role);
        c.batches.fetch_add(1, Relaxed);
        c.batched_calls.fetch_add(n as u64, Relaxed);
    }

    /// Snapshot one role.
    pub fn role(&self, role: Role) -> RoleStats {
        let mut stats = RoleStats::default();
        for shard in &self.shards {
            stats.merge(&shard.roles[role.index()].snapshot());
        }
        stats
    }

    /// Snapshot every role, in canonical order.
    pub fn snapshot(&self) -> Vec<(Role, RoleStats)> {
        Role::ALL.iter().map(|r| (*r, self.role(*r))).collect()
    }

    /// Aggregate across roles.
    pub fn total(&self) -> RoleStats {
        let mut total = RoleStats::default();
        for (_, s) in self.snapshot() {
            total.merge(&s);
        }
        total
    }

    /// Greppable `[models] key=value` lines: one per active role plus a
    /// `role=total` aggregate (always emitted, so a census has an anchor
    /// even before any call). `backend=sim` names what served them: every
    /// completion comes from the hub's simulator.
    pub fn summary_lines(&self) -> Vec<String> {
        let line = |role: &str, s: &RoleStats| {
            format!(
                "[models] backend=sim role={role} calls={} batches={} \
                 mean_batch={:.1} tokens_in={} tokens_out={}",
                s.calls,
                s.batches,
                s.mean_batch_size(),
                s.tokens_in,
                s.tokens_out,
            )
        };
        let mut out: Vec<String> = self
            .snapshot()
            .iter()
            .filter(|(_, s)| s.calls > 0)
            .map(|(r, s)| line(r.label(), s))
            .collect();
        out.push(line("total", &self.total()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_index_their_own_slot() {
        for r in Role::ALL {
            assert_eq!(Role::ALL[r.index()], r);
        }
        let labels: std::collections::HashSet<&str> = Role::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn tallies_per_role() {
        let ledger = CallLedger::new();
        ledger.record_call(Role::Teacher, 100, 40);
        ledger.record_call(Role::Teacher, 100, 40);
        ledger.record_call(Role::Judge, 30, 10);
        ledger.record_batch(Role::Teacher, 2);

        let t = ledger.role(Role::Teacher);
        assert_eq!(t.calls, 2);
        assert_eq!(t.backend_calls(), 2, "every call reaches the backend");
        assert_eq!(t.tokens_in, 200, "every call pays its tokens");
        assert_eq!(t.tokens_out, 80);
        assert_eq!(t.batches, 1);
        assert_eq!(t.hit_rate(), 0.0);
        assert!((t.mean_batch_size() - 2.0).abs() < 1e-12);

        assert_eq!(ledger.role(Role::Classifier).calls, 0);
        assert_eq!(ledger.total().calls, 3);
        assert_eq!(ledger.total().tokens_in, 230);
    }

    #[test]
    fn summary_lines_are_greppable() {
        let ledger = CallLedger::new();
        ledger.record_call(Role::Judge, 30, 10);
        let lines = ledger.summary_lines();
        assert_eq!(lines.len(), 2, "active roles only, then the total");
        assert_eq!(
            lines[0],
            "[models] backend=sim role=judge calls=1 batches=0 mean_batch=0.0 tokens_in=30 \
             tokens_out=10"
        );
        assert!(lines[1].contains("role=total"));
    }

    #[test]
    fn concurrent_recording_conserves_counts() {
        let ledger = CallLedger::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ledger = &ledger;
                s.spawn(move || {
                    for i in 0..250 {
                        ledger.record_call(Role::Answerer, 10, 5 + i % 2);
                    }
                });
            }
        });
        let a = ledger.role(Role::Answerer);
        assert_eq!(a.calls, 1000);
        assert_eq!(a.tokens_in, 10_000);
        assert_eq!(a.tokens_out, 5_500);
    }

    #[test]
    fn more_threads_than_shards_sum_to_the_serial_tallies() {
        // Thread `t` records a tally of its own on every role; with more
        // threads than shards, some threads share a shard, and the barrier
        // starts them together, so sharing threads add to one line at
        // once. The snapshot must still equal the same calls recorded on
        // one thread.
        let threads = 2 * SHARDS + 3;
        let record = |ledger: &CallLedger, t: usize| {
            for role in Role::ALL {
                for i in 0..(t + 1) * (role.index() + 1) {
                    ledger.record_call(role, t + i, i % 3);
                }
                ledger.record_batch(role, t + 1);
            }
        };
        let serial = CallLedger::new();
        (0..threads).for_each(|t| record(&serial, t));
        let sharded = CallLedger::new();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (sharded, start) = (&sharded, &start);
                s.spawn(move || {
                    start.wait();
                    record(sharded, t);
                });
            }
        });
        assert_eq!(sharded.snapshot(), serial.snapshot());
        assert_eq!(sharded.total(), serial.total());
        assert_eq!(serial.role(Role::Teacher).batches, threads as u64);
    }
}
