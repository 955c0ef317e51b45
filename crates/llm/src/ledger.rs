//! The per-role call ledger: the cost-accounting surface of the model
//! layer.
//!
//! Every request through a [`crate::ModelHub`] is tallied here — per role:
//! calls, batch submissions, cache hits, token in/out estimates for the
//! completions that actually hit the backend, and cumulative backend busy
//! time. The ledger renders as greppable `[models] key=value` lines, which
//! `repro models` and `repro fig1` print.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// A snapshot of one role's tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleStats {
    /// Requests served (cache hits included).
    pub calls: u64,
    /// Batch submissions that contained at least one request for this role.
    pub batches: u64,
    /// Requests that arrived via a batch submission.
    pub(crate) batched_calls: u64,
    /// Requests short-circuited by the response cache.
    pub cache_hits: u64,
    /// Prompt tokens sent to the backend (cache hits excluded — a hit
    /// costs nothing).
    pub tokens_in: u64,
    /// Completion tokens received from the backend (cache hits excluded).
    pub tokens_out: u64,
    /// Cumulative backend busy time in seconds (summed across workers, so
    /// it can exceed wall-clock on a parallel stage).
    pub busy_secs: f64,
}

impl RoleStats {
    /// Requests that reached the backend.
    pub fn backend_calls(&self) -> u64 {
        self.calls - self.cache_hits
    }

    /// Cache hit rate in `[0, 1]` (0 for an idle role).
    pub fn hit_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.calls as f64
        }
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
        self.cache_hits += other.cache_hits;
        self.tokens_in += other.tokens_in;
        self.tokens_out += other.tokens_out;
        self.busy_secs += other.busy_secs;
    }
}

#[derive(Default)]
struct RoleCounters {
    calls: AtomicU64,
    batches: AtomicU64,
    batched_calls: AtomicU64,
    cache_hits: AtomicU64,
    tokens_in: AtomicU64,
    tokens_out: AtomicU64,
    busy_nanos: AtomicU64,
}

impl RoleCounters {
    fn snapshot(&self) -> RoleStats {
        RoleStats {
            calls: self.calls.load(Relaxed),
            batches: self.batches.load(Relaxed),
            batched_calls: self.batched_calls.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            tokens_in: self.tokens_in.load(Relaxed),
            tokens_out: self.tokens_out.load(Relaxed),
            busy_secs: self.busy_nanos.load(Relaxed) as f64 / 1e9,
        }
    }
}

/// The ledger: one set of counters per [`Role`], safe to share across pool
/// workers.
#[derive(Default)]
pub struct CallLedger {
    roles: [RoleCounters; Role::ALL.len()],
}

impl CallLedger {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one served request.
    pub(crate) fn record_call(
        &self,
        role: Role,
        cached: bool,
        tokens_in: usize,
        tokens_out: usize,
        busy_nanos: u64,
    ) {
        let c = &self.roles[role.index()];
        c.calls.fetch_add(1, Relaxed);
        if cached {
            c.cache_hits.fetch_add(1, Relaxed);
        } else {
            c.tokens_in.fetch_add(tokens_in as u64, Relaxed);
            c.tokens_out.fetch_add(tokens_out as u64, Relaxed);
            c.busy_nanos.fetch_add(busy_nanos, Relaxed);
        }
    }

    /// Record a batch submission containing `n` requests for `role`.
    pub(crate) fn record_batch(&self, role: Role, n: usize) {
        let c = &self.roles[role.index()];
        c.batches.fetch_add(1, Relaxed);
        c.batched_calls.fetch_add(n as u64, Relaxed);
    }

    /// Snapshot one role.
    pub fn role(&self, role: Role) -> RoleStats {
        self.roles[role.index()].snapshot()
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
                 mean_batch={:.1} cache_hits={} hit_rate={:.4} tokens_in={} tokens_out={} \
                 busy_secs={:.3}",
                s.calls,
                s.batches,
                s.mean_batch_size(),
                s.cache_hits,
                s.hit_rate(),
                s.tokens_in,
                s.tokens_out,
                s.busy_secs,
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
        ledger.record_call(Role::Teacher, false, 100, 40, 1_000);
        ledger.record_call(Role::Teacher, true, 100, 40, 0);
        ledger.record_call(Role::Judge, false, 30, 10, 500);
        ledger.record_batch(Role::Teacher, 2);

        let t = ledger.role(Role::Teacher);
        assert_eq!(t.calls, 2);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.backend_calls(), 1);
        assert_eq!(t.tokens_in, 100, "cache hits cost no tokens");
        assert_eq!(t.tokens_out, 40);
        assert_eq!(t.batches, 1);
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
        assert!((t.mean_batch_size() - 2.0).abs() < 1e-12);

        assert_eq!(ledger.role(Role::Classifier).calls, 0);
        assert_eq!(ledger.total().calls, 3);
        assert_eq!(ledger.total().tokens_in, 130);
    }

    #[test]
    fn summary_lines_are_greppable() {
        let ledger = CallLedger::new();
        ledger.record_call(Role::Judge, false, 30, 10, 2_000_000);
        let lines = ledger.summary_lines();
        assert_eq!(lines.len(), 2, "active roles only, then the total");
        assert!(lines[0].starts_with("[models] backend=sim role=judge calls=1 "));
        assert!(lines[1].contains("role=total"));
        assert!(lines[0].contains("tokens_in=30"));
        assert!(lines[0].contains("hit_rate=0.0000"));
        assert!(lines[0].ends_with("busy_secs=0.002"));
    }

    #[test]
    fn concurrent_recording_conserves_counts() {
        let ledger = CallLedger::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ledger = &ledger;
                s.spawn(move || {
                    for i in 0..250 {
                        ledger.record_call(Role::Answerer, i % 5 == 0, 10, 5, 100);
                    }
                });
            }
        });
        let a = ledger.role(Role::Answerer);
        assert_eq!(a.calls, 1000);
        assert_eq!(a.cache_hits, 200);
        assert_eq!(a.backend_calls(), 800);
        assert_eq!(a.tokens_in, 8000);
    }
}
