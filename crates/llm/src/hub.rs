//! [`ModelHub`]: the cross-cutting services stacked on a backend.
//!
//! The hub wraps any [`ModelEndpoint`] with the two services every
//! deployment needs and no backend should reimplement:
//!
//! * the content-addressed [`ResponseCache`] — repeated requests (the
//!   no-math re-answer pass, repeated `run_cards`, ablations) short-circuit
//!   without touching the backend;
//! * the per-role [`CallLedger`] — calls, batch sizes, token estimates,
//!   cache hit rate.
//!
//! The hub itself implements [`ModelEndpoint`], so consumers hold one
//! `Arc<dyn ModelEndpoint>` and get caching + accounting transparently.
//! Batched completion instruments every request individually (the batch
//! fan-out runs the same cached path per item), so serial and batched
//! execution stay bit-identical *and* identically accounted.

use std::time::Instant;

use mcqa_runtime::Executor;

use crate::endpoint::{fan_out_batch, ModelEndpoint, ModelRequest, ModelResponse, Role};
use crate::ledger::CallLedger;
use crate::response_cache::ResponseCache;

/// A backend plus its cache and ledger.
pub struct ModelHub {
    endpoint: Box<dyn ModelEndpoint>,
    cache: ResponseCache,
    ledger: CallLedger,
}

impl ModelHub {
    /// Stack the services on `endpoint`.
    pub fn new(endpoint: Box<dyn ModelEndpoint>) -> Self {
        Self { endpoint, cache: ResponseCache::new(), ledger: CallLedger::new() }
    }

    /// The call ledger.
    pub fn ledger(&self) -> &CallLedger {
        &self.ledger
    }

    /// The response cache.
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// Serve one request through the cache, tallying the ledger.
    ///
    /// Cache policy is payload-aware ([`RequestPayload::cacheable`]):
    /// request kinds that are issued exactly once per run — teacher
    /// generation/distillation, judge quality scoring — bypass the cache
    /// entirely (no key hashed, nothing retained), since every such entry
    /// would be written and never read. Their ledger accounting is
    /// unchanged: a bypassed request is a backend call, exactly as it was
    /// when it was a guaranteed cache miss.
    ///
    /// A cacheable request is single-flight ([`ResponseCache::get_or_complete`]):
    /// only the caller that runs the backend records a miss, and one that
    /// arrives while that completion is in flight waits for it and records
    /// a hit. A waiter may occupy a pool worker, so a backend completion
    /// must not wait on work it submits to that pool; the sim backend's
    /// completions submit none.
    fn cached_complete(&self, req: &ModelRequest) -> ModelResponse {
        let role = req.payload.role();
        let mut busy = 0;
        let mut backend = || {
            let start = Instant::now();
            let response = self.endpoint.complete(req);
            busy = start.elapsed().as_nanos() as u64;
            response
        };
        let (response, completed) = if req.payload.cacheable() {
            self.cache.get_or_complete(req.cache_key(), backend)
        } else {
            (backend(), true)
        };
        self.ledger.record_call(role, !completed, response.tokens_in, response.tokens_out, busy);
        response
    }
}

impl ModelEndpoint for ModelHub {
    fn backend(&self) -> &'static str {
        self.endpoint.backend()
    }

    fn complete(&self, req: &ModelRequest) -> ModelResponse {
        self.cached_complete(req)
    }

    fn complete_batch(&self, exec: &Executor, reqs: &[ModelRequest]) -> Vec<ModelResponse> {
        // Tally the submission per role it contains (a batch is normally
        // single-role, but the ledger must not depend on that).
        for role in Role::ALL {
            let n = reqs.iter().filter(|r| r.payload.role() == role).count();
            if n > 0 {
                self.ledger.record_batch(role, n);
            }
        }
        fan_out_batch(exec, reqs, |r| self.cached_complete(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{PromptPart, RequestPayload};
    use crate::sim::SimEndpoint;
    use mcqa_ontology::{Ontology, OntologyConfig};
    use std::sync::Arc;

    fn hub_over(ontology: Arc<Ontology>) -> ModelHub {
        ModelHub::new(Box::new(SimEndpoint::new(42, ontology)))
    }

    fn ontology() -> Arc<Ontology> {
        Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 400,
            quantitative_facts: 20,
        }))
    }

    fn grade_req(text: &str) -> ModelRequest {
        ModelRequest::new(
            vec![PromptPart::user(text)],
            RequestPayload::GradeAnswer { completion: text.into(), correct: 0, n_options: 7 },
            42,
        )
    }

    #[test]
    fn cache_short_circuits_and_matches_backend() {
        let ont = ontology();
        let hub = hub_over(Arc::clone(&ont));
        let bare = SimEndpoint::new(42, ont);
        let req = grade_req("Answer: A");

        let first = hub.complete(&req);
        assert_eq!(first, bare.complete(&req), "hub must not change completions");
        assert_eq!(hub.cache().len(), 1);
        let second = hub.complete(&req);
        assert_eq!(second, first, "cached response is indistinguishable");

        let judge = hub.ledger().role(crate::Role::Judge);
        assert_eq!(judge.calls, 2);
        assert_eq!(judge.cache_hits, 1);
        assert_eq!(judge.backend_calls(), 1);
    }

    #[test]
    fn once_only_payloads_bypass_the_cache_without_changing_completions() {
        use mcqa_ontology::FactId;
        let ont = ontology();
        let hub = hub_over(Arc::clone(&ont));
        let bare = SimEndpoint::new(42, ont);
        let fact = FactId(3);
        let req = ModelRequest::new(
            vec![PromptPart::user("generate")],
            RequestPayload::GenerateQuestion { fact, salt: "s0".into() },
            42,
        );

        let first = hub.complete(&req);
        assert_eq!(first, bare.complete(&req), "hub must not change completions");
        assert_eq!(hub.cache().len(), 0, "once-only requests retain nothing");
        // Serving the same request again is still correct (deterministic
        // backend), it just pays the backend instead of the cache.
        let second = hub.complete(&req);
        assert_eq!(second, first);
        let teacher = hub.ledger().role(crate::Role::Teacher);
        assert_eq!(teacher.calls, 2);
        assert_eq!(teacher.cache_hits, 0);
        assert_eq!(teacher.backend_calls(), 2);

        // A cacheable payload on the same hub still short-circuits.
        let grade = grade_req("Answer: B");
        hub.complete(&grade);
        hub.complete(&grade);
        assert_eq!(hub.cache().len(), 1);
        assert_eq!(hub.ledger().role(crate::Role::Judge).cache_hits, 1);
    }

    #[test]
    fn batch_goes_through_the_same_cached_path() {
        let hub = hub_over(ontology());
        let reqs: Vec<ModelRequest> =
            (0..20).map(|i| grade_req(&format!("Answer: {}", ['A', 'B'][i % 2]))).collect();
        let exec = Executor::global();

        // An empty batch is served without a trace: callers need not guard it.
        assert!(hub.complete_batch(exec, &[]).is_empty());
        assert_eq!(hub.ledger().total(), crate::RoleStats::default());
        assert!(hub.cache().is_empty());

        let batched = hub.complete_batch(exec, &reqs);
        let cold = hub.ledger().role(crate::Role::Judge);
        assert_eq!(cold.calls, 20);
        assert_eq!(cold.batches, 1);
        assert_eq!(cold.batched_calls, 20);
        // Only two distinct completions exist and each is stored once.
        // Items running side by side that touch one key first wait for a
        // single completion, so exactly one item per key reached the
        // backend, on any schedule.
        assert_eq!(hub.cache().len(), 2);
        assert_eq!(cold.backend_calls(), 2);
        assert_eq!(cold.cache_hits, 18);

        // With both keys stored, every item of a second batch reads the
        // cache and none reaches the backend.
        let warm_batched = hub.complete_batch(exec, &reqs);
        assert_eq!(warm_batched, batched);
        let warm = hub.ledger().role(crate::Role::Judge);
        assert_eq!(warm.calls, 40);
        assert_eq!(warm.batches, 2);
        assert_eq!(warm.batched_calls, 40);
        assert_eq!(warm.cache_hits, cold.cache_hits + 20);
        assert_eq!(warm.backend_calls(), cold.backend_calls());

        // And so is the serial path, with the same completions.
        let serial: Vec<ModelResponse> = reqs.iter().map(|r| hub.complete(r)).collect();
        assert_eq!(batched, serial);
        let judge = hub.ledger().role(crate::Role::Judge);
        assert_eq!(judge.calls, 60, "40 batched + 20 serial");
        assert_eq!(judge.batched_calls, 40);
        assert_eq!(judge.cache_hits, warm.cache_hits + 20);
        assert_eq!(judge.backend_calls(), cold.backend_calls());
        assert_eq!(hub.cache().len(), 2);
    }
}
