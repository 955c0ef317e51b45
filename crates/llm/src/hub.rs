//! [`ModelHub`]: the one way to a completion.
//!
//! The hub owns the simulator that plays every model role (the teacher,
//! judge and classifier, seeded at construction, plus the ontology the
//! teacher grounds questions in) and stacks the two services every caller
//! goes through:
//!
//! * the content-addressed [`ResponseCache`] — repeated requests (the
//!   no-math re-answer pass, repeated `run_cards`, ablations) short-circuit
//!   without touching the simulator;
//! * the per-role [`CallLedger`] — calls, batch sizes, token estimates,
//!   cache hit rate.
//!
//! Consumers share one `Arc<ModelHub>` and get caching + accounting
//! transparently. Batched completion instruments every request
//! individually (the batch fan-out runs the same cached path per item), so
//! serial and batched execution stay bit-identical *and* identically
//! accounted.

use std::sync::Arc;
use std::time::Instant;

use mcqa_ontology::Ontology;
use mcqa_runtime::{run_stage, Executor};

use crate::endpoint::{ModelRequest, ModelResponse, Role};
use crate::ledger::CallLedger;
use crate::response_cache::ResponseCache;
use crate::sim::Simulator;

/// The simulator plus its cache and ledger.
pub struct ModelHub {
    sim: Simulator,
    cache: ResponseCache,
    ledger: CallLedger,
}

impl ModelHub {
    /// The hub over `ontology`, every simulated role seeded from `seed`
    /// (the pipeline's master seed).
    pub fn new(seed: u64, ontology: Arc<Ontology>) -> Self {
        Self {
            sim: Simulator::new(seed, ontology),
            cache: ResponseCache::new(),
            ledger: CallLedger::new(),
        }
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
    /// Cache policy is payload-aware ([`crate::RequestPayload::cacheable`]):
    /// request kinds that are issued exactly once per run — teacher
    /// generation/distillation, judge quality scoring — bypass the cache
    /// entirely (no key hashed, nothing retained), since every such entry
    /// would be written and never read. Their ledger accounting is
    /// unchanged: a bypassed request is a simulator call, exactly as it was
    /// when it was a guaranteed cache miss.
    ///
    /// A cacheable request is single-flight ([`ResponseCache::get_or_complete`]):
    /// only the caller that runs the simulator records a miss, and one that
    /// arrives while that completion is in flight waits for it and records
    /// a hit. A waiter may occupy a pool worker, so a completion must not
    /// wait on work it submits to that pool; the simulator submits none.
    pub fn complete(&self, req: &ModelRequest) -> ModelResponse {
        let role = req.payload.role();
        let mut busy = 0;
        let mut simulate = || {
            let start = Instant::now();
            let response = self.sim.complete(req);
            busy = start.elapsed().as_nanos() as u64;
            response
        };
        let (response, completed) = if req.payload.cacheable() {
            self.cache.get_or_complete(req.cache_key(), simulate)
        } else {
            (simulate(), true)
        };
        self.ledger.record_call(role, !completed, response.tokens_in, response.tokens_out, busy);
        response
    }

    /// Serve a batch, fanned out on `exec`'s pool. Results are index-aligned with `reqs` and bit-identical
    /// to calling [`ModelHub::complete`] sequentially.
    pub fn complete_batch(&self, exec: &Executor, reqs: &[ModelRequest]) -> Vec<ModelResponse> {
        // Tally the submission per role it contains (a batch is normally
        // single-role, but the ledger must not depend on that).
        for role in Role::ALL {
            let n = reqs.iter().filter(|r| r.payload.role() == role).count();
            if n > 0 {
                self.ledger.record_batch(role, n);
            }
        }
        run_stage(exec, "model-batch", (0..reqs.len()).collect(), |i| self.complete(&reqs[i])).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use crate::answer::{Condition, ResolvedModel};
    use crate::cards::MODEL_CARDS;
    use crate::context::AssembledContext;
    use crate::endpoint::{RequestPayload, RoleOutput};
    use crate::mcq::{BenchKind, McqItem, PreparedItem};
    use crate::solver::{resolve, PipelineRates};
    use crate::trace::TraceMode;
    use mcqa_ontology::{FactId, OntologyConfig};
    use proptest::prelude::*;

    fn ontology() -> &'static Arc<Ontology> {
        static ONT: OnceLock<Arc<Ontology>> = OnceLock::new();
        ONT.get_or_init(|| {
            Arc::new(Ontology::generate(&OntologyConfig {
                seed: 42,
                entities_per_kind: 30,
                qualitative_facts: 400,
                quantitative_facts: 20,
            }))
        })
    }

    /// The bare simulator: the oracle a hub's completions must equal.
    fn simulator() -> &'static Simulator {
        static SIM: OnceLock<Simulator> = OnceLock::new();
        SIM.get_or_init(|| Simulator::new(42, Arc::clone(ontology())))
    }

    fn fresh_hub() -> ModelHub {
        ModelHub::new(42, Arc::clone(ontology()))
    }

    fn grade_req(text: &str) -> ModelRequest {
        ModelRequest::new(
            vec![text.into()],
            RequestPayload::GradeAnswer { completion: text.into(), correct: 0, n_options: 7 },
            42,
        )
    }

    #[test]
    fn cache_short_circuits_and_matches_backend() {
        let hub = fresh_hub();
        let req = grade_req("Answer: A");

        let first = hub.complete(&req);
        assert_eq!(first, simulator().complete(&req), "hub must not change completions");
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
        let hub = fresh_hub();
        let req = ModelRequest::new(
            vec!["generate".into()],
            RequestPayload::GenerateQuestion { fact: FactId(3), salt: "s0".into() },
            42,
        );

        let first = hub.complete(&req);
        assert_eq!(first, simulator().complete(&req), "hub must not change completions");
        assert_eq!(hub.cache().len(), 0, "once-only requests retain nothing");
        // Serving the same request again is still correct (deterministic
        // simulator), it just pays the simulator instead of the cache.
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
        let hub = fresh_hub();
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
        // simulator, on any schedule.
        assert_eq!(hub.cache().len(), 2);
        assert_eq!(cold.backend_calls(), 2);
        assert_eq!(cold.cache_hits, 18);

        // With both keys stored, every item of a second batch reads the
        // cache and none reaches the simulator.
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

    // Properties of the completion surface: the batched API is
    // observationally identical to sequential completion at any worker
    // count, the response cache is a pure short-circuit, and the call
    // ledger conserves counts across batch shapes.

    fn resolved(i: usize) -> Arc<ResolvedModel> {
        let card = MODEL_CARDS[i % MODEL_CARDS.len()].clone();
        let cal = resolve(&card, &PipelineRates::nominal());
        Arc::new(ResolvedModel::new(card, cal))
    }

    fn item(x: u64) -> McqItem {
        McqItem {
            qid: x,
            bench: BenchKind::Synthetic,
            fact: FactId(x % 50),
            stem: format!("Question number {x} about radiobiology?"),
            options: (0..7).map(|i| format!("candidate {i}")).collect(),
            correct: (x as usize) % 7,
            difficulty: (x % 100) as f64 / 100.0,
            is_math: false,
        }
    }

    /// A deterministic mixed-role request keyed by `x`: exercises every
    /// payload variant the workflow issues.
    fn request(x: u64) -> ModelRequest {
        let facts = ontology().facts();
        let fact = &facts[(x as usize) % facts.len()];
        let teacher_q = simulator()
            .complete(&ModelRequest::new(
                Vec::new(),
                RequestPayload::GenerateQuestion { fact: fact.id, salt: "pt".into() },
                42,
            ))
            .output
            .expect_question();
        let payload = match x % 6 {
            0 => RequestPayload::GenerateQuestion { fact: fact.id, salt: format!("s{}", x / 6) },
            1 => RequestPayload::DistillTrace {
                question: teacher_q,
                mode: TraceMode::ALL[(x / 6) as usize % 3],
            },
            2 => RequestPayload::ScoreQuestion { question: teacher_q, salience: fact.salience },
            3 => RequestPayload::GradeAnswer {
                completion: format!("Answer: {}", ['A', 'B', 'C'][(x / 6) as usize % 3]),
                correct: (x as usize / 6) % 7,
                n_options: 7,
            },
            4 => RequestPayload::ClassifyMath { item: item(x / 6) },
            _ => RequestPayload::Answer {
                model: resolved((x / 6) as usize),
                item: Arc::new(PreparedItem::new(item(x / 6))),
                condition: Condition::all()[(x / 6) as usize % 5],
                context: (x.is_multiple_of(2)).then_some(AssembledContext {
                    passages_in_window: 3,
                    passages_total: 5,
                    relevant_in_window: x.is_multiple_of(4),
                    relevant_retrieved: true,
                    prompt_tokens: 400,
                }),
            },
        };
        ModelRequest::new(vec![format!("request {x}")], payload, 42)
    }

    proptest! {
        #[test]
        fn complete_batch_is_bit_identical_to_serial(
            keys in proptest::collection::vec(any::<u64>(), 0..24),
        ) {
            let reqs: Vec<ModelRequest> = keys.iter().map(|&x| request(x)).collect();
            let serial: Vec<_> = reqs.iter().map(|r| simulator().complete(r)).collect();
            for workers in [1usize, 4] {
                let exec = Executor::new(workers);
                let batched = fresh_hub().complete_batch(&exec, &reqs);
                prop_assert_eq!(&batched, &serial, "workers {}", workers);
            }
        }

        #[test]
        fn cache_short_circuit_is_observationally_pure(
            keys in proptest::collection::vec(any::<u64>(), 1..16),
        ) {
            // Serve the list twice through a fresh hub: the second pass is
            // all cache hits and must be byte-identical to the first.
            let hub = fresh_hub();
            let reqs: Vec<ModelRequest> = keys.iter().map(|&x| request(x)).collect();
            let first: Vec<_> = reqs.iter().map(|r| hub.complete(r)).collect();
            let cached_completions = hub.cache().len();
            let second: Vec<_> = reqs.iter().map(|r| hub.complete(r)).collect();
            prop_assert_eq!(&second, &first);
            prop_assert_eq!(hub.cache().len(), cached_completions, "second pass adds nothing");
            // And the cached responses equal the bare simulator's.
            let bare: Vec<_> = reqs.iter().map(|r| simulator().complete(r)).collect();
            prop_assert_eq!(&first, &bare);
            // Ledger: the second pass hits for every *retained* request kind;
            // once-only payloads (teacher generation/distillation, quality
            // scoring) bypass the cache by policy and pay the deterministic
            // simulator again instead.
            let total = hub.ledger().total();
            prop_assert_eq!(total.calls as usize, reqs.len() * 2);
            let repeatable = reqs.iter().filter(|r| r.payload.cacheable()).count();
            prop_assert!(
                total.cache_hits as usize >= repeatable,
                "every cacheable repeat is a hit ({} < {repeatable})", total.cache_hits
            );
        }

        #[test]
        fn ledger_conserves_counts_across_batch_shapes(
            keys in proptest::collection::vec(any::<u64>(), 1..32),
            split in any::<u64>(),
        ) {
            let reqs: Vec<ModelRequest> = keys.iter().map(|&x| request(x)).collect();
            let exec = Executor::new(4);

            // Shape A: one batch. Shape B: two batches split at an arbitrary
            // point. Shape C: all serial.
            let shapes: [Vec<&[ModelRequest]>; 3] = {
                let cut = (split as usize) % (reqs.len() + 1);
                [vec![&reqs[..]], vec![&reqs[..cut], &reqs[cut..]], vec![]]
            };
            let mut outputs: Vec<Vec<ModelResponse>> = Vec::new();
            for (si, shape) in shapes.iter().enumerate() {
                let hub = fresh_hub();
                let mut out = Vec::new();
                if shape.is_empty() {
                    out.extend(reqs.iter().map(|r| hub.complete(r)));
                } else {
                    for part in shape {
                        out.extend(hub.complete_batch(&exec, part));
                    }
                }
                let total = hub.ledger().total();
                // Conservation: every request is exactly one call, and every
                // call is either a hit or a simulator completion.
                prop_assert_eq!(total.calls as usize, reqs.len(), "shape {}", si);
                prop_assert_eq!(
                    (total.cache_hits + (total.calls - total.cache_hits)) as usize,
                    reqs.len()
                );
                // The cache holds one entry per distinct completion of the
                // *retained* request kinds (once-only payloads are never
                // stored). The simulator served each of those once —
                // concurrent first touches of one key share a single
                // completion — plus every once-only request.
                let distinct: std::collections::HashSet<u64> = reqs
                    .iter()
                    .filter(|r| r.payload.cacheable())
                    .map(|r| r.cache_key())
                    .collect();
                let once_only = reqs.iter().filter(|r| !r.payload.cacheable()).count();
                prop_assert_eq!(hub.cache().len(), distinct.len(), "shape {}", si);
                prop_assert_eq!(
                    total.backend_calls() as usize,
                    distinct.len() + once_only,
                    "shape {}", si
                );
                // Batch submissions were tallied per role actually present.
                let batches: u64 = Role::ALL.iter().map(|r| hub.ledger().role(*r).batches).sum();
                let nonempty = shape.iter().filter(|p| !p.is_empty()).count();
                prop_assert!(batches >= nonempty as u64, "shape {}", si);
                outputs.push(out);
            }
            prop_assert_eq!(&outputs[0], &outputs[1], "batch split cannot change results");
            prop_assert_eq!(&outputs[0], &outputs[2], "serial vs batched identical");
        }
    }

    #[test]
    fn token_estimates_are_request_deterministic() {
        // The same request always reports the same token accounting — the
        // ledger's cost surface is reproducible.
        for x in 0..12u64 {
            let r = request(x);
            let a = simulator().complete(&r);
            let b = simulator().complete(&r);
            assert_eq!((a.tokens_in, a.tokens_out), (b.tokens_in, b.tokens_out));
            assert_eq!(a.tokens_in, r.prompt_tokens());
            // The completion's tokens are those of the text its output carries.
            let math_flag;
            let text = match &a.output {
                RoleOutput::Question(q) => &q.stem,
                RoleOutput::Trace(t) => t,
                RoleOutput::Quality(j) => &j.reasoning,
                RoleOutput::Grade(g) => &g.reasoning,
                RoleOutput::MathFlag(flag) => {
                    math_flag = format!("requires_math: {flag}");
                    &math_flag
                }
                RoleOutput::Answer(answer) => &answer.text,
                RoleOutput::Relevance(_) => unreachable!("`request` issues no rerank"),
            };
            assert_eq!(a.tokens_out, mcqa_text::token_count(text));
        }
    }

    #[test]
    fn a_model_is_digested_from_its_card_and_its_calibration() {
        // One calibration source, eight cards: eight digests, reproducibly.
        let digests: std::collections::HashSet<u64> =
            (0..MODEL_CARDS.len()).map(|i| resolved(i).key()).collect();
        assert_eq!(digests.len(), MODEL_CARDS.len());
        assert_eq!(resolved(3).key(), resolved(3).key());
        // One card, two calibrations: the solver's output is part of the
        // identity, down to one perturbed measured rate.
        let card = &MODEL_CARDS[3];
        let nominal = PipelineRates::nominal();
        let perturbed = PipelineRates { synth_chunk: nominal.synth_chunk - 0.01, ..nominal };
        let key = |rates| ResolvedModel::new(card.clone(), resolve(card, rates)).key();
        assert_ne!(key(&nominal), key(&perturbed));
    }
}
