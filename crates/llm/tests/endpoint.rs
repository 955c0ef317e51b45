//! Property tests for the `ModelEndpoint` surface: the batched completion
//! API must be observationally identical to sequential completion at any
//! worker count, the response cache must be a pure short-circuit, and the
//! call ledger must conserve counts across batch shapes.

use std::sync::{Arc, OnceLock};

use mcqa_llm::{
    resolve, AssembledContext, Condition, McqItem, ModelEndpoint, ModelHub, ModelRequest,
    PipelineRates, PreparedItem, PromptPart, RequestPayload, ResolvedModel, Role, RoleOutput,
    SimEndpoint, TraceMode, MODEL_CARDS,
};
use mcqa_ontology::{Ontology, OntologyConfig};
use mcqa_runtime::Executor;
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

fn endpoint() -> &'static SimEndpoint {
    static EP: OnceLock<SimEndpoint> = OnceLock::new();
    EP.get_or_init(|| SimEndpoint::new(42, Arc::clone(ontology())))
}

fn fresh_hub() -> ModelHub {
    ModelHub::new(Box::new(SimEndpoint::new(42, Arc::clone(ontology()))))
}

fn resolved(i: usize) -> Arc<ResolvedModel> {
    let card = MODEL_CARDS[i % MODEL_CARDS.len()].clone();
    let cal = resolve(&card, &PipelineRates::nominal());
    Arc::new(ResolvedModel::new(card, cal))
}

fn item(x: u64) -> McqItem {
    McqItem {
        qid: x,
        bench: mcqa_llm::BenchKind::Synthetic,
        fact: mcqa_ontology::FactId(x % 50),
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
    let ont = ontology();
    let facts = ont.facts();
    let fact = &facts[(x as usize) % facts.len()];
    let teacher_q = endpoint()
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
    ModelRequest::new(vec![PromptPart::user(format!("request {x}"))], payload, 42)
}

proptest! {
    #[test]
    fn complete_batch_is_bit_identical_to_serial(
        keys in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let reqs: Vec<ModelRequest> = keys.iter().map(|&x| request(x)).collect();
        let ep = endpoint();
        let serial: Vec<_> = reqs.iter().map(|r| ep.complete(r)).collect();
        for workers in [1usize, 4] {
            let exec = Executor::new(workers);
            let batched = ep.complete_batch(&exec, &reqs);
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
        // And the cached responses equal the bare backend's.
        let bare: Vec<_> = reqs.iter().map(|r| endpoint().complete(r)).collect();
        prop_assert_eq!(&first, &bare);
        // Ledger: the second pass hits for every *retained* request kind;
        // once-only payloads (teacher generation/distillation, quality
        // scoring) bypass the cache by policy and pay the deterministic
        // backend again instead.
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
        let mut outputs: Vec<Vec<mcqa_llm::ModelResponse>> = Vec::new();
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
            // call is either a hit or a backend completion.
            prop_assert_eq!(total.calls as usize, reqs.len(), "shape {}", si);
            prop_assert_eq!(
                (total.cache_hits + (total.calls - total.cache_hits)) as usize,
                reqs.len()
            );
            // The cache holds one entry per distinct completion of the
            // *retained* request kinds (once-only payloads are never
            // stored). The backend served each of those once — concurrent
            // first touches of one key share a single completion — plus
            // every once-only request.
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
    let ep = endpoint();
    for x in 0..12u64 {
        let r = request(x);
        let a = ep.complete(&r);
        let b = ep.complete(&r);
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
