//! The assembled ontology: entities + qualitative facts + quantitative facts.

use std::collections::HashMap;

use mcqa_util::KeyedStochastic;

use crate::entity::{EntityId, EntityRegistry};
use crate::fact::{Fact, FactId, Qualifier};
use crate::math::QuantFact;
use crate::relation::RelationKind;
use crate::topic::Topic;

/// Id namespace offset for quantitative facts (qualitative ids are dense
/// from 0; quantitative ids start here).
pub(crate) const QUANT_ID_BASE: u64 = 1 << 32;

/// Configuration for ontology generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OntologyConfig {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Entities per open kind (genes, proteins, ...).
    pub entities_per_kind: usize,
    /// Number of qualitative facts to mint.
    pub qualitative_facts: usize,
    /// Number of quantitative facts to mint.
    pub quantitative_facts: usize,
}

impl Default for OntologyConfig {
    fn default() -> Self {
        Self { seed: 42, entities_per_kind: 480, qualitative_facts: 6_000, quantitative_facts: 600 }
    }
}

/// The complete synthetic domain.
#[derive(Debug, Clone)]
pub struct Ontology {
    config: OntologyConfig,
    registry: EntityRegistry,
    facts: Vec<Fact>,
    quant_facts: Vec<QuantFact>,
    facts_by_topic: HashMap<Topic, Vec<usize>>,
    fact_index: HashMap<FactId, usize>,
}

impl Ontology {
    /// Generate the full ontology deterministically from `config`.
    ///
    /// Functional-relation guarantee: for any `(subject, relation)` pair at
    /// most one fact exists, so every fact's object is the *unique* correct
    /// answer among same-kind distractors.
    pub fn generate(config: &OntologyConfig) -> Self {
        let registry = EntityRegistry::generate(config.seed, config.entities_per_kind);
        let rng = KeyedStochastic::new(config.seed ^ 0xFAC7_5EED);

        // Enumerate every admissible (relation, subject) pair: the
        // functional-relation constraint means each pair yields at most one
        // fact, so the pair count is the exact fact capacity.
        let mut pairs: Vec<(RelationKind, EntityId)> = Vec::new();
        for relation in RelationKind::ALL {
            for &subject_kind in relation.subject_kinds() {
                for &subject in registry.of_kind(subject_kind) {
                    pairs.push((relation, subject));
                }
            }
        }
        assert!(
            config.qualitative_facts <= pairs.len(),
            "requested {} qualitative facts but the ontology's pair capacity \
             is {}; increase entities_per_kind",
            config.qualitative_facts,
            pairs.len()
        );

        // Deterministic shuffle, then take the first N pairs.
        let perm = rng.permutation(pairs.len(), &["pair-shuffle"]);
        let mut facts = Vec::with_capacity(config.qualitative_facts);
        for &pi in perm.iter() {
            if facts.len() == config.qualitative_facts {
                break;
            }
            let (relation, subject) = pairs[pi];
            let a = format!("{}:{:?}", subject.0, relation);

            // Topic comes from the subject entity to keep prose coherent.
            let subj_topics = &registry.get(subject).topics;
            let topic = subj_topics[rng.below(subj_topics.len(), &["top", &a])];

            // Object: same-topic pool when rich enough, else the full kind.
            let ok = relation.object_kinds();
            let object_kind = ok[rng.below(ok.len(), &["ok", &a])];
            let obj_pool_topic = registry.of_topic_kind(topic, object_kind);
            let obj_pool = if obj_pool_topic.len() >= 7 {
                obj_pool_topic
            } else {
                registry.of_kind(object_kind)
            };
            // Skip the (rare) subject==object draw by walking a permutation.
            let operm = rng.permutation(obj_pool.len(), &["operm", &a]);
            let Some(object) = operm.iter().map(|&i| obj_pool[i]).find(|&o| o != subject) else {
                continue;
            };

            let qualifier = Qualifier::ALL[rng
                .weighted_choice(&[0.55, 0.09, 0.09, 0.09, 0.09, 0.09], &["q", &a])
                .unwrap_or(0)];
            let difficulty = rng.uniform(&["diff", &a]);
            let salience = rng.uniform(&["sal", &a]).powf(1.5); // skew toward low salience

            facts.push(Fact {
                id: FactId(facts.len() as u64),
                topic,
                subject,
                relation,
                object,
                qualifier,
                difficulty,
                salience,
            });
        }
        assert_eq!(
            facts.len(),
            config.qualitative_facts,
            "object pools too small to realise all requested facts"
        );

        let quant_facts: Vec<QuantFact> = (0..config.quantitative_facts as u64)
            .map(|i| QuantFact::generate(config.seed, i, QUANT_ID_BASE))
            .collect();

        let mut facts_by_topic: HashMap<Topic, Vec<usize>> = HashMap::new();
        let mut fact_index = HashMap::new();
        for (i, f) in facts.iter().enumerate() {
            facts_by_topic.entry(f.topic).or_default().push(i);
            fact_index.insert(f.id, i);
        }

        Self { config: config.clone(), registry, facts, quant_facts, facts_by_topic, fact_index }
    }

    /// The entity registry.
    pub fn registry(&self) -> &EntityRegistry {
        &self.registry
    }

    /// All qualitative facts, id-ordered.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// All quantitative facts.
    pub fn quant_facts(&self) -> &[QuantFact] {
        &self.quant_facts
    }

    /// Look up a qualitative fact by id.
    pub fn fact(&self, id: FactId) -> Option<&Fact> {
        self.fact_index.get(&id).map(|&i| &self.facts[i])
    }

    /// Indices of facts in `topic`.
    pub fn facts_in_topic(&self, topic: Topic) -> &[usize] {
        self.facts_by_topic.get(&topic).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Draw `n` distractor entities for `fact`: same kind as the object,
    /// topic-preferred, never the correct object, and never an object that
    /// would also be a true answer for the same subject under the same
    /// relation (guaranteed free by the functional constraint, but we also
    /// exclude the subject itself).
    ///
    /// `salt` diversifies the draw between call sites (e.g. different
    /// question ids over the same fact).
    pub fn distractors(&self, fact: &Fact, n: usize, salt: &str) -> Vec<EntityId> {
        let rng = KeyedStochastic::new(self.config.seed ^ 0xD157_AC70);
        let kind = self.registry.get(fact.object).kind;
        let pool_topic = self.registry.of_topic_kind(fact.topic, kind);
        // Topic-preferred pool, but the subject/object exclusions may eat
        // into it — fall through to the full kind pool to guarantee `n`
        // distractors whenever the kind has enough members at all.
        let pool: Vec<EntityId> =
            if pool_topic.len() > n { pool_topic.to_vec() } else { Vec::new() };
        let key = format!("{}:{}", fact.id.0, salt);
        let mut out = Vec::with_capacity(n);
        let mut taken: std::collections::HashSet<EntityId> = std::collections::HashSet::new();
        for (round, pool) in [pool.as_slice(), self.registry.of_kind(kind)].iter().enumerate() {
            let perm = rng.permutation(pool.len(), &["distract", &key, &round.to_string()]);
            for idx in perm {
                let cand = pool[idx];
                if cand == fact.object || cand == fact.subject || !taken.insert(cand) {
                    continue;
                }
                out.push(cand);
                if out.len() == n {
                    return out;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ontology {
        Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 24,
            qualitative_facts: 300,
            quantitative_facts: 60,
        })
    }

    #[test]
    fn generation_deterministic() {
        let cfg = OntologyConfig {
            seed: 7,
            entities_per_kind: 20,
            qualitative_facts: 150,
            quantitative_facts: 20,
        };
        let a = Ontology::generate(&cfg);
        let b = Ontology::generate(&cfg);
        assert_eq!(a.facts(), b.facts());
        assert_eq!(a.quant_facts(), b.quant_facts());
    }

    #[test]
    fn requested_counts_met() {
        let ont = small();
        assert_eq!(ont.facts().len(), 300);
        assert_eq!(ont.quant_facts().len(), 60);
    }

    #[test]
    fn functional_relation_constraint() {
        let ont = small();
        let mut pairs = std::collections::HashSet::new();
        for f in ont.facts() {
            assert!(pairs.insert((f.subject, f.relation)), "duplicate (subject, relation): {f:?}");
        }
    }

    #[test]
    fn fact_kinds_satisfy_relation_schema() {
        let ont = small();
        for f in ont.facts() {
            let sk = ont.registry().get(f.subject).kind;
            let ok = ont.registry().get(f.object).kind;
            assert!(f.relation.subject_kinds().contains(&sk), "{f:?}");
            assert!(f.relation.object_kinds().contains(&ok), "{f:?}");
            assert_ne!(f.subject, f.object);
            assert!((0.0..=1.0).contains(&f.difficulty));
            assert!((0.0..=1.0).contains(&f.salience));
        }
    }

    #[test]
    fn lookup_by_id() {
        let ont = small();
        for f in ont.facts().iter().take(20) {
            assert_eq!(ont.fact(f.id).unwrap(), f);
        }
        assert!(ont.fact(FactId(999_999)).is_none());
    }

    #[test]
    fn distractors_valid() {
        let ont = small();
        for f in ont.facts().iter().take(100) {
            let ds = ont.distractors(f, 6, "q0");
            assert_eq!(ds.len(), 6, "fact {:?}", f.id);
            let obj_kind = ont.registry().get(f.object).kind;
            let mut seen = std::collections::HashSet::new();
            for d in &ds {
                assert_ne!(*d, f.object, "distractor equals answer");
                assert_ne!(*d, f.subject, "distractor equals subject");
                assert_eq!(ont.registry().get(*d).kind, obj_kind, "kind mismatch");
                assert!(seen.insert(*d), "duplicate distractor");
            }
        }
    }

    #[test]
    fn distractors_vary_with_salt() {
        let ont = small();
        let f = &ont.facts()[0];
        let a = ont.distractors(f, 6, "salt-a");
        let b = ont.distractors(f, 6, "salt-b");
        assert_ne!(a, b, "salt should diversify distractor draws");
        assert_eq!(a, ont.distractors(f, 6, "salt-a"), "deterministic per salt");
    }

    #[test]
    fn topics_partition_facts() {
        let ont = small();
        let total: usize = Topic::ALL.iter().map(|t| ont.facts_in_topic(*t).len()).sum();
        assert_eq!(total, ont.facts().len());
        for t in Topic::ALL {
            for &i in ont.facts_in_topic(t) {
                assert_eq!(ont.facts()[i].topic, t);
            }
        }
    }

    #[test]
    #[should_panic(expected = "pair capacity")]
    fn impossible_config_panics() {
        // More facts demanded than distinct (subject, relation) pairs exist.
        Ontology::generate(&OntologyConfig {
            seed: 1,
            entities_per_kind: 2,
            qualitative_facts: 100_000,
            quantitative_facts: 0,
        });
    }
}
