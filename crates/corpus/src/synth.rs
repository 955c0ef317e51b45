//! Deterministic synthesis of papers and abstracts from the ontology.
//!
//! Each document gets a primary topic, a salience-weighted draw of facts
//! from that topic, and prose that weaves exact fact statements (the
//! provenance oracle) into keyword filler. Paraphrase variants differ per
//! document, so the same fact is worded differently across the corpus —
//! that is precisely what makes chunk retrieval imperfect, as in real
//! literature.

use mcqa_ontology::{realize, Fact, Ontology, Topic};
use mcqa_util::KeyedStochastic;

use crate::doc::{DocId, DocKind, Document, FactMention, Section};

/// Configuration for document synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Seed (independent of the ontology seed).
    pub(crate) seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self { seed: 42 }
    }
}

/// Facts mentioned per full paper (upper bound; availability-limited).
const FACTS_PER_PAPER: usize = 12;
/// Facts mentioned per abstract.
const FACTS_PER_ABSTRACT: usize = 3;
/// Filler sentences interleaved per fact sentence.
const FILLER_PER_FACT: usize = 4;

const SECTION_PLAN: &[&str] = &["Abstract", "Introduction", "Methods", "Results", "Discussion"];

/// Synthesise document `doc_id` of `kind` from `ontology`.
///
/// Deterministic in `(config.seed, doc_id)` and independent of generation
/// order, so corpora can be built in parallel.
pub fn synthesize(
    ontology: &Ontology,
    config: &SynthConfig,
    doc_id: DocId,
    kind: DocKind,
) -> Document {
    let rng = KeyedStochastic::new(config.seed ^ 0xD0C5_EED5);
    let d = doc_id.0.to_string();

    let topic = Topic::from_index(rng.below(Topic::ALL.len(), &["topic", &d]));
    let fact_budget = match kind {
        DocKind::FullPaper => FACTS_PER_PAPER,
        DocKind::Abstract => FACTS_PER_ABSTRACT,
    };

    // Salience-weighted fact draw from the topic (falls back to any topic
    // when the topical pool is thin).
    let pool: Vec<&Fact> = {
        let idxs = ontology.facts_in_topic(topic);
        if idxs.len() >= fact_budget {
            idxs.iter().map(|&i| &ontology.facts()[i]).collect()
        } else {
            ontology.facts().iter().collect()
        }
    };
    let weights: Vec<f64> = pool.iter().map(|f| 0.15 + f.salience).collect();
    let mut chosen: Vec<&Fact> = Vec::new();
    let mut used = std::collections::HashSet::new();
    let mut draw = 0u64;
    while chosen.len() < fact_budget && used.len() < pool.len() {
        let key = format!("{d}:{draw}");
        draw += 1;
        if draw > (fact_budget as u64 + pool.len() as u64) * 4 {
            break;
        }
        if let Some(i) = rng.weighted_choice(&weights, &["fact", &key]) {
            if used.insert(i) {
                chosen.push(pool[i]);
            }
        }
    }

    let reg = ontology.registry();

    // Distribute facts across sections.
    let section_titles: &[&str] = match kind {
        DocKind::FullPaper => SECTION_PLAN,
        DocKind::Abstract => &SECTION_PLAN[..1],
    };
    let mut sections: Vec<Section> = Vec::with_capacity(section_titles.len());
    let mut mentions: Vec<FactMention> = Vec::new();

    // Round-robin facts over content sections (all but Methods get facts;
    // Methods is pure filler, as in real papers).
    let content_sections: Vec<usize> = section_titles
        .iter()
        .enumerate()
        .filter(|(_, t)| **t != "Methods")
        .map(|(i, _)| i)
        .collect();

    let mut fact_iter = chosen.iter().enumerate().peekable();
    for (si, title) in section_titles.iter().enumerate() {
        let n_paragraphs = match kind {
            DocKind::Abstract => 1,
            DocKind::FullPaper => 1 + rng.below(3, &["npara", &d, title]),
        };
        let mut paragraphs = Vec::with_capacity(n_paragraphs);
        for pi in 0..n_paragraphs {
            let mut sentences: Vec<String> = Vec::new();
            let pkey = format!("{d}:{si}:{pi}");
            // Opening filler.
            sentences.push(filler_sentence(&rng, ontology, topic, &pkey, 0));
            // Facts assigned to this (section, paragraph).
            let facts_here = if content_sections.contains(&si) {
                let per_para = (chosen.len() / content_sections.len().max(1)).max(1);
                let mut taken = Vec::new();
                for _ in 0..per_para {
                    if let Some((fi, f)) = fact_iter.peek().copied() {
                        // Only consume if this is a content paragraph.
                        fact_iter.next();
                        taken.push((fi, f));
                    }
                }
                taken
            } else {
                Vec::new()
            };
            for (fi, fact) in facts_here {
                // Paraphrase variant unique to (doc, fact).
                let variant = rng.raw(&["variant", &d, &fi.to_string()]);
                let sentence = realize::statement(fact, reg, variant);
                mentions.push(FactMention {
                    fact: fact.id,
                    section: si,
                    sentence: sentence.clone(),
                });
                sentences.push(sentence);
                for k in 0..FILLER_PER_FACT {
                    sentences.push(filler_sentence(
                        &rng,
                        ontology,
                        topic,
                        &pkey,
                        (fi * 16 + k + 1) as u64,
                    ));
                }
            }
            // Closing filler.
            sentences.push(filler_sentence(&rng, ontology, topic, &pkey, 9999));
            paragraphs.push(sentences);
        }
        sections.push(Section { title: title.to_string(), paragraphs });
    }

    Document { id: doc_id, kind, sections, mentions }
}

/// A filler sentence: topically plausible prose that states no ontology
/// fact (it never mentions an entity *pair*, only single entities or
/// keywords, so it can never collide with a fact statement).
fn filler_sentence(
    rng: &KeyedStochastic,
    ontology: &Ontology,
    topic: Topic,
    pkey: &str,
    slot: u64,
) -> String {
    let kws = topic.keywords();
    let s = slot.to_string();
    let kw1 = kws[rng.below(kws.len(), &["kw1", pkey, &s])];
    let kw2 = kws[rng.below(kws.len(), &["kw2", pkey, &s])];
    let quant = 5 + rng.below(90, &["q", pkey, &s]);
    match rng.below(8, &["form", pkey, &s]) {
        0 => format!("Recent work has highlighted the contribution of {kw1} to {kw2}."),
        1 => format!("We observed a {quant}% change in markers associated with {kw1}."),
        2 => format!("These findings are consistent with prior reports on {kw2}."),
        3 => format!("The interplay between {kw1} and {kw2} remains incompletely understood."),
        4 => format!("Quantitative assays confirmed substantial heterogeneity in {kw1}."),
        5 => format!("Further studies are required to delineate the kinetics of {kw2}."),
        6 => format!("Samples were analysed for {kw1} at {quant} hours post-irradiation."),
        _ => {
            let n = ontology.facts().len();
            if n == 0 {
                format!("Control conditions showed no change in {kw1}.")
            } else {
                let f = &ontology.facts()[rng.below(n, &["fx", pkey, &s])];
                let ent = &ontology.registry().get(f.subject).name;
                format!("Expression of {ent} varied markedly across samples.")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_ontology::OntologyConfig;

    fn small_ontology() -> Ontology {
        Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 30,
            qualitative_facts: 350,
            quantitative_facts: 20,
        })
    }

    #[test]
    fn deterministic_and_order_independent() {
        let ont = small_ontology();
        let cfg = SynthConfig::default();
        let a = synthesize(&ont, &cfg, DocId(5), DocKind::FullPaper);
        let b = synthesize(&ont, &cfg, DocId(5), DocKind::FullPaper);
        assert_eq!(a, b);
        // Generating doc 4 first must not change doc 5.
        let _ = synthesize(&ont, &cfg, DocId(4), DocKind::FullPaper);
        let c = synthesize(&ont, &cfg, DocId(5), DocKind::FullPaper);
        assert_eq!(a, c);
    }

    #[test]
    fn oracle_is_sound() {
        let ont = small_ontology();
        let cfg = SynthConfig::default();
        for i in 0..20 {
            let kind = if i % 3 == 0 { DocKind::Abstract } else { DocKind::FullPaper };
            let doc = synthesize(&ont, &cfg, DocId(i), kind);
            assert!(doc.verify_mentions().is_empty(), "doc {i}: oracle violated");
            assert!(!doc.mentions.is_empty(), "doc {i}: no facts mentioned");
        }
    }

    #[test]
    fn full_papers_have_all_sections_abstracts_one() {
        let ont = small_ontology();
        let cfg = SynthConfig::default();
        let paper = synthesize(&ont, &cfg, DocId(1), DocKind::FullPaper);
        assert_eq!(paper.sections.len(), 5);
        assert_eq!(paper.sections[0].title, "Abstract");
        assert!(paper.sentence_count() > 20);
        let abs = synthesize(&ont, &cfg, DocId(2), DocKind::Abstract);
        assert_eq!(abs.sections.len(), 1);
    }

    #[test]
    fn papers_mention_more_facts_than_abstracts() {
        let ont = small_ontology();
        let cfg = SynthConfig::default();
        let mut paper_facts = 0usize;
        let mut abs_facts = 0usize;
        for i in 0..10 {
            paper_facts += synthesize(&ont, &cfg, DocId(i), DocKind::FullPaper).mentions.len();
            abs_facts += synthesize(&ont, &cfg, DocId(100 + i), DocKind::Abstract).mentions.len();
        }
        assert!(paper_facts > abs_facts * 2, "{paper_facts} vs {abs_facts}");
    }

    #[test]
    fn different_docs_paraphrase_same_fact_differently() {
        let ont = small_ontology();
        let cfg = SynthConfig::default();
        // Find a fact mentioned by two different documents.
        let mut seen: std::collections::HashMap<mcqa_ontology::FactId, (u32, String)> =
            std::collections::HashMap::new();
        let mut found_pair = false;
        'outer: for i in 0..60 {
            let doc = synthesize(&ont, &cfg, DocId(i), DocKind::FullPaper);
            for m in &doc.mentions {
                if let Some((other_doc, other_sentence)) = seen.get(&m.fact) {
                    if *other_doc != i {
                        found_pair = true;
                        // Different docs usually phrase the fact differently
                        // (4 templates, so collisions are possible; just
                        // assert we found a cross-doc mention).
                        let _ = other_sentence;
                        break 'outer;
                    }
                }
                seen.insert(m.fact, (i, m.sentence.clone()));
            }
        }
        assert!(found_pair, "no fact restated across documents — salience model broken");
    }

    #[test]
    fn filler_never_states_facts() {
        // Filler sentences must not accidentally contain a subject+object
        // pair of any fact (that would corrupt the oracle).
        let ont = small_ontology();
        let doc = synthesize(&ont, &SynthConfig::default(), DocId(11), DocKind::FullPaper);
        let oracle: std::collections::HashSet<&String> =
            doc.mentions.iter().map(|m| &m.sentence).collect();
        let reg = ont.registry();
        for sec in &doc.sections {
            for para in &sec.paragraphs {
                for sent in para {
                    if oracle.contains(sent) {
                        continue; // a genuine fact statement
                    }
                    for f in ont.facts() {
                        let s = &reg.get(f.subject).name;
                        let o = &reg.get(f.object).name;
                        assert!(
                            !(sent.contains(s.as_str()) && sent.contains(o.as_str())),
                            "filler sentence states fact pair: {sent}"
                        );
                    }
                }
            }
        }
    }
}
