//! Qualitative domain facts: typed subject–relation–object triples.

use serde::{Deserialize, Serialize};

use crate::entity::EntityId;
use crate::relation::RelationKind;
use crate::topic::Topic;

/// Globally unique fact identifier (stable across runs for a given config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FactId(pub u64);

/// An optional qualifying context attached to a fact.
///
/// Qualifiers add realistic hedging/variety to realised statements and make
/// paraphrases of the same fact lexically diverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Qualifier {
    /// No qualifier.
    None,
    /// Effect observed under hypoxic conditions.
    UnderHypoxia,
    /// Effect specific to high-LET radiation.
    HighLet,
    /// Effect observed at clinically relevant fraction sizes.
    ClinicalFractions,
    /// Effect observed in vitro only.
    InVitro,
    /// Effect strongest in S-phase cells.
    SPhase,
}

impl Qualifier {
    /// All qualifiers in canonical order.
    pub const ALL: [Qualifier; 6] = [
        Qualifier::None,
        Qualifier::UnderHypoxia,
        Qualifier::HighLet,
        Qualifier::ClinicalFractions,
        Qualifier::InVitro,
        Qualifier::SPhase,
    ];

    /// Rendered phrase (empty for `None`).
    pub fn phrase(self) -> &'static str {
        match self {
            Qualifier::None => "",
            Qualifier::UnderHypoxia => "under hypoxic conditions",
            Qualifier::HighLet => "after high-LET exposure",
            Qualifier::ClinicalFractions => "at clinically relevant fraction sizes",
            Qualifier::InVitro => "in vitro",
            Qualifier::SPhase => "predominantly in S-phase cells",
        }
    }
}

/// A qualitative fact: `subject —relation→ object`, with presentation
/// metadata used throughout the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fact {
    /// Unique id; question provenance ultimately resolves to this.
    pub id: FactId,
    /// The topical subfield the fact belongs to.
    pub topic: Topic,
    /// Subject entity.
    pub subject: EntityId,
    /// Relation kind.
    pub relation: RelationKind,
    /// Object entity — the correct answer of MCQs built from this fact.
    pub object: EntityId,
    /// Optional qualifying context.
    pub qualifier: Qualifier,
    /// Intrinsic difficulty in `[0, 1]`: how obscure the fact is. Harder
    /// facts are less likely to be "known" by a simulated model and less
    /// salient in corpus prose.
    pub difficulty: f64,
    /// Salience in `[0, 1]`: how often the literature restates the fact.
    /// High-salience facts appear in more documents (and thus more chunks).
    pub salience: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualifier_phrases() {
        assert_eq!(Qualifier::None.phrase(), "");
        for q in Qualifier::ALL {
            if q != Qualifier::None {
                assert!(!q.phrase().is_empty());
            }
        }
    }

    #[test]
    fn fact_serde_roundtrip() {
        let f = Fact {
            id: FactId(99),
            topic: Topic::Hypoxia,
            subject: EntityId(4),
            relation: RelationKind::Sensitizes,
            object: EntityId(9),
            qualifier: Qualifier::UnderHypoxia,
            difficulty: 0.25,
            salience: 0.75,
        };
        let s = serde_json::to_string(&f).unwrap();
        let back: Fact = serde_json::from_str(&s).unwrap();
        assert_eq!(back, f);
    }
}
