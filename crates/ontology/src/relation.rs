//! Relation vocabulary connecting typed entities.
//!
//! Each relation constrains the [`EntityKind`]s of its subject and object.
//! Facts are *functional*: the ontology guarantees at most one true object
//! per `(subject, relation)` pair, so an MCQ built from a fact has exactly
//! one correct option among same-kind distractors.

use crate::entity::EntityKind;

/// The kind of a qualitative fact's relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelationKind {
    /// Protein/gene activates a pathway or process.
    Activates,
    /// Drug or protein inhibits a protein or pathway.
    Inhibits,
    /// Protein phosphorylates another protein after irradiation.
    Phosphorylates,
    /// Drug sensitises a cell line or tissue to radiation.
    Sensitizes,
    /// Drug protects a tissue from radiation injury.
    Protects,
    /// Gene is upregulated in response to a process/stimulus.
    UpregulatedBy,
    /// Lesion class is repaired predominantly by a pathway/process.
    RepairedBy,
    /// Loss of a gene causes a syndrome.
    LossCauses,
    /// Protein is a biomarker for a process in a tissue.
    BiomarkerFor,
    /// Modality produces predominantly a lesion class.
    ProducesLesion,
    /// Isotope is used to treat a tissue.
    UsedToTreat,
    /// Process is suppressed by a pathway.
    SuppressedBy,
    /// Gene is mutated in / characteristic of a cell line.
    MutatedIn,
    /// Pathway requires a protein as an essential component.
    Requires,
}

impl RelationKind {
    /// All relation kinds in canonical order.
    pub(crate) const ALL: [RelationKind; 14] = [
        RelationKind::Activates,
        RelationKind::Inhibits,
        RelationKind::Phosphorylates,
        RelationKind::Sensitizes,
        RelationKind::Protects,
        RelationKind::UpregulatedBy,
        RelationKind::RepairedBy,
        RelationKind::LossCauses,
        RelationKind::BiomarkerFor,
        RelationKind::ProducesLesion,
        RelationKind::UsedToTreat,
        RelationKind::SuppressedBy,
        RelationKind::MutatedIn,
        RelationKind::Requires,
    ];

    /// Allowed subject kinds.
    pub(crate) fn subject_kinds(self) -> &'static [EntityKind] {
        use EntityKind::*;
        match self {
            RelationKind::Activates => &[Protein, Gene],
            RelationKind::Inhibits => &[Drug, Protein],
            RelationKind::Phosphorylates => &[Protein],
            RelationKind::Sensitizes => &[Drug],
            RelationKind::Protects => &[Drug],
            RelationKind::UpregulatedBy => &[Gene],
            RelationKind::RepairedBy => &[Lesion],
            RelationKind::LossCauses => &[Gene],
            RelationKind::BiomarkerFor => &[Protein],
            RelationKind::ProducesLesion => &[Modality],
            RelationKind::UsedToTreat => &[Isotope],
            RelationKind::SuppressedBy => &[Process],
            RelationKind::MutatedIn => &[Gene],
            RelationKind::Requires => &[Pathway],
        }
    }

    /// Allowed object kinds (this is the kind the MCQ's options share).
    pub(crate) fn object_kinds(self) -> &'static [EntityKind] {
        use EntityKind::*;
        match self {
            RelationKind::Activates => &[Pathway, Process],
            RelationKind::Inhibits => &[Protein, Pathway],
            RelationKind::Phosphorylates => &[Protein],
            RelationKind::Sensitizes => &[CellLine, Tissue],
            RelationKind::Protects => &[Tissue],
            RelationKind::UpregulatedBy => &[Process],
            RelationKind::RepairedBy => &[Process, Pathway],
            RelationKind::LossCauses => &[Syndrome],
            RelationKind::BiomarkerFor => &[Process],
            RelationKind::ProducesLesion => &[Lesion],
            RelationKind::UsedToTreat => &[Tissue],
            RelationKind::SuppressedBy => &[Pathway],
            RelationKind::MutatedIn => &[CellLine],
            RelationKind::Requires => &[Protein],
        }
    }

    /// Verb phrase used in declarative statements ("X `<verb>` Y").
    pub fn verb(self) -> &'static str {
        match self {
            RelationKind::Activates => "activates",
            RelationKind::Inhibits => "inhibits",
            RelationKind::Phosphorylates => "phosphorylates",
            RelationKind::Sensitizes => "radiosensitises",
            RelationKind::Protects => "protects",
            RelationKind::UpregulatedBy => "is upregulated during",
            RelationKind::RepairedBy => "are repaired predominantly by",
            RelationKind::LossCauses => "loss causes",
            RelationKind::BiomarkerFor => "serves as a biomarker for",
            RelationKind::ProducesLesion => "predominantly induce",
            RelationKind::UsedToTreat => "is used clinically to treat",
            RelationKind::SuppressedBy => "is suppressed by",
            RelationKind::MutatedIn => "is characteristically mutated in",
            RelationKind::Requires => "requires",
        }
    }

    /// Interrogative stem for MCQ realisation. `{S}` is replaced by the
    /// subject name.
    pub(crate) fn question_stem(self) -> &'static str {
        match self {
            RelationKind::Activates => {
                "Which of the following is activated by {S} following irradiation?"
            }
            RelationKind::Inhibits => {
                "Which of the following is the principal target inhibited by {S}?"
            }
            RelationKind::Phosphorylates => {
                "Which substrate is phosphorylated by {S} after radiation exposure?"
            }
            RelationKind::Sensitizes => "Which of the following is radiosensitised by {S}?",
            RelationKind::Protects => "Which tissue is protected from radiation injury by {S}?",
            RelationKind::UpregulatedBy => "During which process is {S} upregulated?",
            RelationKind::RepairedBy => "By which mechanism are {S} predominantly repaired?",
            RelationKind::LossCauses => "Loss of {S} causes which of the following conditions?",
            RelationKind::BiomarkerFor => "{S} serves as a biomarker for which process?",
            RelationKind::ProducesLesion => "Which lesion class is predominantly induced by {S}?",
            RelationKind::UsedToTreat => "Which site is treated clinically with {S}?",
            RelationKind::SuppressedBy => "Which pathway suppresses {S}?",
            RelationKind::MutatedIn => "In which cell line is {S} characteristically mutated?",
            RelationKind::Requires => "Which protein is an essential component of the {S}?",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_nonempty_for_all_relations() {
        for r in RelationKind::ALL {
            assert!(!r.subject_kinds().is_empty(), "{r:?} subjects");
            assert!(!r.object_kinds().is_empty(), "{r:?} objects");
            assert!(!r.verb().is_empty());
            assert!(r.question_stem().contains("{S}"), "{r:?} stem must reference subject");
        }
    }

    #[test]
    fn canonical_order_is_stable() {
        assert_eq!(RelationKind::ALL.len(), 14);
        assert_eq!(RelationKind::ALL[0], RelationKind::Activates);
        assert_eq!(RelationKind::ALL[13], RelationKind::Requires);
    }

    #[test]
    fn object_kinds_have_mcq_distractor_support() {
        // Every object kind must be an open-enough class to supply 6
        // distractors; entity registry tests enforce >= 7 per kind, here we
        // just make sure no relation has an exotic kind outside ALL.
        for r in RelationKind::ALL {
            for k in r.object_kinds() {
                assert!(EntityKind::ALL.contains(k));
            }
        }
    }
}
