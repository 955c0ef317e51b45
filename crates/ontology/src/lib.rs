//! A synthetic radiation- and cancer-biology domain ontology.
//!
//! The paper builds its benchmark from 22,548 real open-access documents.
//! Those are not available offline — and, more importantly, real documents
//! give you no *ground truth*: you cannot check whether a generated question
//! is really supported by its source chunk, or whether a retrieval hit is
//! really relevant. This crate replaces the literature with a generative
//! ontology:
//!
//! * a registry of typed entities (genes, proteins, pathways,
//!   cell lines, drugs, radiation modalities, …) with deterministic
//!   synthesised names,
//! * a set of qualitative [`fact::Fact`]s — subject/relation/object triples
//!   with difficulty and salience — partitioned over [`topic::Topic`]s,
//! * quantitative facts implementing real radiobiology
//!   formulae (linear-quadratic survival, BED/EQD2, radioactive decay,
//!   inverse-square law) so that the Astro exam's maths subset exercises a
//!   genuinely different capability,
//! * natural-language [`realize`] templates that render facts as
//!   declarative statements (for papers), exam stems (for questions), and
//!   distilled rationales (for reasoning traces).
//!
//! Every downstream stage — corpus synthesis, question generation, trace
//! distillation, evaluation — consumes the same ontology, which is what
//! makes end-to-end provenance checkable in integration tests.
//!
//! Generation is fully deterministic given a seed: two processes
//! constructing `Ontology::generate(&config)` with equal configs get
//! bit-identical ontologies.

pub(crate) mod entity;
pub(crate) mod fact;
pub(crate) mod math;
pub(crate) mod ontology;
pub mod realize;
pub(crate) mod relation;
pub(crate) mod topic;

pub use entity::EntityKind;
pub use fact::{Fact, FactId};
pub use ontology::{Ontology, OntologyConfig};
pub use topic::Topic;
