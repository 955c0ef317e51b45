//! Pipeline configuration with paper-scale defaults.

use mcqa_corpus::AcquisitionConfig;
use mcqa_embed::EmbedConfig;
use mcqa_index::IndexSpec;
use mcqa_ontology::OntologyConfig;
use mcqa_text::ChunkerConfig;
use serde::{Deserialize, Serialize};

/// Configuration for the whole benchmark-generation pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Master seed: every stage derives its own stream from it.
    pub seed: u64,
    /// Fraction of the paper's corpus size (1.0 = 14,115 papers + 8,433
    /// abstracts; the default 0.1 keeps laptop runs in seconds).
    pub scale: f64,
    /// Domain ontology settings.
    pub ontology: OntologyConfig,
    /// Corpus acquisition settings.
    pub acquisition: AcquisitionConfig,
    /// Semantic chunker settings.
    pub chunker: ChunkerConfig,
    /// Encoder settings (the PubMedBERT stand-in).
    pub embed: EmbedConfig,
    /// Judge acceptance threshold (paper: 7/10).
    pub quality_threshold: u8,
    /// Worker threads for the runtime pool (0 = one per core).
    pub workers: usize,
    /// Vector-store backend for every database the pipeline builds
    /// (chunks + one per trace mode). Flat is exact and the paper's
    /// effective configuration; HNSW/IVF trade recall for speed
    /// (`repro recall` measures the trade).
    pub index: IndexSpec,
}

impl PipelineConfig {
    /// The paper's configuration scaled by `scale`, seeded by `seed`.
    ///
    /// The ontology's fact count scales sublinearly (a field's body of
    /// knowledge does not shrink as fast as a corpus sample), keeping the
    /// benchmark's fact-coverage density — and therefore exam-time trace
    /// retrieval — comparable across scales.
    pub fn at_scale(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let facts = ((6_000.0 * scale * 1.5) as usize).clamp(600, 6_000);
        let quant = ((600.0 * scale * 1.5) as usize).clamp(150, 600);
        let entities = ((facts as f64 / 12.0) as usize).max(60);
        Self {
            seed,
            scale,
            ontology: OntologyConfig {
                seed,
                entities_per_kind: entities,
                qualitative_facts: facts,
                quantitative_facts: quant,
            },
            acquisition: AcquisitionConfig::paper_scale(scale, seed),
            chunker: ChunkerConfig::default(),
            embed: EmbedConfig { seed, ..EmbedConfig::default() },
            quality_threshold: 7,
            workers: 0,
            index: IndexSpec::Flat,
        }
    }

    /// A tiny configuration for unit/integration tests (sub-second runs).
    pub fn tiny(seed: u64) -> Self {
        let mut c = Self::at_scale(0.01, seed);
        c.ontology.qualitative_facts = 600;
        c.ontology.quantitative_facts = 150;
        c.ontology.entities_per_kind = 60;
        c
    }

    /// Effective worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.workers
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::at_scale(0.1, 42)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts() {
        let c = PipelineConfig::at_scale(1.0, 7);
        assert_eq!(c.acquisition.full_papers, 14_115);
        assert_eq!(c.acquisition.abstracts, 8_433);
        assert_eq!(c.ontology.qualitative_facts, 6_000);
        assert_eq!(c.quality_threshold, 7);
    }

    #[test]
    fn small_scale_clamps_ontology() {
        let c = PipelineConfig::at_scale(0.01, 7);
        assert_eq!(c.ontology.qualitative_facts, 600);
        assert!(c.ontology.entities_per_kind >= 60);
        assert_eq!(c.acquisition.full_papers, 141);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        PipelineConfig::at_scale(0.0, 1);
    }

    #[test]
    fn workers_default_positive() {
        let c = PipelineConfig::default();
        assert!(c.effective_workers() >= 1);
    }

    #[test]
    fn serde_roundtrip() {
        let c = PipelineConfig::tiny(3);
        let s = serde_json::to_string(&c).unwrap();
        let back: PipelineConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn index_backend_is_a_config_choice() {
        // Flat is the exact default; ANN backends swap in by value, and
        // the choice survives serialisation (it is part of provenance).
        let mut c = PipelineConfig::default();
        assert_eq!(c.index, IndexSpec::Flat);
        c.index = IndexSpec::parse("hnsw").unwrap();
        let back: PipelineConfig =
            serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back.index.label(), "hnsw");
    }
}
