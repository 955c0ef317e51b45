//! Topical subfields of the synthetic radiation/cancer-biology domain.
//!
//! Topics partition the fact base the way sub-disciplines partition the real
//! literature. Each topic carries a keyword vocabulary used by the corpus
//! synthesiser for filler prose and by the acquisition simulator for
//! keyword search (the paper downloads papers by "cancer and radiation
//! biology keywords" from Semantic Scholar).

use serde::Serialize;

/// A sub-discipline of the synthetic domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Topic {
    /// Sensing and signalling of radiation-induced DNA damage.
    DnaDamageResponse,
    /// Double-strand-break repair pathways and their regulation.
    DnaRepair,
    /// Cell-cycle checkpoints and radiosensitivity windows.
    CellCycle,
    /// Programmed cell-death modes after irradiation.
    CellDeath,
    /// Fractionation schedules and the linear-quadratic framework.
    Fractionation,
    /// Tumour hypoxia and oxygen-dependent radiosensitivity.
    Hypoxia,
    /// Radiosensitisers, radioprotectors and combination drugs.
    Radiosensitizers,
    /// Radiation-immune interactions and abscopal responses.
    Immunology,
    /// Normal-tissue injury, late effects and radiation syndromes.
    NormalTissue,
    /// Radionuclides, brachytherapy sources and dosimetry biology.
    Radionuclides,
    /// Particle therapy: protons, carbon ions, relative effectiveness.
    ParticleTherapy,
    /// Tumour microenvironment and stromal radiobiology.
    Microenvironment,
}

impl Topic {
    /// All topics, in canonical order.
    pub const ALL: [Topic; 12] = [
        Topic::DnaDamageResponse,
        Topic::DnaRepair,
        Topic::CellCycle,
        Topic::CellDeath,
        Topic::Fractionation,
        Topic::Hypoxia,
        Topic::Radiosensitizers,
        Topic::Immunology,
        Topic::NormalTissue,
        Topic::Radionuclides,
        Topic::ParticleTherapy,
        Topic::Microenvironment,
    ];

    /// Topic from its stable index (wraps around).
    pub fn from_index(i: usize) -> Topic {
        Topic::ALL[i % Topic::ALL.len()]
    }

    /// Human-readable name used in paper titles and section prose.
    pub fn name(self) -> &'static str {
        match self {
            Topic::DnaDamageResponse => "DNA damage response",
            Topic::DnaRepair => "DNA repair",
            Topic::CellCycle => "cell cycle regulation",
            Topic::CellDeath => "radiation-induced cell death",
            Topic::Fractionation => "dose fractionation",
            Topic::Hypoxia => "tumour hypoxia",
            Topic::Radiosensitizers => "radiosensitizers and protectors",
            Topic::Immunology => "radiation immunology",
            Topic::NormalTissue => "normal tissue effects",
            Topic::Radionuclides => "radionuclides and brachytherapy",
            Topic::ParticleTherapy => "particle therapy",
            Topic::Microenvironment => "tumour microenvironment",
        }
    }

    /// Keyword vocabulary for filler prose and keyword search.
    pub fn keywords(self) -> &'static [&'static str] {
        match self {
            Topic::DnaDamageResponse => &[
                "double-strand break",
                "damage sensing",
                "checkpoint kinase",
                "foci formation",
                "chromatin remodelling",
                "signal transduction",
                "phosphorylation cascade",
                "genomic instability",
            ],
            Topic::DnaRepair => &[
                "homologous recombination",
                "end joining",
                "repair fidelity",
                "resection",
                "strand invasion",
                "ligation",
                "repair kinetics",
                "residual damage",
            ],
            Topic::CellCycle => &[
                "checkpoint arrest",
                "mitotic entry",
                "radiosensitive phase",
                "synchronisation",
                "cyclin expression",
                "restriction point",
                "polyploidy",
                "mitotic index",
            ],
            Topic::CellDeath => &[
                "apoptosis",
                "mitotic catastrophe",
                "senescence",
                "clonogenic survival",
                "caspase activation",
                "membrane permeabilisation",
                "autophagy",
                "necroptosis",
            ],
            Topic::Fractionation => &[
                "fraction size",
                "alpha-beta ratio",
                "biologically effective dose",
                "hypofractionation",
                "repopulation",
                "sublethal damage repair",
                "dose rate",
                "isoeffect curve",
            ],
            Topic::Hypoxia => &[
                "oxygen enhancement",
                "reoxygenation",
                "hypoxic fraction",
                "radioresistance",
                "oxygen fixation",
                "perfusion",
                "necrotic core",
                "hypoxia-inducible factor",
            ],
            Topic::Radiosensitizers => &[
                "sensitiser enhancement ratio",
                "thiol depletion",
                "nitroimidazole",
                "free radical scavenging",
                "prodrug activation",
                "therapeutic index",
                "dose-modifying factor",
                "combination schedule",
            ],
            Topic::Immunology => &[
                "abscopal effect",
                "antigen presentation",
                "immunogenic cell death",
                "checkpoint blockade",
                "cytokine release",
                "lymphocyte infiltration",
                "tumour rejection",
                "innate sensing",
            ],
            Topic::NormalTissue => &[
                "late effects",
                "fibrosis",
                "mucositis",
                "tolerance dose",
                "organ at risk",
                "functional subunits",
                "stem cell depletion",
                "acute syndrome",
            ],
            Topic::Radionuclides => &[
                "half-life",
                "specific activity",
                "dose rate constant",
                "afterloading",
                "seed implantation",
                "decay chain",
                "emission spectrum",
                "shielding",
            ],
            Topic::ParticleTherapy => &[
                "Bragg peak",
                "linear energy transfer",
                "relative biological effectiveness",
                "spread-out peak",
                "track structure",
                "clustered damage",
                "range uncertainty",
                "ion species",
            ],
            Topic::Microenvironment => &[
                "stromal signalling",
                "vascular damage",
                "extracellular matrix",
                "fibroblast activation",
                "angiogenesis",
                "immune infiltrate",
                "interstitial pressure",
                "bystander effect",
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_roundtrip() {
        for (i, t) in Topic::ALL.iter().enumerate() {
            assert_eq!(Topic::from_index(i), *t);
        }
        assert_eq!(Topic::from_index(Topic::ALL.len()), Topic::ALL[0]);
    }

    #[test]
    fn names_and_keywords_nonempty_and_unique() {
        let mut names = std::collections::HashSet::new();
        for t in Topic::ALL {
            assert!(!t.name().is_empty());
            assert!(t.keywords().len() >= 8, "{:?} keywords", t);
            assert!(names.insert(t.name()));
        }
    }
}
