//! Typed domain entities with deterministic synthesised names.

use mcqa_util::KeyedStochastic;
use std::collections::HashMap;

use crate::topic::Topic;

/// Identifier of an entity within one [`EntityRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// The type of a domain entity. Relations constrain the kinds of their
/// subject and object, and distractors are always drawn from the answer's
/// kind — matching how plausible MCQ distractors behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// A gene (synthetic symbol, e.g. `TRK2`).
    Gene,
    /// A protein or enzyme (e.g. `kinase VRN1`).
    Protein,
    /// A signalling or repair pathway.
    Pathway,
    /// An established tumour cell line (e.g. `HX-29`).
    CellLine,
    /// A radiation quality (photons, protons, carbon ions, ...).
    Modality,
    /// A therapeutic compound (synthetic names ending -ib/-mab/-platin...).
    Drug,
    /// A tissue or tumour site.
    Tissue,
    /// A biological process or cell-death mode.
    Process,
    /// A DNA lesion class.
    Lesion,
    /// A radioactive source used clinically.
    Isotope,
    /// A clinical radiation syndrome or late effect.
    Syndrome,
}

impl EntityKind {
    /// All kinds in canonical order.
    pub(crate) const ALL: [EntityKind; 11] = [
        EntityKind::Gene,
        EntityKind::Protein,
        EntityKind::Pathway,
        EntityKind::CellLine,
        EntityKind::Modality,
        EntityKind::Drug,
        EntityKind::Tissue,
        EntityKind::Process,
        EntityKind::Lesion,
        EntityKind::Isotope,
        EntityKind::Syndrome,
    ];
}

/// A single domain entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Registry-local id.
    pub id: EntityId,
    /// The entity's kind.
    pub kind: EntityKind,
    /// Canonical display name (unique within the registry).
    pub name: String,
    /// Topics this entity participates in (1–2).
    pub(crate) topics: Vec<Topic>,
}

/// Deterministic generator + lookup table for entities.
#[derive(Debug, Clone)]
pub struct EntityRegistry {
    entities: Vec<Entity>,
    by_kind: HashMap<EntityKind, Vec<EntityId>>,
    by_topic_kind: HashMap<(Topic, EntityKind), Vec<EntityId>>,
}

/// Fixed vocabulary for kinds that correspond to closed real-world classes.
/// (Using the real physical categories keeps prose plausible; all *facts*
/// about them remain synthetic.)
const MODALITIES: &[&str] = &[
    "X-rays",
    "gamma rays",
    "protons",
    "carbon ions",
    "alpha particles",
    "fast neutrons",
    "electrons",
    "helium ions",
    "pi-mesons",
    "ultrasoft X-rays",
];

const LESIONS: &[&str] = &[
    "double-strand breaks",
    "single-strand breaks",
    "base oxidation lesions",
    "interstrand crosslinks",
    "DNA-protein crosslinks",
    "clustered lesions",
    "abasic sites",
    "replication-blocking adducts",
    "telomeric breaks",
    "heterochromatic breaks",
];

const PROCESSES: &[&str] = &[
    "apoptosis",
    "mitotic catastrophe",
    "replicative senescence",
    "autophagy",
    "necroptosis",
    "immunogenic cell death",
    "homologous recombination",
    "non-homologous end joining",
    "base excision repair",
    "nucleotide excision repair",
    "checkpoint adaptation",
    "reoxygenation",
    "repopulation",
    "sublethal damage repair",
    "bystander signalling",
    "ferroptosis",
];

const TISSUES: &[&str] = &[
    "lung epithelium",
    "breast carcinoma",
    "prostate carcinoma",
    "glioblastoma",
    "colorectal mucosa",
    "bone marrow",
    "hepatic parenchyma",
    "pancreatic carcinoma",
    "laryngeal mucosa",
    "spinal cord",
    "renal cortex",
    "oesophageal epithelium",
    "skin basal layer",
    "small intestine crypts",
];

impl EntityRegistry {
    /// Generate a registry with roughly `per_kind` entities for each open
    /// kind. Closed kinds (modalities, lesions, processes, tissues) use
    /// their fixed lists. Deterministic in `seed`.
    pub(crate) fn generate(seed: u64, per_kind: usize) -> Self {
        let rng = KeyedStochastic::new(seed ^ 0xE17A_57B1);
        let mut entities = Vec::new();
        let mut used_names = std::collections::HashSet::new();

        let push = |entities: &mut Vec<Entity>,
                    used: &mut std::collections::HashSet<String>,
                    kind: EntityKind,
                    name: String| {
            if !used.insert(name.clone()) {
                return false;
            }
            let id = EntityId(entities.len() as u32);
            // Assign 1–2 topics deterministically from the name.
            let t1 = Topic::from_index(rng.below(Topic::ALL.len(), &["t1", &name]));
            let mut topics = vec![t1];
            if rng.bernoulli(0.4, &["t2?", &name]) {
                let t2 = Topic::from_index(rng.below(Topic::ALL.len(), &["t2", &name]));
                if t2 != t1 {
                    topics.push(t2);
                }
            }
            entities.push(Entity { id, kind, name, topics });
            true
        };

        for kind in EntityKind::ALL {
            match kind {
                EntityKind::Modality => {
                    for m in MODALITIES {
                        push(&mut entities, &mut used_names, kind, m.to_string());
                    }
                }
                EntityKind::Lesion => {
                    for l in LESIONS {
                        push(&mut entities, &mut used_names, kind, l.to_string());
                    }
                }
                EntityKind::Process => {
                    for p in PROCESSES {
                        push(&mut entities, &mut used_names, kind, p.to_string());
                    }
                }
                EntityKind::Tissue => {
                    for t in TISSUES {
                        push(&mut entities, &mut used_names, kind, t.to_string());
                    }
                }
                _ => {
                    // Attempts below `narrow` draw the names they always
                    // drew, so every size that fitted the narrow spaces
                    // keeps its registry; later ones draw from the widened
                    // spaces.
                    let narrow = (per_kind as u64 + 16) * 64;
                    let mut made = 0usize;
                    let mut attempt = 0u64;
                    while made < per_kind {
                        let name = synth_name(&rng, kind, attempt, attempt >= narrow);
                        if push(&mut entities, &mut used_names, kind, name) {
                            made += 1;
                        }
                        attempt += 1;
                        assert!(attempt < 2 * narrow, "name synthesis exhausted for {kind:?}");
                    }
                }
            }
        }

        let mut by_kind: HashMap<EntityKind, Vec<EntityId>> = HashMap::new();
        let mut by_topic_kind: HashMap<(Topic, EntityKind), Vec<EntityId>> = HashMap::new();
        for e in &entities {
            by_kind.entry(e.kind).or_default().push(e.id);
            for &t in &e.topics {
                by_topic_kind.entry((t, e.kind)).or_default().push(e.id);
            }
        }

        Self { entities, by_kind, by_topic_kind }
    }

    /// Look up an entity by id. Panics on a foreign id — ids are only
    /// meaningful within the registry that minted them.
    pub fn get(&self, id: EntityId) -> &Entity {
        &self.entities[id.0 as usize]
    }

    /// All entities.
    pub fn all(&self) -> &[Entity] {
        &self.entities
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Ids of all entities of `kind`.
    pub fn of_kind(&self, kind: EntityKind) -> &[EntityId] {
        self.by_kind.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ids of entities of `kind` participating in `topic`.
    pub(crate) fn of_topic_kind(&self, topic: Topic, kind: EntityKind) -> &[EntityId] {
        self.by_topic_kind.get(&(topic, kind)).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Synthesise a plausible-looking name for an open entity kind. A `wide`
/// draw uses its own hash keys and, for syndromes, whose narrow space holds
/// only 16 × 4 × 6 = 384 names, a double eponym (16 × 15 × 4 × 6 more).
/// Every other open kind's narrow space already exceeds the 500 names per
/// kind of the paper's scale (drugs, the smallest, hold 896).
fn synth_name(rng: &KeyedStochastic, kind: EntityKind, attempt: u64, wide: bool) -> String {
    let a = if wide { format!("wide-{attempt}") } else { attempt.to_string() };
    match kind {
        EntityKind::Gene => {
            // 3–4 uppercase letters + optional digit: "TRKB2", "MDX4".
            const C: &[u8] = b"BCDFGHKLMNPRSTVWXZ";
            const V: &[u8] = b"AEIOU";
            let l1 = C[rng.below(C.len(), &["g1", &a])] as char;
            let l2 = V[rng.below(V.len(), &["g2", &a])] as char;
            let l3 = C[rng.below(C.len(), &["g3", &a])] as char;
            let digit = 1 + rng.below(9, &["gd", &a]);
            if rng.bernoulli(0.5, &["g4?", &a]) {
                let l4 = C[rng.below(C.len(), &["g4", &a])] as char;
                format!("{l1}{l2}{l3}{l4}{digit}")
            } else {
                format!("{l1}{l2}{l3}{digit}")
            }
        }
        EntityKind::Protein => {
            const STEMS: &[&str] = &[
                "kin",
                "pol",
                "lig",
                "nucle",
                "top",
                "hel",
                "phosphat",
                "transferas",
                "sensor",
                "clamp",
                "mediator",
                "effector",
            ];
            let stem = STEMS[rng.below(STEMS.len(), &["p1", &a])];
            let num = 1 + rng.below(12, &["p2", &a]);
            match rng.below(3, &["p3", &a]) {
                0 => format!("{stem}ase-{num}"),
                1 => format!("p{}{stem}", 20 + rng.below(70, &["p4", &a])),
                _ => format!(
                    "{}{stem}in-{num}",
                    ["alpha-", "beta-", "gamma-", ""][rng.below(4, &["p5", &a])]
                ),
            }
        }
        EntityKind::Pathway => {
            // Synthesised head (consonant-vowel-consonant pairs) gives a
            // name space of ~10^5 so large registries never exhaust it.
            const C: &[u8] = b"BDKLMNPRSTVX";
            const V: &[u8] = b"AEIOU";
            const TAILS: &[&str] = &[
                "signalling pathway",
                "repair axis",
                "checkpoint cascade",
                "stress-response pathway",
                "survival axis",
            ];
            let head: String = [
                C[rng.below(C.len(), &["pwc1", &a])] as char,
                V[rng.below(V.len(), &["pwv1", &a])] as char,
                C[rng.below(C.len(), &["pwc2", &a])] as char,
                V[rng.below(V.len(), &["pwv2", &a])] as char,
                C[rng.below(C.len(), &["pwc3", &a])] as char,
            ]
            .iter()
            .collect();
            format!("{head} {}", TAILS[rng.below(TAILS.len(), &["pw2", &a])])
        }
        EntityKind::CellLine => {
            const P: &[u8] = b"HUKMRTGLSV";
            let p1 = P[rng.below(P.len(), &["c1", &a])] as char;
            let p2 = P[rng.below(P.len(), &["c2", &a])] as char;
            let num = 10 + rng.below(890, &["c3", &a]);
            if rng.bernoulli(0.5, &["c4", &a]) {
                format!("{p1}{p2}-{num}")
            } else {
                format!("{p1}{num}")
            }
        }
        EntityKind::Drug => {
            const PRE: &[&str] = &[
                "vel", "tor", "nima", "cor", "ebra", "fulo", "gati", "lepa", "mira", "sova",
                "delu", "kana", "peri", "zelo",
            ];
            const MID: &[&str] = &["ni", "ra", "lo", "ta", "se", "du", "vi", "mo"];
            const SUF: &[&str] =
                &["parib", "tinib", "mumab", "platin", "rubicin", "taxane", "zolamide", "fosine"];
            format!(
                "{}{}{}",
                PRE[rng.below(PRE.len(), &["d1", &a])],
                MID[rng.below(MID.len(), &["d2", &a])],
                SUF[rng.below(SUF.len(), &["d3", &a])]
            )
        }
        EntityKind::Isotope => {
            const EL: &[&str] = &["Nq", "Vx", "Tb", "Rh", "Os", "Pd", "Sm", "Yb", "Ir", "Au"];
            let el = EL[rng.below(EL.len(), &["i1", &a])];
            let mass = 60 + rng.below(180, &["i2", &a]);
            format!("{el}-{mass}")
        }
        EntityKind::Syndrome => {
            const HEADS: &[&str] = &[
                "Verlan", "Ostheim", "Calder", "Rosmarin", "Tieva", "Quillan", "Marest", "Helvin",
                "Ardane", "Skellig", "Noviny", "Fairwell", "Grenholm", "Ilsted", "Morvane",
                "Pelagie",
            ];
            const TAILS: &[&str] = &[
                "syndrome",
                "radiosensitivity disorder",
                "fragility syndrome",
                "repair deficiency",
            ];
            const ROMAN: &[&str] = &["", " type I", " type II", " type III", " type IV", " type V"];
            let h1 = rng.below(HEADS.len(), &["s1", &a]);
            let head = if wide {
                let h2 = (h1 + 1 + rng.below(HEADS.len() - 1, &["s4", &a])) % HEADS.len();
                format!("{}-{}", HEADS[h1], HEADS[h2])
            } else {
                HEADS[h1].to_string()
            };
            format!(
                "{head} {}{}",
                TAILS[rng.below(TAILS.len(), &["s2", &a])],
                ROMAN[rng.below(ROMAN.len(), &["s3", &a])]
            )
        }
        // Closed kinds never reach here.
        EntityKind::Modality | EntityKind::Lesion | EntityKind::Process | EntityKind::Tissue => {
            unreachable!("closed kinds use fixed lists")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = EntityRegistry::generate(42, 30);
        let b = EntityRegistry::generate(42, 30);
        assert_eq!(a.all(), b.all());
    }

    #[test]
    fn different_seeds_differ() {
        let a = EntityRegistry::generate(1, 30);
        let b = EntityRegistry::generate(2, 30);
        let same = a.all().iter().zip(b.all()).filter(|(x, y)| x.name == y.name).count();
        assert!(same < a.len() / 2, "seeds should change most names ({same})");
    }

    #[test]
    fn names_unique_and_nonempty() {
        let reg = EntityRegistry::generate(7, 60);
        let mut names = std::collections::HashSet::new();
        for e in reg.all() {
            assert!(!e.name.is_empty());
            assert!(e.name.is_ascii(), "non-ascii name {:?}", e.name);
            assert!(names.insert(&e.name), "duplicate {:?}", e.name);
            assert!(!e.topics.is_empty() && e.topics.len() <= 2);
        }
    }

    #[test]
    fn open_kinds_hit_requested_count() {
        // Besides a small registry, the sizes `PipelineConfig::at_scale`
        // asks at scales 0.5, 0.52 and 0.667–1.0 (375, 390, 500) and
        // `OntologyConfig::default()`'s 480, at seeds 1–10: past 384 the
        // syndrome kind once ran out of names.
        let big = (1..=10).flat_map(|seed| [375, 390, 480, 500].map(|n| (seed, n)));
        for (seed, n) in std::iter::once((3, 25)).chain(big) {
            let reg = EntityRegistry::generate(seed, n);
            for kind in [
                EntityKind::Gene,
                EntityKind::Protein,
                EntityKind::Pathway,
                EntityKind::CellLine,
                EntityKind::Drug,
                EntityKind::Isotope,
                EntityKind::Syndrome,
            ] {
                assert_eq!(reg.of_kind(kind).len(), n, "{kind:?}, seed {seed}");
            }
            assert_eq!(reg.of_kind(EntityKind::Modality).len(), MODALITIES.len());
            assert_eq!(reg.of_kind(EntityKind::Process).len(), PROCESSES.len());
        }
    }

    #[test]
    fn topic_kind_buckets_consistent() {
        let reg = EntityRegistry::generate(11, 40);
        for t in Topic::ALL {
            for k in EntityKind::ALL {
                for &id in reg.of_topic_kind(t, k) {
                    let e = reg.get(id);
                    assert_eq!(e.kind, k);
                    assert!(e.topics.contains(&t));
                }
            }
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let reg = EntityRegistry::generate(5, 10);
        for (i, e) in reg.all().iter().enumerate() {
            assert_eq!(e.id.0 as usize, i);
        }
    }

    #[test]
    fn names_that_fitted_the_narrow_spaces_never_move() {
        // The FNV-1a of the scale-0.5 registry's names (375 per kind, as
        // `PipelineConfig::at_scale(0.5, _)` asks), captured before the
        // syndrome space widened.
        let reg = EntityRegistry::generate(42, 375);
        let names: Vec<&str> = reg.all().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(mcqa_util::fnv1a(names.join("\n").as_bytes()), 0x4153_dfd1_7abb_8872);
    }

    #[test]
    fn every_kind_has_enough_distractor_material() {
        // MCQs need 6 distractors of the answer's kind (7 options total).
        let reg = EntityRegistry::generate(13, 30);
        for kind in EntityKind::ALL {
            assert!(reg.of_kind(kind).len() >= 7, "{kind:?} has too few members for 7-option MCQs");
        }
    }
}
