//! Corpus vocabulary: the term ↔ id tables.

use std::collections::HashMap;

/// A term id in a [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(pub u32);

/// A corpus vocabulary: the term ↔ id mapping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vocabulary {
    terms: Vec<String>,
    ids: HashMap<String, TermId>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-insert the id for `term` (must already be a lowercase
    /// content token). Ids are assigned in first-insertion order.
    pub fn intern(&mut self, term: &str) -> TermId {
        match self.ids.get(term) {
            Some(&id) => id,
            None => {
                let id = TermId(self.terms.len() as u32);
                self.terms.push(term.to_string());
                self.ids.insert(term.to_string(), id);
                id
            }
        }
    }

    /// Rebuild a vocabulary from its serialised terms, in id order.
    /// `None` when a term repeats (corrupted artifact).
    pub fn from_parts(terms: Vec<String>) -> Option<Self> {
        let ids = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), TermId(i as u32)))
            .collect::<HashMap<_, _>>();
        if ids.len() != terms.len() {
            return None; // duplicate terms cannot round-trip the id map
        }
        Some(Self { terms, ids })
    }

    /// Terms in id order (the serialisation order of
    /// [`Vocabulary::from_parts`]).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(String::as_str)
    }

    /// Term id for `term` (must be lowercase).
    pub fn id(&self, term: &str) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Term string for an id.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.0 as usize).map(String::as_str)
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been added.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::content_tokens;

    fn sample_vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        for text in [
            "Radiation induces apoptosis in tumour cells.",
            "Radiation damages DNA. Repair pathways respond.",
            "Hypoxia causes radioresistance in tumour cores.",
        ] {
            for tok in content_tokens(text) {
                v.intern(&tok);
            }
        }
        v
    }

    #[test]
    fn ids_roundtrip() {
        let v = sample_vocab();
        for term in ["radiation", "apoptosis", "hypoxia"] {
            let id = v.id(term).unwrap_or_else(|| panic!("{term} missing"));
            assert_eq!(v.term(id), Some(term));
        }
        assert!(v.id("the").is_none(), "stopwords excluded");
        assert!(v.id("nonexistent").is_none());
    }

    #[test]
    fn from_parts_roundtrips() {
        let v = sample_vocab();
        let terms: Vec<String> = v.terms().map(str::to_string).collect();
        let back = Vocabulary::from_parts(terms.clone()).unwrap();
        assert_eq!(back, v);
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(back.id(t), Some(TermId(i as u32)), "{t} keeps its id");
        }
        // Corrupted parts rejected.
        let mut dup = terms;
        dup[0] = dup[1].clone();
        assert!(Vocabulary::from_parts(dup).is_none());
    }
}
