//! Corpus vocabulary with document frequencies.

use std::collections::HashMap;

use crate::token::content_tokens;

/// A term id in a [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(pub u32);

/// A corpus vocabulary: term ↔ id mapping plus document frequencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vocabulary {
    terms: Vec<String>,
    ids: HashMap<String, TermId>,
    doc_freq: Vec<u32>,
    num_docs: u32,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document's text, updating term ↔ id tables and document
    /// frequencies. Stopwords are excluded (the shared
    /// [`content_tokens`] tokenisation).
    pub fn add_document(&mut self, text: &str) {
        let mut distinct = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for tok in content_tokens(text) {
            let id = self.intern(&tok);
            if seen.insert(id) {
                distinct.push(id);
            }
        }
        self.record_document(&distinct);
    }

    /// Get-or-insert the id for `term` (must already be a lowercase
    /// content token) without touching document statistics. Ids are
    /// assigned in first-insertion order.
    pub fn intern(&mut self, term: &str) -> TermId {
        match self.ids.get(term) {
            Some(&id) => id,
            None => {
                let id = TermId(self.terms.len() as u32);
                self.terms.push(term.to_string());
                self.ids.insert(term.to_string(), id);
                self.doc_freq.push(0);
                id
            }
        }
    }

    /// Account one document containing exactly the given **distinct**
    /// interned terms: bumps `num_docs` and each term's document
    /// frequency. [`Vocabulary::add_document`] is `intern` + this; the
    /// lexical index calls them separately because it also needs the
    /// per-document term frequencies.
    pub fn record_document(&mut self, distinct: &[TermId]) {
        self.num_docs += 1;
        for id in distinct {
            self.doc_freq[id.0 as usize] += 1;
        }
    }

    /// Rebuild a vocabulary from its serialised parts: terms in id order,
    /// index-aligned document frequencies, and the document count.
    /// `None` when the two tables disagree in length (corrupted artifact).
    pub fn from_parts(terms: Vec<String>, doc_freq: Vec<u32>, num_docs: u32) -> Option<Self> {
        if terms.len() != doc_freq.len() {
            return None;
        }
        let ids = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), TermId(i as u32)))
            .collect::<HashMap<_, _>>();
        if ids.len() != terms.len() {
            return None; // duplicate terms cannot round-trip the id map
        }
        Some(Self { terms, ids, doc_freq, num_docs })
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

    /// Number of documents added.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, id: TermId) -> u32 {
        self.doc_freq.get(id.0 as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.add_document("Radiation induces apoptosis in tumour cells.");
        v.add_document("Radiation damages DNA. Repair pathways respond.");
        v.add_document("Hypoxia causes radioresistance in tumour cores.");
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
    fn doc_freq_counts_documents_not_occurrences() {
        let mut v = Vocabulary::new();
        v.add_document("dose dose dose");
        v.add_document("dose response");
        let id = v.id("dose").unwrap();
        assert_eq!(v.doc_freq(id), 2, "df counts documents");
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn add_document_interns_exactly_the_content_tokens() {
        // Corpus-side ≡ query-side: the terms a document interns are
        // exactly its shared `content_tokens`, and a query re-tokenised
        // through the same helper resolves every one of them.
        let text = "Radiation-induced DNA damage and the repair pathways.";
        let mut v = Vocabulary::new();
        v.add_document(text);
        let toks = content_tokens(text);
        assert_eq!(v.len(), toks.iter().collect::<std::collections::HashSet<_>>().len());
        for tok in &toks {
            let id = v.id(tok).unwrap_or_else(|| panic!("{tok} missing"));
            assert_eq!(v.doc_freq(id), 1);
        }
        assert!(v.id("the").is_none(), "stopwords never interned");
    }

    #[test]
    fn from_parts_roundtrips() {
        let v = sample_vocab();
        let terms: Vec<String> = v.terms().map(str::to_string).collect();
        let dfs: Vec<u32> = (0..v.len()).map(|i| v.doc_freq(TermId(i as u32))).collect();
        let back = Vocabulary::from_parts(terms.clone(), dfs.clone(), v.num_docs()).unwrap();
        assert_eq!(back.len(), v.len());
        assert_eq!(back.num_docs(), v.num_docs());
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(back.id(t), Some(TermId(i as u32)), "{t} keeps its id");
            assert_eq!(back.doc_freq(TermId(i as u32)), dfs[i]);
        }
        // Corrupted parts rejected.
        assert!(Vocabulary::from_parts(terms.clone(), dfs[..1].to_vec(), 3).is_none());
        let mut dup = terms;
        dup[0] = dup[1].clone();
        assert!(Vocabulary::from_parts(dup, dfs, 3).is_none());
    }
}
