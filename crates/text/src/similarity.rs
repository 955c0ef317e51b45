//! Similarity measures over dense embeddings and token sets.

use std::collections::HashSet;
use std::hash::Hash;

/// Cosine similarity of two dense vectors; panics on length mismatch.
pub fn dense_cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Scale `v` to unit Euclidean length in place (a zero vector stays zero).
/// The one normalisation behind every encoder and the chunker's window
/// embeddings: the same accumulator must come out as the same bits.
pub fn normalise(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

/// Jaccard similarity of two sets.
pub(crate) fn jaccard<K: Eq + Hash>(a: &HashSet<K>, b: &HashSet<K>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Token-set Jaccard of two strings (lowercased word tokens).
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = crate::token::tokenize(a).into_iter().collect();
    let sb: HashSet<String> = crate::token::tokenize(b).into_iter().collect();
    jaccard(&sa, &sb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_cosine_basics() {
        assert!((dense_cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(dense_cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((dense_cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(dense_cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dense_cosine_mismatch_panics() {
        dense_cosine(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn jaccard_basics() {
        let a: HashSet<i32> = [1, 2, 3].into_iter().collect();
        let b: HashSet<i32> = [2, 3, 4].into_iter().collect();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        let e: HashSet<i32> = HashSet::new();
        assert_eq!(jaccard(&e, &e), 1.0);
        assert_eq!(jaccard(&a, &e), 0.0);
    }

    #[test]
    fn token_jaccard_case_insensitive() {
        assert!((token_jaccard("DNA repair", "dna REPAIR") - 1.0).abs() < 1e-12);
        assert!(token_jaccard("alpha beta", "gamma delta") == 0.0);
        let mid = token_jaccard("dose rate effect", "dose rate constant");
        assert!(mid > 0.0 && mid < 1.0);
    }
}
