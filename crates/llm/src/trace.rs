//! Reasoning-trace modes (paper Figure 3).

use serde::Serialize;

/// The three reasoning modes the teacher distils simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum TraceMode {
    /// Option-level analysis of every choice.
    Detailed,
    /// Governing principle + elimination of the strongest distractors.
    Focused,
    /// Compact high-level rationale.
    Efficient,
}

impl TraceMode {
    /// All modes in canonical order.
    pub const ALL: [TraceMode; 3] = [TraceMode::Detailed, TraceMode::Focused, TraceMode::Efficient];

    /// Position in [`TraceMode::ALL`].
    pub fn index(self) -> usize {
        match self {
            TraceMode::Detailed => 0,
            TraceMode::Focused => 1,
            TraceMode::Efficient => 2,
        }
    }

    /// The vector-database name for this mode (the paper keeps one FAISS
    /// store per mode).
    pub fn db_name(self) -> &'static str {
        match self {
            TraceMode::Detailed => "traces-detailed",
            TraceMode::Focused => "traces-focused",
            TraceMode::Efficient => "traces-efficient",
        }
    }

    /// Lowercase label used in schemas and reports.
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Detailed => "detailed",
            TraceMode::Focused => "focused",
            TraceMode::Efficient => "efficient",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_db_names_unique() {
        let mut labels = std::collections::HashSet::new();
        let mut dbs = std::collections::HashSet::new();
        for m in TraceMode::ALL {
            assert!(labels.insert(m.label()));
            assert!(dbs.insert(m.db_name()));
            assert!(m.db_name().starts_with("traces-"));
        }
    }

    #[test]
    fn serde_uses_variant_names() {
        assert_eq!(serde_json::to_string(&TraceMode::Focused).unwrap(), "\"Focused\"");
    }
}
