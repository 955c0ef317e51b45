//! Ingest change detection against a brute-force oracle: `diff` reports
//! exactly the documents a comparison of the two id → hash maps reports, on
//! randomized tables and on the empty → N, N → empty, empty → empty cases.

use std::collections::BTreeMap;

use mcqa_core::ingest::{diff, ChangeSet, ContentHash, IngestManifest};
use mcqa_util::KeyedStochastic;
use proptest::prelude::*;

type Docs = BTreeMap<u64, ContentHash>;

/// Brute force: walk both maps and classify every id.
fn brute_force(old: &Docs, new: &Docs) -> ChangeSet {
    let mut cs = ChangeSet::default();
    for (id, h) in new {
        match old.get(id) {
            None => cs.added.push(*id),
            Some(prev) if prev != h => cs.modified.push(*id),
            Some(_) => {}
        }
    }
    cs.removed = old.keys().filter(|id| !new.contains_key(id)).copied().collect();
    cs
}

fn manifest(map: &Docs) -> IngestManifest {
    IngestManifest::new(map.iter().map(|(id, h)| (*id, *h)).collect())
}

proptest! {
    #[test]
    fn diff_is_complete_and_sound(seed in 0u64..192) {
        let rng = KeyedStochastic::new(seed ^ 0xD1FF);
        // Sparse ids across the full u64 range plus a dense low block, so
        // runs of one-sided ids and long shared stretches both occur.
        let universe = rng.below(60, &["universe"]);
        let (mut old, mut new) = (Docs::new(), Docs::new());
        for i in 0..universe {
            let it = i.to_string();
            let id = if rng.bernoulli(0.5, &["wide", &it]) {
                rng.raw(&["id", &it])
            } else {
                rng.raw(&["id", &it]) % 64
            };
            let body = rng.raw(&["content", &it]);
            if rng.bernoulli(0.6, &["old", &it]) {
                old.insert(id, ContentHash::of_bytes(&body.to_le_bytes()));
            }
            if rng.bernoulli(0.6, &["new", &it]) {
                let body = if rng.bernoulli(0.3, &["mut", &it]) { body ^ 1 } else { body };
                new.insert(id, ContentHash::of_bytes(&body.to_le_bytes()));
            }
        }
        let (old_m, new_m, empty) = (manifest(&old), manifest(&new), Docs::new());

        let got = diff(old_m.docs(), new_m.docs());
        prop_assert_eq!(&got, &brute_force(&old, &new));
        prop_assert_eq!(got.is_empty(), old_m == new_m, "empty exactly when the tables agree");

        prop_assert!(diff(new_m.docs(), new_m.docs()).is_empty());
        let up = diff(&[], new_m.docs());
        prop_assert_eq!(&up, &brute_force(&empty, &new));
        prop_assert_eq!(&up.added, &new.keys().copied().collect::<Vec<_>>());
        let down = diff(old_m.docs(), &[]);
        prop_assert_eq!(&down, &brute_force(&old, &empty));
        prop_assert_eq!(&down.removed, &old.keys().copied().collect::<Vec<_>>());
        prop_assert!(diff(&[], &[]).is_empty());
    }
}
