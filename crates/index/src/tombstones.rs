//! Per-entry tombstones: the dead bitmap and its count, kept together.
//!
//! Every mutable store marks removed rows dead and hides them from search
//! until compaction rewrites the storage. Flags are per *entry* (storage
//! position), not per id, so an upsert's re-added id is live while the
//! entry it superseded stays dead, and a re-key relabels live entries
//! only.

use std::collections::{HashMap, HashSet};

/// One flag per stored entry, parallel to the store's entry arrays.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Tombstones {
    dead: Vec<bool>,
    count: usize,
}

impl Tombstones {
    /// `n` entries, all live.
    pub(crate) fn all_live(n: usize) -> Self {
        Self { dead: vec![false; n], count: 0 }
    }

    /// Grow to cover `entries` stored entries; the new ones are live.
    pub(crate) fn grow_to(&mut self, entries: usize) {
        debug_assert!(entries >= self.dead.len());
        self.dead.resize(entries, false);
    }

    /// Number of dead entries.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The flags by entry position — what a scan loop indexes directly.
    pub(crate) fn flags(&self) -> &[bool] {
        &self.dead
    }

    /// Mark dead every live entry whose id is in `targets`; `entry_ids`
    /// yields the stored id of each entry in position order. Returns the
    /// number newly marked.
    pub(crate) fn kill(
        &mut self,
        entry_ids: impl IntoIterator<Item = u64>,
        targets: &HashSet<u64>,
    ) -> usize {
        let mut newly = 0;
        for (dead, id) in self.dead.iter_mut().zip(entry_ids) {
            if !*dead && targets.contains(&id) {
                *dead = true;
                newly += 1;
            }
        }
        self.count += newly;
        newly
    }

    /// Relabel every live entry whose id is a key of `moves` with the
    /// mapped id; `entry_ids` yields each entry's stored id, mutably, in
    /// position order. Each id is read once before it is written, so all
    /// moves apply at once: swaps, cycles and shift-by-one chains need no
    /// ordering. Dead entries keep their ids. Returns the number of
    /// entries relabelled.
    pub(crate) fn rekey<'a>(
        &self,
        entry_ids: impl IntoIterator<Item = &'a mut u64>,
        moves: &HashMap<u64, u64>,
    ) -> usize {
        let mut moved = 0;
        for (&dead, id) in self.dead.iter().zip(entry_ids) {
            if let Some(&to) = moves.get(id).filter(|_| !dead) {
                *id = to;
                moved += 1;
            }
        }
        moved
    }

    /// Drop the dead entries from one of the store's parallel arrays
    /// (`width` elements per entry), keeping live entries in order.
    pub(crate) fn retain_live<T: Copy>(&self, items: &mut Vec<T>, width: usize) {
        let mut kept = 0;
        for (e, _) in self.dead.iter().enumerate().filter(|(_, &dead)| !dead) {
            items.copy_within(e * width..(e + 1) * width, kept);
            kept += width;
        }
        items.truncate(kept);
    }

    /// Forget the dead entries once every parallel array has dropped them.
    pub(crate) fn clear_dead(&mut self) {
        self.dead.truncate(self.dead.len() - self.count);
        self.dead.fill(false);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_counts_once_and_retain_live_compacts_every_width() {
        let ids = [7u64, 3, 7, 9];
        let mut t = Tombstones::all_live(3);
        t.grow_to(4);
        let targets: HashSet<u64> = [7, 100].into_iter().collect();
        assert_eq!(t.kill(ids, &targets), 2, "both entries under id 7, unknown id ignored");
        assert_eq!(t.kill(ids, &targets), 0, "already dead");
        assert_eq!((t.count(), t.flags()), (2, &[true, false, true, false][..]));

        let mut wide = vec![70, 71, 30, 31, 72, 73, 90, 91];
        let mut narrow = ids.to_vec();
        t.retain_live(&mut wide, 2);
        t.retain_live(&mut narrow, 1);
        t.clear_dead();
        assert_eq!((wide, narrow), (vec![30, 31, 90, 91], vec![3, 9]));
        assert_eq!((t.count(), t.flags()), (0, &[false, false][..]));
    }

    #[test]
    fn rekey_moves_live_entries_at_once_and_leaves_dead_ones() {
        // Entries 1 and 3 are dead; entry 1's id 5 is also a move target.
        let mut ids = vec![1u64, 5, 2, 3, 4];
        let mut t = Tombstones::all_live(ids.len());
        t.kill(ids.iter().copied(), &[5, 3].into_iter().collect());
        // A swap (1 ↔ 2), a move onto the dead entry's id (4 → 5), and a
        // move whose old id is only dead (3 → 9), which must be ignored.
        let moves: HashMap<u64, u64> = [(1, 2), (2, 1), (4, 5), (3, 9)].into_iter().collect();
        assert_eq!(t.rekey(ids.iter_mut(), &moves), 3);
        assert_eq!(ids, vec![2, 5, 1, 3, 5]);
        assert_eq!((t.count(), t.flags()), (2, &[false, true, false, true, false][..]));

        // A shift-by-one chain, as an edit near the front produces.
        let mut ids = vec![3u64, 4, 5];
        let chain: HashMap<u64, u64> = [(3, 2), (4, 3), (5, 4)].into_iter().collect();
        assert_eq!(Tombstones::all_live(3).rekey(ids.iter_mut(), &chain), 3);
        assert_eq!(ids, vec![2, 3, 4]);
    }
}
