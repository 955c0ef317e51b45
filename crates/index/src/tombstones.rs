//! Per-entry tombstones: the dead bitmap and its count, kept together.
//!
//! Every mutable store marks removed rows dead and hides them from search
//! until compaction rewrites the storage. Flags are per *entry* (storage
//! position), not per id, so an upsert's re-added id is live while the
//! entry it superseded stays dead.

use std::collections::HashSet;

/// One flag per stored entry, parallel to the store's entry arrays.
#[derive(Debug, Clone, Default)]
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
}
