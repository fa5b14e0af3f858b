//! Miss-status holding registers for the L1-I (paper Table 1: 8 MSHRs).

use confluence_types::BlockAddr;

/// Tracks outstanding block fills with their completion cycles.
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<(BlockAddr, u64)>,
    capacity: usize,
}

impl MshrFile {
    /// Creates an MSHR file with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// True if no new miss can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Number of outstanding fills.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Cycle at which the fill for `block` completes, if one is in flight.
    pub fn ready_at(&self, block: BlockAddr) -> Option<u64> {
        self.entries
            .iter()
            .find(|&&(b, _)| b == block)
            .map(|&(_, t)| t)
    }

    /// Allocates an entry for `block` completing at `ready_cycle`.
    ///
    /// Returns `false` (and does nothing) if the file is full or the block
    /// is already tracked.
    pub fn allocate(&mut self, block: BlockAddr, ready_cycle: u64) -> bool {
        if self.is_full() || self.ready_at(block).is_some() {
            return false;
        }
        self.entries.push((block, ready_cycle));
        true
    }

    /// Request half of a two-phase allocation: reserves the entry now (so
    /// same-cycle occupancy and dedup checks see it) with the
    /// [`PENDING_FILL`](crate::PENDING_FILL) sentinel as its ready time.
    /// The caller must [`MshrFile::commit_ready`] the real completion
    /// cycle before the next drain.
    pub fn allocate_pending(&mut self, block: BlockAddr) -> bool {
        self.allocate(block, crate::PENDING_FILL)
    }

    /// Commit half of a two-phase allocation: patches the reserved
    /// entry's completion cycle once the shared-hierarchy access has been
    /// performed serially.
    ///
    /// # Panics
    ///
    /// Panics if no entry for `block` is pending — a phase-ordering bug.
    pub fn commit_ready(&mut self, block: BlockAddr, ready_cycle: u64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(b, _)| *b == block)
            .expect("commit_ready without a pending allocation");
        debug_assert_eq!(entry.1, crate::PENDING_FILL, "entry already committed");
        entry.1 = ready_cycle;
    }

    /// Releases entries that have completed by `now`, appending their
    /// blocks to `done` in allocation order. The caller owns and reuses
    /// the buffer, so a per-cycle drain allocates nothing.
    pub fn drain_completed(&mut self, now: u64, done: &mut Vec<BlockAddr>) {
        self.entries.retain(|&(b, t)| {
            if t <= now {
                done.push(b);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(BlockAddr::from_raw(1), 10));
        assert!(m.allocate(BlockAddr::from_raw(2), 12));
        assert!(m.is_full());
        assert!(!m.allocate(BlockAddr::from_raw(3), 14));
    }

    #[test]
    fn duplicate_blocks_are_merged() {
        let mut m = MshrFile::new(4);
        assert!(m.allocate(BlockAddr::from_raw(1), 10));
        assert!(!m.allocate(BlockAddr::from_raw(1), 20));
        assert_eq!(m.ready_at(BlockAddr::from_raw(1)), Some(10));
    }

    #[test]
    fn drain_releases_only_completed() {
        let mut m = MshrFile::new(4);
        m.allocate(BlockAddr::from_raw(1), 10);
        m.allocate(BlockAddr::from_raw(2), 20);
        let mut done = vec![BlockAddr::from_raw(9)];
        m.drain_completed(15, &mut done);
        assert_eq!(done, vec![BlockAddr::from_raw(9), BlockAddr::from_raw(1)]);
        assert_eq!(m.outstanding(), 1);
        assert!(!m.is_full());
    }

    #[test]
    fn pending_allocation_blocks_duplicates_and_never_drains_early() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate_pending(BlockAddr::from_raw(7)));
        // Presence is visible immediately (same-cycle dedup)...
        assert!(!m.allocate(BlockAddr::from_raw(7), 5));
        // ...but the sentinel never completes.
        let mut done = Vec::new();
        m.drain_completed(u64::MAX - 1, &mut done);
        assert!(done.is_empty());
        m.commit_ready(BlockAddr::from_raw(7), 12);
        assert_eq!(m.ready_at(BlockAddr::from_raw(7)), Some(12));
        m.drain_completed(12, &mut done);
        assert_eq!(done, vec![BlockAddr::from_raw(7)]);
    }

    #[test]
    #[should_panic(expected = "without a pending allocation")]
    fn commit_without_request_panics() {
        MshrFile::new(2).commit_ready(BlockAddr::from_raw(1), 3);
    }
}
