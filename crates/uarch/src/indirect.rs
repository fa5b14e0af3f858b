//! Indirect target cache (paper Table 1: 1K-entry).

use confluence_types::VAddr;

/// Direct-mapped, tagged cache predicting targets of indirect branches.
///
/// Indexed by branch PC hashed with a few bits of path history so
/// polymorphic call sites can be disambiguated by calling context.
#[derive(Clone, Debug)]
pub struct IndirectTargetCache {
    entries: Vec<Option<(u64, VAddr)>>, // (tag, target)
    mask: u64,
    path_history: u64,
}

impl IndirectTargetCache {
    /// Creates the paper's 1K-entry configuration.
    pub fn new_1k() -> Self {
        Self::with_entries(1024)
    }

    /// Creates a cache with `entries` entries (rounded up to a power of
    /// two).
    pub fn with_entries(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(2);
        IndirectTargetCache {
            entries: vec![None; n],
            mask: (n - 1) as u64,
            path_history: 0,
        }
    }

    #[inline]
    fn index(&self, pc: VAddr) -> usize {
        (((pc.raw() >> 2) ^ (self.path_history << 2)) & self.mask) as usize
    }

    #[inline]
    fn tag(pc: VAddr) -> u64 {
        pc.raw() >> 2
    }

    /// Predicts the target of the indirect branch at `pc`, if a matching
    /// entry exists.
    #[inline]
    pub fn predict(&self, pc: VAddr) -> Option<VAddr> {
        let (tag, target) = self.entries[self.index(pc)]?;
        (tag == Self::tag(pc)).then_some(target)
    }

    /// Records the resolved target and rolls the path history.
    #[inline]
    pub fn update(&mut self, pc: VAddr, target: VAddr) {
        let idx = self.index(pc);
        self.entries[idx] = Some((Self::tag(pc), target));
        self.path_history = (self.path_history << 4) ^ (target.raw() >> 2) & 0xFFFF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_monomorphic_site() {
        let mut itc = IndirectTargetCache::with_entries(64);
        let pc = VAddr::new(0x100);
        let t = VAddr::new(0x2000);
        itc.update(pc, t);
        // With unchanged history, the same site predicts its last target.
        assert_eq!(itc.predict(pc), Some(t));
    }

    #[test]
    fn miss_without_entry() {
        let itc = IndirectTargetCache::with_entries(64);
        assert_eq!(itc.predict(VAddr::new(0x100)), None);
    }

    #[test]
    fn tags_disambiguate_aliasing_pcs() {
        let mut itc = IndirectTargetCache::with_entries(2);
        let a = VAddr::new(0x100);
        let b = VAddr::new(0x100 + 2 * 4); // same index (2-entry), different tag
        itc.update(a, VAddr::new(0x1000));
        // After b overwrites the slot, a must miss (not alias).
        let hist = itc.path_history;
        itc.update(b, VAddr::new(0x2000));
        itc.path_history = hist; // pin history for a deterministic check
        let pred_a = itc.predict(a);
        assert_ne!(pred_a, Some(VAddr::new(0x2000)), "tag aliasing detected");
    }
}
