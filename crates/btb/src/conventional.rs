//! Conventional basic-block-oriented BTB with an optional victim buffer
//! (paper Section 4.2.2).

use confluence_types::{BranchClass, StorageProfile, VAddr};
use confluence_uarch::SetAssocCache;

use crate::design::{tag_bits, BtbDesign, BtbOutcome, ResolvedBranch};

/// Payload of one conventional BTB entry (the tag is the basic-block start
/// address, held by the cache key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConvEntry {
    /// Branch class (2 bits in hardware).
    pub class: BranchClass,
    /// Predicted target (30-bit PC-relative displacement in hardware).
    pub target: VAddr,
    /// Fall-through distance in instructions (4 bits; delimits the basic
    /// block so the fetch unit knows the region end).
    pub fall_len: u8,
}

/// Conventional set-associative BTB tagged by basic-block start address,
/// optionally backed by a small fully-associative victim buffer.
///
/// The paper's baseline is the 1K-entry, 4-way variant with a 64-entry
/// victim buffer (9.9 KB, 1-cycle).
///
/// # Example
///
/// ```
/// use confluence_btb::{ConventionalBtb, BtbDesign, ResolvedBranch};
/// use confluence_types::{BranchKind, VAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut btb = ConventionalBtb::baseline_1k()?;
/// let bb = VAddr::new(0x1000);
/// let pc = VAddr::new(0x1008);
/// assert!(!btb.lookup(bb, pc).hit); // cold
/// btb.update(&ResolvedBranch {
///     bb_start: bb, pc, kind: BranchKind::Unconditional,
///     taken: true, target: VAddr::new(0x2000),
/// });
/// assert!(btb.lookup(bb, pc).hit);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ConventionalBtb {
    name: &'static str,
    main: SetAssocCache<ConvEntry>,
    victim: Option<SetAssocCache<ConvEntry>>,
    entries: usize,
    ways: usize,
    victim_entries: usize,
}

impl ConventionalBtb {
    /// The paper's baseline: 1K entries, 4-way, 64-entry victim buffer.
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors (cannot occur for this fixed
    /// configuration).
    pub fn baseline_1k() -> Result<Self, confluence_types::ConfigError> {
        Self::new("ConvBTB-1K", 1024, 4, 64)
    }

    /// The large comparison point: 16K entries, 4-way, no victim buffer.
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors (cannot occur for this fixed
    /// configuration).
    pub fn large_16k() -> Result<Self, confluence_types::ConfigError> {
        Self::new("ConvBTB-16K", 16 * 1024, 4, 0)
    }

    /// Creates a conventional BTB with explicit geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if `entries / ways` is not a valid set count.
    pub fn new(
        name: &'static str,
        entries: usize,
        ways: usize,
        victim_entries: usize,
    ) -> Result<Self, confluence_types::ConfigError> {
        let main = SetAssocCache::new((entries / ways).max(1), ways)?;
        let victim = if victim_entries > 0 {
            // Fully associative: one set, `victim_entries` ways.
            Some(SetAssocCache::new(1, victim_entries)?)
        } else {
            None
        };
        Ok(ConventionalBtb {
            name,
            main,
            victim,
            entries,
            ways,
            victim_entries,
        })
    }

    /// Configured main-table entry count.
    pub fn entries(&self) -> usize {
        self.entries
    }

    #[inline]
    fn key(bb_start: VAddr) -> u64 {
        bb_start.raw() >> 2
    }

    /// Internal lookup used by composite designs (two-level): returns the
    /// entry if present in the main table or victim buffer, promoting
    /// victim hits back into the main table.
    pub(crate) fn find(&mut self, bb_start: VAddr) -> Option<ConvEntry> {
        let key = Self::key(bb_start);
        if let Some(e) = self.main.lookup(key) {
            return Some(*e);
        }
        if let Some(victim) = &mut self.victim {
            if let Some(e) = victim.invalidate(key) {
                // Swap back into the main table.
                if let Some((vk, vv)) = self.main.insert(key, e) {
                    victim.insert(vk, vv);
                }
                return Some(e);
            }
        }
        None
    }

    /// Installs an entry, spilling the victimized line into the victim
    /// buffer when one is configured.
    pub(crate) fn install(&mut self, bb_start: VAddr, entry: ConvEntry) {
        let key = Self::key(bb_start);
        let evicted = self.main.insert(key, entry);
        if let (Some((vk, vv)), Some(victim)) = (evicted, self.victim.as_mut()) {
            victim.insert(vk, vv);
        }
    }

    pub(crate) fn make_entry(resolved: &ResolvedBranch) -> ConvEntry {
        ConvEntry {
            class: resolved.kind.class(),
            target: resolved.target,
            fall_len: resolved.fall_len(),
        }
    }

    fn outcome_for(entry: ConvEntry) -> BtbOutcome {
        let target = match entry.class {
            BranchClass::Conditional | BranchClass::Unconditional => Some(entry.target),
            // Returns and indirect branches defer to RAS / indirect cache.
            BranchClass::Return | BranchClass::Indirect => None,
        };
        BtbOutcome {
            first_level_hit: true,
            hit: true,
            target,
            class: Some(entry.class),
            fill_bubble: 0,
        }
    }
}

impl BtbDesign for ConventionalBtb {
    fn name(&self) -> &'static str {
        self.name
    }

    fn lookup(&mut self, bb_start: VAddr, _branch_pc: VAddr) -> BtbOutcome {
        match self.find(bb_start) {
            Some(entry) => Self::outcome_for(entry),
            None => BtbOutcome::miss(),
        }
    }

    fn update(&mut self, resolved: &ResolvedBranch) {
        // Classic allocation policy: taken branches earn entries; a
        // never-taken conditional costs nothing (sequential fetch already
        // falls through correctly).
        if !resolved.taken {
            return;
        }
        self.install(resolved.bb_start, Self::make_entry(resolved));
    }

    fn storage(&self) -> StorageProfile {
        let tag = tag_bits(self.entries, self.ways, 2) as u64;
        // valid + tag + target(30) + class(2) + fall-through(4)
        let entry_bits = 1 + tag + 30 + 2 + 4;
        let mut profile =
            StorageProfile::empty().with_array("BTB main", self.entries as u64 * entry_bits);
        if self.victim_entries > 0 {
            // Victim entries carry the full instruction-grain tag.
            let victim_bits = 1 + (confluence_types::VADDR_BITS as u64 - 2) + 30 + 2 + 4;
            profile = profile.with_array("victim buffer", self.victim_entries as u64 * victim_bits);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::BranchKind;

    fn resolved(bb: u64, pc: u64, target: u64) -> ResolvedBranch {
        ResolvedBranch {
            bb_start: VAddr::new(bb),
            pc: VAddr::new(pc),
            kind: BranchKind::Unconditional,
            taken: true,
            target: VAddr::new(target),
        }
    }

    #[test]
    fn insert_then_hit_with_target() {
        let mut btb = ConventionalBtb::new("t", 64, 4, 0).unwrap();
        btb.update(&resolved(0x1000, 0x1008, 0x2000));
        let o = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1008));
        assert!(o.hit && o.first_level_hit);
        assert_eq!(o.target, Some(VAddr::new(0x2000)));
        assert_eq!(o.class, Some(BranchClass::Unconditional));
    }

    #[test]
    fn not_taken_branches_do_not_allocate() {
        let mut btb = ConventionalBtb::new("t", 64, 4, 0).unwrap();
        let mut r = resolved(0x1000, 0x1008, 0x2000);
        r.kind = BranchKind::Conditional;
        r.taken = false;
        btb.update(&r);
        assert!(!btb.lookup(VAddr::new(0x1000), VAddr::new(0x1008)).hit);
    }

    #[test]
    fn victim_buffer_catches_evictions() {
        // 1 set x 2 ways + 2-entry victim buffer.
        let mut btb = ConventionalBtb::new("t", 2, 2, 2).unwrap();
        // All keys map to the single set.
        btb.update(&resolved(0x1000, 0x1000, 0x9000));
        btb.update(&resolved(0x2000, 0x2000, 0x9000));
        btb.update(&resolved(0x3000, 0x3000, 0x9000)); // evicts 0x1000 -> victim
        let o = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1000));
        assert!(o.hit, "victim buffer must retain the evicted entry");
    }

    #[test]
    fn without_victim_evictions_are_lost() {
        let mut btb = ConventionalBtb::new("t", 2, 2, 0).unwrap();
        btb.update(&resolved(0x1000, 0x1000, 0x9000));
        btb.update(&resolved(0x2000, 0x2000, 0x9000));
        btb.update(&resolved(0x3000, 0x3000, 0x9000));
        assert!(!btb.lookup(VAddr::new(0x1000), VAddr::new(0x1000)).hit);
    }

    #[test]
    fn indirect_entries_defer_target() {
        let mut btb = ConventionalBtb::new("t", 64, 4, 0).unwrap();
        let mut r = resolved(0x1000, 0x1008, 0x2000);
        r.kind = BranchKind::Return;
        btb.update(&r);
        let o = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1008));
        assert!(o.hit);
        assert_eq!(o.target, None);
        assert_eq!(o.class, Some(BranchClass::Return));
    }

    #[test]
    fn baseline_storage_matches_paper() {
        let btb = ConventionalBtb::baseline_1k().unwrap();
        let kib = btb.storage().dedicated_kib();
        // Paper: ~9.9 KB for 1K entries + 64-entry victim buffer.
        assert!((9.0..11.0).contains(&kib), "got {kib} KiB");
    }

    #[test]
    fn large_storage_matches_paper() {
        let btb = ConventionalBtb::large_16k().unwrap();
        let kib = btb.storage().dedicated_kib();
        // Paper: ~140 KB for the 16K-entry table.
        assert!((135.0..148.0).contains(&kib), "got {kib} KiB");
    }
}
