//! Dedicated two-level BTB: small fast first level backed by a large,
//! slower second level (paper Section 2.3: 1K-entry L1 at 1 cycle, 16K-entry
//! L2 at 4 cycles, ~140 KB per core).

use confluence_types::{ConfigError, StorageProfile, VAddr};

use crate::conventional::ConventionalBtb;
use crate::design::{BtbDesign, BtbOutcome, ResolvedBranch};

/// Two-level BTB with demand-based L2-to-L1 transfers.
///
/// A first-level miss probes the second level; on an L2 hit the entry is
/// promoted to the first level and the core is exposed to the L2 access
/// latency as a fetch bubble (`fill_bubble`). This is exactly the
/// timeliness deficiency Confluence eliminates: the transfer happens
/// *reactively*, after the fetch stream already needs the entry.
#[derive(Clone, Debug)]
pub struct TwoLevelBtb {
    l1: ConventionalBtb,
    l2: ConventionalBtb,
    l2_latency: u64,
}

impl TwoLevelBtb {
    /// The paper's configuration: 1K-entry L1 (1 cycle), 16K-entry L2
    /// (4 cycles).
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors (cannot occur for this fixed
    /// configuration).
    pub fn paper_config() -> Result<Self, ConfigError> {
        Self::new(1024, 16 * 1024, 4)
    }

    /// Creates a two-level BTB with explicit entry counts and L2 latency.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid geometries.
    pub fn new(l1_entries: usize, l2_entries: usize, l2_latency: u64) -> Result<Self, ConfigError> {
        Ok(TwoLevelBtb {
            l1: ConventionalBtb::new("2LevelBTB-L1", l1_entries, 4, 0)?,
            l2: ConventionalBtb::new("2LevelBTB-L2", l2_entries, 4, 0)?,
            l2_latency,
        })
    }

    /// Second-level access latency in cycles.
    pub fn l2_latency(&self) -> u64 {
        self.l2_latency
    }
}

impl BtbDesign for TwoLevelBtb {
    fn name(&self) -> &'static str {
        "2LevelBTB"
    }

    fn lookup(&mut self, bb_start: VAddr, branch_pc: VAddr) -> BtbOutcome {
        if let o @ BtbOutcome { hit: true, .. } = self.l1.lookup(bb_start, branch_pc) {
            return o;
        }
        // L1 miss: probe the slower second level.
        let mut o = self.l2.lookup(bb_start, branch_pc);
        if o.hit {
            o.first_level_hit = false;
            o.fill_bubble = self.l2_latency;
            // Promote into L1 for subsequent accesses.
            if let Some(entry) = self.l2.find(bb_start) {
                self.l1.install(bb_start, entry);
            }
        }
        o
    }

    fn update(&mut self, resolved: &ResolvedBranch) {
        if !resolved.taken {
            return;
        }
        // Inclusive hierarchy: allocate in both levels.
        self.l1.update(resolved);
        self.l2.update(resolved);
    }

    fn storage(&self) -> StorageProfile {
        let mut l1 = self.l1.storage();
        for a in &mut l1.arrays {
            a.label = format!("L1 {}", a.label);
        }
        let mut l2 = self.l2.storage();
        for a in &mut l2.arrays {
            a.label = format!("L2 {}", a.label);
        }
        l1.merge(l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::BranchKind;

    fn resolved(bb: u64) -> ResolvedBranch {
        ResolvedBranch {
            bb_start: VAddr::new(bb),
            pc: VAddr::new(bb + 8),
            kind: BranchKind::Unconditional,
            taken: true,
            target: VAddr::new(0x9000),
        }
    }

    #[test]
    fn l1_hit_has_no_bubble() {
        let mut btb = TwoLevelBtb::new(64, 256, 4).unwrap();
        btb.update(&resolved(0x1000));
        let o = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1008));
        assert!(o.hit && o.first_level_hit);
        assert_eq!(o.fill_bubble, 0);
    }

    #[test]
    fn l2_hit_exposes_latency_and_promotes() {
        // L1: 1 set x 4 ways -> 4 entries. L2 holds far more.
        let mut btb = TwoLevelBtb::new(4, 256, 4).unwrap();
        // Fill L1 beyond capacity; 0x1000 gets evicted from L1, stays in L2.
        // (Stride 0x104 spreads entries across L2 sets.)
        for i in 1..6 {
            btb.update(&resolved(0x1000 + i * 0x104));
        }
        btb.update(&resolved(0x1000));
        for i in 1..6 {
            btb.update(&resolved(0x1000 + i * 0x104));
        }
        let o = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1008));
        assert!(o.hit, "entry must survive in L2");
        assert!(!o.first_level_hit);
        assert_eq!(o.fill_bubble, 4);
        // Promoted: second lookup is an L1 hit.
        let o2 = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1008));
        assert!(o2.first_level_hit);
        assert_eq!(o2.fill_bubble, 0);
    }

    #[test]
    fn both_level_miss_is_plain_miss() {
        let mut btb = TwoLevelBtb::new(4, 16, 4).unwrap();
        let o = btb.lookup(VAddr::new(0x5000), VAddr::new(0x5008));
        assert!(!o.hit);
        assert_eq!(o.fill_bubble, 0);
    }

    #[test]
    fn storage_is_dominated_by_l2() {
        let btb = TwoLevelBtb::paper_config().unwrap();
        let kib = btb.storage().dedicated_kib();
        // Paper: ~140 KB (L2) + ~9 KB (L1).
        assert!((140.0..160.0).contains(&kib), "got {kib} KiB");
    }
}
