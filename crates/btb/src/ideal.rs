//! Idealized BTB reference points.

use confluence_types::{ConfigError, StorageProfile, VAddr};

use crate::conventional::ConventionalBtb;
use crate::design::{BtbDesign, BtbOutcome, ResolvedBranch};

/// The paper's `IdealBTB`: a 16K-entry BTB with 1-cycle access latency
/// (Figure 7's upper bound). It still takes cold and capacity misses —
/// OLTP/Oracle exceeds 16K entries, which is why AirBTB can beat it there
/// (paper Section 5.1).
#[derive(Clone, Debug)]
pub struct IdealBtb {
    inner: ConventionalBtb,
}

impl IdealBtb {
    /// Creates the 16K-entry, 1-cycle configuration.
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors (cannot occur for this fixed
    /// configuration).
    pub fn new_16k() -> Result<Self, ConfigError> {
        Ok(IdealBtb {
            inner: ConventionalBtb::new("IdealBTB", 16 * 1024, 4, 0)?,
        })
    }
}

impl BtbDesign for IdealBtb {
    fn name(&self) -> &'static str {
        "IdealBTB"
    }

    fn lookup(&mut self, bb_start: VAddr, branch_pc: VAddr) -> BtbOutcome {
        self.inner.lookup(bb_start, branch_pc)
    }

    fn update(&mut self, resolved: &ResolvedBranch) {
        self.inner.update(resolved);
    }

    fn storage(&self) -> StorageProfile {
        self.inner.storage()
    }
}

/// A perfect BTB: every basic block is always delineated correctly with a
/// single-cycle access and no storage. Used (together with a perfect L1-I)
/// for the `Ideal` frontend of Figures 2 and 6.
///
/// Direct-branch targets are reported as "known" by returning `hit` with no
/// stored target; the harness resolves direct targets from the trace (they
/// are statically encoded in the instruction), while returns and indirect
/// branches still go through the RAS / indirect target cache like every
/// other design.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectBtb;

impl PerfectBtb {
    /// Creates a perfect BTB.
    pub fn new() -> Self {
        PerfectBtb
    }
}

impl BtbDesign for PerfectBtb {
    fn name(&self) -> &'static str {
        "PerfectBTB"
    }

    fn lookup(&mut self, _bb_start: VAddr, _branch_pc: VAddr) -> BtbOutcome {
        BtbOutcome {
            first_level_hit: true,
            hit: true,
            target: None,
            class: None,
            fill_bubble: 0,
        }
    }

    fn update(&mut self, _resolved: &ResolvedBranch) {}

    fn storage(&self) -> StorageProfile {
        StorageProfile::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::BranchKind;

    #[test]
    fn ideal_btb_still_takes_cold_misses() {
        let mut btb = IdealBtb::new_16k().unwrap();
        assert!(!btb.lookup(VAddr::new(0x1000), VAddr::new(0x1004)).hit);
        btb.update(&ResolvedBranch {
            bb_start: VAddr::new(0x1000),
            pc: VAddr::new(0x1004),
            kind: BranchKind::Unconditional,
            taken: true,
            target: VAddr::new(0x2000),
        });
        assert!(btb.lookup(VAddr::new(0x1000), VAddr::new(0x1004)).hit);
    }

    #[test]
    fn perfect_btb_always_hits_with_no_storage() {
        let mut btb = PerfectBtb::new();
        let o = btb.lookup(VAddr::new(0x1000), VAddr::new(0x1004));
        assert!(o.hit && o.first_level_hit);
        assert_eq!(o.fill_bubble, 0);
        assert_eq!(btb.storage().dedicated_bits(), 0);
    }
}
