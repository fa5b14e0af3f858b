//! The common interface implemented by every BTB design in the study.

use confluence_types::{
    BlockAddr, BranchClass, BranchKind, PredecodedBranch, StorageProfile, VAddr,
};

/// A dynamic branch as resolved by the core, used to train BTBs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedBranch {
    /// Start address of the basic block the branch terminates (the tag used
    /// by basic-block-oriented BTBs).
    pub bb_start: VAddr,
    /// Program counter of the branch instruction itself.
    pub pc: VAddr,
    /// Static kind of the branch.
    pub kind: BranchKind,
    /// Dynamic outcome.
    pub taken: bool,
    /// Resolved target.
    pub target: VAddr,
}

impl ResolvedBranch {
    /// Fall-through distance in instructions from `bb_start` through the
    /// branch itself, as encoded in basic-block BTB entries (clamped to the
    /// 4-bit field the paper uses, which covers 99% of basic blocks).
    pub fn fall_len(&self) -> u8 {
        self.bb_start
            .instrs_until(self.pc)
            .map(|d| (d + 1).min(15) as u8)
            .unwrap_or(1)
    }
}

/// Result of a BTB lookup for the branch ending the current basic block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtbOutcome {
    /// The entry was found in the first (1-cycle) level.
    pub first_level_hit: bool,
    /// The entry was found somewhere in the design (first level, victim
    /// buffer, prefetch buffer, or a second level). When false, the BPU
    /// does not know a branch ends this fetch region — a misfetch follows
    /// if the branch is taken.
    pub hit: bool,
    /// Predicted target (direct branches; `None` when the entry defers to
    /// the RAS or indirect target cache, or on a miss).
    pub target: Option<VAddr>,
    /// Predicted branch class.
    pub class: Option<BranchClass>,
    /// Bubble cycles the core is exposed to when the entry had to be
    /// brought in from a second level at lookup time (paper: 4 cycles for
    /// the dedicated two-level design, an LLC round trip for PhantomBTB).
    pub fill_bubble: u64,
}

impl BtbOutcome {
    /// A miss outcome with no bubbles.
    pub fn miss() -> Self {
        BtbOutcome::default()
    }
}

/// Interface shared by all BTB designs (conventional, two-level,
/// PhantomBTB, AirBTB, ideal).
///
/// The simulation harness drives implementations with one `lookup` per
/// dynamic basic block, one `update` per resolved branch, and the L1-I
/// synchronization hooks for designs whose contents mirror the instruction
/// cache (AirBTB).
///
/// `Send` is a supertrait because a built design lives inside one core's
/// pipeline state, and the CMP tick moves whole cores across shard
/// threads; designs hold only owned tables (or `Send + Sync` oracles), so
/// the bound costs implementations nothing.
pub trait BtbDesign: Send {
    /// Short display name, e.g. `"2LevelBTB"`.
    fn name(&self) -> &'static str;

    /// Looks up the branch that terminates the basic block starting at
    /// `bb_start`. `branch_pc` identifies the branch for block-grain
    /// designs (AirBTB indexes by block and scans its bitmap).
    fn lookup(&mut self, bb_start: VAddr, branch_pc: VAddr) -> BtbOutcome;

    /// Trains the design with a resolved branch.
    fn update(&mut self, resolved: &ResolvedBranch);

    /// Hook invoked when an instruction block is filled into the L1-I
    /// (demand or prefetch). Designs synchronized with the L1-I install
    /// entries here; decoupled designs ignore it.
    fn on_l1i_fill(&mut self, block: BlockAddr, branches: &[PredecodedBranch]) {
        let _ = (block, branches);
    }

    /// Hook invoked when an instruction block is evicted from the L1-I.
    fn on_l1i_evict(&mut self, block: BlockAddr) {
        let _ = block;
    }

    /// Storage footprint for the area model.
    fn storage(&self) -> StorageProfile;
}

/// Returns the number of tag bits for a set-associative structure tagged
/// with instruction addresses in a 48-bit VA space.
///
/// `entries` and `ways` define the set count; `grain_bits` is the number of
/// low-order bits dropped before indexing (2 for instruction-aligned tags,
/// 6 for block tags).
pub fn tag_bits(entries: usize, ways: usize, grain_bits: u32) -> u32 {
    let sets = (entries / ways).max(1);
    let index_bits = sets.trailing_zeros();
    confluence_types::VADDR_BITS - grain_bits - index_bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fall_len_counts_inclusive_instructions() {
        let r = ResolvedBranch {
            bb_start: VAddr::new(0x100),
            pc: VAddr::new(0x10c),
            kind: BranchKind::Conditional,
            taken: true,
            target: VAddr::new(0x200),
        };
        assert_eq!(r.fall_len(), 4);
    }

    #[test]
    fn fall_len_clamps_to_4_bits() {
        let r = ResolvedBranch {
            bb_start: VAddr::new(0x100),
            pc: VAddr::new(0x100 + 40 * 4),
            kind: BranchKind::Conditional,
            taken: true,
            target: VAddr::new(0x200),
        };
        assert_eq!(r.fall_len(), 15);
    }

    #[test]
    fn tag_bits_match_paper_examples() {
        // 1K-entry 4-way, instruction grain: 256 sets -> 8 index bits,
        // 48 - 2 - 8 = 38 tag bits (paper Section 4.2.2 storage maths).
        assert_eq!(tag_bits(1024, 4, 2), 38);
        // 16K-entry 4-way: 4096 sets -> 48 - 2 - 12 = 34.
        assert_eq!(tag_bits(16 * 1024, 4, 2), 34);
        // AirBTB: 512 bundles 4-way at block grain: 128 sets -> 48-6-7=35.
        assert_eq!(tag_bits(512, 4, 6), 35);
    }

    #[test]
    fn miss_outcome_is_empty() {
        let m = BtbOutcome::miss();
        assert!(!m.hit && !m.first_level_hit);
        assert_eq!(m.fill_bubble, 0);
        assert_eq!(m.target, None);
    }
}
