//! AirBTB: the block-based, L1-I-synchronized BTB at the heart of
//! Confluence (paper Section 3.1-3.3).
//!
//! AirBTB stores one *bundle* per L1-I-resident instruction block. A bundle
//! is tagged once with the block address (amortizing tag cost over all
//! branches in the block), carries a 16-bit *branch bitmap* marking which
//! instruction slots hold branches, and a small fixed number of branch
//! entries (offset, type, target). Blocks with more branches than entries
//! spill into a small fully-associative *overflow buffer*. Bundle
//! insertions and evictions are synchronized with L1-I fills and evictions,
//! so the two structures always describe the same set of blocks.
//!
//! The module also implements the ablation ladder of Figure 8: the same
//! structure can run with eager insertion disabled, prefetch-fill disabled,
//! or L1-I synchronization disabled, isolating each design ingredient's
//! contribution to miss coverage.

use std::collections::HashMap;
use std::sync::Arc;

use confluence_btb::{tag_bits, BtbDesign, BtbOutcome, ResolvedBranch};
use confluence_types::{
    BlockAddr, BranchClass, BuildFoldHasher, PredecodeSource, PredecodedBranch, StorageProfile,
    VAddr, INSTRS_PER_BLOCK,
};
use confluence_uarch::SetAssocCache;

/// Default number of branch entries per bundle (paper: 3).
pub const DEFAULT_BUNDLE_ENTRIES: usize = 3;
/// Default overflow buffer entries (paper: 32).
pub const DEFAULT_OVERFLOW_ENTRIES: usize = 32;
/// Default bundle count: one per L1-I block (paper: 512).
pub const DEFAULT_BUNDLES: usize = 512;

/// Which AirBTB ingredients are enabled — the ablation ladder of Figure 8.
///
/// Each level includes everything below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AirBtbMode {
    /// Block-based organization only: branches are inserted individually
    /// when they resolve taken, like a conventional BTB, but share bundle
    /// tags (the "Capacity" factor: more entries per storage budget).
    CapacityOnly,
    /// Plus eager insertion: a BTB miss installs *all* branches of the
    /// missing block at once (the "Spatial Locality" factor).
    SpatialLocality,
    /// Plus prefetch-driven fill: every block entering the L1-I installs
    /// its bundle, so even the first branch touched in a prefetched block
    /// hits (the "Prefetching" factor). Replacement is still AirBTB-local.
    Prefetching,
    /// Plus L1-I synchronization: bundles are evicted exactly when their
    /// block leaves the L1-I, eliminating conflicts between resident
    /// blocks (the "Block-Based Org." factor). This is full AirBTB.
    Full,
}

/// One branch entry within a bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BundleEntry {
    offset: u8,
    class: BranchClass,
    /// Statically known target for direct branches.
    target: Option<VAddr>,
}

impl BundleEntry {
    fn from_predecode(b: &PredecodedBranch) -> Self {
        BundleEntry {
            offset: b.offset,
            class: b.kind.class(),
            target: b.target,
        }
    }
}

/// A bundle: the AirBTB record for one instruction block.
#[derive(Clone, Debug, Default)]
struct Bundle {
    bitmap: u16,
    entries: Vec<BundleEntry>,
}

impl Bundle {
    fn set_bit(&mut self, offset: u8) {
        self.bitmap |= 1 << offset;
    }

    fn bit(&self, offset: u8) -> bool {
        self.bitmap & (1 << offset) != 0
    }

    fn find(&self, offset: u8) -> Option<&BundleEntry> {
        self.entries.iter().find(|e| e.offset == offset)
    }
}

/// AirBTB with configurable bundle size, overflow buffer, and ablation
/// mode.
///
/// # Example
///
/// ```
/// use confluence_core::{AirBtb, AirBtbMode};
/// use confluence_btb::BtbDesign;
/// use confluence_types::{BlockAddr, BranchKind, PredecodedBranch, VAddr};
///
/// let mut btb = AirBtb::paper_config();
/// let block = BlockAddr::from_raw(0x100);
/// let branches = [PredecodedBranch::direct(5, BranchKind::Call, VAddr::new(0x9000))];
/// btb.on_l1i_fill(block, &branches); // Confluence fills on prefetch
/// let outcome = btb.lookup(block.base(), block.instr(5));
/// assert!(outcome.hit);
/// assert_eq!(outcome.target, Some(VAddr::new(0x9000)));
/// ```
pub struct AirBtb {
    mode: AirBtbMode,
    bundle_entries: usize,
    /// Synchronized storage (Full mode): mirrors L1-I contents exactly.
    synced: HashMap<BlockAddr, Bundle, BuildFoldHasher>,
    /// Standalone storage (ablation modes): own set-associative array.
    standalone: SetAssocCache<Bundle>,
    /// Fully-associative overflow buffer keyed by branch PC.
    overflow: Option<SetAssocCache<BundleEntry>>,
    overflow_entries: usize,
    bundles: usize,
    /// Predecode oracle for eager insertion in the ablation modes that are
    /// not driven by L1-I fill callbacks.
    oracle: Option<Arc<dyn PredecodeSource + Send + Sync>>,
    /// Empty entry vectors for new bundles: one per bundle at first, then
    /// those of dropped bundles. An AirBTB holds at most as many bundles
    /// as the L1-I holds blocks, so fills allocate nothing.
    spare: Vec<Vec<BundleEntry>>,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for AirBtb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AirBtb")
            .field("mode", &self.mode)
            .field("bundle_entries", &self.bundle_entries)
            .field("bundles", &self.bundles)
            .field("overflow_entries", &self.overflow_entries)
            .finish_non_exhaustive()
    }
}

impl AirBtb {
    /// The paper's final configuration: 512 bundles, 3 branch entries per
    /// bundle, 32-entry overflow buffer, fully synchronized with the L1-I
    /// (10.2 KB).
    pub fn paper_config() -> Self {
        Self::new(
            AirBtbMode::Full,
            DEFAULT_BUNDLES,
            DEFAULT_BUNDLE_ENTRIES,
            DEFAULT_OVERFLOW_ENTRIES,
        )
    }

    /// Creates an AirBTB with explicit geometry (Figure 10 sweeps bundle
    /// size and overflow entries).
    ///
    /// # Panics
    ///
    /// Panics if `bundles` is not a multiple of 4 (the fixed associativity)
    /// or `bundle_entries` is zero.
    pub fn new(
        mode: AirBtbMode,
        bundles: usize,
        bundle_entries: usize,
        overflow_entries: usize,
    ) -> Self {
        assert!(bundle_entries > 0, "bundles must hold at least one entry");
        let standalone = SetAssocCache::new((bundles / 4).max(1), 4)
            .expect("bundle count must give a power-of-two set count");
        let overflow = (overflow_entries > 0)
            .then(|| SetAssocCache::new(1, overflow_entries).expect("overflow geometry is valid"));
        AirBtb {
            mode,
            bundle_entries,
            synced: HashMap::default(),
            standalone,
            overflow,
            overflow_entries,
            bundles,
            oracle: None,
            spare: (0..bundles)
                .map(|_| Vec::with_capacity(bundle_entries.min(INSTRS_PER_BLOCK)))
                .collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Attaches the predecode oracle needed by the `SpatialLocality`
    /// ablation mode (eager insertion on BTB misses reads whole-block
    /// branch lists).
    pub fn with_oracle(mut self, oracle: Arc<dyn PredecodeSource + Send + Sync>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// The configured ablation mode.
    pub fn mode(&self) -> AirBtbMode {
        self.mode
    }

    /// Lookup hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn uses_sync(&self) -> bool {
        self.mode == AirBtbMode::Full
    }

    fn fills_on_l1i(&self) -> bool {
        matches!(self.mode, AirBtbMode::Prefetching | AirBtbMode::Full)
    }

    /// Builds a bundle from predecoded branches, spilling the excess into
    /// the overflow buffer.
    fn build_bundle(&mut self, block: BlockAddr, branches: &[PredecodedBranch]) -> Bundle {
        let mut bundle = self.new_bundle();
        for b in branches {
            debug_assert!((b.offset as usize) < INSTRS_PER_BLOCK);
            bundle.set_bit(b.offset);
            if bundle.entries.len() < self.bundle_entries {
                bundle.entries.push(BundleEntry::from_predecode(b));
            } else if let Some(of) = &mut self.overflow {
                of.insert(
                    block.instr(b.offset as usize).raw(),
                    BundleEntry::from_predecode(b),
                );
            }
        }
        bundle
    }

    /// An empty bundle, taking its entry vector from the spare pool. A
    /// block holds at most `INSTRS_PER_BLOCK` branches, so a vector with
    /// that capacity never grows.
    fn new_bundle(&mut self) -> Bundle {
        let capacity = self.bundle_entries.min(INSTRS_PER_BLOCK);
        Bundle {
            bitmap: 0,
            entries: self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(capacity)),
        }
    }

    /// Keeps a dropped bundle's entry vector for [`AirBtb::new_bundle`].
    fn recycle(&mut self, bundle: Option<Bundle>) {
        if let Some(Bundle { mut entries, .. }) = bundle {
            entries.clear();
            self.spare.push(entries);
        }
    }

    fn install_bundle(&mut self, block: BlockAddr, bundle: Bundle) {
        if self.uses_sync() {
            let replaced = self.synced.insert(block, bundle);
            self.recycle(replaced);
        } else {
            let evicted = self.standalone.insert(block.raw(), bundle);
            if let Some((old_key, old)) = evicted {
                self.recycle(Some(old));
                self.sweep_overflow(BlockAddr::from_raw(old_key));
            }
        }
    }

    fn remove_bundle(&mut self, block: BlockAddr) {
        let removed = if self.uses_sync() {
            self.synced.remove(&block)
        } else {
            self.standalone.invalidate(block.raw())
        };
        self.recycle(removed);
        self.sweep_overflow(block);
    }

    /// Drops overflow entries belonging to an evicted block.
    fn sweep_overflow(&mut self, block: BlockAddr) {
        if let Some(of) = &mut self.overflow {
            of.retain(|k, _| VAddr::new(k).block() != block);
        }
    }

    fn bundle_for(&mut self, block: BlockAddr) -> Option<&Bundle> {
        if self.uses_sync() {
            self.synced.get(&block)
        } else {
            self.standalone.lookup(block.raw())
        }
    }

    /// Installs a whole block eagerly via the oracle (SpatialLocality mode).
    fn eager_install(&mut self, block: BlockAddr) {
        let Some(oracle) = self.oracle.clone() else {
            return;
        };
        let bundle = self.build_bundle(block, oracle.branches_in_block(block));
        self.install_bundle(block, bundle);
    }

    /// Inserts a single resolved branch (CapacityOnly mode).
    fn insert_single(&mut self, resolved: &ResolvedBranch) {
        let block = resolved.pc.block();
        let offset = resolved.pc.instr_index() as u8;
        let entry = BundleEntry {
            offset,
            class: resolved.kind.class(),
            target: (!resolved.kind.is_indirect()).then_some(resolved.target),
        };
        let cap = self.bundle_entries;
        let mut spill = false;
        let existing = if self.uses_sync() {
            Some(self.synced.entry(block).or_default())
        } else {
            self.standalone.lookup_mut(block.raw())
        };
        match existing {
            Some(bundle) => {
                bundle.set_bit(offset);
                if let Some(slot) = bundle.entries.iter_mut().find(|e| e.offset == offset) {
                    *slot = entry;
                } else if bundle.entries.len() < cap {
                    bundle.entries.push(entry);
                } else {
                    spill = true;
                }
            }
            None => {
                let mut bundle = self.new_bundle();
                bundle.set_bit(offset);
                bundle.entries.push(entry);
                self.install_bundle(block, bundle);
            }
        }
        if spill {
            if let Some(of) = &mut self.overflow {
                of.insert(resolved.pc.raw(), entry);
            }
        }
    }
}

impl BtbDesign for AirBtb {
    fn name(&self) -> &'static str {
        match self.mode {
            AirBtbMode::CapacityOnly => "AirBTB(capacity)",
            AirBtbMode::SpatialLocality => "AirBTB(spatial)",
            AirBtbMode::Prefetching => "AirBTB(prefetch)",
            AirBtbMode::Full => "AirBTB",
        }
    }

    fn lookup(&mut self, _bb_start: VAddr, branch_pc: VAddr) -> BtbOutcome {
        let block = branch_pc.block();
        let offset = branch_pc.instr_index() as u8;
        // Probe the bundle, copying out what the outcome needs so the
        // bundle borrow ends before the overflow buffer is consulted.
        enum Probe {
            NoBundle,
            NoBit,
            Entry(BundleEntry),
            Spilled,
        }
        let probe = match self.bundle_for(block) {
            None => Probe::NoBundle,
            Some(bundle) => {
                if !bundle.bit(offset) {
                    Probe::NoBit
                } else if let Some(e) = bundle.find(offset) {
                    Probe::Entry(*e)
                } else {
                    Probe::Spilled
                }
            }
        };
        let outcome = match probe {
            Probe::NoBundle | Probe::NoBit => BtbOutcome::miss(),
            Probe::Entry(e) => entry_outcome(&e),
            Probe::Spilled => {
                // Bitmap says the branch exists but the bundle spilled it:
                // consult the overflow buffer.
                let e = self
                    .overflow
                    .as_mut()
                    .and_then(|of| of.lookup(branch_pc.raw()).copied());
                match e {
                    Some(e) => entry_outcome(&e),
                    None => BtbOutcome::miss(),
                }
            }
        };
        if outcome.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        outcome
    }

    fn update(&mut self, resolved: &ResolvedBranch) {
        match self.mode {
            AirBtbMode::CapacityOnly => {
                if resolved.taken {
                    self.insert_single(resolved);
                }
            }
            AirBtbMode::SpatialLocality => {
                // Eager insertion triggered by a missing bundle or branch.
                let block = resolved.pc.block();
                let offset = resolved.pc.instr_index() as u8;
                let known = self
                    .bundle_for(block)
                    .map(|b| b.bit(offset))
                    .unwrap_or(false);
                if !known {
                    self.eager_install(block);
                }
            }
            // Prefetch-filled modes learn exclusively from L1-I fills.
            AirBtbMode::Prefetching | AirBtbMode::Full => {}
        }
    }

    fn on_l1i_fill(&mut self, block: BlockAddr, branches: &[PredecodedBranch]) {
        if !self.fills_on_l1i() {
            return;
        }
        let bundle = self.build_bundle(block, branches);
        self.install_bundle(block, bundle);
    }

    fn on_l1i_evict(&mut self, block: BlockAddr) {
        if self.uses_sync() {
            self.remove_bundle(block);
        }
    }

    fn storage(&self) -> StorageProfile {
        // Bundle: block tag + valid + 16-bit bitmap + entries of
        // (4-bit offset, 2-bit type, 30-bit target).
        let tag = tag_bits(self.bundles, 4, 6) as u64;
        let bundle_bits =
            tag + 1 + INSTRS_PER_BLOCK as u64 + self.bundle_entries as u64 * (4 + 2 + 30);
        let mut p =
            StorageProfile::empty().with_array("AirBTB bundles", self.bundles as u64 * bundle_bits);
        if self.overflow_entries > 0 {
            // Overflow entries carry the full instruction-grain tag.
            let of_bits = 1 + (confluence_types::VADDR_BITS as u64 - 2) + 2 + 30;
            p = p.with_array("overflow buffer", self.overflow_entries as u64 * of_bits);
        }
        p
    }
}

fn entry_outcome(e: &BundleEntry) -> BtbOutcome {
    BtbOutcome {
        first_level_hit: true,
        hit: true,
        target: match e.class {
            BranchClass::Conditional | BranchClass::Unconditional => e.target,
            BranchClass::Indirect | BranchClass::Return => None,
        },
        class: Some(e.class),
        fill_bubble: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::BranchKind;

    fn branches_3() -> Vec<PredecodedBranch> {
        vec![
            PredecodedBranch::direct(1, BranchKind::Conditional, VAddr::new(0x9000)),
            PredecodedBranch::direct(4, BranchKind::Call, VAddr::new(0x9100)),
            PredecodedBranch::indirect(9, BranchKind::Return),
        ]
    }

    fn branches_5() -> Vec<PredecodedBranch> {
        let mut b = branches_3();
        b.push(PredecodedBranch::direct(
            11,
            BranchKind::Unconditional,
            VAddr::new(0x9200),
        ));
        b.push(PredecodedBranch::direct(
            14,
            BranchKind::Conditional,
            VAddr::new(0x9300),
        ));
        b
    }

    #[test]
    fn fill_inserts_all_branches() {
        let mut btb = AirBtb::paper_config();
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_3());
        for b in branches_3() {
            let o = btb.lookup(block.base(), block.instr(b.offset as usize));
            assert!(o.hit, "offset {} must hit", b.offset);
            assert_eq!(o.class, Some(b.kind.class()));
        }
    }

    #[test]
    fn overflow_buffer_catches_spills() {
        let mut btb = AirBtb::new(AirBtbMode::Full, 512, 3, 32);
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_5());
        // Branches 4 and 5 spilled into the overflow buffer.
        let o = btb.lookup(block.base(), block.instr(14));
        assert!(o.hit, "spilled branch must hit via the overflow buffer");
        assert_eq!(o.target, Some(VAddr::new(0x9300)));
    }

    #[test]
    fn without_overflow_spills_miss() {
        let mut btb = AirBtb::new(AirBtbMode::Full, 512, 3, 0);
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_5());
        let o = btb.lookup(block.base(), block.instr(14));
        assert!(!o.hit, "no overflow buffer: the spilled branch is lost");
        // The first three entries still hit.
        assert!(btb.lookup(block.base(), block.instr(1)).hit);
    }

    #[test]
    fn eviction_synchronized_with_l1i() {
        let mut btb = AirBtb::paper_config();
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_3());
        assert!(btb.lookup(block.base(), block.instr(1)).hit);
        btb.on_l1i_evict(block);
        assert!(!btb.lookup(block.base(), block.instr(1)).hit);
    }

    #[test]
    fn eviction_sweeps_overflow_entries() {
        let mut btb = AirBtb::new(AirBtbMode::Full, 512, 3, 32);
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_5());
        btb.on_l1i_evict(block);
        // Refill with only the bitmap-visible entries: the overflow lookup
        // must not resurrect stale entries... re-fill and verify bitmap path.
        btb.on_l1i_fill(block, &branches_3());
        let o = btb.lookup(block.base(), block.instr(14));
        assert!(
            !o.hit,
            "offset 14 is no longer predecoded; stale overflow must be swept"
        );
    }

    #[test]
    fn non_branch_offsets_miss() {
        let mut btb = AirBtb::paper_config();
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_3());
        assert!(!btb.lookup(block.base(), block.instr(7)).hit);
    }

    #[test]
    fn indirect_branches_defer_target() {
        let mut btb = AirBtb::paper_config();
        let block = BlockAddr::from_raw(0x40);
        btb.on_l1i_fill(block, &branches_3());
        let o = btb.lookup(block.base(), block.instr(9));
        assert!(o.hit);
        assert_eq!(o.target, None);
        assert_eq!(o.class, Some(BranchClass::Return));
    }

    #[test]
    fn capacity_mode_inserts_individual_taken_branches() {
        let mut btb = AirBtb::new(AirBtbMode::CapacityOnly, 64, 3, 8);
        let block = BlockAddr::from_raw(0x40);
        let r = ResolvedBranch {
            bb_start: block.base(),
            pc: block.instr(4),
            kind: BranchKind::Call,
            taken: true,
            target: VAddr::new(0x9100),
        };
        assert!(!btb.lookup(r.bb_start, r.pc).hit);
        btb.update(&r);
        assert!(btb.lookup(r.bb_start, r.pc).hit);
        // Other branches of the block were NOT installed (no eagerness).
        assert!(!btb.lookup(block.base(), block.instr(1)).hit);
    }

    #[test]
    fn spatial_mode_installs_whole_block_on_miss() {
        struct Oracle(Vec<PredecodedBranch>);
        impl PredecodeSource for Oracle {
            fn branches_in_block(&self, _b: BlockAddr) -> &[PredecodedBranch] {
                &self.0
            }
        }
        let oracle = Arc::new(Oracle(branches_3()));
        let mut btb = AirBtb::new(AirBtbMode::SpatialLocality, 64, 3, 8).with_oracle(oracle);
        let block = BlockAddr::from_raw(0x40);
        let r = ResolvedBranch {
            bb_start: block.base(),
            pc: block.instr(4),
            kind: BranchKind::Call,
            taken: true,
            target: VAddr::new(0x9100),
        };
        btb.update(&r);
        // All three branches of the block are now present.
        assert!(btb.lookup(block.base(), block.instr(1)).hit);
        assert!(btb.lookup(block.base(), block.instr(9)).hit);
    }

    #[test]
    fn standalone_mode_suffers_conflicts_sync_does_not() {
        // Blocks 0x40 and 0x40 + 128 collide in a 128-set standalone array
        // beyond its 4 ways; the synced variant holds whatever the L1-I
        // holds.
        let mut sync = AirBtb::new(AirBtbMode::Full, 512, 3, 0);
        let mut standalone = AirBtb::new(AirBtbMode::Prefetching, 512, 3, 0);
        let colliding: Vec<BlockAddr> = (0..6)
            .map(|i| BlockAddr::from_raw(0x40 + i * 128))
            .collect();
        for &b in &colliding {
            sync.on_l1i_fill(b, &branches_3());
            standalone.on_l1i_fill(b, &branches_3());
        }
        let first = colliding[0];
        assert!(sync.lookup(first.base(), first.instr(1)).hit);
        assert!(
            !standalone.lookup(first.base(), first.instr(1)).hit,
            "standalone 4-way array must have evicted the first block"
        );
    }

    #[test]
    fn storage_matches_paper_10_2_kb() {
        let kib = AirBtb::paper_config().storage().dedicated_kib();
        assert!((9.8..10.8).contains(&kib), "got {kib} KiB");
    }

    #[test]
    fn four_entry_bundles_cost_about_2kb_more() {
        let b3 = AirBtb::new(AirBtbMode::Full, 512, 3, 32)
            .storage()
            .dedicated_kib();
        let b4 = AirBtb::new(AirBtbMode::Full, 512, 4, 32)
            .storage()
            .dedicated_kib();
        let delta = b4 - b3;
        assert!(
            (1.5..3.0).contains(&delta),
            "B:4 adds {delta} KiB (paper: ~2 KB)"
        );
    }
}
