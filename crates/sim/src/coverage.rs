//! Functional (content-only) simulation: BTB miss coverage and L1-I miss
//! coverage, the harness behind Figures 1, 8, 9, 10 and Table 2.
//!
//! The harness walks a core's committed trace and models structure
//! *contents* exactly — what is resident when — without cycle timing.
//! BTB misses follow the paper's definition: an entry for a taken branch is
//! absent at prediction time (Section 2.1).
//!
//! The record streams consumed here come from [`Program::stream`], so
//! once an earlier job over the same program has warmed its path memo,
//! a run replays memoized request paths — the streams, and therefore
//! every counter, are bit-identical either way; warmth only changes how
//! fast the records are produced.

use confluence_btb::{BtbDesign, ResolvedBranch};
use confluence_prefetch::{ShiftEngine, ShiftHistory};
use confluence_trace::{ExecMode, Program};
use confluence_types::{BlockAddr, PredecodeSource, VAddr};
use confluence_uarch::L1ICache;

/// Options for a functional coverage run.
///
/// `Eq`/`Hash` let the options participate in [`crate::CoverageJob`] cache
/// keys: two runs with equal options (and equal program + BTB spec) are
/// interchangeable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoverageOptions {
    /// Instructions executed before counters start.
    pub warmup_instrs: u64,
    /// Instructions measured after warm-up.
    pub measure_instrs: u64,
    /// Executor seed (per-core dynamic behaviour).
    pub seed: u64,
    /// Attach a SHIFT stream prefetcher to the L1-I (and, through the fill
    /// hooks, to L1-I-synchronized BTBs).
    pub use_shift: bool,
    /// SHIFT history capacity in entries.
    pub history_entries: usize,
    /// L1-I capacity in kilobytes (paper Table 1: 32). The capacity axis
    /// of the `l1i-size` sensitivity sweep.
    pub l1i_kb: usize,
    /// SHIFT stream lookahead depth in blocks. The depth axis of the
    /// `shift-lookahead` sensitivity sweep.
    pub shift_lookahead: usize,
}

/// The paper's L1-I capacity (Table 1), the [`CoverageOptions`] default.
pub const DEFAULT_L1I_KB: usize = 32;

impl Default for CoverageOptions {
    fn default() -> Self {
        CoverageOptions {
            warmup_instrs: 2_000_000,
            measure_instrs: 4_000_000,
            seed: 1,
            use_shift: false,
            history_entries: confluence_prefetch::DEFAULT_HISTORY_ENTRIES,
            l1i_kb: DEFAULT_L1I_KB,
            shift_lookahead: confluence_prefetch::DEFAULT_LOOKAHEAD,
        }
    }
}

impl CoverageOptions {
    /// A fast configuration for unit tests.
    pub fn quick() -> Self {
        CoverageOptions {
            warmup_instrs: 200_000,
            measure_instrs: 400_000,
            ..Default::default()
        }
    }

    /// Enables SHIFT prefetching.
    pub fn with_shift(mut self) -> Self {
        self.use_shift = true;
        self
    }
}

/// Counters from a functional coverage run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageResult {
    /// Instructions measured.
    pub instrs: u64,
    /// Dynamic branches measured.
    pub branches: u64,
    /// Dynamic taken branches measured.
    pub taken_branches: u64,
    /// BTB misses (taken branch without an entry at prediction time).
    pub btb_misses: u64,
    /// Block-grain L1-I demand accesses.
    pub l1i_accesses: u64,
    /// L1-I demand misses.
    pub l1i_misses: u64,
    /// Blocks installed by the prefetcher.
    pub prefetch_fills: u64,
}

impl CoverageResult {
    /// BTB misses per kilo-instruction (Figure 1's metric).
    pub fn btb_mpki(&self) -> f64 {
        per_kilo(self.btb_misses, self.instrs)
    }

    /// L1-I demand misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        per_kilo(self.l1i_misses, self.instrs)
    }

    /// Fraction of `baseline`'s BTB misses this run eliminated (the y-axis
    /// of Figures 8, 9 and 10; can be negative when this design misses
    /// more than the baseline, as B:3/OB:0 does in Figure 10).
    pub fn btb_miss_coverage_vs(&self, baseline: &CoverageResult) -> f64 {
        coverage(self.btb_mpki(), baseline.btb_mpki())
    }

    /// Fraction of `baseline`'s L1-I misses this run eliminated.
    pub fn l1i_miss_coverage_vs(&self, baseline: &CoverageResult) -> f64 {
        coverage(self.l1i_mpki(), baseline.l1i_mpki())
    }
}

fn per_kilo(count: u64, instrs: u64) -> f64 {
    if instrs == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / instrs as f64
    }
}

fn coverage(mpki: f64, baseline_mpki: f64) -> f64 {
    if baseline_mpki == 0.0 {
        0.0
    } else {
        1.0 - mpki / baseline_mpki
    }
}

/// Block-grain L1-I residency tracking shared by the coverage harness and
/// the branch-density characterization: collapses consecutive accesses to
/// the same block into one demand access, so the two measurements cannot
/// drift apart in how they define a block touch.
struct BlockResidency {
    l1i: L1ICache,
    last_block: Option<BlockAddr>,
}

impl BlockResidency {
    fn new(l1i: L1ICache) -> BlockResidency {
        BlockResidency {
            l1i,
            last_block: None,
        }
    }

    /// Registers a fetch at `block`: `None` while execution stays within
    /// the previously accessed block, `Some(hit)` on the first touch of a
    /// new block.
    #[inline]
    fn access(&mut self, block: BlockAddr) -> Option<bool> {
        if self.last_block == Some(block) {
            return None;
        }
        self.last_block = Some(block);
        Some(self.l1i.access(block))
    }

    fn fill(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        self.l1i.fill(block)
    }

    fn contains(&self, block: BlockAddr) -> bool {
        self.l1i.contains(block)
    }
}

/// Runs the functional harness for one BTB design over one core's trace.
///
/// Per committed instruction the harness:
/// 1. performs the BPU-side BTB lookup for branch records (*before* the
///    block's demand access — the BPU runs ahead of fetch, which is what
///    makes prefetch-driven insertion matter for first-touch branches);
/// 2. performs the block-grain L1-I access (collapsing consecutive
///    accesses to the same block), filling on miss with the predecode and
///    eviction hooks wired to the BTB;
/// 3. runs the SHIFT engine when enabled, performing its prefetch fills;
/// 4. trains the BTB with the resolved branch.
pub fn run_coverage(
    program: &Program,
    btb: &mut dyn BtbDesign,
    opts: &CoverageOptions,
) -> CoverageResult {
    run_coverage_mode(program, btb, opts, ExecMode::from_env())
}

/// [`run_coverage`] through an explicit execution path.
///
/// The default entry point resolves the path from the environment; this
/// variant lets the experiment engine (and the equivalence harness) pin it
/// in-process.
pub fn run_coverage_mode(
    program: &Program,
    btb: &mut dyn BtbDesign,
    opts: &CoverageOptions,
    mode: ExecMode,
) -> CoverageResult {
    let mut result = CoverageResult::default();
    let mut stream = program.stream(opts.seed, mode);
    let l1i = L1ICache::with_capacity_kb(opts.l1i_kb).expect("valid L1-I capacity");
    let mut residency = BlockResidency::new(l1i);
    let mut history = ShiftHistory::with_capacity(opts.history_entries);
    let mut engine = ShiftEngine::with_lookahead(opts.shift_lookahead);
    let mut prefetches: Vec<BlockAddr> = Vec::with_capacity(32);

    let mut bb_start: Option<VAddr> = None;
    let total = opts.warmup_instrs + opts.measure_instrs;
    let mut i = 0u64;

    stream.for_each_record(total, |r| {
        let measuring = i >= opts.warmup_instrs;
        i += 1;
        if measuring {
            result.instrs += 1;
        }
        let bb = bb_start.unwrap_or(r.pc);

        // 1. BPU-side lookup, ahead of the fetch stream.
        let outcome = r.branch.map(|_| btb.lookup(bb, r.pc));

        // 2. Fetch-side block access.
        let block = r.pc.block();
        if let Some(hit) = residency.access(block) {
            if measuring {
                result.l1i_accesses += 1;
                if !hit {
                    result.l1i_misses += 1;
                }
            }
            if !hit {
                btb.on_l1i_fill(block, program.branches_in_block(block));
                if let Some(evicted) = residency.fill(block) {
                    btb.on_l1i_evict(evicted);
                }
            }
            // 3. Stream prefetching.
            if opts.use_shift {
                prefetches.clear();
                engine.on_access(&history, block, !hit, &mut prefetches);
                for &p in &prefetches {
                    if !residency.contains(p) {
                        if measuring {
                            result.prefetch_fills += 1;
                        }
                        btb.on_l1i_fill(p, program.branches_in_block(p));
                        if let Some(evicted) = residency.fill(p) {
                            btb.on_l1i_evict(evicted);
                        }
                    }
                }
                history.record(block);
            }
        }

        // 4. Resolve and train.
        if let Some(b) = r.branch {
            if measuring {
                result.branches += 1;
                if b.taken {
                    result.taken_branches += 1;
                    if !outcome.expect("branch records produce outcomes").hit {
                        result.btb_misses += 1;
                    }
                }
            }
            btb.update(&ResolvedBranch {
                bb_start: bb,
                pc: r.pc,
                kind: b.kind,
                taken: b.taken,
                target: b.target,
            });
            bb_start = Some(r.next_pc());
        }
    });
    result
}

/// Runs the functional harness with a freshly built BTB.
///
/// This is the `Send`-friendly entry point used by the experiment engine:
/// instead of threading externally owned `&mut dyn BtbDesign` state through
/// the call, the job supplies a factory and the whole simulation is
/// self-contained — exactly what makes job-level parallelism safe.
pub fn run_coverage_with(
    program: &Program,
    make_btb: impl FnOnce() -> Box<dyn BtbDesign>,
    opts: &CoverageOptions,
) -> CoverageResult {
    run_coverage_with_mode(program, make_btb, opts, ExecMode::from_env())
}

/// [`run_coverage_with`] through an explicit execution path.
pub fn run_coverage_with_mode(
    program: &Program,
    make_btb: impl FnOnce() -> Box<dyn BtbDesign>,
    opts: &CoverageOptions,
    mode: ExecMode,
) -> CoverageResult {
    let mut btb = make_btb();
    run_coverage_mode(program, &mut *btb, opts, mode)
}

/// Table 2's branch-density characterization: mean static branches per
/// demand-fetched block, and mean distinct taken branches executed during a
/// block's L1-I residency ("dynamic").
pub fn branch_density(program: &Program, instrs: u64, seed: u64) -> (f64, f64) {
    branch_density_mode(program, instrs, seed, ExecMode::from_env())
}

/// [`branch_density`] through an explicit execution path.
///
/// Shares [`BlockResidency`] with the coverage harness, so both define a
/// block touch (and therefore a residency) identically.
pub fn branch_density_mode(
    program: &Program,
    instrs: u64,
    seed: u64,
    mode: ExecMode,
) -> (f64, f64) {
    use std::collections::{HashMap, HashSet};
    let mut stream = program.stream(seed, mode);
    let mut residency = BlockResidency::new(L1ICache::new_32k());
    // Distinct taken-branch PCs executed during the current residency.
    let mut live: HashMap<BlockAddr, HashSet<VAddr>> = HashMap::new();
    let mut static_sum = 0u64;
    let mut static_n = 0u64;
    let mut dyn_sum = 0u64;
    let mut dyn_n = 0u64;

    stream.for_each_record(instrs, |r| {
        let block = r.pc.block();
        if residency.access(block) == Some(false) {
            static_sum += program.branches_in_block(block).len() as u64;
            static_n += 1;
            live.insert(block, HashSet::new());
            if let Some(evicted) = residency.fill(block) {
                if let Some(set) = live.remove(&evicted) {
                    dyn_sum += set.len() as u64;
                    dyn_n += 1;
                }
            }
        }
        if let Some(b) = r.branch {
            if b.taken {
                if let Some(set) = live.get_mut(&block) {
                    set.insert(r.pc);
                }
            }
        }
    });
    // Account for blocks still resident at the end.
    for (_, set) in live {
        dyn_sum += set.len() as u64;
        dyn_n += 1;
    }
    let stat = if static_n == 0 {
        0.0
    } else {
        static_sum as f64 / static_n as f64
    };
    let dynamic = if dyn_n == 0 {
        0.0
    } else {
        dyn_sum as f64 / dyn_n as f64
    };
    (stat, dynamic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_btb::ConventionalBtb;
    use confluence_core::{AirBtb, AirBtbMode};
    use confluence_trace::WorkloadSpec;

    fn program() -> Program {
        // A working set well beyond the 32 KB L1-I and the 1K-entry BTB,
        // so miss-coverage mechanisms have something to cover.
        Program::generate(&WorkloadSpec::base().with_code_kb(1024)).unwrap()
    }

    #[test]
    fn bigger_btb_misses_less() {
        let p = program();
        let opts = CoverageOptions::quick();
        let mut small = ConventionalBtb::new("s", 512, 4, 0).unwrap();
        let mut large = ConventionalBtb::new("l", 8192, 4, 0).unwrap();
        let rs = run_coverage(&p, &mut small, &opts);
        let rl = run_coverage(&p, &mut large, &opts);
        assert!(
            rl.btb_mpki() < rs.btb_mpki() * 0.8,
            "large {} vs small {}",
            rl.btb_mpki(),
            rs.btb_mpki()
        );
    }

    #[test]
    fn baseline_btb_mpki_is_serverlike() {
        // Figure 1: tens of misses per kilo-instruction at 1K entries.
        let p = program();
        let mut btb = ConventionalBtb::baseline_1k().unwrap();
        let r = run_coverage(&p, &mut btb, &CoverageOptions::quick());
        let mpki = r.btb_mpki();
        assert!((5.0..120.0).contains(&mpki), "baseline MPKI {mpki}");
    }

    #[test]
    fn shift_covers_most_l1i_misses() {
        let p = program();
        let mut a = ConventionalBtb::baseline_1k().unwrap();
        let base = run_coverage(&p, &mut a, &CoverageOptions::quick());
        let mut b = ConventionalBtb::baseline_1k().unwrap();
        let with = run_coverage(&p, &mut b, &CoverageOptions::quick().with_shift());
        let cov = with.l1i_miss_coverage_vs(&base);
        assert!(cov > 0.5, "SHIFT L1-I coverage {cov}");
    }

    #[test]
    fn full_airbtb_with_shift_beats_baseline() {
        let p = program();
        let mut base = ConventionalBtb::baseline_1k().unwrap();
        let rb = run_coverage(&p, &mut base, &CoverageOptions::quick());
        let mut air = AirBtb::paper_config();
        let ra = run_coverage(&p, &mut air, &CoverageOptions::quick().with_shift());
        let cov = ra.btb_miss_coverage_vs(&rb);
        assert!(
            cov > 0.5,
            "AirBTB coverage {cov} (misses {} vs {})",
            ra.btb_misses,
            rb.btb_misses
        );
    }

    #[test]
    fn ablation_ladder_is_monotonic() {
        let p = program();
        let opts = CoverageOptions::quick();
        let mut capacity = AirBtb::new(AirBtbMode::CapacityOnly, 512, 3, 32);
        let mut spatial = AirBtb::new(AirBtbMode::SpatialLocality, 512, 3, 32)
            .with_oracle(std::sync::Arc::new(p.clone()));
        let mut full = AirBtb::paper_config();
        let rc = run_coverage(&p, &mut capacity, &opts);
        let rs = run_coverage(&p, &mut spatial, &opts);
        let rf = run_coverage(&p, &mut full, &opts.clone().with_shift());
        assert!(
            rs.btb_mpki() < rc.btb_mpki(),
            "spatial {} !< capacity {}",
            rs.btb_mpki(),
            rc.btb_mpki()
        );
        assert!(
            rf.btb_mpki() < rs.btb_mpki(),
            "full {} !< spatial {}",
            rf.btb_mpki(),
            rs.btb_mpki()
        );
    }

    #[test]
    fn coverage_paths_are_bit_identical() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let opts = CoverageOptions {
            warmup_instrs: 50_000,
            measure_instrs: 100_000,
            ..Default::default()
        }
        .with_shift();
        let mut a = ConventionalBtb::baseline_1k().unwrap();
        let fast = run_coverage_mode(&p, &mut a, &opts, ExecMode::Compiled);
        let mut b = ConventionalBtb::baseline_1k().unwrap();
        let slow = run_coverage_mode(&p, &mut b, &opts, ExecMode::Reference);
        assert_eq!(fast, slow);

        let df = branch_density_mode(&p, 200_000, 1, ExecMode::Compiled);
        let ds = branch_density_mode(&p, 200_000, 1, ExecMode::Reference);
        assert_eq!(df.0.to_bits(), ds.0.to_bits());
        assert_eq!(df.1.to_bits(), ds.1.to_bits());
    }

    #[test]
    fn branch_density_matches_table2_band() {
        let p = program();
        let (stat, dynamic) = branch_density(&p, 600_000, 1);
        assert!((2.0..5.5).contains(&stat), "static {stat}");
        assert!((0.5..3.5).contains(&dynamic), "dynamic {dynamic}");
        assert!(dynamic < stat, "dynamic must be below static");
    }
}
