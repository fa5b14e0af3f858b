//! Cycle-level model of one core's frontend pipeline.
//!
//! The model reproduces the paper's performance effects rather than every
//! pipeline latch: a branch prediction unit that emits one fetch region
//! (basic block) per cycle into a six-region fetch queue; an in-order fetch
//! stage that needs a region's blocks resident in the L1-I; an instruction
//! buffer decoupling fetch from a 3-wide retire drain whose slots stall
//! with a workload-calibrated probability (standing in for the OoO
//! backend's data misses, which a frontend trace cannot replay).
//!
//! Penalty events (paper Section 4.1):
//!
//! - **misfetch** — taken branch with no BTB entry, discovered in decode:
//!   4-cycle BPU bubble;
//! - **second-level BTB fill** — L1-BTB miss served by a dedicated L2 or
//!   an LLC-resident level: BPU bubble equal to the level's latency;
//! - **direction / indirect / return mispredict** — resolve-time flush:
//!   fetch queue discarded plus a full pipeline-refill bubble;
//! - **L1-I miss** — fetch stalls until the fill returns from the LLC
//!   (MSHR-tracked; prefetched blocks may be partially in flight);
//! - **Confluence fill** — every L1-I fill, demand or prefetch, adds the
//!   predecoder's scan latency ([`DEFAULT_PREDECODE_LATENCY`]).
//!
//! # The two-phase tick
//!
//! A cycle is two phases. [`CoreFrontend::step_local`] advances every
//! core-private structure (pipeline latches, L1-I, BTB, predictors, RNG),
//! reading the shared SHIFT history through a
//! [`HistoryView`](confluence_prefetch::HistoryView) and *deferring* every
//! shared-LLC access as a typed [`FillRequest`];
//! [`CoreFrontend::commit_fills`] then replays those requests against the
//! LLC. Within one cycle nothing reads a fill's latency — only its
//! presence — so splitting request from commit changes no result, and the
//! CMP executor (`crate::cmp`) can run phase 1 for all cores concurrently
//! while phase 2 commits serially in fixed core order, byte-identical to
//! serial stepping at any shard count.

use std::collections::VecDeque;

use confluence_btb::{BtbDesign, ResolvedBranch};
use confluence_prefetch::{Fdp, HistoryView, ShiftEngine, ShiftHistory};
use confluence_trace::{ExecMode, Program, RecordStream};
use confluence_types::{
    BlockAddr, BranchKind, DetRng, FetchRegion, PredecodeSource, TraceRecord, VAddr,
};
use confluence_uarch::{
    CoreParams, FillKind, FillRequest, HybridDirectionPredictor, IndirectTargetCache, L1ICache,
    MshrFile, ReturnAddressStack, SharedLlc, DEFAULT_PREDECODE_LATENCY, PENDING_FILL,
};

use crate::designs::{DesignPoint, PrefetchScheme};

/// Maximum instructions per fetch region (fetch-width bound on straight-line
/// runs; basic blocks are normally much shorter).
const REGION_CAP: usize = 16;
/// Outstanding prefetch fills per core.
const PREFETCH_SLOTS: usize = 32;
/// Probability that one queued fetch region lies on the correct path, as
/// seen by FDP. The trace-driven BPU always knows the correct path, but a
/// real FDP's lookahead quality decays geometrically with speculation depth
/// (paper Section 2.1: "its miss rate geometrically compounds"); prefetches
/// issued at queue depth `d` are useful only with probability `acc^d`.
const FDP_REGION_ACCURACY: f64 = 0.72;
/// Records pulled from the executor per lookahead refill. Batch stepping
/// lets the compiled stream emit whole staged chains per pull instead of
/// paying the mode dispatch and staging checks on every record; the
/// records are identical to per-record pulls, so the consumption grain
/// is invisible to the model.
const LOOKAHEAD_BLOCK: u64 = 64;

/// Measured-phase counters for one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles in the measured phase.
    pub cycles: u64,
    /// Instructions retired in the measured phase.
    pub retired: u64,
    /// Dynamic branches seen by the BPU.
    pub branches: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// BTB misses (taken branch, no entry anywhere).
    pub btb_misses: u64,
    /// Misfetch events (4-cycle redirects).
    pub misfetches: u64,
    /// Cycles of exposed second-level BTB fill bubbles.
    pub l2_bubble_cycles: u64,
    /// Direction/indirect/return mispredict flushes.
    pub mispredicts: u64,
    /// Block-grain demand accesses to the L1-I.
    pub l1i_accesses: u64,
    /// Demand misses in the L1-I.
    pub l1i_misses: u64,
    /// Blocks installed by prefetching.
    pub prefetch_fills: u64,
    /// Cycles the fetch stage spent stalled on instruction supply.
    pub fetch_stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Events per kilo-instruction helper.
    pub fn pki(&self, count: u64) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.retired as f64
        }
    }
}

/// A fetch region queued between the BPU and the fetch stage. Its blocks
/// are contiguous (a region holds at most [`REGION_CAP`] instructions, so
/// it spans at most two), which lets the fetch stage index them in place.
#[derive(Clone, Copy, Debug)]
struct PendingRegion {
    len: usize,
    first_block: BlockAddr,
    /// Number of blocks the region touches.
    blocks: usize,
    next_block: usize,
    /// Instructions already delivered to the instruction buffer.
    fetched: usize,
}

/// One core's frontend pipeline state.
pub struct CoreFrontend<'p> {
    id: usize,
    program: &'p Program,
    stream: RecordStream<'p>,
    btb: Box<dyn BtbDesign>,
    dir: HybridDirectionPredictor,
    itc: IndirectTargetCache,
    ras: ReturnAddressStack,
    fdp: Option<Fdp>,
    shift: Option<ShiftEngine>,
    l1i: L1ICache,
    mshrs: MshrFile,
    perfect_l1i: bool,
    predecode_fills: bool,
    records_history: bool,
    core: CoreParams,
    backend_stall_prob: f64,
    /// [`DetRng::chance_threshold`] of `backend_stall_prob`.
    stall_threshold: u64,
    rng: DetRng,

    lookahead: VecDeque<TraceRecord>,
    fetch_queue: VecDeque<PendingRegion>,
    instr_buffer: usize,
    bpu_ready_at: u64,
    inflight_prefetch: Vec<(BlockAddr, u64)>,
    last_demand_block: Option<BlockAddr>,
    /// Reused block buffer: fills drained in a cycle, then prefetch
    /// candidates. Keeps the tick free of allocations.
    scratch: Vec<BlockAddr>,
    /// Shared-hierarchy accesses deferred from phase 1 to phase 2, in the
    /// exact order serial stepping would have performed them.
    pending_fills: Vec<FillRequest>,

    retired: u64,
    warmup_instrs: u64,
    target_instrs: u64,
    warm_start_cycle: Option<u64>,
    done_at: Option<u64>,
    stats: CoreStats,
}

impl<'p> CoreFrontend<'p> {
    /// Creates one core's pipeline for the given design point.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        program: &'p Program,
        design: DesignPoint,
        llc_latency: u64,
        core: CoreParams,
        warmup_instrs: u64,
        measure_instrs: u64,
        seed: u64,
        mode: ExecMode,
    ) -> Self {
        let spec = program.spec();
        CoreFrontend {
            id,
            program,
            stream: program.stream(seed ^ (id as u64) << 32, mode),
            btb: design.build_btb(llc_latency),
            dir: HybridDirectionPredictor::new_16k(),
            itc: IndirectTargetCache::new_1k(),
            ras: ReturnAddressStack::new_64(),
            fdp: matches!(design.prefetch(), PrefetchScheme::Fdp).then(Fdp::new),
            shift: matches!(design.prefetch(), PrefetchScheme::Shift).then(ShiftEngine::new),
            l1i: L1ICache::new_32k(),
            mshrs: MshrFile::new(confluence_uarch::MemParams::default().l1i_mshrs),
            perfect_l1i: design.perfect_l1i(),
            predecode_fills: design.predecodes_fills(),
            records_history: id == 0,
            core,
            backend_stall_prob: spec.backend_stall_prob,
            stall_threshold: DetRng::chance_threshold(spec.backend_stall_prob),
            rng: DetRng::seed_from(seed ^ 0xBACC ^ id as u64),
            lookahead: VecDeque::with_capacity(LOOKAHEAD_BLOCK as usize),
            fetch_queue: VecDeque::with_capacity(core.fetch_queue_regions),
            instr_buffer: 0,
            bpu_ready_at: 0,
            inflight_prefetch: Vec::with_capacity(PREFETCH_SLOTS),
            last_demand_block: None,
            scratch: Vec::with_capacity(32),
            pending_fills: Vec::with_capacity(PREFETCH_SLOTS),
            retired: 0,
            warmup_instrs,
            target_instrs: warmup_instrs + measure_instrs,
            warm_start_cycle: None,
            done_at: None,
            stats: CoreStats::default(),
        }
    }

    /// True once the core has retired its full instruction budget.
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Cycle at which the core finished, if done.
    pub fn done_at(&self) -> Option<u64> {
        self.done_at
    }

    /// Measured-phase statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    fn measuring(&self) -> bool {
        self.warm_start_cycle.is_some()
    }

    /// Advances the core by one cycle against live shared state: the
    /// serial convenience wrapper over the two-phase tick
    /// ([`CoreFrontend::step_local`] then [`CoreFrontend::commit_fills`]).
    /// Single-core harnesses and unit tests use this; the CMP executor
    /// drives the phases itself so cores can step concurrently.
    pub fn step(&mut self, now: u64, llc: &mut SharedLlc, history: &mut ShiftHistory) {
        self.step_local(now, &mut HistoryView::Writer(history));
        self.commit_fills(now, llc);
    }

    /// Phase 1 of the tick: advances every core-private structure by one
    /// cycle, reading the shared SHIFT history through `history` and
    /// deferring every shared-LLC access into the core's fill-request log.
    /// Safe to run concurrently across cores (each holds `&mut self` and
    /// an immutable history view); the history generator core must step
    /// first, alone, with the `Writer` view, so its records of this cycle
    /// are visible to every follower — the order serial stepping imposes.
    pub fn step_local(&mut self, now: u64, history: &mut HistoryView<'_>) {
        if self.done_at.is_some() {
            return;
        }
        if self.measuring() {
            self.stats.cycles += 1;
        }
        self.drain_fills(now);
        self.retire(now);
        self.fetch(history);
        self.predict(now);
    }

    /// Phase 2 of the tick: replays this core's deferred fill requests
    /// against the shared LLC, in emission order, patching each pending
    /// MSHR entry or prefetch slot with its real completion cycle. The
    /// executor calls this serially in fixed core order, which is exactly
    /// the LLC access order of fully serial stepping — so latencies, LRU
    /// state, and hit/miss counters are byte-identical at any shard count.
    pub fn commit_fills(&mut self, now: u64, llc: &mut SharedLlc) {
        for i in 0..self.pending_fills.len() {
            let req = self.pending_fills[i];
            let latency = llc.commit_fill(self.id, &req);
            match req.kind {
                FillKind::Demand => self.mshrs.commit_ready(req.block, now + latency),
                FillKind::Prefetch(slot) => {
                    let entry = &mut self.inflight_prefetch[slot];
                    debug_assert_eq!(entry.0, req.block, "prefetch slot moved mid-cycle");
                    debug_assert_eq!(entry.1, PENDING_FILL, "slot already committed");
                    entry.1 = now + latency;
                }
            }
        }
        self.pending_fills.clear();
    }

    /// Installs completed demand fills, then completed prefetch fills.
    fn drain_fills(&mut self, now: u64) {
        let mut arrived = std::mem::take(&mut self.scratch);
        arrived.clear();
        self.mshrs.drain_completed(now, &mut arrived);
        self.inflight_prefetch.retain(|&(b, ready)| {
            if ready <= now {
                arrived.push(b);
                false
            } else {
                true
            }
        });
        for &b in &arrived {
            self.install(b);
        }
        self.scratch = arrived;
    }

    /// Installs a block into the L1-I with the BTB synchronization hooks.
    fn install(&mut self, block: BlockAddr) {
        self.btb
            .on_l1i_fill(block, self.program.branches_in_block(block));
        if let Some(evicted) = self.l1i.fill(block) {
            self.btb.on_l1i_evict(evicted);
        }
    }

    /// Retires up to `retire_width` instructions; slots stall with the
    /// workload's backend probability.
    fn retire(&mut self, now: u64) {
        let width = self.core.retire_width;
        let row = width as u64;
        let warmup = self.warmup_instrs;
        // A full row that cannot reach the warm-up or finish count draws
        // one coin per slot and only counts retirements, so count them
        // without a branch per slot. The draws stay the same.
        let crosses_warmup = self.retired < warmup && warmup <= self.retired + row;
        if self.instr_buffer >= width && !crosses_warmup && self.retired + row < self.target_instrs
        {
            let retired = self.rng.count_misses(width, self.stall_threshold);
            self.instr_buffer -= retired;
            self.retired += retired as u64;
            if self.measuring() {
                self.stats.retired += retired as u64;
            }
            return;
        }
        for _ in 0..width {
            if self.instr_buffer == 0 {
                break;
            }
            if self.rng.chance(self.backend_stall_prob) {
                continue;
            }
            self.instr_buffer -= 1;
            self.retired += 1;
            if self.measuring() {
                self.stats.retired += 1;
            }
            if self.retired == self.warmup_instrs {
                self.warm_start_cycle = Some(now);
            }
            if self.retired >= self.target_instrs && self.done_at.is_none() {
                self.done_at = Some(now);
            }
        }
    }

    /// Fetch stage: brings the head region's blocks in and delivers up to
    /// `fetch_width` instructions per cycle into the instruction buffer.
    fn fetch(&mut self, history: &mut HistoryView<'_>) {
        let Some(&head) = self.fetch_queue.front() else {
            return;
        };
        // Check the region's blocks in order.
        let mut next = head.next_block;
        while next < head.blocks {
            let block = BlockAddr::from_raw(head.first_block.raw() + next as u64);
            if self.perfect_l1i {
                next += 1;
                continue;
            }
            let resident = self.block_demand_access(history, block);
            if !resident {
                if self.measuring() {
                    self.stats.fetch_stall_cycles += 1;
                }
                self.fetch_queue
                    .front_mut()
                    .expect("head exists")
                    .next_block = next;
                return; // stall until the fill lands
            }
            next += 1;
        }
        let room = self.core.instr_buffer.saturating_sub(self.instr_buffer);
        let head = self.fetch_queue.front_mut().expect("head exists");
        head.next_block = next;
        let delivered = self.core.fetch_width.min(head.len - head.fetched).min(room);
        head.fetched += delivered;
        self.instr_buffer += delivered;
        if head.fetched == head.len {
            self.fetch_queue.pop_front();
        }
    }

    /// Performs one demand access at block grain, issuing fills and driving
    /// the SHIFT engine. Returns whether the block is usable this cycle.
    ///
    /// The fetch stage retries stalled blocks every cycle; only the first
    /// touch counts statistics and feeds the prefetcher/history.
    fn block_demand_access(&mut self, history: &mut HistoryView<'_>, block: BlockAddr) -> bool {
        let first_touch = self.last_demand_block != Some(block);
        let hit;
        if first_touch {
            self.last_demand_block = Some(block);
            hit = self.l1i.access(block);
            if self.measuring() {
                self.stats.l1i_accesses += 1;
                if !hit {
                    self.stats.l1i_misses += 1;
                }
            }
            // SHIFT observes every demanded block (hit or miss); the
            // engine must consult the history *before* this access is
            // recorded so the index resolves to the previous occurrence.
            if self.shift.is_some() {
                self.scratch.clear();
                let mut candidates = std::mem::take(&mut self.scratch);
                self.shift.as_mut().expect("checked").on_access(
                    history.history(),
                    block,
                    !hit,
                    &mut candidates,
                );
                for p in &candidates {
                    self.issue_prefetch(*p);
                }
                self.scratch = candidates;
            }
            if self.records_history {
                let recorded = history.record(block);
                debug_assert!(recorded, "generator core stepped with a Reader view");
            }
        } else {
            hit = self.l1i.contains(block);
        }
        if hit {
            return true;
        }
        // Not resident: make sure a fill is outstanding (the MSHR may have
        // been full on a previous attempt). The latency is a phase-2
        // concern: reserve the entry now, let the commit patch it.
        if self.mshr_or_inflight(block).is_none() && !self.mshrs.is_full() {
            let allocated = self.mshrs.allocate_pending(block);
            debug_assert!(allocated);
            self.pending_fills.push(FillRequest {
                block,
                kind: FillKind::Demand,
                extra_latency: self.fill_extra_latency(),
            });
        }
        false
    }

    /// Core-private latency added to every fill's LLC access (the
    /// Confluence predecoder's scan, for designs that predecode fills).
    fn fill_extra_latency(&self) -> u64 {
        if self.predecode_fills {
            DEFAULT_PREDECODE_LATENCY
        } else {
            0
        }
    }

    fn mshr_or_inflight(&self, block: BlockAddr) -> Option<u64> {
        self.mshrs.ready_at(block).or_else(|| {
            self.inflight_prefetch
                .iter()
                .find(|&&(b, _)| b == block)
                .map(|&(_, t)| t)
        })
    }

    /// Issues one prefetch fill if the block is not already resident or in
    /// flight and a prefetch slot is free. The slot is reserved
    /// immediately (same-cycle dedup sees it); its completion cycle is a
    /// deferred fill request committed in phase 2.
    fn issue_prefetch(&mut self, block: BlockAddr) {
        if self.perfect_l1i
            || self.l1i.contains(block)
            || self.mshr_or_inflight(block).is_some()
            || self.inflight_prefetch.len() >= PREFETCH_SLOTS
        {
            return;
        }
        if self.measuring() {
            self.stats.prefetch_fills += 1;
        }
        self.inflight_prefetch.push((block, PENDING_FILL));
        self.pending_fills.push(FillRequest {
            block,
            kind: FillKind::Prefetch(self.inflight_prefetch.len() - 1),
            extra_latency: self.fill_extra_latency(),
        });
    }

    /// BPU stage: produce one fetch region per cycle (when not stalled) and
    /// account branch-prediction penalties.
    fn predict(&mut self, now: u64) {
        if now < self.bpu_ready_at || self.fetch_queue.len() >= self.core.fetch_queue_regions {
            return;
        }
        // Build the next region from the trace lookahead.
        let mut len = 0usize;
        let mut start: Option<VAddr> = None;
        let mut terminator: Option<TraceRecord> = None;
        while len < REGION_CAP {
            let r = self.next_record();
            if start.is_none() {
                start = Some(r.pc);
            }
            len += 1;
            if r.branch.is_some() {
                terminator = Some(r);
                break;
            }
        }
        let start = start.expect("region has at least one instruction");
        let region = FetchRegion::new(start, len);

        let mut bubble: u64 = 0;
        if let Some(term) = terminator {
            let b = term.branch.expect("terminator is a branch");
            let outcome = self.btb.lookup(start, term.pc);
            if self.measuring() {
                self.stats.branches += 1;
                if b.taken {
                    self.stats.taken_branches += 1;
                }
                self.stats.l2_bubble_cycles += outcome.fill_bubble;
            }
            bubble += outcome.fill_bubble;

            // Penalty semantics: a BTB miss can be repaired at *decode*
            // (4-cycle misfetch) only when the decoder can re-derive the
            // redirect — a direct branch whose direction predictor says
            // taken, or an indirect/return whose ITC/RAS supplies the
            // target. A hard-to-predict branch flushes at resolve time
            // whether or not the BTB held its entry; a BTB entry never
            // converts a genuine misprediction into a cheap misfetch.
            let mut mispredicted = false; // resolve-time flush
            let mut decode_redirect = false; // 4-cycle decode repair
            match b.kind {
                BranchKind::Conditional => {
                    let predicted_taken = self.dir.predict(term.pc);
                    if outcome.hit {
                        mispredicted = predicted_taken != b.taken;
                    } else if b.taken {
                        if predicted_taken {
                            decode_redirect = true;
                        } else {
                            mispredicted = true;
                        }
                    }
                    self.dir.update(term.pc, b.taken);
                }
                BranchKind::Unconditional | BranchKind::Call => {
                    if !outcome.hit {
                        // Decode always identifies a direct taken branch.
                        decode_redirect = true;
                    }
                }
                BranchKind::Return => {
                    let predicted = self.ras.pop();
                    if !outcome.hit {
                        decode_redirect = true;
                    }
                    if predicted != Some(b.target) {
                        mispredicted = true;
                    }
                }
                BranchKind::IndirectJump | BranchKind::IndirectCall => {
                    let predicted = self.itc.predict(term.pc);
                    if !outcome.hit {
                        decode_redirect = true;
                    }
                    if predicted != Some(b.target) {
                        mispredicted = true;
                    }
                    self.itc.update(term.pc, b.target);
                }
            }
            if b.kind.pushes_ras() {
                self.ras.push(term.pc.next_instr());
            }

            if !outcome.hit && b.taken && self.measuring() {
                self.stats.btb_misses += 1;
            }
            if mispredicted {
                // Resolve-time redirect. Regions already queued are *older*
                // than the branch and stay valid; the wrong-path fetch
                // window of a real pipeline is modelled as a production
                // stall of the full refill latency.
                if self.measuring() {
                    self.stats.mispredicts += 1;
                }
                bubble += self.core.mispredict_penalty;
            } else if decode_redirect {
                if self.measuring() {
                    self.stats.misfetches += 1;
                }
                bubble += self.core.misfetch_penalty;
            }

            self.btb.update(&ResolvedBranch {
                bb_start: start,
                pc: term.pc,
                kind: b.kind,
                taken: b.taken,
                target: b.target,
            });
        }

        self.fetch_queue.push_back(PendingRegion {
            len,
            first_block: start.block(),
            blocks: region.blocks().count(),
            next_block: 0,
            fetched: 0,
        });

        // Fetch-directed prefetching sees the region as it is enqueued.
        // The deeper the BPU speculates ahead of fetch, the less likely the
        // region is on the correct path — wrong-path prefetches are
        // modelled as dropped issues.
        if self.fdp.is_some() {
            let depth = self.fetch_queue.len() as i32;
            let useful_prob = FDP_REGION_ACCURACY.powi(depth.max(0));
            self.scratch.clear();
            let mut candidates = std::mem::take(&mut self.scratch);
            self.fdp
                .as_mut()
                .expect("checked")
                .on_region_enqueued(region, &mut candidates);
            for p in &candidates {
                if self.rng.chance(useful_prob) {
                    self.issue_prefetch(*p);
                }
            }
            self.scratch = candidates;
        }

        self.bpu_ready_at = now + 1 + bubble;
    }

    fn next_record(&mut self) -> TraceRecord {
        if let Some(r) = self.lookahead.pop_front() {
            return r;
        }
        let CoreFrontend {
            stream, lookahead, ..
        } = self;
        stream.for_each_record(LOOKAHEAD_BLOCK, |r| lookahead.push_back(r));
        self.lookahead.pop_front().expect("executor never ends")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::DesignPoint;
    use confluence_trace::WorkloadSpec;
    use confluence_uarch::MemParams;

    fn run_one(design: DesignPoint, instrs: u64) -> CoreStats {
        let program = Program::generate(&WorkloadSpec::tiny()).unwrap();
        run_on(&program, design, instrs)
    }

    fn run_on(program: &Program, design: DesignPoint, instrs: u64) -> CoreStats {
        run_on_mode(program, design, instrs, ExecMode::from_env())
    }

    fn run_on_mode(
        program: &Program,
        design: DesignPoint,
        instrs: u64,
        mode: ExecMode,
    ) -> CoreStats {
        let mut llc = SharedLlc::new(MemParams::default()).unwrap();
        let mut history = ShiftHistory::with_capacity(8192);
        let mut core = CoreFrontend::new(
            0,
            program,
            design,
            30,
            CoreParams::default(),
            instrs / 2,
            instrs / 2,
            7,
            mode,
        );
        let mut now = 0;
        while !core.is_done() && now < instrs * 50 {
            core.step(now, &mut llc, &mut history);
            now += 1;
        }
        assert!(core.is_done(), "core did not finish within the cycle guard");
        core.stats()
    }

    #[test]
    fn core_stats_identical_across_exec_modes() {
        let program = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let fast = run_on_mode(
            &program,
            DesignPoint::Confluence,
            60_000,
            ExecMode::Compiled,
        );
        let slow = run_on_mode(
            &program,
            DesignPoint::Confluence,
            60_000,
            ExecMode::Reference,
        );
        assert_eq!(fast, slow);
    }

    #[test]
    fn baseline_core_completes_with_sane_ipc() {
        let stats = run_one(DesignPoint::Baseline, 100_000);
        let ipc = stats.ipc();
        assert!((0.2..3.0).contains(&ipc), "IPC {ipc}");
        assert!(stats.branches > 0);
        assert!(stats.l1i_accesses > 0);
    }

    #[test]
    fn ideal_beats_baseline() {
        let base = run_one(DesignPoint::Baseline, 100_000).ipc();
        let ideal = run_one(DesignPoint::Ideal, 100_000).ipc();
        assert!(ideal > base, "ideal {ideal} vs baseline {base}");
    }

    #[test]
    fn ideal_has_no_frontend_misses() {
        let stats = run_one(DesignPoint::Ideal, 50_000);
        assert_eq!(stats.btb_misses, 0);
        assert_eq!(stats.misfetches, 0);
        assert_eq!(stats.l1i_misses, 0);
    }

    #[test]
    fn btb_misses_do_not_convert_flushes_into_misfetches() {
        // With the decode-repair semantics, a design with a worse BTB can
        // never have *fewer* resolve-time flushes: direction mispredicts
        // flush whether or not the BTB held the entry.
        let program = Program::generate(&WorkloadSpec::base().with_code_kb(768)).unwrap();
        let base = run_on(&program, DesignPoint::Baseline, 150_000);
        let ideal_btb = run_on(&program, DesignPoint::IdealBtbShift, 150_000);
        let per_k = |s: &CoreStats, c| c as f64 * 1000.0 / s.retired as f64;
        let base_misp = per_k(&base, base.mispredicts);
        let ideal_misp = per_k(&ideal_btb, ideal_btb.mispredicts);
        assert!(
            base_misp >= ideal_misp * 0.8,
            "baseline mispredicts {base_misp}/K vs ideal-BTB {ideal_misp}/K: conversion artifact"
        );
    }

    #[test]
    fn better_btb_means_fewer_misfetches() {
        // Needs a program whose BTB footprint exceeds 1K entries.
        let program = Program::generate(&WorkloadSpec::base().with_code_kb(768)).unwrap();
        let base = run_on(&program, DesignPoint::Baseline, 150_000);
        let ideal_btb = run_on(&program, DesignPoint::IdealBtbShift, 150_000);
        assert!(
            ideal_btb.btb_misses < base.btb_misses,
            "IdealBTB {} should miss less than baseline {}",
            ideal_btb.btb_misses,
            base.btb_misses
        );
    }

    #[test]
    fn only_confluence_fills_pay_the_predecode_latency() {
        // Steps each core phase by phase so every deferred fill is seen
        // before the commit consumes it: Confluence predecodes every fill,
        // demand or prefetch; the 1K BTB designs predecode none. The
        // program outgrows the L1-I, so SHIFT has misses to stream from.
        let program = Program::generate(&WorkloadSpec::base()).unwrap();
        for (design, extra) in [
            (DesignPoint::Confluence, DEFAULT_PREDECODE_LATENCY),
            (DesignPoint::Baseline, 0),
            (DesignPoint::BaselineShift, 0),
        ] {
            let mut llc = SharedLlc::new(MemParams::default()).unwrap();
            let mut history = ShiftHistory::with_capacity(8192);
            let mut core = CoreFrontend::new(
                0,
                &program,
                design,
                30,
                CoreParams::default(),
                10_000,
                20_000,
                7,
                ExecMode::from_env(),
            );
            let (mut demand, mut prefetch) = (0, 0);
            let mut now = 0;
            while !core.is_done() && now < 1_500_000 {
                core.step_local(now, &mut HistoryView::Writer(&mut history));
                for req in &core.pending_fills {
                    assert_eq!(req.extra_latency, extra, "{design:?} fill of {}", req.block);
                    match req.kind {
                        FillKind::Demand => demand += 1,
                        FillKind::Prefetch(_) => prefetch += 1,
                    }
                }
                core.commit_fills(now, &mut llc);
                now += 1;
            }
            assert!(core.is_done(), "{design:?} did not finish");
            assert!(demand > 0, "{design:?} issued no demand fill");
            let shift = design.prefetch() == PrefetchScheme::Shift;
            assert_eq!(prefetch > 0, shift, "{design:?}: {prefetch} prefetches");
        }
    }

    #[test]
    fn stats_counters_are_consistent() {
        let s = run_one(DesignPoint::Baseline, 80_000);
        assert!(s.taken_branches <= s.branches);
        assert!(s.btb_misses <= s.taken_branches);
        assert!(s.l1i_misses <= s.l1i_accesses);
        assert!(s.retired > 0 && s.cycles > 0);
    }
}
