//! Compiled-program fast path: flattened basic-block streams.
//!
//! The reference [`Executor`] walks the [`Program`]'s `Vec<Bb>` and
//! re-interprets structure per record: it matches the `Term` enum, chases
//! boxed choice slices, re-derives the back-edge trip span from the taken
//! probability, steps fall-through chains block by block, and recomputes
//! `VAddr` offsets for every instruction. All of that is invariant for a
//! given program. Following the translate-once idea of DBT engines,
//! [`CompiledProgram`] folds it out in a single pass:
//!
//! * `desc` — one 32-byte descriptor per block: the block's own base
//!   address **and** its chain's pre-resolved terminator (dense opcode,
//!   branch pc, successor id and base address, per-op immediate). The
//!   generator lays a fall-through chain out contiguously, so a block's
//!   plain run is `base..term_pc` in [`INSTR_BYTES`] steps: no address the
//!   layout gives is stored, and fall-through "terminators" vanish. A
//!   branch can enter a chain at any member, so every member carries its
//!   own `base` with the chain's terminator, and one descriptor load
//!   serves a whole control transfer (splitting runs and terminators into
//!   separate parallel arrays costs 3-4 scattered lines per executed
//!   block, which is slower than the reference's warm `Bb` line —
//!   measured, not theoretical). Addresses are stored in 32 bits;
//!   `WorkloadSpec::validate` caps a program's code far below that.
//! * the back-edge test `target <= site` is static, so conditionals split
//!   into [`Op::CondForward`] / [`Op::CondBack`] at translation time; a
//!   forward conditional's taken probability is folded into an exact
//!   2^53-scaled integer threshold (bit-equal to the reference's float
//!   comparison); a back-edge's trip span is precomputed from its static
//!   probability; a call's return-block base address rides in its
//!   descriptor so returns resolve from the stack alone.
//! * `spans` + `choices` — indirect-target lists flattened into one
//!   contiguous array of 12-byte entries with weight totals pre-summed.
//!
//! [`CompiledExecutor`] then steps these tables with the *identical* RNG
//! and float-arithmetic sequence as the reference executor (the mixers are
//! shared, see `exec::mix`/`exec::site_unit`), so the two paths are
//! bit-identical record for record — asserted by the tests below and the
//! `tests/fastpath.rs` harness. The reference path stays selectable via
//! [`NO_FASTPATH_ENV`] / `--no-fastpath` as the escape hatch and
//! equivalence oracle.
//!
//! A translation is immutable once built, and every executor steps live
//! from its own state: no request path is recorded or replayed, so an
//! executor's memory stays flat however long it streams, and any number
//! of executors share one translation without a lock.

use std::sync::Arc;

use confluence_types::{BranchKind, DetRng, TraceRecord, VAddr, INSTR_BYTES};

use crate::exec::{mix, site_unit, Executor, STACK_GUARD};
use crate::program::{Program, Term};

/// Environment variable that disables the compiled fast path when set to a
/// non-empty value other than `0` (the `--no-fastpath` CLI flag sets the
/// same mode explicitly).
pub const NO_FASTPATH_ENV: &str = "CONFLUENCE_NO_FASTPATH";

/// Which record-stream implementation a simulation uses.
///
/// Both produce bit-identical streams; `Reference` exists as the escape
/// hatch and as the oracle for the equivalence harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Step the flattened [`CompiledProgram`] tables (the fast path).
    #[default]
    Compiled,
    /// Step the reference [`Executor`] over the structured program.
    Reference,
}

impl ExecMode {
    /// Resolves the mode from [`NO_FASTPATH_ENV`].
    pub fn from_env() -> ExecMode {
        match std::env::var_os(NO_FASTPATH_ENV) {
            Some(v) if !v.is_empty() && v != *"0" => ExecMode::Reference,
            _ => ExecMode::Compiled,
        }
    }
}

/// Dense terminator opcode; the enum-of-structs [`Term`] flattened to one
/// byte with all operands moved into the block descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Op {
    /// No branch: execution continues into the next block. Never executed
    /// (a fall-through chain is one plain run); present only as the
    /// pre-chain-pass marker of non-terminator blocks.
    FallThrough = 0,
    /// Forward conditional; `aux` holds the 2^53-scaled taken threshold.
    CondForward = 1,
    /// Loop back-edge; `aux` holds the precomputed trip-count span.
    CondBack = 2,
    /// Unconditional direct jump.
    Jump = 3,
    /// Direct call; `aux` holds the return block's base address.
    Call = 4,
    /// Indirect call; `target` indexes [`ChoiceSpan`]s, `aux` holds the
    /// return block's base address.
    IndirectCall = 5,
    /// Indirect jump; `target` indexes [`ChoiceSpan`]s.
    IndirectJump = 6,
    /// Return to the caller (or the scheduler at top level).
    Return = 7,
}

/// Record [`BranchKind`] by dense opcode. `Op` values are data-dependent
/// per chain, so a match would be an unpredictable branch in the record
/// loop where a load from an 8-entry table is not. The `FallThrough` slot
/// is never read (chains are flattened).
const KIND_BY_OP: [BranchKind; 8] = [
    BranchKind::Unconditional, // FallThrough (never emitted)
    BranchKind::Conditional,   // CondForward
    BranchKind::Conditional,   // CondBack
    BranchKind::Unconditional, // Jump
    BranchKind::Call,          // Call
    BranchKind::IndirectCall,  // IndirectCall
    BranchKind::IndirectJump,  // IndirectJump
    BranchKind::Return,        // Return
];

impl Op {
    /// Branch kind of the emitted record (see [`KIND_BY_OP`]).
    #[inline]
    fn kind(self) -> BranchKind {
        KIND_BY_OP[self as usize]
    }
}

/// Code addresses advance by this much per instruction.
const STEP: u32 = INSTR_BYTES as u32;

/// Per-block descriptor: the block's own base address plus its chain's
/// pre-resolved terminator, packed so one 32-byte load serves a whole
/// control transfer. The block's plain run is `base..term_pc` in
/// [`INSTR_BYTES`] steps. A branch can target the middle of a
/// fall-through chain, so every member block carries its own `base` with
/// the shared chain tail.
#[derive(Clone, Copy, Debug)]
struct BlockDesc {
    /// Per-op immediate: the 2^53-scaled taken threshold (`CondForward`),
    /// the trip-count span (`CondBack`), or the return block's base
    /// address (`Call`/`IndirectCall`).
    aux: u64,
    /// Fetch address of this block's first instruction.
    base: u32,
    /// Fetch address of the chain terminator's branch instruction.
    term_pc: u32,
    /// Raw base address of the successor (branch-target field of the
    /// emitted record; unused by indirects and returns).
    target_base: u32,
    /// Block id of the chain terminator (the branch "site").
    site: u32,
    /// Successor block id, or the [`ChoiceSpan`] index for indirects.
    target: u32,
    /// Dense opcode of the chain terminator.
    op: Op,
}

const _: () = assert!(std::mem::size_of::<BlockDesc>() == 32);

/// One indirect site's slice of the flattened [`Choice`] table.
#[derive(Clone, Copy, Debug)]
struct ChoiceSpan {
    /// First index into `choices`.
    start: u32,
    /// Number of choices.
    len: u32,
    /// Weight total, pre-summed in reference iteration order.
    total: f32,
    /// Fallback target (the reference's `choices.last()`).
    last_target: u32,
    /// Raw base address of the fallback target.
    last_base: u32,
}

/// One pre-resolved indirect-branch choice.
#[derive(Clone, Copy, Debug)]
struct Choice {
    /// Raw base address of the target block.
    base: u32,
    /// Selection weight.
    weight: f32,
    /// Target block id.
    target: u32,
}

/// A [`Program`] translated once into flattened block-stream tables.
///
/// All per-block tables are indexed by dense basic-block id; stepping them
/// (see [`CompiledExecutor`]) is an index walk with no enum matching, and
/// a plain instruction's address is its run's start plus a multiple of
/// [`INSTR_BYTES`]. Obtain one via [`Program::compiled`], which caches the
/// translation per program instance (one compile per `Arc<Program>` per
/// process).
#[derive(Debug)]
pub struct CompiledProgram {
    /// Per-block run + terminator descriptors.
    desc: Vec<BlockDesc>,
    // Flattened indirect-choice tables.
    spans: Vec<ChoiceSpan>,
    choices: Vec<Choice>,
    // Scheduling tables (mirroring `Executor::new` exactly).
    request_entries: Vec<u32>,
    request_cdf: Vec<f64>,
    os_entries: Vec<u32>,
    os_interleave: f64,
    flavors_per_request: u64,
}

/// What [`CompiledProgram::memo_stats`] reports.
///
/// Compiled executors record no request paths, so `steps` reads 0.
/// The type stays only while perfbench reads it for its
/// `trace.memo_steps` layer; it goes when that layer leaves
/// `BENCHMARK.json` (ROADMAP.md, item 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Recorded request-path steps: always 0.
    pub steps: usize,
}

/// Exact integer form of the reference's `site_unit(..) < prob` test.
///
/// `site_unit` is `(m >> 11) as f64 * 2^-53` with `m >> 11 < 2^53`, so both
/// the unit and `prob * 2^53` are exact f64 values; comparing the integer
/// `m >> 11` against `ceil(prob * 2^53)` decides identically (for integral
/// `prob * 2^53`, `ceil` is the identity and `<` agrees directly).
fn unit_threshold(prob: f64) -> u64 {
    (prob * (1u64 << 53) as f64).ceil() as u64
}

/// A code address in the 32 bits the translation stores. The check is
/// internal: `WorkloadSpec::validate` keeps every program's code below.
fn code_addr(addr: VAddr) -> u32 {
    u32::try_from(addr.raw()).expect("code address exceeds 32 bits")
}

impl CompiledProgram {
    /// Translates a program in one pass over its basic blocks.
    pub fn compile(program: &Program) -> CompiledProgram {
        let bbs = program.bbs();
        let n = bbs.len();
        // Block ids travel through u32 tables.
        assert!(n < (1 << 31) as usize, "block id space exceeds 31 bits");
        // Successor and return addresses by block id, for this pass only.
        let base: Vec<u32> = bbs.iter().map(|bb| code_addr(bb.base)).collect();
        let mut cp = CompiledProgram {
            desc: Vec::with_capacity(n),
            spans: Vec::new(),
            choices: Vec::new(),
            request_entries: Vec::new(),
            request_cdf: Vec::new(),
            os_entries: Vec::new(),
            os_interleave: 0.0,
            flavors_per_request: 1,
        };
        // First pass: resolve every block's own terminator.
        for (i, bb) in bbs.iter().enumerate() {
            let ret_base = base.get(i + 1).copied().map_or(0, u64::from);
            let (op, target, target_base, aux) = match &bb.term {
                Term::FallThrough => (Op::FallThrough, i as u32 + 1, 0, 0),
                Term::Cond { target, taken_prob } => {
                    let t_base = base[*target as usize];
                    if *target <= i as u32 {
                        // The reference re-derives the trip span from the
                        // taken probability on every execution of the
                        // back-edge; it is a pure function of the static
                        // probability, so fold it in here.
                        let mean = (1.0 / (1.0 - taken_prob.min(0.97))).ceil() as u64;
                        let span = (2 * mean).max(2);
                        (Op::CondBack, *target, t_base, span)
                    } else {
                        (
                            Op::CondForward,
                            *target,
                            t_base,
                            unit_threshold(*taken_prob),
                        )
                    }
                }
                Term::Jump { target } => (Op::Jump, *target, base[*target as usize], 0),
                Term::Call { callee } => (Op::Call, *callee, base[*callee as usize], ret_base),
                Term::IndirectCall { choices } => (
                    Op::IndirectCall,
                    cp.push_choices(choices, &base),
                    0,
                    ret_base,
                ),
                Term::IndirectJump { choices } => {
                    (Op::IndirectJump, cp.push_choices(choices, &base), 0, 0)
                }
                Term::Return => (Op::Return, 0, 0, 0),
            };
            cp.desc.push(BlockDesc {
                aux,
                base: base[i],
                term_pc: code_addr(bb.term_pc()),
                target_base,
                site: i as u32,
                target,
                op,
            });
        }

        // Second pass: stamp every member block of a fall-through chain
        // with its chain's terminator, keeping the block's own base.
        let mut head = 0;
        while head < n {
            let mut j = head;
            while cp.desc[j].op == Op::FallThrough {
                j += 1;
                assert!(j < n, "program ends in a fall-through chain");
                // A chain's plain instructions form one address range: the
                // generator aligns its cursor only after a terminator, so a
                // fall-through block's successor starts right after it.
                assert_eq!(
                    base[j],
                    base[j - 1] + u32::from(bbs[j - 1].plain) * STEP,
                    "fall-through block {} is not contiguous with its successor",
                    j - 1
                );
            }
            let term = cp.desc[j];
            for d in &mut cp.desc[head..j] {
                *d = BlockDesc {
                    base: d.base,
                    ..term
                };
            }
            head = j + 1;
        }

        // Scheduling tables: the float arithmetic must match `Executor::new`
        // operation for operation so the request CDF is bit-identical.
        let spec = program.spec();
        let total: f64 = program.request_entries().iter().map(|&(_, w)| w).sum();
        let mut acc = 0.0;
        cp.request_cdf = program
            .request_entries()
            .iter()
            .map(|&(_, w)| {
                acc += w / total;
                acc
            })
            .collect();
        cp.request_entries = program.request_entries().iter().map(|&(b, _)| b).collect();
        cp.os_entries = program.os_entries().to_vec();
        cp.os_interleave = spec.os_interleave;
        cp.flavors_per_request = spec.flavors_per_request as u64;
        cp
    }

    fn push_choices(&mut self, choices: &[(u32, f32)], base: &[u32]) -> u32 {
        let start = self.choices.len() as u32;
        // Summed in the same iteration order as the reference's
        // `choices.iter().map(|&(_, w)| w).sum::<f32>()`.
        let mut total = 0.0f32;
        for &(t, w) in choices {
            self.choices.push(Choice {
                base: base[t as usize],
                weight: w,
                target: t,
            });
            total += w;
        }
        let &(last_target, _) = choices.last().expect("indirect site has no targets");
        let span_idx = self.spans.len() as u32;
        self.spans.push(ChoiceSpan {
            start,
            len: choices.len() as u32,
            total,
            last_target,
            last_base: base[last_target as usize],
        });
        span_idx
    }

    /// Number of translated basic blocks.
    pub fn block_count(&self) -> usize {
        self.desc.len()
    }

    /// Creates a compiled-stream executor with the given per-core seed.
    ///
    /// Seeding is identical to [`Program::executor`]: the same `(program,
    /// seed)` pair yields the same stream through either path.
    pub fn executor(&self, seed: u64) -> CompiledExecutor<'_> {
        CompiledExecutor::new(self, seed)
    }

    /// Always [`MemoStats::default`]: no executor records request paths.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }
}

/// Streaming executor over a [`CompiledProgram`]; the fast-path counterpart
/// of [`Executor`], bit-identical to it record for record.
///
/// Beyond the pull-based [`CompiledExecutor::next_record`], the batch entry
/// point [`CompiledExecutor::for_each_record`] emits whole plain runs in
/// one counted loop — that internal iteration is where the throughput win
/// over the reference executor comes from.
#[derive(Clone, Debug)]
pub struct CompiledExecutor<'c> {
    cp: &'c CompiledProgram,
    /// Fetch address of the current run's next plain instruction; the run
    /// ends at `cur.term_pc`.
    run_pc: u32,
    /// Descriptor of the current chain, copied out on entry so the stepping
    /// loop and terminator read executor-local state.
    cur: BlockDesc,
    rng: DetRng,
    /// Return-address stack of `(block id, block base)` pairs; the base
    /// rides along so returns never touch the per-block tables.
    stack: Vec<(u32, u32)>,
    /// Per-request flavor; see [`Executor`] for the recurrence model.
    flavor: u64,
    /// Active back-edge state: `(site, trip << 32 | counter)` pairs,
    /// linearly scanned. A request activates only a handful of loops at a
    /// time, so the scan stays in L1 where a block-indexed table would
    /// cache-miss per back-edge. The trip count is a pure function of
    /// (site, flavor), so it is computed once on loop entry and cached —
    /// the reference re-mixes it every iteration.
    active_loops: Vec<(u32, u64)>,
    instr_count: u64,
    requests_completed: u64,
    // Terminator outcome, staged at chain entry (see `stage`). Nothing
    // observable happens between entering a chain and executing its
    // terminator, so all the pure outcome work — the site mix, the
    // weighted pick, the trip-count test, the return-stack peek — runs at
    // entry, where the out-of-order core overlaps its ~15-cycle serial
    // latency with the run's slice emission instead of serializing it
    // behind the run-exit branch miss. `terminate` only applies side
    // effects and emits the record. Deferred to `terminate`: stack
    // push/pop, loop-counter writes, and the request count, so externally
    // visible state still changes exactly at the branch record.
    /// Staged branch direction.
    pre_taken: bool,
    /// Staged `CondBack`: no active loop entry existed at entry.
    pre_new_loop: bool,
    /// Staged successor block.
    pre_next: u32,
    /// Staged `CondBack`: index of the active loop entry.
    pre_idx: u32,
    /// Staged `CondBack`: trip count for a newly entered loop.
    pre_trip: u64,
    /// Staged branch-target address of the emitted record.
    pre_target: u32,
    /// Staged descriptor of the successor chain, loaded at stage time so
    /// the load overlaps the current run's emission instead of serializing
    /// behind the run-exit branch.
    next_cur: BlockDesc,
}

impl<'c> CompiledExecutor<'c> {
    /// Creates a compiled executor with a dedicated dynamic-behaviour seed.
    pub fn new(cp: &'c CompiledProgram, seed: u64) -> CompiledExecutor<'c> {
        // Mirrors `Executor::new` draw for draw.
        let mut rng = DetRng::seed_from(seed ^ 0xE8EC_u64.rotate_left(32));
        let mut ex = CompiledExecutor {
            cp,
            run_pc: 0,
            cur: cp.desc[0],
            rng: rng.fork(1),
            stack: Vec::with_capacity(64),
            flavor: 0,
            active_loops: Vec::with_capacity(16),
            instr_count: 0,
            requests_completed: 0,
            pre_taken: false,
            pre_new_loop: false,
            pre_next: 0,
            pre_idx: 0,
            pre_trip: 0,
            pre_target: 0,
            next_cur: cp.desc[0],
        };
        let first = ex.schedule_next();
        ex.enter(first);
        ex
    }

    /// Instructions emitted so far.
    pub fn instr_count(&self) -> u64 {
        self.instr_count
    }

    /// Requests completed so far (top-level handler returns).
    pub fn requests_completed(&self) -> u64 {
        self.requests_completed
    }

    /// Current call depth.
    pub fn call_depth(&self) -> usize {
        self.stack.len()
    }

    /// Fast-forwards the executor by `n` instructions (warm-up).
    pub fn fast_forward(&mut self, n: u64) {
        self.for_each_record(n, |_| {});
    }

    /// Resumes stepping at block `bb`'s first instruction and stages its
    /// chain's terminator outcome. Used for cold entry; steady-state
    /// transfers go through [`CompiledExecutor::advance`], which reuses
    /// the staged descriptor.
    #[inline]
    fn enter(&mut self, bb: u32) {
        self.cur = self.cp.desc[bb as usize];
        self.run_pc = self.cur.base;
        self.stage();
    }

    /// Transfers into the successor chain staged by the last
    /// [`CompiledExecutor::stage`] call.
    #[inline]
    fn advance(&mut self) {
        self.cur = self.next_cur;
        self.run_pc = self.cur.base;
        self.stage();
    }

    /// Precomputes the current chain's terminator outcome (`pre_*`).
    ///
    /// Every computation here is a pure function of executor state that
    /// cannot change before the terminator executes; RNG draws (top-level
    /// return scheduling) keep their reference order because no other draw
    /// can intervene. Only the `requests_completed` bump and the
    /// return-stack pop are deferred so observable state still changes at
    /// the branch record itself.
    #[inline]
    fn stage(&mut self) {
        let d = self.cur;
        let site = d.site;
        match d.op {
            Op::CondForward => {
                let taken = (mix(self.flavor ^ 0xC02D, site as u64) >> 11) < d.aux;
                self.pre_taken = taken;
                self.pre_next = if taken { d.target } else { site + 1 };
                self.pre_target = d.target_base;
            }
            Op::CondBack => {
                let taken = match self.active_loops.iter().position(|e| e.0 == site) {
                    Some(i) => {
                        let slot = self.active_loops[i].1;
                        self.pre_idx = i as u32;
                        self.pre_new_loop = false;
                        (slot as u32 as u64) + 1 < (slot >> 32)
                    }
                    None => {
                        let trip = 1 + (mix(self.flavor ^ 0x7219, site as u64) % d.aux);
                        self.pre_trip = trip;
                        self.pre_new_loop = true;
                        1 < trip
                    }
                };
                self.pre_taken = taken;
                self.pre_next = if taken { d.target } else { site + 1 };
                self.pre_target = d.target_base;
            }
            Op::Jump | Op::Call => {
                self.pre_taken = true;
                self.pre_next = d.target;
                self.pre_target = d.target_base;
            }
            Op::IndirectCall | Op::IndirectJump => {
                let (t, base) = self.pick(site, d.target);
                self.pre_taken = true;
                self.pre_next = t;
                self.pre_target = base;
            }
            Op::Return => {
                self.pre_taken = true;
                match self.stack.last() {
                    Some(&(ret, base)) => {
                        self.pre_next = ret;
                        self.pre_target = base;
                    }
                    None => {
                        let next = self.schedule_next();
                        self.pre_next = next;
                        self.pre_target = self.cp.desc[next as usize].base;
                    }
                }
            }
            Op::FallThrough => unreachable!("chains are flattened; no fall-through terminators"),
        }
        self.next_cur = self.cp.desc[self.pre_next as usize];
    }

    /// Picks the next top-level routine; mirrors `Executor::schedule_next`.
    fn schedule_next(&mut self) -> u32 {
        self.active_loops.clear();
        let cp = self.cp;
        if !cp.os_entries.is_empty() && self.rng.chance(cp.os_interleave) {
            let idx = self.rng.index(cp.os_entries.len());
            self.flavor = mix(0x05_05, (idx as u64) << 32 | self.rng.below(8));
            return cp.os_entries[idx];
        }
        let draw = self.rng.f64();
        let idx = cp
            .request_cdf
            .iter()
            .position(|&c| draw < c)
            .unwrap_or(cp.request_cdf.len() - 1);
        let flavor_idx = self.rng.below(cp.flavors_per_request);
        self.flavor = mix((idx as u64) << 32, flavor_idx);
        cp.request_entries[idx]
    }

    /// Weighted indirect-target pick; mirrors `Executor::pick_weighted`
    /// (same f32 subtraction loop, same fallback).
    #[inline]
    fn pick(&self, site: u32, span_idx: u32) -> (u32, u32) {
        let cp = self.cp;
        let s = cp.spans[span_idx as usize];
        let unit = site_unit(self.flavor, site, 0x1D1) as f32;
        let mut draw = unit * s.total;
        let start = s.start as usize;
        for c in &cp.choices[start..start + s.len as usize] {
            draw -= c.weight;
            if draw < 0.0 {
                return (c.target, c.base);
            }
        }
        (s.last_target, s.last_base)
    }

    /// Executes the current chain's terminator — applies the side effects
    /// deferred by [`CompiledExecutor::stage`] — and returns its record.
    ///
    /// `inline(always)`: the pull path calls this once per branch record
    /// (~1 in 6); as an out-of-line call it costs ~3x the inlined form
    /// (register spills around the call plus the record round-trip through
    /// the return slot), which measured as the whole difference between
    /// the batch and pull paths.
    #[inline(always)]
    fn terminate(&mut self) -> TraceRecord {
        let d = self.cur;
        let taken = self.pre_taken;
        let target = self.pre_target;
        match d.op {
            Op::CondForward | Op::Jump | Op::IndirectJump => {}
            Op::CondBack => {
                if self.pre_new_loop {
                    if taken {
                        self.active_loops.push((d.site, self.pre_trip << 32 | 1));
                    }
                } else {
                    let idx = self.pre_idx as usize;
                    self.active_loops[idx].1 += 1;
                    if !taken {
                        self.active_loops.swap_remove(idx);
                    }
                }
            }
            // `aux` holds the return block's 32-bit base here.
            Op::Call | Op::IndirectCall => self.push_return(d.site + 1, d.aux as u32),
            Op::Return => {
                if self.stack.pop().is_none() {
                    // The replacement routine was already scheduled at
                    // stage time (same RNG order); only the observable
                    // request count lands here.
                    self.requests_completed += 1;
                }
            }
            Op::FallThrough => unreachable!("chains are flattened; no fall-through terminators"),
        }
        self.advance();
        self.instr_count += 1;
        TraceRecord::branch(
            VAddr::new(d.term_pc.into()),
            d.op.kind(),
            taken,
            VAddr::new(target.into()),
        )
    }

    #[inline]
    fn push_return(&mut self, ret_bb: u32, ret_base: u32) {
        debug_assert!(self.stack.len() < STACK_GUARD, "runaway call depth");
        self.stack.push((ret_bb, ret_base));
    }

    /// Produces the next committed instruction.
    #[inline]
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        if self.run_pc < self.cur.term_pc {
            let pc = self.run_pc;
            self.run_pc += STEP;
            self.instr_count += 1;
            return Some(TraceRecord::plain(VAddr::new(pc.into())));
        }
        Some(self.terminate())
    }

    /// Emits the next `n` records through `f` (batch stepping).
    ///
    /// A plain run is emitted by one counted loop over its addresses — no
    /// table reads, no per-instruction state — which is what buys the fast
    /// path its throughput; the records and executor state are identical
    /// to `n` calls of [`CompiledExecutor::next_record`].
    #[inline]
    pub fn for_each_record(&mut self, n: u64, mut f: impl FnMut(TraceRecord)) {
        let mut left = n;
        while left > 0 {
            let avail = u64::from((self.cur.term_pc - self.run_pc) / STEP);
            if avail > 0 {
                let run = avail.min(left);
                let start = u64::from(self.run_pc);
                for k in 0..run {
                    f(TraceRecord::plain(VAddr::new(start + k * u64::from(STEP))));
                }
                self.run_pc += run as u32 * STEP;
                self.instr_count += run;
                left -= run;
                if left == 0 {
                    return;
                }
            }
            f(self.terminate());
            left -= 1;
        }
    }
}

impl Iterator for CompiledExecutor<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }
}

/// A record stream through either execution path, selected by [`ExecMode`].
///
/// Consumers that must support the `--no-fastpath` escape hatch hold one of
/// these instead of a concrete executor; both variants yield bit-identical
/// streams for the same `(program, seed)`.
#[derive(Clone, Debug)]
pub enum RecordStream<'p> {
    /// The reference interpreter.
    Reference(Executor<'p>),
    /// The compiled fast path.
    Compiled(CompiledExecutor<'p>),
}

impl RecordStream<'_> {
    /// Produces the next committed instruction.
    #[inline]
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        match self {
            RecordStream::Reference(ex) => ex.next_record(),
            RecordStream::Compiled(ex) => ex.next_record(),
        }
    }

    /// Emits up to `n` records through `f`, batched on the compiled path.
    #[inline]
    pub fn for_each_record(&mut self, n: u64, mut f: impl FnMut(TraceRecord)) {
        match self {
            RecordStream::Reference(ex) => {
                for _ in 0..n {
                    match ex.next_record() {
                        Some(r) => f(r),
                        None => break,
                    }
                }
            }
            RecordStream::Compiled(ex) => ex.for_each_record(n, f),
        }
    }

    /// Fast-forwards the stream by `n` instructions (warm-up).
    pub fn fast_forward(&mut self, n: u64) {
        match self {
            RecordStream::Reference(ex) => ex.fast_forward(n),
            RecordStream::Compiled(ex) => ex.fast_forward(n),
        }
    }

    /// Instructions emitted so far.
    pub fn instr_count(&self) -> u64 {
        match self {
            RecordStream::Reference(ex) => ex.instr_count(),
            RecordStream::Compiled(ex) => ex.instr_count(),
        }
    }

    /// Requests completed so far.
    pub fn requests_completed(&self) -> u64 {
        match self {
            RecordStream::Reference(ex) => ex.requests_completed(),
            RecordStream::Compiled(ex) => ex.requests_completed(),
        }
    }
}

impl Iterator for RecordStream<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }
}

impl Program {
    /// The compiled (flattened block-stream) form of this program.
    ///
    /// Translated lazily on first use and cached on the program, so every
    /// clone of an `Arc<Program>` — all cores, shards, and jobs of the
    /// experiment engine — shares one compile per process.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        self.compiled_cache()
            .get_or_init(|| Arc::new(CompiledProgram::compile(self)))
    }

    /// The compiled form only if some consumer already forced the
    /// translation, for probes that must not compile programs no job
    /// executed.
    pub fn compiled_if_translated(&self) -> Option<&Arc<CompiledProgram>> {
        self.compiled_cache().get()
    }

    /// Creates a record stream over this program through the given path.
    pub fn stream(&self, seed: u64, mode: ExecMode) -> RecordStream<'_> {
        match mode {
            ExecMode::Reference => RecordStream::Reference(self.executor(seed)),
            ExecMode::Compiled => RecordStream::Compiled(self.compiled().executor(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Workload, WorkloadSpec};

    fn assert_streams_equal(program: &Program, seed: u64, n: usize) {
        let mut reference = program.executor(seed);
        let mut compiled = program.compiled().executor(seed);
        for i in 0..n {
            let r = reference.next_record();
            let c = compiled.next_record();
            assert_eq!(r, c, "record {i} diverged (seed {seed})");
        }
        assert_eq!(reference.instr_count(), compiled.instr_count());
        assert_eq!(
            reference.requests_completed(),
            compiled.requests_completed()
        );
        assert_eq!(reference.call_depth(), compiled.call_depth());
    }

    #[test]
    fn compiled_stream_matches_reference_on_tiny() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        for seed in [1, 2, 7, 0xDEAD] {
            assert_streams_equal(&p, seed, 200_000);
        }
    }

    #[test]
    fn compiled_stream_matches_reference_on_all_presets() {
        for w in Workload::ALL {
            let p = Program::generate(&w.spec().with_code_kb(128)).unwrap();
            assert_streams_equal(&p, 1, 30_000);
        }
    }

    #[test]
    fn batch_stepping_is_chunk_size_invariant() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let cp = p.compiled();
        let mut pull = cp.executor(9);
        let golden: Vec<_> = (0..40_000).map(|_| pull.next_record().unwrap()).collect();
        for chunk in [1u64, 7, 64, 1000, 40_000] {
            let mut ex = cp.executor(9);
            let mut got = Vec::with_capacity(golden.len());
            while (got.len() as u64) < 40_000 {
                let n = chunk.min(40_000 - got.len() as u64);
                ex.for_each_record(n, |r| got.push(r));
            }
            assert_eq!(got, golden, "chunk size {chunk} diverged");
            assert_eq!(ex.instr_count(), pull.instr_count());
        }
    }

    #[test]
    fn fast_forward_matches_stepping() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let cp = p.compiled();
        let mut stepped = cp.executor(3);
        for _ in 0..12_345 {
            stepped.next_record();
        }
        let mut skipped = cp.executor(3);
        skipped.fast_forward(12_345);
        assert_eq!(skipped.instr_count(), 12_345);
        assert_eq!(stepped.next_record(), skipped.next_record());
    }

    #[test]
    fn unit_threshold_agrees_with_float_comparison() {
        // Exhaustive agreement on the draw values around each threshold,
        // plus random probes: the integer test must decide identically to
        // the reference's `site_unit < prob`.
        let probs = [
            0.0,
            1e-17,
            0.1,
            0.25,
            0.5,
            0.75,
            0.9,
            0.97,
            0.999,
            1.0,
            f64::from_bits(0x3FE5_5555_5555_5555), // ~2/3
        ];
        for &p in &probs {
            let thr = unit_threshold(p);
            for probe in thr.saturating_sub(2)..=(thr + 2).min((1 << 53) - 1) {
                let unit = probe as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(
                    probe < thr,
                    unit < p,
                    "threshold mismatch at prob {p}, draw {probe}"
                );
            }
        }
    }

    #[test]
    fn compile_is_cached_per_program() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        assert!(Arc::ptr_eq(p.compiled(), p.compiled()));
        // A clone taken after compilation shares the cached translation.
        let q = p.clone();
        assert!(Arc::ptr_eq(p.compiled(), q.compiled()));
    }

    #[test]
    fn exec_mode_default_is_compiled() {
        assert_eq!(ExecMode::default(), ExecMode::Compiled);
    }

    #[test]
    fn record_stream_paths_agree() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let mut fast = p.stream(5, ExecMode::Compiled);
        let mut slow = p.stream(5, ExecMode::Reference);
        for _ in 0..50_000 {
            assert_eq!(fast.next_record(), slow.next_record());
        }
        assert_eq!(fast.instr_count(), slow.instr_count());
        assert_eq!(fast.requests_completed(), slow.requests_completed());
    }

    #[test]
    fn block_count_matches_program() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        assert_eq!(p.compiled().block_count(), p.stats().basic_blocks);
    }
}
