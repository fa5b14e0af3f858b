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
//! * `pc_table` — every plain instruction's fetch address, laid out
//!   contiguously per fall-through chain. Emitting a run is iterating a
//!   `u64` slice; fall-through "terminators" vanish entirely.
//! * `desc` — one 48-byte descriptor per block packing the block's
//!   `pc_table` run **and** its chain's pre-resolved terminator: dense
//!   opcode, branch pc, successor id, successor base address, and a
//!   per-op immediate. Everything a control transfer needs lives on one
//!   cache line (splitting runs and terminators into separate parallel
//!   arrays costs 3-4 scattered lines per executed block, which is slower
//!   than the reference's warm `Bb` line — measured, not theoretical).
//! * the back-edge test `target <= site` is static, so conditionals split
//!   into [`Op::CondForward`] / [`Op::CondBack`] at translation time; a
//!   forward conditional's taken probability is folded into an exact
//!   2^53-scaled integer threshold (bit-equal to the reference's float
//!   comparison); a back-edge's trip span is precomputed from its static
//!   probability; a call's return-block base address rides in its
//!   descriptor so returns resolve from the stack alone.
//! * `spans` + `choices` — indirect-target lists flattened into one
//!   contiguous array of 16-byte entries with weight totals pre-summed.
//!
//! [`CompiledExecutor`] then steps these tables with the *identical* RNG
//! and float-arithmetic sequence as the reference executor (the mixers are
//! shared, see `exec::mix`/`exec::site_unit`), so the two paths are
//! bit-identical record for record — asserted by the tests below and the
//! `tests/fastpath.rs` harness. The reference path stays selectable via
//! [`NO_FASTPATH_ENV`] / `--no-fastpath` as the escape hatch and
//! equivalence oracle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use confluence_types::{BranchKind, DetRng, TraceRecord, VAddr, INSTR_BYTES, VADDR_BITS};

use crate::exec::{mix, site_unit, Executor, STACK_GUARD};
use crate::program::{Program, Term};

/// Environment variable that disables the compiled fast path when set to a
/// non-empty value other than `0` (the `--no-fastpath` CLI flag sets the
/// same mode explicitly).
pub const NO_FASTPATH_ENV: &str = "CONFLUENCE_NO_FASTPATH";

/// Total [`ReplayStep`] arena budget of the request-path memo: executors
/// stop recording new paths once their arena (warm snapshot included)
/// reaches this.
const MEMO_STEPS: usize = 1 << 16;

/// Longest single request control path worth memoizing.
const MEMO_REQUEST_STEPS: usize = 1 << 13;

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
    /// (fall-through chains are flattened into `pc_table` runs); present
    /// only as the pre-chain-pass marker of non-terminator blocks.
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

/// Call-depth adjustment by dense opcode (+1 call, -1 return), a table
/// load for the same unpredictable-branch reason as [`KIND_BY_OP`].
const DEPTH_BY_OP: [i8; 8] = [0, 0, 0, 0, 1, 1, 0, -1];

/// Low 48 bits of a [`ReplayStep::term_word`]: the terminator's fetch
/// address (the opcode lives above). Identical to [`VAddr::new`]'s own
/// mask, so in release builds the two ANDs fold into one.
const TERM_PC_MASK: u64 = (1 << VADDR_BITS) - 1;

impl Op {
    /// Branch kind of the emitted record (see [`KIND_BY_OP`]).
    #[inline]
    fn kind(self) -> BranchKind {
        KIND_BY_OP[self as usize]
    }

    /// Call-depth adjustment of this terminator (see [`DEPTH_BY_OP`]).
    #[inline]
    fn depth_delta(self) -> i8 {
        DEPTH_BY_OP[self as usize]
    }
}

/// Per-block descriptor: the block's `pc_table` run plus its chain's
/// pre-resolved terminator, packed so one cache line serves a whole
/// control transfer. A branch can target the middle of a fall-through
/// chain, so every member block carries its own `start` with the shared
/// chain tail.
#[derive(Clone, Copy, Debug)]
struct BlockDesc {
    /// Fetch address of the chain terminator's branch instruction.
    term_pc: u64,
    /// Raw base address of the successor (branch-target field of the
    /// emitted record; unused by indirects and returns).
    target_base: u64,
    /// Per-op immediate: the 2^53-scaled taken threshold (`CondForward`),
    /// the trip-count span (`CondBack`), or the return block's base
    /// address (`Call`/`IndirectCall`).
    aux: u64,
    /// First `pc_table` index of this block's plain instructions.
    start: u32,
    /// One past the chain's last `pc_table` index.
    end: u32,
    /// Block id of the chain terminator (the branch "site").
    site: u32,
    /// Successor block id, or the [`ChoiceSpan`] index for indirects.
    target: u32,
    /// Dense opcode of the chain terminator.
    op: Op,
}

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
    last_base: u64,
}

/// One pre-resolved indirect-branch choice.
#[derive(Clone, Copy, Debug)]
struct Choice {
    /// Raw base address of the target block.
    base: u64,
    /// Selection weight.
    weight: f32,
    /// Target block id.
    target: u32,
}

/// A [`Program`] translated once into flattened block-stream tables.
///
/// All per-block tables are indexed by dense basic-block id; stepping them
/// (see [`CompiledExecutor`]) is an index walk with no enum matching and no
/// per-record address arithmetic. Obtain one via [`Program::compiled`],
/// which caches the translation per program instance (one compile per
/// `Arc<Program>` per process).
#[derive(Debug)]
pub struct CompiledProgram {
    /// Plain-instruction fetch addresses, contiguous per chain.
    pc_table: Vec<u64>,
    /// Per-block run + terminator descriptors.
    desc: Vec<BlockDesc>,
    /// Per-block raw base addresses (scheduler-entry record targets).
    base: Vec<u64>,
    // Flattened indirect-choice tables.
    spans: Vec<ChoiceSpan>,
    choices: Vec<Choice>,
    // Scheduling tables (mirroring `Executor::new` exactly).
    request_entries: Vec<u32>,
    request_cdf: Vec<f64>,
    os_entries: Vec<u32>,
    os_interleave: f64,
    flavors_per_request: u64,
    /// Shared warm-path state: every executor over this translation
    /// snapshots the bank at construction and merges newly recorded paths
    /// back on drop, so memo warmth survives across jobs, cores, and
    /// shards.
    bank: Mutex<PathBank>,
}

/// Process-wide warm-path state of one [`CompiledProgram`].
///
/// A request's control path is a pure function of its `(entry, flavor)`
/// key — independent of the executor seed, which only decides the request
/// *sequence* — so paths recorded by any executor replay correctly in
/// every other executor over the same translation. Merges are
/// content-idempotent for that reason: two executors racing to record the
/// same key store byte-identical steps, and the bank keeps whichever
/// lands first.
#[derive(Debug, Default)]
struct PathBank {
    map: HashMap<(u32, u64), PathRef, BuildPathHasher>,
    /// Shared step arena. Executors hold an `Arc` clone as their snapshot
    /// (construction never copies steps, so short jobs start cheap);
    /// appends go through `Arc::make_mut`, which only copies while an
    /// older snapshot is still alive, i.e. never on a fully warm run where
    /// nothing records.
    paths: Arc<Vec<ReplayStep>>,
    /// Requests begun in replay mode (memo hits), across all executors.
    replayed: u64,
    /// Requests whose recording was finalized into a memo table.
    recorded: u64,
    /// Requests stepped live (cold keys), recorded or not.
    live: u64,
}

/// Snapshot of a program's warm-path accounting (see
/// [`CompiledProgram::memo_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Memoized request paths in the bank.
    pub tables: usize,
    /// Total replay steps (`ReplayStep`s) in the bank arena.
    pub steps: usize,
    /// Requests begun in replay mode (memo hits).
    pub replayed: u64,
    /// Requests whose recording was finalized into a new memo table.
    pub recorded: u64,
    /// Requests stepped live (cold keys).
    pub live: u64,
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

impl CompiledProgram {
    /// Translates a program in one pass over its basic blocks.
    pub fn compile(program: &Program) -> CompiledProgram {
        let bbs = program.bbs();
        let n = bbs.len();
        // Block ids travel through u32 tables (and memoized replay steps).
        assert!(n < (1 << 31) as usize, "block id space exceeds 31 bits");
        let mut cp = CompiledProgram {
            pc_table: Vec::new(),
            desc: Vec::with_capacity(n),
            base: bbs.iter().map(|bb| bb.base.raw()).collect(),
            spans: Vec::new(),
            choices: Vec::new(),
            request_entries: Vec::new(),
            request_cdf: Vec::new(),
            os_entries: Vec::new(),
            os_interleave: 0.0,
            flavors_per_request: 1,
            bank: Mutex::new(PathBank::default()),
        };
        // First pass: resolve every block's own terminator.
        for (i, bb) in bbs.iter().enumerate() {
            let ret_base = cp.base.get(i + 1).copied().unwrap_or(0);
            let (op, target, target_base, aux) = match &bb.term {
                Term::FallThrough => (Op::FallThrough, i as u32 + 1, 0, 0),
                Term::Cond { target, taken_prob } => {
                    let t_base = cp.base[*target as usize];
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
                Term::Jump { target } => (Op::Jump, *target, cp.base[*target as usize], 0),
                Term::Call { callee } => (Op::Call, *callee, cp.base[*callee as usize], ret_base),
                Term::IndirectCall { choices } => {
                    (Op::IndirectCall, cp.push_choices(choices), 0, ret_base)
                }
                Term::IndirectJump { choices } => {
                    (Op::IndirectJump, cp.push_choices(choices), 0, 0)
                }
                Term::Return => (Op::Return, 0, 0, 0),
            };
            cp.desc.push(BlockDesc {
                term_pc: bb.term_pc().raw(),
                target_base,
                aux,
                start: 0,
                end: 0,
                site: i as u32,
                target,
                op,
            });
        }

        // Second pass: flatten fall-through chains into contiguous pc runs
        // and stamp every member block with its chain's terminator.
        let mut head = 0;
        while head < n {
            let mut j = head;
            loop {
                cp.desc[j].start = cp.pc_table.len() as u32;
                let base = cp.base[j];
                for k in 0..bbs[j].plain as u64 {
                    cp.pc_table.push(base + k * INSTR_BYTES as u64);
                }
                if cp.desc[j].op != Op::FallThrough {
                    break;
                }
                j += 1;
                assert!(j < n, "program ends in a fall-through chain");
            }
            let end = cp.pc_table.len() as u32;
            let term = cp.desc[j];
            for d in &mut cp.desc[head..=j] {
                d.end = end;
                d.site = term.site;
                d.op = term.op;
                d.term_pc = term.term_pc;
                d.target = term.target;
                d.target_base = term.target_base;
                d.aux = term.aux;
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

    fn push_choices(&mut self, choices: &[(u32, f32)]) -> u32 {
        let start = self.choices.len() as u32;
        // Summed in the same iteration order as the reference's
        // `choices.iter().map(|&(_, w)| w).sum::<f32>()`.
        let mut total = 0.0f32;
        for &(t, w) in choices {
            self.choices.push(Choice {
                base: self.base[t as usize],
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
            last_base: self.base[last_target as usize],
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

    /// Current warm-path accounting across every executor this translation
    /// has served.
    pub fn memo_stats(&self) -> MemoStats {
        let bank = self.bank.lock().expect("path bank poisoned");
        MemoStats {
            tables: bank.map.len(),
            steps: bank.paths.len(),
            replayed: bank.replayed,
            recorded: bank.recorded,
            live: bank.live,
        }
    }

    /// Merges an executor's newly recorded paths and its request counters
    /// into the bank (called on executor drop). Keys already present are
    /// skipped — concurrent recorders produce byte-identical paths for
    /// the same key, so first-in wins loses nothing.
    fn absorb(&self, ex: &CompiledExecutor<'_>) {
        let recorded_new = !ex.fresh.is_empty();
        if !recorded_new && ex.stat_replayed == 0 && ex.stat_live == 0 {
            return;
        }
        let mut guard = self.bank.lock().expect("path bank poisoned");
        let bank = &mut *guard;
        bank.replayed += ex.stat_replayed;
        bank.recorded += ex.stat_recorded;
        bank.live += ex.stat_live;
        if !recorded_new {
            return;
        }
        let arena = Arc::make_mut(&mut bank.paths);
        for (&key, &p) in &ex.memo {
            if p.start < ex.snapshot_len || bank.map.contains_key(&key) {
                continue;
            }
            let (a, b) = (p.start - ex.snapshot_len, p.end - ex.snapshot_len);
            let start = arena.len() as u32;
            arena.extend_from_slice(&ex.fresh[a as usize..b as usize]);
            let end = arena.len() as u32;
            bank.map.insert(key, PathRef { start, end });
        }
    }
}

/// Streaming executor over a [`CompiledProgram`]; the fast-path counterpart
/// of [`Executor`], bit-identical to it record for record.
///
/// Beyond the pull-based [`CompiledExecutor::next_record`], the batch entry
/// point [`CompiledExecutor::for_each_record`] emits whole plain runs by
/// iterating `pc_table` slices — that internal iteration is where the
/// throughput win over the reference executor comes from.
#[derive(Clone, Debug)]
pub struct CompiledExecutor<'c> {
    cp: &'c CompiledProgram,
    /// Next `pc_table` index of the current run.
    run_idx: u32,
    /// Descriptor of the current chain, copied out on entry so the stepping
    /// loop and terminator read executor-local state.
    cur: BlockDesc,
    rng: DetRng,
    /// Return-address stack of `(block id, block base)` pairs; the base
    /// rides along so returns never touch the per-block tables.
    stack: Vec<(u32, u64)>,
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
    pre_target: u64,
    /// Staged descriptor of the successor chain, loaded at stage time so
    /// the load overlaps the current run's emission instead of serializing
    /// behind the run-exit branch.
    next_cur: BlockDesc,
    /// Memoized request control paths, keyed by `(entry block, flavor)`.
    ///
    /// No RNG draw happens between two `schedule_next` calls — every
    /// branch outcome inside a request is a pure site mix over the
    /// request's flavor, the loop counters start empty, and the return
    /// stack starts empty — so a request's whole record stream is a pure
    /// function of its key. The first execution records one
    /// [`ReplayStep`] per branch into the shared `paths` arena; later
    /// executions replay the steps with no mixing, no weighted picks,
    /// and no per-op dispatch. Each step carries the fully resolved
    /// transition — direction, record target, and the successor chain's
    /// run bounds and packed terminator — so replay is a straight-line
    /// scan of one contiguous array: no random access back into `desc`
    /// or `base`, no data-dependent target selection, and the hardware
    /// prefetcher sees a sequential address stream.
    memo: HashMap<(u32, u64), PathRef, BuildPathHasher>,
    /// The shared bank arena as of construction — an `Arc` clone, never a
    /// step copy, so executor construction stays O(map) even when the
    /// warm bank holds hundreds of thousands of steps. A [`PathRef`] below
    /// `snapshot_len` indexes this arena.
    snapshot: Arc<Vec<ReplayStep>>,
    /// Local arena for paths this executor records; a [`PathRef`] at or
    /// above `snapshot_len` indexes it at `start - snapshot_len`. Paths
    /// never straddle the two arenas, so replay still walks one
    /// contiguous slice.
    fresh: Vec<ReplayStep>,
    /// Control-path recording for the in-flight request, when its key is
    /// cold and the budget allows.
    recording: Option<Vec<ReplayStep>>,
    /// Key of the in-flight request (its flavor is overwritten by the
    /// next `schedule_next` before the recording is finalized).
    req_key: (u32, u64),
    /// Replay cursor: next index in `paths`, or `u32::MAX` when live.
    replay_pos: u32,
    /// One past the active replay path's last `paths` index.
    replay_end: u32,
    /// A replayed branch outcome is staged in `pre_*`/`next_cur`.
    ///
    /// Replay stages one branch ahead (see `replay_stage`) for the same
    /// reason live stepping does: the successor-descriptor load issues a
    /// whole slice emission before its use, instead of serializing
    /// `stored word -> desc -> pc run` behind the run-exit branch.
    replay_staged: bool,
    /// Write-only scratch: staging reads the next chain's first fetch
    /// address into it, pulling that `pc_table` line into L1 a whole
    /// slice emission before the run walks it (chains enter `pc_table`
    /// at data-dependent offsets the hardware prefetcher cannot guess).
    prefetch: u64,
    /// Call depth accumulated by the replay path (the real stack is not
    /// maintained during replay; depth returns to zero by the end of
    /// every request).
    replay_depth: u32,
    /// `snapshot` length: [`PathRef`]s below it index the shared
    /// snapshot, those at or above it index `fresh` (rebased); only the
    /// latter are merged back on drop.
    snapshot_len: u32,
    /// Recycled recording buffer: recording a request reuses one
    /// allocation for the whole executor lifetime instead of paying an
    /// alloc/free per cold request.
    spare: Vec<ReplayStep>,
    /// Requests begun in replay mode.
    stat_replayed: u64,
    /// Requests whose recording was finalized into the memo.
    stat_recorded: u64,
    /// Requests stepped live.
    stat_live: u64,
}

/// `paths`-arena slice of one memoized request's control path.
#[derive(Clone, Copy, Debug)]
struct PathRef {
    start: u32,
    end: u32,
}

/// One memoized chain transition: everything the replay loop needs to
/// emit the current chain's branch record and advance into its successor,
/// resolved at record time.
///
/// The fat 28-byte step trades arena bytes for loop shape: the earlier
/// compact form (successor id + taken bit in one word) made every warm
/// chain transition a bounds-checked random access into the per-block
/// tables plus a data-dependent target select, which dominated the
/// replay loop's critical path. Storing the resolved transition turns
/// all of that into one sequential load; the arena stays bounded by
/// [`MEMO_STEPS`] (~2 MB), and per-flavor cold footprint only matters
/// until the step line is in cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ReplayStep {
    /// This chain's terminator fetch address in the low 48 bits with its
    /// [`Op`] discriminant in the top byte (see [`TERM_PC_MASK`]).
    term_word: u64,
    /// Resolved record target of this chain's branch, with the taken bit
    /// above the 48-bit address (see [`STEP_TAKEN`]).
    target_taken: u64,
    /// Successor chain's first `pc_table` index.
    start: u32,
    /// One past the successor chain's last `pc_table` index.
    end: u32,
    /// Successor block id (rebuilds full descriptor state at loop exit).
    next: u32,
}

/// Taken-bit flag in a [`ReplayStep::target_taken`].
const STEP_TAKEN: u64 = 1 << 63;
/// Sentinel for `replay_pos`: no replay active.
const NO_REPLAY: u32 = u32::MAX;

/// Hasher for the request-path memo: one multiply-fold over the key halves.
///
/// The memo lookup runs once per request begin; SipHash on the 12-byte key
/// is a measurable slice of that. Hash quality only affects bucket spread
/// (the map stores and compares full keys), so a multiplicative fold is
/// safe — and the key space per executor is a few hundred entries.
#[derive(Clone, Copy, Debug, Default)]
struct PathHasher(u64);

/// `BuildHasher` for [`PathHasher`].
#[derive(Clone, Copy, Debug, Default)]
struct BuildPathHasher;

impl std::hash::Hasher for PathHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("path keys hash via write_u32/write_u64 only");
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Fibonacci-style multiply-xor fold (cf. FxHash).
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::hash::BuildHasher for BuildPathHasher {
    type Hasher = PathHasher;
    #[inline]
    fn build_hasher(&self) -> PathHasher {
        PathHasher(0)
    }
}

impl<'c> CompiledExecutor<'c> {
    /// Creates a compiled executor with a dedicated dynamic-behaviour seed.
    ///
    /// The executor starts from a snapshot of the program's shared path
    /// bank, so requests whose keys any earlier executor converged replay
    /// from record zero; paths are seed-independent, so the snapshot is
    /// valid under any seed.
    pub fn new(cp: &'c CompiledProgram, seed: u64) -> CompiledExecutor<'c> {
        let (memo, snapshot) = {
            let bank = cp.bank.lock().expect("path bank poisoned");
            (bank.map.clone(), Arc::clone(&bank.paths))
        };
        // Mirrors `Executor::new` draw for draw.
        let mut rng = DetRng::seed_from(seed ^ 0xE8EC_u64.rotate_left(32));
        let mut ex = CompiledExecutor {
            cp,
            run_idx: 0,
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
            snapshot_len: snapshot.len() as u32,
            memo,
            snapshot,
            fresh: Vec::new(),
            recording: None,
            req_key: (0, 0),
            replay_pos: NO_REPLAY,
            replay_end: 0,
            replay_staged: false,
            prefetch: 0,
            replay_depth: 0,
            spare: Vec::new(),
            stat_replayed: 0,
            stat_recorded: 0,
            stat_live: 0,
        };
        let first = ex.schedule_next();
        ex.begin_request(first);
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
        self.stack.len() + self.replay_depth as usize
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
        self.run_idx = self.cur.start;
        self.stage();
    }

    /// Transfers into the successor chain staged by the last
    /// [`CompiledExecutor::stage`] call.
    #[inline]
    fn advance(&mut self) {
        self.cur = self.next_cur;
        self.run_idx = self.cur.start;
        self.stage();
    }

    /// Starts a request at `entry`: replays its memoized control path if
    /// this `(entry, flavor)` was seen before, otherwise steps it live
    /// (recording the path when the memo budget allows).
    fn begin_request(&mut self, entry: u32) {
        let key = (entry, self.flavor);
        if let Some(&path) = self.memo.get(&key) {
            self.stat_replayed += 1;
            self.replay_pos = path.start;
            self.replay_end = path.end;
            self.cur = self.cp.desc[entry as usize];
            self.run_idx = self.cur.start;
            // Stage the first stored branch (no mixing: replayed
            // terminators come from the stored path).
            self.replay_stage();
        } else {
            self.stat_live += 1;
            if self.snapshot_len as usize + self.fresh.len() < MEMO_STEPS {
                let mut buf = std::mem::take(&mut self.spare);
                buf.clear();
                self.recording = Some(buf);
                self.req_key = key;
            }
            self.enter(entry);
        }
    }

    /// Stages the current chain's terminator from the memoized control
    /// path: direction, record target, and successor were all resolved
    /// when the step was recorded. Clears `replay_staged` when the stored
    /// path is exhausted — the chain then ends in the request's top-level
    /// return, which executes live.
    /// The arena slice `[a, b)` of one memoized path. A path lives
    /// entirely in one arena (recordings never straddle the snapshot
    /// boundary), so the split costs one predictable branch per replay
    /// session, not per step.
    #[inline]
    fn path_slice(&self, a: u32, b: u32) -> &[ReplayStep] {
        if a < self.snapshot_len {
            &self.snapshot[a as usize..b as usize]
        } else {
            let off = self.snapshot_len;
            &self.fresh[(a - off) as usize..(b - off) as usize]
        }
    }

    #[inline]
    fn replay_stage(&mut self) {
        if self.replay_pos < self.replay_end {
            let step = self.path_slice(self.replay_pos, self.replay_end)[0];
            self.replay_pos += 1;
            self.pre_taken = step.target_taken & STEP_TAKEN != 0;
            self.pre_target = step.target_taken & TERM_PC_MASK;
            self.pre_next = step.next;
            self.next_cur = self.cp.desc[step.next as usize];
            self.prefetch = self
                .cp
                .pc_table
                .get(step.start as usize)
                .copied()
                .unwrap_or(0);
            self.replay_staged = true;
        } else {
            self.replay_staged = false;
        }
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
                        self.pre_target = self.cp.base[next as usize];
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
    fn pick(&self, site: u32, span_idx: u32) -> (u32, u64) {
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

        // Replay fast path: the branch outcome was staged ahead from the
        // memoized control path — no mixing, no per-op side effects (only
        // the externally visible call depth is tracked).
        if self.replay_staged {
            return self.replay_terminate();
        }
        if self.replay_pos != NO_REPLAY {
            // Path exhausted: the current chain ends in the request's
            // top-level return. Drop back to live stepping for it.
            self.replay_pos = NO_REPLAY;
            debug_assert_eq!(self.replay_depth, 0, "replayed request left calls open");
            self.stage();
        }

        let taken = self.pre_taken;
        let target = self.pre_target;
        let mut request_end = false;
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
            Op::Call | Op::IndirectCall => self.push_return(d.site + 1, d.aux),
            Op::Return => {
                if self.stack.pop().is_none() {
                    // The replacement routine was already scheduled at
                    // stage time (same RNG order); only the observable
                    // request count lands here.
                    self.requests_completed += 1;
                    request_end = true;
                }
            }
            Op::FallThrough => unreachable!("chains are flattened; no fall-through terminators"),
        }
        if request_end {
            // The final return is not part of the memoized path (its
            // target depends on the next scheduling draw).
            if let Some(mut buf) = self.recording.take() {
                if buf.len() <= MEMO_REQUEST_STEPS {
                    let start = self.snapshot_len + self.fresh.len() as u32;
                    self.fresh.extend_from_slice(&buf);
                    self.memo.insert(
                        self.req_key,
                        PathRef {
                            start,
                            end: self.snapshot_len + self.fresh.len() as u32,
                        },
                    );
                    self.stat_recorded += 1;
                }
                buf.clear();
                self.spare = buf;
            }
            self.begin_request(self.pre_next);
        } else {
            if let Some(buf) = &mut self.recording {
                // `next_cur` is the staged successor descriptor, so the
                // step stores the transition fully resolved: the live
                // `pre_target` already is the landed base for indirects
                // and returns and the would-be target otherwise, exactly
                // what replay must re-emit.
                let nd = self.next_cur;
                buf.push(ReplayStep {
                    term_word: d.term_pc | ((d.op as u64) << 56),
                    target_taken: target | ((taken as u64) << 63),
                    start: nd.start,
                    end: nd.end,
                    next: self.pre_next,
                });
            }
            self.advance();
        }
        self.instr_count += 1;
        TraceRecord::branch(
            VAddr::new(d.term_pc),
            d.op.kind(),
            taken,
            VAddr::new(target),
        )
    }

    /// Emits the staged replay branch and stages the next one. Callers
    /// must have checked `replay_staged`.
    #[inline(always)]
    fn replay_terminate(&mut self) -> TraceRecord {
        let d = self.cur;
        let taken = self.pre_taken;
        let target = self.pre_target;
        self.replay_depth = (self.replay_depth as i32 + d.op.depth_delta() as i32) as u32;
        self.cur = self.next_cur;
        self.run_idx = self.cur.start;
        self.replay_stage();
        self.instr_count += 1;
        TraceRecord::branch(
            VAddr::new(d.term_pc),
            d.op.kind(),
            taken,
            VAddr::new(target),
        )
    }

    #[inline]
    fn push_return(&mut self, ret_bb: u32, ret_base: u64) {
        debug_assert!(self.stack.len() < STACK_GUARD, "runaway call depth");
        self.stack.push((ret_bb, ret_base));
    }

    /// Produces the next committed instruction.
    #[inline]
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        if self.run_idx < self.cur.end {
            let pc = self.cp.pc_table[self.run_idx as usize];
            self.run_idx += 1;
            self.instr_count += 1;
            return Some(TraceRecord::plain(VAddr::new(pc)));
        }
        Some(self.terminate())
    }

    /// Emits the next `n` records through `f` (batch stepping).
    ///
    /// Plain runs are emitted by iterating the chain's contiguous
    /// `pc_table` slice — one bounds check per run, no per-instruction
    /// state — which is what buys the fast path its throughput; the
    /// records and executor state are identical to `n` calls of
    /// [`CompiledExecutor::next_record`].
    #[inline]
    pub fn for_each_record(&mut self, n: u64, mut f: impl FnMut(TraceRecord)) {
        let mut left = n;
        while left > 0 {
            // Replay fast loop: while whole staged chains (run + branch)
            // fit in the remaining budget, emit them back to back with no
            // per-chain mode dispatch — this is the warm steady state.
            // Cursor and chain state live in locals for the duration: the
            // executor struct is too big to stay register-resident, and
            // with field-based stepping every chain transition round-trips
            // ~100 bytes of state through the stack (measured as roughly
            // half the per-chain cost).
            if self.replay_staged {
                let cp = self.cp;
                // Stored steps are walked through a slice iterator (no
                // per-chain bounds check), and every transition is one
                // sequential [`ReplayStep`] load carrying the chain's
                // branch outcome *and* the successor's run bounds — the
                // loop never random-accesses the per-block tables and
                // stages nothing across iterations. The iterator starts
                // one step back: the staging that set `replay_staged`
                // consumed the current chain's step, and the loop re-reads
                // it in stream order instead of carrying six staged
                // locals. `self.cur` is rebuilt once on exit from the last
                // block id, and the exit `replay_stage` call re-stages the
                // pull-path lookahead.
                let mut path = self.path_slice(self.replay_pos - 1, self.replay_end).iter();
                let mut run_idx = self.run_idx;
                let mut run_end = self.cur.end;
                let mut cur_id = NO_REPLAY;
                let mut depth = self.replay_depth;
                let entry_left = left;
                loop {
                    let avail = (run_end - run_idx) as u64;
                    if avail >= left {
                        break; // partial run; the generic loop handles it
                    }
                    // Plain runs average a handful of instructions, so the
                    // emission loop is hand-unrolled by four (bounds checks
                    // hoisted by `chunks_exact`): a rolled loop costs more
                    // in per-record loop overhead than in record payload.
                    let run = &cp.pc_table[run_idx as usize..(run_idx + avail as u32) as usize];
                    let mut quads = run.chunks_exact(4);
                    for q in quads.by_ref() {
                        f(TraceRecord::plain(VAddr::new(q[0])));
                        f(TraceRecord::plain(VAddr::new(q[1])));
                        f(TraceRecord::plain(VAddr::new(q[2])));
                        f(TraceRecord::plain(VAddr::new(q[3])));
                    }
                    for &pc in quads.remainder() {
                        f(TraceRecord::plain(VAddr::new(pc)));
                    }
                    let Some(step) = path.next() else {
                        // Stored path exhausted: the run just emitted was
                        // the tail chain's; its top-level return executes
                        // live (same protocol as `replay_stage` running
                        // dry).
                        run_idx += avail as u32;
                        left -= avail;
                        break;
                    };
                    let opx = (step.term_word >> 56) as usize & 7;
                    f(TraceRecord::branch(
                        VAddr::new(step.term_word & TERM_PC_MASK),
                        KIND_BY_OP[opx],
                        step.target_taken & STEP_TAKEN != 0,
                        VAddr::new(step.target_taken & TERM_PC_MASK),
                    ));
                    depth = (depth as i32 + DEPTH_BY_OP[opx] as i32) as u32;
                    cur_id = step.next;
                    run_idx = step.start;
                    run_end = step.end;
                    left -= avail + 1;
                }
                let pos = self.replay_end - path.len() as u32;
                if cur_id != NO_REPLAY {
                    self.cur = cp.desc[cur_id as usize];
                }
                self.run_idx = run_idx;
                self.replay_pos = pos;
                self.replay_depth = depth;
                self.instr_count += entry_left - left;
                // Restore the one-step-ahead staging invariant the pull
                // path relies on (clears `replay_staged` when dry).
                self.replay_stage();
            }
            if left == 0 {
                return;
            }
            let avail = (self.cur.end - self.run_idx) as u64;
            if avail > 0 {
                let run = avail.min(left);
                let start = self.run_idx as usize;
                for &pc in &self.cp.pc_table[start..start + run as usize] {
                    f(TraceRecord::plain(VAddr::new(pc)));
                }
                self.run_idx += run as u32;
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

    /// Appends the next `n` records to `out`.
    pub fn fill_records(&mut self, out: &mut Vec<TraceRecord>, n: usize) {
        out.reserve(n);
        self.for_each_record(n as u64, |r| out.push(r));
    }
}

impl Iterator for CompiledExecutor<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }
}

impl Drop for CompiledExecutor<'_> {
    /// Contributes newly recorded paths and request counters back to the
    /// program's shared bank, so the next executor — any job, core, or
    /// shard over this translation — starts where this one left off.
    fn drop(&mut self) {
        let cp = self.cp;
        // Release this executor's claim on the shared arena first: absorb
        // appends through `Arc::make_mut`, and our own snapshot must not
        // be what forces it to copy.
        self.snapshot = Arc::default();
        cp.absorb(self);
    }
}

/// A record stream through either execution path, selected by [`ExecMode`].
///
/// Consumers that must support the `--no-fastpath` escape hatch hold one of
/// these instead of a concrete executor; both variants yield bit-identical
/// streams for the same `(program, seed)`.
// The size skew (the compiled executor carries its memo map and staging
// state inline) is deliberate: streams are created once per core per job
// and then stepped millions of times, so boxing the hot variant would
// trade a one-time stack copy for an indirection on every record pull.
#[allow(clippy::large_enum_variant)]
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

    #[test]
    fn warm_bank_is_shared_across_executors() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let cp = p.compiled();
        {
            let mut ex = cp.executor(5);
            ex.for_each_record(80_000, |_| {});
        }
        let cold = cp.memo_stats();
        assert!(cold.recorded > 0, "first executor records");
        // The second executor replays the first one's paths and still
        // matches the reference executor record for record.
        assert_streams_equal(&p, 5, 80_000);
        let warm = cp.memo_stats();
        assert_eq!(
            warm.recorded, cold.recorded,
            "an identical second executor replays instead of re-recording"
        );
        assert!(warm.replayed > cold.replayed);
    }
}
