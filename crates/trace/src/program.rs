//! Synthetic server program model and generator.
//!
//! A [`Program`] is a statically laid-out control-flow graph shaped like the
//! server software the paper characterizes: a deep stack of service layers,
//! multiple request types with partially overlapping code paths, shared
//! library/OS code, cold error paths guarded by rarely-taken conditionals,
//! and a branch mix calibrated to Table 2 of the paper.
//!
//! Programs are generated deterministically from a [`WorkloadSpec`] and its
//! `structure_seed`: the same spec always produces the identical program,
//! byte for byte, so simulation results are reproducible.

use std::sync::{Arc, OnceLock};

use confluence_types::{
    BlockAddr, BranchKind, ConfigError, DetRng, PredecodeSource, PredecodedBranch, VAddr,
    BLOCK_BYTES, INSTR_BYTES,
};

use crate::compile::CompiledProgram;
use crate::spec::WorkloadSpec;

/// Base virtual address where generated code is laid out.
const CODE_BASE: u64 = 0x4000_0000;
/// Cap on plain (non-branch) instructions per basic block.
const MAX_PLAIN: usize = 14;
/// Fraction of each pool's functions that are cold (error/slow paths).
const COLD_FRAC: f64 = 0.35;
/// Fraction of functions dedicated to OS/runtime service routines.
const OS_FRAC: f64 = 0.10;

/// Basic-block terminator, with targets pre-resolved to basic-block indices.
#[derive(Clone, Debug)]
pub(crate) enum Term {
    /// Conditional direct branch; falls through to the next block when not
    /// taken. `taken_prob` drives the executor's outcome draw.
    Cond { target: u32, taken_prob: f64 },
    /// Unconditional direct jump.
    Jump { target: u32 },
    /// Direct call; the return address is the next basic block.
    Call { callee: u32 },
    /// Indirect call through a function pointer / vtable.
    IndirectCall { choices: Box<[(u32, f32)]> },
    /// Indirect jump (switch dispatch) within the function.
    IndirectJump { choices: Box<[(u32, f32)]> },
    /// Return to the caller.
    Return,
    /// No branch: execution continues into the next basic block.
    FallThrough,
}

impl Term {
    /// Branch kind of the terminator, or `None` for fall-through.
    pub(crate) fn kind(&self) -> Option<BranchKind> {
        match self {
            Term::Cond { .. } => Some(BranchKind::Conditional),
            Term::Jump { .. } => Some(BranchKind::Unconditional),
            Term::Call { .. } => Some(BranchKind::Call),
            Term::IndirectCall { .. } => Some(BranchKind::IndirectCall),
            Term::IndirectJump { .. } => Some(BranchKind::IndirectJump),
            Term::Return => Some(BranchKind::Return),
            Term::FallThrough => None,
        }
    }
}

/// One basic block: `plain` non-branch instructions followed by an optional
/// terminating branch.
#[derive(Clone, Debug)]
pub(crate) struct Bb {
    /// Address of the first instruction.
    pub base: VAddr,
    /// Number of non-branch instructions before the terminator.
    pub plain: u8,
    /// Terminator.
    pub term: Term,
}

impl Bb {
    /// Total instruction count of the block (including the terminator).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.plain as usize
            + if matches!(self.term, Term::FallThrough) {
                0
            } else {
                1
            }
    }

    /// Address of the terminating branch instruction.
    ///
    /// Only meaningful when the block has a terminator.
    pub(crate) fn term_pc(&self) -> VAddr {
        self.base.add_instrs(self.plain as usize)
    }
}

/// Summary statistics of a generated program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total instruction bytes laid out.
    pub code_bytes: usize,
    /// Number of functions.
    pub functions: usize,
    /// Number of basic blocks.
    pub basic_blocks: usize,
    /// Number of static branch instructions.
    pub static_branches: usize,
    /// Number of 64-byte instruction blocks containing code.
    pub code_blocks: usize,
}

/// A generated synthetic server program.
///
/// `Program` is immutable once generated; executors borrow it (cheaply
/// shareable across the 16 simulated cores via `Arc`).
///
/// # Example
///
/// ```
/// use confluence_trace::{Program, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Program::generate(&WorkloadSpec::tiny())?;
/// assert!(program.stats().functions > 10);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    spec: WorkloadSpec,
    bbs: Vec<Bb>,
    /// Entry basic block of each request type, with popularity weights.
    request_entries: Vec<(u32, f64)>,
    /// Entry basic blocks of OS service routines (uniform weights).
    os_entries: Vec<u32>,
    /// Predecode oracle: every static branch, in address order.
    predecode: Vec<PredecodedBranch>,
    /// `predecode_start[i]..predecode_start[i + 1]` is the slice of
    /// `predecode` in the `i`-th code block; one entry per code block plus
    /// a final end offset.
    predecode_start: Vec<u32>,
    stats: ProgramStats,
    /// Lazily translated fast-path form (see [`Program::compiled`]).
    compiled: OnceLock<Arc<CompiledProgram>>,
}

impl Program {
    /// Generates a program from a workload specification.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec fails [`WorkloadSpec::validate`].
    pub fn generate(spec: &WorkloadSpec) -> Result<Program, ConfigError> {
        spec.validate()?;
        let mut rng = DetRng::seed_from(spec.structure_seed);
        Ok(Builder::new(spec.clone(), &mut rng).build())
    }

    /// The specification this program was generated from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Summary statistics of the static program.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }

    /// True if the given 64-byte block holds generated code.
    pub fn block_has_code(&self, block: BlockAddr) -> bool {
        let base = CODE_BASE >> 6;
        let end = (CODE_BASE as usize + self.stats.code_bytes).div_ceil(64) as u64;
        (base..end).contains(&block.raw())
    }

    pub(crate) fn bbs(&self) -> &[Bb] {
        &self.bbs
    }

    pub(crate) fn request_entries(&self) -> &[(u32, f64)] {
        &self.request_entries
    }

    pub(crate) fn os_entries(&self) -> &[u32] {
        &self.os_entries
    }

    pub(crate) fn compiled_cache(&self) -> &OnceLock<Arc<CompiledProgram>> {
        &self.compiled
    }
}

impl PredecodeSource for Program {
    fn branches_in_block(&self, block: BlockAddr) -> &[PredecodedBranch] {
        // Blocks below the code range wrap to an index past its end.
        let i = block.raw().wrapping_sub(CODE_BASE / BLOCK_BYTES as u64);
        if i >= (self.predecode_start.len() - 1) as u64 {
            return &[];
        }
        let i = i as usize;
        let (start, end) = (self.predecode_start[i], self.predecode_start[i + 1]);
        &self.predecode[start as usize..end as usize]
    }
}

/// Per-layer function pools built during generation.
#[derive(Clone)]
struct LayerPools {
    /// `pools[r]` = hot entry bbs of request type `r`'s functions.
    request: Vec<Vec<u32>>,
    /// Shared (library) function entries.
    shared: Vec<u32>,
    /// Cold function entries (error/slow paths).
    cold: Vec<u32>,
    /// OS routine entries.
    os: Vec<u32>,
}

struct Builder {
    spec: WorkloadSpec,
    rng: DetRng,
    bbs: Vec<Bb>,
    cursor: u64,
    request_entries: Vec<(u32, f64)>,
    os_entries: Vec<u32>,
}

impl Builder {
    fn new(spec: WorkloadSpec, rng: &mut DetRng) -> Builder {
        Builder {
            spec,
            rng: rng.fork(0xB11D),
            bbs: Vec::new(),
            cursor: CODE_BASE,
            request_entries: Vec::new(),
            os_entries: Vec::new(),
        }
    }

    fn build(mut self) -> Program {
        let spec = self.spec.clone();
        let total_funcs = self.estimate_function_count();
        let os_funcs = ((total_funcs as f64 * OS_FRAC) as usize).max(spec.layers);
        let app_funcs = total_funcs - os_funcs;
        let funcs_per_layer = (app_funcs / spec.layers).max(spec.request_types + 2);

        // Generate from the deepest (leaf) layer up so call targets exist
        // before their callers are generated.
        let mut below: Option<LayerPools> = None;
        let mut layer_pools: Vec<LayerPools> = Vec::with_capacity(spec.layers);
        for layer in (0..spec.layers).rev() {
            // OS service routines are entered from the top of the stack only.
            let os_here = if layer == 0 { os_funcs } else { 0 };
            let pools = self.generate_layer(layer, funcs_per_layer, os_here, below.as_ref());
            below = Some(pools.clone());
            layer_pools.push(pools);
        }
        layer_pools.reverse();

        // Request entries live in layer 0's per-request pools.
        let top = &layer_pools[0];
        let mut entries = Vec::with_capacity(spec.request_types);
        for (r, pool) in top.request.iter().enumerate() {
            let entry = pool[0];
            let weight = 1.0 / ((r + 1) as f64).powf(spec.request_zipf);
            entries.push((entry, weight));
        }
        self.request_entries = entries;
        self.os_entries = top.os.clone();

        let code_blocks = predecode_block_span(CODE_BASE, self.cursor);
        let (predecode, predecode_start) = self.build_predecode(code_blocks);
        let stats = ProgramStats {
            code_bytes: (self.cursor - CODE_BASE) as usize,
            functions: total_funcs,
            basic_blocks: self.bbs.len(),
            static_branches: self
                .bbs
                .iter()
                .filter(|b| !matches!(b.term, Term::FallThrough))
                .count(),
            code_blocks,
        };

        Program {
            spec,
            bbs: self.bbs,
            request_entries: self.request_entries,
            os_entries: self.os_entries,
            predecode,
            predecode_start,
            stats,
            compiled: OnceLock::new(),
        }
    }

    fn estimate_function_count(&self) -> usize {
        let mix = &self.spec.term_mix;
        let mean_bbs = (self.spec.bb_per_func.0 + self.spec.bb_per_func.1) as f64 / 2.0;
        // Every non-fallthrough terminator adds one branch instruction.
        let mean_len = self.spec.plain_len_mean + (1.0 - mix.fallthrough);
        // Cold-excursion stubs add ~2 tiny blocks per cold call site.
        let stub_overhead = 1.0 + 2.0 * self.spec.cold_call_prob * mix.call / 4.0;
        let bytes_per_func = mean_bbs * mean_len * INSTR_BYTES as f64 * stub_overhead;
        ((self.spec.target_code_kb * 1024) as f64 / bytes_per_func).max(16.0) as usize
    }

    /// Generates all functions of one layer and returns its pools.
    fn generate_layer(
        &mut self,
        layer: usize,
        funcs: usize,
        os_funcs: usize,
        below: Option<&LayerPools>,
    ) -> LayerPools {
        let spec = self.spec.clone();
        let shared_n = ((funcs as f64 * spec.shared_frac) as usize).max(1);
        let cold_n = ((funcs as f64 * COLD_FRAC * 0.5) as usize).max(1);
        let hot_n = funcs
            .saturating_sub(shared_n + cold_n)
            .max(spec.request_types);
        let per_request = (hot_n / spec.request_types).max(1);

        let mut pools = LayerPools {
            request: Vec::with_capacity(spec.request_types),
            shared: Vec::new(),
            cold: Vec::new(),
            os: Vec::new(),
        };

        for r in 0..spec.request_types {
            let mut pool = Vec::with_capacity(per_request);
            for f in 0..per_request {
                // The first function of each layer-0 pool is the request
                // handler: a call-rich spine walking the service stack.
                if layer == 0 && f == 0 {
                    pool.push(self.generate_handler(below, Some(r)));
                } else {
                    pool.push(self.generate_function(layer, below, Some(r), false));
                }
            }
            pools.request.push(pool);
        }
        for _ in 0..shared_n {
            let f = self.generate_function(layer, below, None, false);
            pools.shared.push(f);
        }
        for _ in 0..cold_n {
            let f = self.generate_function(layer, below, None, true);
            pools.cold.push(f);
        }
        for _ in 0..os_funcs {
            let f = self.generate_handler(below, None);
            pools.os.push(f);
        }
        pools
    }

    /// Generates a top-level request handler: a spine of mandatory calls
    /// into the next service layer, interleaved with light control flow.
    /// Handlers guarantee that every request actually walks the service
    /// stack (a handler that returns immediately would make most requests
    /// degenerate).
    fn generate_handler(&mut self, below: Option<&LayerPools>, request: Option<usize>) -> u32 {
        let spec = self.spec.clone();
        let entry = self.bbs.len() as u32;
        let spine = self.rng.range(5, 12) as usize;
        for _ in 0..spine {
            // Optional flavor-dependent conditional detour over the call.
            let plain = self.tight_plain_len(spec.plain_len_mean);
            match self.pick_callee(below, request) {
                Some(callee) => self.push_bb(plain, Term::Call { callee }),
                None => self.push_bb(plain.max(1), Term::FallThrough),
            }
            // A light conditional between calls keeps branch density
            // realistic; it skips at most the next spine block.
            if self.rng.chance(0.5) {
                let next = self.bbs.len() as u32 + 1;
                let taken_prob = if self.rng.chance(spec.taken_bias_frac) {
                    spec.strong_bias
                } else {
                    1.0 - spec.strong_bias
                };
                let cond_plain = self.tight_plain_len(2.0);
                self.push_bb(
                    cond_plain,
                    Term::Cond {
                        target: next,
                        taken_prob,
                    },
                );
            }
        }
        self.push_bb(1, Term::Return);
        self.cursor = (self.cursor + 63) & !63;
        entry
    }

    /// Generates one function; returns the entry basic-block index.
    fn generate_function(
        &mut self,
        layer: usize,
        below: Option<&LayerPools>,
        request: Option<usize>,
        cold: bool,
    ) -> u32 {
        let spec = self.spec.clone();
        // Deeper service layers are leaf-ward utilities with fewer call
        // sites. Without this damping the call tree's branching factor
        // exceeds 1 and request sizes explode into the millions of
        // instructions, destroying request-level recurrence.
        let depth_frac = layer as f64 / (spec.layers.max(2) - 1) as f64;
        let call_damp = ((0.95 - 0.75 * depth_frac) * spec.call_scale).max(0.10);
        // Cold error/slow-path functions are longer in basic blocks (lots
        // of case handling) though short in bytes (dense branching).
        let (bb_lo, bb_hi) = if cold {
            (spec.bb_per_func.0 * 2, spec.bb_per_func.1 * 2)
        } else {
            spec.bb_per_func
        };
        let n = self.rng.range(bb_lo as u64, bb_hi as u64) as usize;
        let entry = self.bbs.len() as u32;

        // Decide the loop structure up front.
        let has_loop = n >= 4 && self.rng.chance(spec.loop_prob);
        let (loop_head, loop_tail) = if has_loop {
            let head = self.rng.index(n / 2);
            let tail = head + 1 + self.rng.index(n - head - 2).min(n - head - 2);
            (head, tail.min(n - 2).max(head + 1))
        } else {
            (0, 0)
        };

        // Cold excursions discovered while emitting main blocks; stubs are
        // appended after the last block: [call cold_fn][jump back].
        let mut pending_stubs: Vec<(usize, u32)> = Vec::new(); // (resume bb offset, cold callee)

        // Hot code has longer straight-line runs with *tight* length
        // variance (compilers lay hot paths out in regular strides); cold
        // (error/slow-path) code is branch-dense with geometric lengths.
        // This split produces the paper's measured gap between static
        // (~3.5/block) and dynamic (~1.5/block) branch densities (Table 2),
        // which AirBTB's 3-entry bundles rely on: nearly all *hot* blocks
        // hold at most three branches, while the density tail comes from
        // rarely-executed cold code.
        let plain_mean = if cold {
            spec.plain_len_cold
        } else {
            spec.plain_len_mean
        };
        let plain_p = plain_mean / (1.0 + plain_mean);
        let mut term_kinds = Vec::with_capacity(n);
        for i in 0..n {
            if i == n - 1 {
                term_kinds.push(TermChoice::Return);
            } else if has_loop && i == loop_tail {
                term_kinds.push(TermChoice::LoopBack);
            } else {
                term_kinds.push(self.draw_term_choice(call_damp));
            }
        }

        for (i, choice) in term_kinds.iter().enumerate() {
            let plain = if cold {
                self.rng.geometric(plain_p, MAX_PLAIN) as u8
            } else {
                self.tight_plain_len(plain_mean)
            };
            let term = match choice {
                TermChoice::Return => Term::Return,
                TermChoice::LoopBack => Term::Cond {
                    target: entry + loop_head as u32,
                    taken_prob: spec.loop_continue,
                },
                TermChoice::FallThrough => Term::FallThrough,
                TermChoice::Cond => {
                    // Occasionally guard a cold excursion; otherwise a
                    // forward skip with a calibrated bias.
                    if !cold && self.rng.chance(spec.cold_call_prob * 0.6) {
                        if let Some(callee) = self.pick_cold_callee(below) {
                            // Stub pair appended after block n-1; target
                            // index = entry + n + 2*stub_no.
                            let stub_no = pending_stubs.len() as u32;
                            pending_stubs.push((i + 1, callee));
                            Term::Cond {
                                target: entry + n as u32 + 2 * stub_no,
                                taken_prob: 0.05 + self.rng.f64() * 0.15,
                            }
                        } else {
                            self.forward_cond(entry, i, n)
                        }
                    } else {
                        self.forward_cond(entry, i, n)
                    }
                }
                TermChoice::Jump => {
                    let skip = 1 + self.rng.index(3.min(n - i - 1).max(1));
                    Term::Jump {
                        target: entry + ((i + skip).min(n - 1)) as u32,
                    }
                }
                TermChoice::Call => match self.pick_callee(below, request) {
                    Some(callee) => Term::Call { callee },
                    None => Term::FallThrough,
                },
                TermChoice::IndirectCall => match self.pick_indirect_callees(below, request) {
                    Some(choices) => Term::IndirectCall { choices },
                    None => Term::FallThrough,
                },
                TermChoice::IndirectJump => {
                    let fanout = self
                        .rng
                        .range(spec.indirect_fanout.0 as u64, spec.indirect_fanout.1 as u64)
                        as usize;
                    let avail = n - i - 1;
                    if avail < 2 {
                        Term::FallThrough
                    } else {
                        let mut choices = Vec::with_capacity(fanout.min(avail));
                        for k in 0..fanout.min(avail) {
                            let t = entry + (i + 1 + (k % avail)) as u32;
                            let w = 1.0 / (k + 1) as f32;
                            choices.push((t, w));
                        }
                        Term::IndirectJump {
                            choices: choices.into_boxed_slice(),
                        }
                    }
                }
            };
            // A fall-through block must contain at least one instruction.
            let plain = if matches!(term, Term::FallThrough) {
                plain.max(1)
            } else {
                plain
            };
            self.push_bb(plain, term);
        }

        // Emit cold-excursion stubs: [call cold][jump back-to-resume].
        let stubs = pending_stubs.clone();
        for (resume, callee) in stubs {
            self.push_bb(0, Term::Call { callee });
            self.push_bb(
                0,
                Term::Jump {
                    target: entry + resume as u32,
                },
            );
        }

        // Functions start at a fresh 64-byte block boundary (compilers
        // align hot function entries to cache lines). This keeps one
        // function's cold stub cluster from sharing a block with the next
        // function's hot entry branches, which matters for AirBTB bundle
        // pressure.
        self.cursor = (self.cursor + 63) & !63;
        entry
    }

    /// Hot-path block length: `mean` with ±1 jitter, never below 2, so hot
    /// basic blocks keep a regular branch stride.
    fn tight_plain_len(&mut self, mean: f64) -> u8 {
        let base = mean.floor();
        let frac = mean - base;
        let mut len = base as i64 + i64::from(self.rng.chance(frac));
        len += match self.rng.index(4) {
            0 => -1,
            3 => 1,
            _ => 0,
        };
        len.clamp(2, MAX_PLAIN as i64) as u8
    }

    fn forward_cond(&mut self, entry: u32, i: usize, n: usize) -> Term {
        let spec = &self.spec;
        let skip = 1 + self.rng.index(4.min(n - i - 1).max(1));
        let target = entry + ((i + skip).min(n - 1)) as u32;
        let taken_prob = if self.rng.chance(spec.mixed_frac) {
            0.35 + self.rng.f64() * 0.3
        } else if self.rng.chance(spec.taken_bias_frac) {
            spec.strong_bias
        } else {
            1.0 - spec.strong_bias
        };
        Term::Cond { target, taken_prob }
    }

    fn pick_callee(&mut self, below: Option<&LayerPools>, request: Option<usize>) -> Option<u32> {
        let below = below?;
        // Mostly stay on the request's own slice of the next layer; spill
        // into the shared pool otherwise (library code).
        if let Some(r) = request {
            if !below.request.is_empty() && self.rng.chance(0.70) {
                let pool = &below.request[r % below.request.len()];
                if !pool.is_empty() {
                    return Some(pool[self.rng.index(pool.len())]);
                }
            }
        }
        if !below.shared.is_empty() {
            Some(below.shared[self.rng.index(below.shared.len())])
        } else if !below.request.is_empty() {
            let pool = &below.request[self.rng.index(below.request.len())];
            pool.first().copied()
        } else {
            None
        }
    }

    fn pick_cold_callee(&mut self, below: Option<&LayerPools>) -> Option<u32> {
        let below = below?;
        if below.cold.is_empty() {
            return None;
        }
        Some(below.cold[self.rng.index(below.cold.len())])
    }

    fn pick_indirect_callees(
        &mut self,
        below: Option<&LayerPools>,
        request: Option<usize>,
    ) -> Option<Box<[(u32, f32)]>> {
        let below = below?;
        let spec = &self.spec;
        let fanout = self
            .rng
            .range(spec.indirect_fanout.0 as u64, spec.indirect_fanout.1 as u64)
            as usize;
        let mut choices = Vec::with_capacity(fanout);
        for k in 0..fanout {
            let callee = self.pick_callee(Some(below), request)?;
            // Zipf-ish weights: first implementations dominate (hot vtable).
            choices.push((callee, 1.0f32 / (k + 1) as f32));
        }
        Some(choices.into_boxed_slice())
    }

    fn draw_term_choice(&mut self, call_damp: f64) -> TermChoice {
        let m = &self.spec.term_mix;
        // Damped call probability is redistributed to fall-through so the
        // static branch mix stays plausible.
        let call = m.call * call_damp;
        let icall = m.indirect_call * call_damp;
        let spare = (m.call - call) + (m.indirect_call - icall);
        let weights = [
            m.cond,
            call,
            m.jump,
            icall,
            m.indirect_jump,
            m.ret,
            m.fallthrough + spare,
        ];
        match self.rng.weighted(&weights) {
            0 => TermChoice::Cond,
            1 => TermChoice::Call,
            2 => TermChoice::Jump,
            3 => TermChoice::IndirectCall,
            4 => TermChoice::IndirectJump,
            5 => TermChoice::Return,
            _ => TermChoice::FallThrough,
        }
    }

    fn push_bb(&mut self, plain: u8, term: Term) {
        let base = VAddr::new(self.cursor);
        let instrs = plain as usize
            + if matches!(term, Term::FallThrough) {
                0
            } else {
                1
            };
        debug_assert!(instrs > 0);
        self.cursor += (instrs * INSTR_BYTES) as u64;
        self.bbs.push(Bb { base, plain, term });
    }

    /// Builds the predecode oracle from the laid-out basic blocks: the
    /// branches in address order, and each of the `code_blocks` blocks'
    /// start offset into them. Blocks are laid out at rising addresses, so
    /// the terminators come in address order already.
    fn build_predecode(&self, code_blocks: usize) -> (Vec<PredecodedBranch>, Vec<u32>) {
        let first = CODE_BASE / BLOCK_BYTES as u64;
        let mut branches = Vec::new();
        let mut start = Vec::with_capacity(code_blocks + 1);
        for bb in &self.bbs {
            let Some(kind) = bb.term.kind() else { continue };
            let pc = bb.term_pc();
            let i = (pc.block().raw() - first) as usize;
            while start.len() <= i {
                start.push(branches.len() as u32);
            }
            let target = match &bb.term {
                Term::Cond { target, .. }
                | Term::Jump { target }
                | Term::Call { callee: target } => Some(self.bbs[*target as usize].base),
                _ => None,
            };
            let branch = match target {
                Some(t) => PredecodedBranch::direct(pc.instr_index() as u8, kind, t),
                None => PredecodedBranch::indirect(pc.instr_index() as u8, kind),
            };
            branches.push(branch);
        }
        start.resize(code_blocks + 1, branches.len() as u32);
        (branches, start)
    }
}

fn predecode_block_span(base: u64, end: u64) -> usize {
    ((end - base) as usize).div_ceil(64)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TermChoice {
    Cond,
    Call,
    Jump,
    IndirectCall,
    IndirectJump,
    Return,
    FallThrough,
    LoopBack,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use confluence_types::INSTRS_PER_BLOCK;

    #[test]
    fn generate_is_deterministic() {
        let a = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let b = Program::generate(&WorkloadSpec::tiny()).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.bbs().len(), b.bbs().len());
        for (x, y) in a.bbs().iter().zip(b.bbs().iter()) {
            assert_eq!(x.base, y.base);
            assert_eq!(x.plain, y.plain);
        }
    }

    #[test]
    fn code_size_near_target() {
        let spec = WorkloadSpec::base().with_code_kb(512);
        let p = Program::generate(&spec).unwrap();
        let kb = p.stats().code_bytes / 1024;
        assert!(
            (300..=800).contains(&kb),
            "generated {kb} KiB, target 512 KiB"
        );
    }

    #[test]
    fn last_bb_of_trace_paths_return() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        // Every function must contain at least one Return so requests finish.
        let returns = p
            .bbs()
            .iter()
            .filter(|b| matches!(b.term, Term::Return))
            .count();
        assert!(returns >= p.stats().functions);
    }

    #[test]
    fn bbs_are_contiguous_and_nonempty() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        for bb in p.bbs() {
            assert!(bb.len() >= 1, "empty basic block at {}", bb.base);
        }
    }

    #[test]
    fn predecode_matches_terminators() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        for bb in p.bbs() {
            let Some(kind) = bb.term.kind() else { continue };
            let pc = bb.term_pc();
            let branches = p.branches_in_block(pc.block());
            let found = branches
                .iter()
                .find(|b| b.offset as usize == pc.instr_index())
                .unwrap_or_else(|| panic!("missing predecode entry for branch at {pc}"));
            assert_eq!(found.kind, kind);
        }
    }

    #[test]
    fn predecode_offsets_sorted_and_in_range() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let mut blocks_checked = 0;
        for bb in p.bbs() {
            let block = bb.base.block();
            let branches = p.branches_in_block(block);
            for w in branches.windows(2) {
                assert!(w[0].offset < w[1].offset);
            }
            for b in branches {
                assert!((b.offset as usize) < INSTRS_PER_BLOCK);
            }
            blocks_checked += 1;
        }
        assert!(blocks_checked > 0);
    }

    #[test]
    fn predecode_table_matches_a_per_block_map() {
        use std::collections::HashMap;
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let mut map: HashMap<BlockAddr, Vec<PredecodedBranch>> = HashMap::new();
        for bb in p.bbs() {
            let Some(kind) = bb.term.kind() else { continue };
            let pc = bb.term_pc();
            let branch = match &bb.term {
                Term::Cond { target, .. }
                | Term::Jump { target }
                | Term::Call { callee: target } => PredecodedBranch::direct(
                    pc.instr_index() as u8,
                    kind,
                    p.bbs()[*target as usize].base,
                ),
                _ => PredecodedBranch::indirect(pc.instr_index() as u8, kind),
            };
            map.entry(pc.block()).or_default().push(branch);
        }
        for v in map.values_mut() {
            v.sort_by_key(|b| b.offset);
        }
        let first = VAddr::new(CODE_BASE).block().raw();
        let end = first + p.stats().code_blocks as u64;
        for raw in first - 1..=end {
            let block = BlockAddr::from_raw(raw);
            let want = map.get(&block).map(Vec::as_slice).unwrap_or(&[]);
            assert_eq!(p.branches_in_block(block), want, "block {raw:#x}");
        }
        assert_eq!(
            map.values().map(Vec::len).sum::<usize>(),
            p.stats().static_branches
        );
    }

    #[test]
    fn request_entries_are_valid_bbs() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        assert_eq!(p.request_entries().len(), p.spec().request_types);
        for &(bb, w) in p.request_entries() {
            assert!((bb as usize) < p.bbs().len());
            assert!(w > 0.0);
        }
        assert!(!p.os_entries().is_empty());
    }

    #[test]
    fn full_workload_specs_generate() {
        // Smoke-test generation of a real (multi-MB) preset.
        let w = Workload::DssQueries;
        let p = Program::generate(&w.spec()).unwrap();
        let mb = p.stats().code_bytes as f64 / (1024.0 * 1024.0);
        assert!(mb > 1.0, "{w}: generated only {mb:.2} MiB");
    }

    #[test]
    fn block_has_code_bounds() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let first = VAddr::new(CODE_BASE).block();
        assert!(p.block_has_code(first));
        assert!(!p.block_has_code(BlockAddr::from_raw(0)));
    }
}
