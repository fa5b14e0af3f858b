//! Allocation budgets of the CMP timing tick and the record stream.
//!
//! One simulated core-cycle must not touch the heap once a run is warm:
//! every per-cycle buffer is owned and reused by the core, and the BTB
//! fill paths keep their groups and bundles in place. Set-up allocates
//! freely, and growing tables allocate a logarithmic number of times, so
//! the test runs every design point at two instruction budgets and
//! divides the extra allocations by the extra core-cycles. A compiled
//! record stream is held to bytes instead: ten times the records may
//! cost only a few kilobytes more, so an executor's memory cannot grow
//! with the length of the stream. The translation it steps is held to
//! bytes per basic block: it stores one 32-byte descriptor per block and
//! derives every plain instruction's address from its block's base, so
//! a table of addresses that the layout already gives shows up here.
//!
//! The counting allocator is this binary's global allocator, which is why
//! the tests live in a test binary of their own. It counts only on the
//! thread that sets the flag, into that thread's own counters, so the
//! test harness's other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use confluence::sim::{simulate_cmp, DesignPoint, TimingConfig};
use confluence::trace::{CompiledProgram, Program, WorkloadSpec};
use confluence_uarch::MemParams;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations made on this thread while counting was on. The default
    /// `realloc` and `alloc_zeroed` go through `alloc`, so they count too.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for; a `realloc` counts its whole
    /// new size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with` fails only while the thread's locals are torn down, when
    // nothing is being measured.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|b| b.set(b.get() + size as u64));
    }
}

struct CountingAllocator;

// SAFETY: `alloc` and `dealloc` forward their arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract, and the default
// methods are built on those two; counting touches only const-initialised
// thread-locals, none of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with counting on; returns its result, its allocations and
/// their bytes.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (
        result,
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Allocations per extra core-cycle a design may make.
const MAX_ALLOCS_PER_CORE_CYCLE: f64 = 0.001;

/// Per-core instruction budgets (warm-up and measure each). The long run
/// adds ~2x10^5 core-cycles, enough to resolve the bound, and the whole
/// test still takes seconds in a debug build.
const BUDGETS: [u64; 2] = [20_000, 60_000];

/// Allocations and core-cycles of one 4-core run.
fn allocations_of_run(program: &Program, design: DesignPoint, instrs: u64) -> (u64, u64) {
    let cfg = TimingConfig {
        cores: 4,
        warmup_instrs: instrs,
        measure_instrs: instrs,
        mem: MemParams {
            cores: 4,
            ..MemParams::default()
        },
        ..TimingConfig::default()
    };
    let (result, allocations, _) = counted(|| simulate_cmp(program, design, &cfg));
    (allocations, result.total_cycles * cfg.cores as u64)
}

#[test]
fn timing_tick_makes_no_steady_state_allocations() {
    // A code footprint well past the 32 KB L1-I and the 1K-entry BTBs, so
    // fills, evictions, prefetches and BTB group traffic all run.
    let program = Program::generate(&WorkloadSpec::base().with_code_kb(96)).unwrap();
    let mut over = Vec::new();
    for design in DesignPoint::ALL {
        let (short_allocs, short_cycles) = allocations_of_run(&program, design, BUDGETS[0]);
        let (long_allocs, long_cycles) = allocations_of_run(&program, design, BUDGETS[1]);
        let extra_cycles = long_cycles - short_cycles;
        let per_cycle = long_allocs.saturating_sub(short_allocs) as f64 / extra_cycles as f64;
        eprintln!(
            "{:<18} {short_allocs} -> {long_allocs} allocations over {extra_cycles} extra \
             core-cycles: {per_cycle:.5} per core-cycle",
            design.name()
        );
        if per_cycle >= MAX_ALLOCS_PER_CORE_CYCLE {
            over.push(format!("{}: {per_cycle:.4}", design.name()));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per extra core-cycle at or above {MAX_ALLOCS_PER_CORE_CYCLE}: {}",
        over.join(", ")
    );
}

/// Extra bytes a compiled executor may allocate over the extra records of
/// the long stream.
const MAX_STREAM_GROWTH_BYTES: u64 = 64 * 1024;

/// Record counts of the short and the long stream.
const STREAM_RECORDS: [u64; 2] = [100_000, 1_000_000];

/// Bytes allocated while one executor over a fresh translation streams
/// `records` records. A fresh translation per run keeps whatever an
/// earlier run left behind out of the count.
fn stream_bytes(program: &Program, records: u64) -> u64 {
    let cp = CompiledProgram::compile(program);
    let ((), _, bytes) = counted(|| {
        let mut ex = cp.executor(7);
        ex.for_each_record(records, |r| {
            black_box(r);
        });
    });
    bytes
}

#[test]
fn record_stream_memory_stays_flat() {
    let program = Program::generate(&WorkloadSpec::base().with_code_kb(96)).unwrap();
    let short = stream_bytes(&program, STREAM_RECORDS[0]);
    let long = stream_bytes(&program, STREAM_RECORDS[1]);
    eprintln!(
        "{} -> {} records: {short} -> {long} bytes allocated",
        STREAM_RECORDS[0], STREAM_RECORDS[1]
    );
    assert!(
        long.saturating_sub(short) <= MAX_STREAM_GROWTH_BYTES,
        "a compiled executor allocated {} more bytes for {} more records \
         (at most {MAX_STREAM_GROWTH_BYTES} allowed)",
        long.saturating_sub(short),
        STREAM_RECORDS[1] - STREAM_RECORDS[0]
    );
}

/// Requested bytes a translation may cost per basic block: the 32-byte
/// descriptor, the compile pass's own table of block bases and the
/// indirect-choice tables come to 39-41. A translation that also stored
/// every plain instruction's address cost 136-162.
const MAX_TRANSLATION_BYTES_PER_BLOCK: f64 = 48.0;

#[test]
fn translation_stores_about_one_descriptor_per_block() {
    for spec in [WorkloadSpec::base(), WorkloadSpec::base().with_code_kb(96)] {
        let program = Program::generate(&spec).unwrap();
        let (cp, _, bytes) = counted(|| CompiledProgram::compile(&program));
        let blocks = cp.block_count();
        let per_block = bytes as f64 / blocks as f64;
        eprintln!(
            "{} KB of code: {bytes} bytes requested for {blocks} blocks, \
             {per_block:.1} per block",
            spec.target_code_kb
        );
        assert!(
            per_block <= MAX_TRANSLATION_BYTES_PER_BLOCK,
            "translating {} KB of code requested {per_block:.1} bytes per block \
             (at most {MAX_TRANSLATION_BYTES_PER_BLOCK} allowed)",
            spec.target_code_kb
        );
    }
}
