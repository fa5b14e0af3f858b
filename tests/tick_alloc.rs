//! Allocation budget of the CMP timing tick.
//!
//! One simulated core-cycle must not touch the heap once a run is warm:
//! every per-cycle buffer is owned and reused by the core, and the BTB
//! fill paths keep their groups and bundles in place. Set-up allocates
//! freely, and growing tables allocate a logarithmic number of times, so
//! the test runs every design point at two instruction budgets and
//! divides the extra allocations by the extra core-cycles.
//!
//! The counting allocator is this binary's global allocator, which is why
//! the test lives in a test binary of its own. It counts only on the
//! thread that sets the flag, so the test harness's own threads do not
//! disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use confluence::sim::{simulate_cmp, DesignPoint, TimingConfig};
use confluence::trace::{Program, WorkloadSpec};
use confluence_uarch::MemParams;

/// Allocations made while counting was on. The default `realloc` and
/// `alloc_zeroed` go through `alloc`, so they count too.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    // `try_with` fails only while the thread's locals are torn down, when
    // nothing is being measured.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: `alloc` and `dealloc` forward their arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract, and the default
// methods are built on those two; counting touches only an atomic and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let result = simulate_cmp(program, design, &cfg);
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
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
