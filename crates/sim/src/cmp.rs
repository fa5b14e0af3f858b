//! 16-core CMP timing simulation: shared LLC, shared SHIFT history, one
//! frontend pipeline per core.
//!
//! The cycle loop is a **two-phase deterministic tick** (see
//! `crate::timing`): the SHIFT history generator (core 0) steps first so
//! its records are visible to every follower, the follower cores step
//! concurrently across *core shards* against the immutable shared state,
//! and each cycle ends with a serial fixed-core-order commit of every
//! deferred LLC fill. Results are byte-identical at any shard count —
//! [`simulate_cmp_with_shards`] with 1, 2, or 16 threads produces the
//! same [`TimingResult`], asserted by the tick-equivalence tests.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use confluence_prefetch::{HistoryView, ShiftHistory};
use confluence_trace::{ExecMode, Program};
use confluence_types::BlockAddr;
use confluence_uarch::{CoreParams, MemParams, SharedLlc};

use crate::designs::DesignPoint;
use crate::timing::{CoreFrontend, CoreStats};

/// Configuration of a CMP timing run.
///
/// `Eq`/`Hash` let the configuration participate in [`crate::TimingJob`]
/// cache keys: two runs with equal configs (and equal program + design) are
/// interchangeable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimingConfig {
    /// Number of cores (paper: 16).
    pub cores: usize,
    /// Per-core warm-up instructions (counters off).
    pub warmup_instrs: u64,
    /// Per-core measured instructions.
    pub measure_instrs: u64,
    /// SHIFT history capacity in entries.
    pub history_entries: usize,
    /// Base seed (per-core seeds derive from it).
    pub seed: u64,
    /// Core pipeline parameters.
    pub core: CoreParams,
    /// Memory-hierarchy parameters.
    pub mem: MemParams,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            cores: 16,
            warmup_instrs: 400_000,
            measure_instrs: 400_000,
            history_entries: confluence_prefetch::DEFAULT_HISTORY_ENTRIES,
            seed: 42,
            core: CoreParams::default(),
            mem: MemParams::default(),
        }
    }
}

impl TimingConfig {
    /// A reduced configuration for tests and quick runs: 4 cores,
    /// short windows. Relative orderings are preserved; absolute numbers
    /// are noisier.
    pub fn quick() -> Self {
        TimingConfig {
            cores: 4,
            warmup_instrs: 150_000,
            measure_instrs: 150_000,
            mem: MemParams {
                cores: 4,
                ..MemParams::default()
            },
            ..Default::default()
        }
    }
}

/// Aggregated result of one CMP timing run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingResult {
    /// The design point simulated.
    pub design: DesignPoint,
    /// Per-core measured statistics.
    pub per_core: Vec<CoreStats>,
    /// Total cycles simulated (to completion of the slowest core).
    pub total_cycles: u64,
}

impl TimingResult {
    /// Mean per-core IPC — the paper's performance metric (instructions
    /// retired over total cycles).
    pub fn ipc(&self) -> f64 {
        let sum: f64 = self.per_core.iter().map(CoreStats::ipc).sum();
        sum / self.per_core.len() as f64
    }

    /// Speedup of this result over a baseline run.
    pub fn speedup_over(&self, baseline: &TimingResult) -> f64 {
        self.ipc() / baseline.ipc()
    }

    /// Mean BTB misses per kilo-instruction across cores.
    pub fn btb_mpki(&self) -> f64 {
        self.mean(|s| s.pki(s.btb_misses))
    }

    /// Mean L1-I demand misses per kilo-instruction across cores.
    pub fn l1i_mpki(&self) -> f64 {
        self.mean(|s| s.pki(s.l1i_misses))
    }

    /// Mean misfetches per kilo-instruction.
    pub fn misfetch_pki(&self) -> f64 {
        self.mean(|s| s.pki(s.misfetches))
    }

    /// Mean direction/indirect mispredict flushes per kilo-instruction.
    pub fn mispredict_pki(&self) -> f64 {
        self.mean(|s| s.pki(s.mispredicts))
    }

    /// Mean exposed second-level BTB bubble cycles per kilo-instruction.
    pub fn l2_bubble_cpki(&self) -> f64 {
        self.mean(|s| s.pki(s.l2_bubble_cycles))
    }

    fn mean(&self, f: impl Fn(&CoreStats) -> f64) -> f64 {
        let sum: f64 = self.per_core.iter().map(&f).sum();
        sum / self.per_core.len() as f64
    }
}

/// Runs one design point on one workload program over a CMP, stepping
/// all cores in one thread. Equivalent to
/// [`simulate_cmp_with_shards`]`(.., 1)`.
pub fn simulate_cmp(program: &Program, design: DesignPoint, cfg: &TimingConfig) -> TimingResult {
    simulate_cmp_with_shards(program, design, cfg, 1)
}

/// Runs one design point on one workload program over a CMP, stepping
/// the follower cores across `shard_threads` OS threads.
///
/// Core 0 doubles as the SHIFT history generator (paper Section 3.4: the
/// history is "generated by only one core and used by all cores"). The LLC
/// is pre-warmed with the program's code footprint and reserves lines for
/// whatever metadata the design virtualizes.
///
/// Every cycle runs the two-phase tick: core 0 steps first (its history
/// records land immediately, exactly as serial stepping orders them),
/// cores `1..n` step concurrently in contiguous shards against the
/// immutable shared state, and the deferred LLC fills commit serially in
/// core order. The result is **byte-identical for every
/// `shard_threads`** — the executor only changes wall-clock time.
///
/// # Panics
///
/// Panics if a core fails to finish within a generous cycle guard —
/// indicating a pipeline deadlock bug, which should never occur.
pub fn simulate_cmp_with_shards(
    program: &Program,
    design: DesignPoint,
    cfg: &TimingConfig,
    shard_threads: usize,
) -> TimingResult {
    simulate_cmp_with_shards_mode(program, design, cfg, shard_threads, ExecMode::from_env())
}

/// [`simulate_cmp_with_shards`] through an explicit execution path.
///
/// Results are byte-identical across [`ExecMode`]s (the compiled stream
/// matches the reference executor record for record), so the mode is *not*
/// part of any cache key — it only changes wall-clock time, like the shard
/// count.
pub fn simulate_cmp_with_shards_mode(
    program: &Program,
    design: DesignPoint,
    cfg: &TimingConfig,
    shard_threads: usize,
    mode: ExecMode,
) -> TimingResult {
    let mut llc = SharedLlc::new(cfg.mem).expect("valid LLC geometry");

    // Predictor-virtualization reservations.
    let profile = design.storage_profile();
    if profile.llc_resident_bytes > 0 {
        let lines = (profile.llc_resident_bytes as usize).div_ceil(cfg.mem.block_bytes);
        llc.reserve_metadata_lines(lines).expect("reservation fits");
    }

    // Warm the LLC with the instruction footprint (the paper simulates
    // from checkpoints with warmed caches).
    let code_blocks = program.stats().code_bytes.div_ceil(cfg.mem.block_bytes);
    let first_block = confluence_types::VAddr::new(0x4000_0000).block();
    for i in 0..code_blocks {
        llc.warm_fill(BlockAddr::from_raw(first_block.raw() + i as u64));
    }

    let mut history = ShiftHistory::with_capacity(cfg.history_entries);
    let llc_latency = llc.mean_access_latency(0).round() as u64;
    let mut cores: Vec<CoreFrontend<'_>> = (0..cfg.cores)
        .map(|id| {
            CoreFrontend::new(
                id,
                program,
                design,
                llc_latency,
                cfg.core,
                cfg.warmup_instrs,
                cfg.measure_instrs,
                cfg.seed.wrapping_add(id as u64 * 0x9E37),
                mode,
            )
        })
        .collect();

    let guard = (cfg.warmup_instrs + cfg.measure_instrs) * 60;
    // More shard threads than follower cores would idle; clamp.
    let workers = shard_threads.clamp(1, cfg.cores.saturating_sub(1).max(1));
    let (per_core, total_cycles) = if workers <= 1 {
        run_ticks_serial(&mut cores, &mut llc, &mut history, guard)
    } else {
        run_ticks_sharded(cores, &mut llc, history, guard, workers)
    };

    TimingResult {
        design,
        per_core,
        total_cycles,
    }
}

/// The two-phase tick loop on one thread: generator, followers, commit.
fn run_ticks_serial(
    cores: &mut [CoreFrontend<'_>],
    llc: &mut SharedLlc,
    history: &mut ShiftHistory,
    guard: u64,
) -> (Vec<CoreStats>, u64) {
    let mut now = 0u64;
    while cores.iter().any(|c| !c.is_done()) {
        let (generator, followers) = cores.split_first_mut().expect("at least one core");
        generator.step_local(now, &mut HistoryView::Writer(history));
        for core in followers {
            core.step_local(now, &mut HistoryView::Reader(history));
        }
        for core in cores.iter_mut() {
            core.commit_fills(now, llc);
        }
        now += 1;
        assert!(
            now < guard,
            "CMP simulation exceeded the cycle guard (deadlock?)"
        );
    }
    (cores.iter().map(|c| c.stats()).collect(), now)
}

/// The two-phase tick loop with follower cores stepped across `workers`
/// threads (the calling thread is worker 0). Phases are separated by a
/// reusable spin barrier; a core is only ever locked by the one thread
/// its phase assigns it to, so every lock is uncontended by construction.
///
/// Panic discipline: a thread dying between barriers would leave the
/// others spinning forever, so every fallible phase is caught, the
/// survivors are released through the normal barrier protocol with the
/// stop flag raised, and the original panic resumes on the calling
/// thread once the scope has joined — a shard panic propagates exactly
/// like a serial one (the engine's slot-poisoning contract depends on
/// that).
fn run_ticks_sharded(
    cores: Vec<CoreFrontend<'_>>,
    llc: &mut SharedLlc,
    history: ShiftHistory,
    guard: u64,
    workers: usize,
) -> (Vec<CoreStats>, u64) {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let follower_count = cores.len() - 1;
    let shards = shard_ranges(follower_count, workers);
    let cells: Vec<Mutex<CoreFrontend<'_>>> = cores.into_iter().map(Mutex::new).collect();
    let history = RwLock::new(history);
    let barrier = SpinBarrier::new(workers);
    let cycle = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let shard_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    // Runs one shard's phase 1, converting a panic into the failed flag
    // (payload parked for the main thread) so the barrier protocol never
    // loses a participant.
    let step_shard = |range: Range<usize>, now: u64| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let h = history.read().expect("history poisoned");
            for cell in &cells[range.clone()] {
                cell.lock()
                    .expect("core poisoned")
                    .step_local(now, &mut HistoryView::Reader(&h));
            }
        }));
        if let Err(panic) = outcome {
            *shard_panic.lock().expect("panic slot poisoned") = Some(panic);
            failed.store(true, Ordering::Release);
        }
    };

    let mut now = 0u64;
    let mut abort: Option<&'static str> = None;
    std::thread::scope(|scope| {
        for shard in shards.iter().skip(1) {
            let (barrier, cycle, stop) = (&barrier, &cycle, &stop);
            let (shard, step_shard) = (shard.clone(), &step_shard);
            scope.spawn(move || loop {
                // Phase boundary A: the cycle number is published (or the
                // run is over).
                barrier.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                step_shard(shard.clone(), cycle.load(Ordering::Acquire));
                // Phase boundary B: every follower has stepped.
                barrier.wait();
            });
        }

        // Raises stop and walks the workers (parked at phase boundary A)
        // out through their exit check.
        let release_workers = || {
            stop.store(true, Ordering::Release);
            barrier.wait();
        };

        loop {
            // Generator phase: core 0 alone, with the writing history
            // view — its records of this cycle precede every read.
            let generator = catch_unwind(AssertUnwindSafe(|| {
                let mut h = history.write().expect("history poisoned");
                cells[0]
                    .lock()
                    .expect("core poisoned")
                    .step_local(now, &mut HistoryView::Writer(&mut h));
            }));
            if let Err(panic) = generator {
                *shard_panic.lock().expect("panic slot poisoned") = Some(panic);
                release_workers();
                abort = Some("generator phase panicked");
                break;
            }
            cycle.store(now, Ordering::Release);
            barrier.wait(); // A: release the shard workers
            step_shard(shards[0].clone(), now);
            barrier.wait(); // B: wait for every shard
            if failed.load(Ordering::Acquire) {
                release_workers();
                abort = Some("a core shard panicked");
                break;
            }

            // Commit phase: serial, fixed core order — the exact LLC
            // access order of serial stepping.
            let commit = catch_unwind(AssertUnwindSafe(|| {
                let mut all_done = true;
                for cell in &cells {
                    let mut core = cell.lock().expect("core poisoned");
                    core.commit_fills(now, llc);
                    all_done &= core.is_done();
                }
                all_done
            }));
            now += 1;
            let all_done = match commit {
                Ok(done) => done,
                Err(panic) => {
                    *shard_panic.lock().expect("panic slot poisoned") = Some(panic);
                    release_workers();
                    abort = Some("commit phase panicked");
                    break;
                }
            };
            if now >= guard {
                release_workers();
                abort = Some("CMP simulation exceeded the cycle guard (deadlock?)");
                break;
            }
            if all_done {
                release_workers();
                break;
            }
        }
    });

    if let Some(reason) = abort {
        match shard_panic.into_inner().expect("panic slot poisoned") {
            Some(panic) => std::panic::resume_unwind(panic),
            None => panic!("{reason}"),
        }
    }
    let per_core = cells
        .into_iter()
        .map(|cell| cell.into_inner().expect("core poisoned").stats())
        .collect();
    (per_core, now)
}

/// Splits follower cores `1..=count` into `workers` contiguous shards
/// (first shards take the remainder). Returned ranges index the full core
/// vector, so they start at 1.
fn shard_ranges(count: usize, workers: usize) -> Vec<Range<usize>> {
    let base = count / workers;
    let extra = count % workers;
    let mut start = 1;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// A reusable sense-reversing spin barrier for the per-cycle phase
/// boundaries. `std::sync::Barrier` parks through the OS on every wait —
/// ruinous at two waits per simulated cycle — while shard workers that
/// spin (yielding once a boundary drags on) cross without a system call.
/// A crossing still moves cache lines between cores, which costs about as
/// much as stepping a core, and a spinner on an oversubscribed host can
/// wait out a scheduler slice: on a 2-vCPU host a 2-shard run measured
/// 3–4x slower than a 1-shard run (`cmp.shard2_speedup` in perfbench).
/// The engine therefore runs every timing job at one shard.
struct SpinBarrier {
    total: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset the count *before* opening the gate so
            // early risers start the next round from zero.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(4096) {
                    // Oversubscribed host (or a long generator phase):
                    // give the scheduler a chance instead of burning it.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_trace::WorkloadSpec;

    fn quick_cfg() -> TimingConfig {
        TimingConfig {
            cores: 2,
            warmup_instrs: 60_000,
            measure_instrs: 60_000,
            mem: MemParams {
                cores: 4,
                ..MemParams::default()
            },
            ..TimingConfig::default()
        }
    }

    #[test]
    fn cmp_run_completes_deterministically() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let a = simulate_cmp(&p, DesignPoint::Baseline, &quick_cfg());
        let b = simulate_cmp(&p, DesignPoint::Baseline, &quick_cfg());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert!((a.ipc() - b.ipc()).abs() < 1e-12);
        assert!(a.ipc() > 0.1);
    }

    #[test]
    fn sharded_ticks_are_bit_identical_to_serial() {
        // 4 cores so there are followers to shard; a SHIFT design so the
        // generator-first history ordering is actually exercised.
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        // Debug builds simulate ~10x slower; the property is size-free.
        let instrs = if cfg!(debug_assertions) {
            10_000
        } else {
            30_000
        };
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
        for design in [DesignPoint::Confluence, DesignPoint::Baseline] {
            let serial = simulate_cmp_with_shards(&p, design, &cfg, 1);
            for shards in [2, 3, 16] {
                let sharded = simulate_cmp_with_shards(&p, design, &cfg, shards);
                assert_eq!(
                    serial, sharded,
                    "{design:?} diverged at {shards} shard threads"
                );
            }
        }
    }

    /// A zero-instruction budget can never finish, so the cycle guard
    /// trips on the first cycle — and in the sharded executor that must
    /// surface as a panic through the abort protocol, not a hang with
    /// shard workers spinning at a barrier nobody will cross.
    #[test]
    #[should_panic(expected = "cycle guard")]
    fn sharded_guard_trip_panics_instead_of_hanging() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let cfg = TimingConfig {
            cores: 3,
            warmup_instrs: 0,
            measure_instrs: 0,
            mem: MemParams {
                cores: 4,
                ..MemParams::default()
            },
            ..TimingConfig::default()
        };
        simulate_cmp_with_shards(&p, DesignPoint::Baseline, &cfg, 2);
    }

    #[test]
    fn shard_ranges_cover_all_followers_contiguously() {
        for (count, workers) in [(15, 8), (3, 2), (1, 1), (7, 7), (16, 3)] {
            let ranges = shard_ranges(count, workers);
            assert_eq!(ranges.len(), workers);
            let mut next = 1;
            for r in &ranges {
                assert_eq!(r.start, next, "{count}/{workers}: gap");
                next = r.end;
            }
            assert_eq!(next, count + 1, "{count}/{workers}: coverage");
        }
    }

    #[test]
    fn exec_modes_are_bit_identical_on_cmp() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let instrs = if cfg!(debug_assertions) {
            10_000
        } else {
            30_000
        };
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
        let fast =
            simulate_cmp_with_shards_mode(&p, DesignPoint::Confluence, &cfg, 1, ExecMode::Compiled);
        let slow = simulate_cmp_with_shards_mode(
            &p,
            DesignPoint::Confluence,
            &cfg,
            1,
            ExecMode::Reference,
        );
        assert_eq!(fast, slow);
        // The mode must also commute with sharding.
        let sharded =
            simulate_cmp_with_shards_mode(&p, DesignPoint::Confluence, &cfg, 3, ExecMode::Compiled);
        assert_eq!(fast, sharded);
    }

    #[test]
    fn ideal_outperforms_baseline_on_cmp() {
        // Needs a working set that actually pressures the L1-I and BTB.
        let p = Program::generate(&WorkloadSpec::base().with_code_kb(1024)).unwrap();
        let base = simulate_cmp(&p, DesignPoint::Baseline, &quick_cfg());
        let ideal = simulate_cmp(&p, DesignPoint::Ideal, &quick_cfg());
        let speedup = ideal.speedup_over(&base);
        assert!(speedup > 1.02, "ideal speedup {speedup}");
    }

    #[test]
    fn confluence_between_baseline_and_ideal() {
        let p = Program::generate(&WorkloadSpec::base().with_code_kb(768)).unwrap();
        let cfg = quick_cfg();
        let base = simulate_cmp(&p, DesignPoint::Baseline, &cfg);
        let conf = simulate_cmp(&p, DesignPoint::Confluence, &cfg);
        let ideal = simulate_cmp(&p, DesignPoint::Ideal, &cfg);
        assert!(
            conf.ipc() > base.ipc(),
            "confluence {} vs base {}",
            conf.ipc(),
            base.ipc()
        );
        assert!(
            ideal.ipc() >= conf.ipc() * 0.98,
            "ideal {} vs conf {}",
            ideal.ipc(),
            conf.ipc()
        );
    }
}
