//! Tick-equivalence suite for the core-grain parallel CMP executor.
//!
//! The two-phase deterministic tick promises that a timing run's result
//! is a pure function of `(program, design, config)` — the shard count
//! only buys wall-clock. These tests pin that promise three ways:
//!
//! 1. **Bit-identity across shard counts** — the same run at 1, 2, and 8
//!    shard threads produces identical `CoreStats` for every core and the
//!    same total cycle count.
//! 2. **Contention stress** — many OS threads running sharded simulations
//!    of the same program concurrently (each spawning its own shard
//!    workers) all agree with the serial reference.
//! 3. **Engine-level equality** — a pool engine running timing jobs on
//!    several workers renders byte-identical results to a fully serial
//!    engine, and schedules expensive jobs without breaking the
//!    exactly-once contract. The engine runs every timing job at one
//!    shard; the sharded executor is driven directly by 1 and 2 above.

use confluence::sim::{
    experiments, simulate_cmp_with_shards, DesignPoint, Job, Results, SimEngine, TimingConfig,
    TimingJob,
};
use confluence::trace::{Program, WorkloadSpec};
use confluence_uarch::MemParams;

/// Debug builds simulate ~10x slower; the equivalence properties are
/// size-independent, so scale the windows down there and keep the
/// release/CI runs at a working set that genuinely pressures the shared
/// structures.
const INSTRS: u64 = if cfg!(debug_assertions) {
    8_000
} else {
    25_000
};

fn quick_cfg(cores: usize) -> TimingConfig {
    TimingConfig {
        cores,
        warmup_instrs: INSTRS,
        measure_instrs: INSTRS,
        mem: MemParams {
            cores: cores.max(4),
            ..MemParams::default()
        },
        ..TimingConfig::default()
    }
}

/// Shard-count invariance over a working set that actually exercises the
/// shared LLC and the shared SHIFT history (Confluence prefetches through
/// both; the Baseline covers the no-prefetch path; Ideal covers the
/// perfect-L1-I path that skips fills entirely).
#[test]
fn core_grain_stepping_is_bit_identical_at_any_shard_count() {
    let code_kb = if cfg!(debug_assertions) { 96 } else { 256 };
    let program = Program::generate(&WorkloadSpec::base().with_code_kb(code_kb)).unwrap();
    let cfg = quick_cfg(4);
    for design in [
        DesignPoint::Baseline,
        DesignPoint::Confluence,
        DesignPoint::Ideal,
    ] {
        let serial = simulate_cmp_with_shards(&program, design, &cfg, 1);
        assert!(serial.ipc() > 0.05, "{design:?}: degenerate run");
        for shards in [2, 8] {
            let sharded = simulate_cmp_with_shards(&program, design, &cfg, shards);
            assert_eq!(
                serial.per_core, sharded.per_core,
                "{design:?}: per-core stats diverged at {shards} shard threads"
            );
            assert_eq!(
                serial.total_cycles, sharded.total_cycles,
                "{design:?}: cycle count diverged at {shards} shard threads"
            );
        }
    }
}

/// An absurd shard request (more threads than cores exist) clamps instead
/// of deadlocking or diverging.
#[test]
fn oversized_shard_requests_clamp() {
    let program = Program::generate(&WorkloadSpec::tiny()).unwrap();
    let cfg = quick_cfg(2);
    let serial = simulate_cmp_with_shards(&program, DesignPoint::Baseline, &cfg, 1);
    let absurd = simulate_cmp_with_shards(&program, DesignPoint::Baseline, &cfg, 64);
    assert_eq!(serial, absurd);
}

/// Contention-style stress: 8 OS threads each drive a sharded simulation
/// of the same `Arc`-shared program at a different shard count, all at
/// once — every spin barrier, history `RwLock`, and core mutex in the
/// executor gets hammered while neighbours do the same — and every
/// result must equal the serial reference.
#[test]
fn concurrent_sharded_runs_agree_with_serial() {
    let program = Program::generate(&WorkloadSpec::tiny()).unwrap();
    let cfg = quick_cfg(4);
    let reference = simulate_cmp_with_shards(&program, DesignPoint::Confluence, &cfg, 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (program, cfg) = (&program, &cfg);
                scope.spawn(move || {
                    simulate_cmp_with_shards(program, DesignPoint::Confluence, cfg, 1 + t % 4)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().expect("stress thread panicked"),
                reference,
                "a contended sharded run diverged from the serial reference"
            );
        }
    });
}

/// The engine's cost-aware scheduling end-to-end: a wide engine running
/// a timing-heavy batch on its worker pool must agree byte-for-byte with
/// a serial engine, keep the exactly-once contract, and rank timing jobs
/// as the expensive ones.
#[test]
fn pool_engine_matches_serial_engine() {
    let cfg = experiments::ExperimentConfig::quick();
    let workloads: Vec<_> = cfg.workloads().into_iter().take(1).collect();
    let designs = [
        DesignPoint::Baseline,
        DesignPoint::Confluence,
        DesignPoint::Ideal,
    ];
    let jobs: Vec<Job> = designs
        .iter()
        .map(|&design| {
            Job::Timing(TimingJob {
                workload: workloads[0].0,
                design,
                cfg: quick_cfg(4),
            })
        })
        .collect();
    for job in &jobs {
        assert!(
            job.cost_hint()
                > Job::Coverage(confluence::sim::CoverageJob {
                    workload: workloads[0].0,
                    btb: confluence::sim::BtbSpec::Baseline1k,
                    opts: Default::default(),
                })
                .cost_hint(),
            "timing jobs must rank above coverage jobs"
        );
    }

    let pool = SimEngine::new(workloads.clone()).with_threads(4);
    let serial = SimEngine::new(workloads).with_threads(1);
    pool.run(&jobs);
    serial.run(&jobs);
    assert_eq!(pool.stats().executed, jobs.len() as u64);
    assert_eq!(serial.stats().executed, jobs.len() as u64);
    for job in &jobs {
        let Job::Timing(t) = job else { unreachable!() };
        assert_eq!(
            pool.timing(t),
            serial.timing(t),
            "the worker pool must never change a timing result"
        );
    }
}
