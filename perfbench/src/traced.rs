//! The traced run: per-layer numbers, taken from outside the crates by
//! timing calls into each layer's public functions. Nothing inside the
//! crates is instrumented; the counting allocator is switched on only
//! around the serial job pass.
//!
//! The run performs, in order:
//! 1. set-up, timing program generation and translation apart;
//! 2. the serial pass: every unique job of the workload, in the engine's
//!    start order, through `simulate_cmp_with_shards_mode`,
//!    `run_coverage_with_mode` and `branch_density_mode`;
//! 3. the stream pass: each job's record streams replayed alone through
//!    `Program::stream(..).for_each_record`, over a second set of fresh
//!    programs so its memo warms exactly as the serial pass's did;
//! 4. one untraced batch of the workload (a fresh engine, or one served
//!    request), whose outputs must equal the serial pass's;
//! 5. fixed layer probes, the same on every workload: the tick driver
//!    (one suite timing job per design stepped through
//!    `CoreFrontend::step_local`/`commit_fills`), one job at 2 shards
//!    against 1, differential coverage runs per modelled structure, and
//!    the store, codec, daemon and client calls.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use confluence_prefetch::{HistoryView, ShiftHistory};
use confluence_serve::{BatchHost, Client};
use confluence_sim::codec::StoreKey;
use confluence_sim::daemon::EngineHost;
use confluence_sim::experiments::ExperimentConfig;
use confluence_sim::{
    run_coverage_with_mode, simulate_cmp_with_shards_mode, BtbSpec, CoreFrontend, CoverageOptions,
    ExecMode, Job, JobOutput, SimEngine, TimingJob, TimingResult, SCHEMA_VERSION,
};
use confluence_store::{Decode, Encode, ResultStore};
use confluence_trace::Program;
use confluence_types::{BlockAddr, VAddr};
use confluence_uarch::SharedLlc;

use crate::arith::{attribute, mean, median, pool_efficiency, ratio};
use crate::host::{allocations, count_allocations, process_cpu_s, RunDir};
use crate::jobs::{self, program_of, Bench, Programs};
use crate::served::{self, Daemon};

/// The tick driver times one cycle in this many.
const SAMPLE_EVERY: u64 = 64;
/// Repetitions of each differential coverage run (median taken).
const DIFF_REPS: usize = 3;
/// Client connects and submits timed by the serve probe.
const SERVE_REPS: usize = 20;
/// Passes over the probe list for the per-call daemon and codec timers.
const CALL_REPS: usize = 5;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric, in BENCHMARK.json order.
    pub metrics: Vec<Metric>,
    /// Operations checked: unique jobs, driven timing jobs, served
    /// batches and store round trips.
    pub attempted: u64,
    /// Operations whose output disagreed with its counterpart.
    pub failed: u64,
    /// FNV-1a digest of the serial pass's outputs.
    pub digest: u64,
    /// The simulated-count fingerprint line.
    pub fingerprint: String,
    /// Traced serial job time against the untraced batch: the tracing
    /// overhead line.
    pub overhead: String,
    /// Why operations failed, for stderr.
    pub problems: Vec<String>,
}

impl Traced {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Busy time, allocations and work of one job class in the serial pass.
#[derive(Debug, Default)]
struct ClassTotals {
    jobs: u64,
    busy: Duration,
    allocs: u64,
    /// Core-cycles for timing jobs; instructions for coverage jobs.
    units: u64,
}

/// Simulated counts summed over the serial pass's outputs.
#[derive(Debug, Default)]
struct SimCounts {
    core_cycles: u64,
    retired: u64,
    btb_misses: u64,
    l1i_misses: u64,
    prefetch_fills: u64,
}

/// Runs the traced pass of `bench` under `seed`.
///
/// # Errors
///
/// A set-up that fails (run directory, store, socket).
pub fn run(bench: Bench, seed: u64) -> Result<Traced, String> {
    let mode = ExecMode::from_env();
    let run_dir = RunDir::create().map_err(|e| format!("cannot create the run directory: {e}"))?;
    let mut out = Traced::default();
    let mut m: Vec<Metric> = Vec::new();

    // 1. Set-up.
    let (programs, generate_s, compile_s) = jobs::generate_programs();
    m.push(("trace.generate_s", generate_s, "s"));
    m.push(("trace.compile_s", compile_s, "s"));
    let list = bench.jobs(&programs, seed);
    let unique = jobs::unique(&list);
    let order = jobs::engine_order(&unique);

    // 2. Serial pass.
    let mut timing = ClassTotals::default();
    let mut coverage = ClassTotals::default();
    let mut density = ClassTotals::default();
    let mut counts = SimCounts::default();
    let mut serial: Vec<Option<JobOutput>> = vec![None; unique.len()];
    count_allocations(true);
    for &i in &order {
        let job = &unique[i];
        let program = program_of(&programs, job.workload());
        let allocs = allocations();
        let t = Instant::now();
        let output = jobs::execute(program, job, mode);
        let busy = t.elapsed();
        let allocs = allocations() - allocs;
        let class = match (job, &output) {
            (Job::Timing(_), JobOutput::Timing(r)) => {
                let core_cycles = r.total_cycles * r.per_core.len() as u64;
                counts.core_cycles += core_cycles;
                for s in &r.per_core {
                    counts.retired += s.retired;
                    counts.btb_misses += s.btb_misses;
                    counts.l1i_misses += s.l1i_misses;
                    counts.prefetch_fills += s.prefetch_fills;
                }
                timing.units += core_cycles;
                &mut timing
            }
            (Job::Coverage(c), JobOutput::Coverage(r)) => {
                counts.btb_misses += r.btb_misses;
                counts.l1i_misses += r.l1i_misses;
                counts.prefetch_fills += r.prefetch_fills;
                coverage.units += c.opts.warmup_instrs + c.opts.measure_instrs;
                &mut coverage
            }
            _ => &mut density,
        };
        class.jobs += 1;
        class.busy += busy;
        class.allocs += allocs;
        serial[i] = Some(output);
    }
    count_allocations(false);
    let serial: Vec<JobOutput> = serial
        .into_iter()
        .map(|o| o.expect("every job ran"))
        .collect();
    let encoded: Vec<Vec<u8>> = serial.iter().map(|o| o.to_bytes()).collect();
    out.digest = jobs::digest(&encoded);
    let memo_steps: usize = programs
        .iter()
        .filter_map(|(_, p)| p.compiled_if_translated())
        .map(|c| c.memo_stats().steps)
        .sum();
    let serial_busy = (timing.busy + coverage.busy + density.busy).as_secs_f64();

    // 3. Stream pass, over fresh programs.
    let (stream_timing, stream_coverage, stream_all, records) = {
        let (fresh, _, _) = jobs::generate_programs();
        let mut by_class = [Duration::ZERO; 3];
        let mut records = 0u64;
        for &i in &order {
            let job = &unique[i];
            let t = Instant::now();
            records += replay_streams(program_of(&fresh, job.workload()), job, mode);
            by_class[class_index(job)] += t.elapsed();
        }
        let all: Duration = by_class.iter().sum();
        (by_class[0], by_class[1], all, records)
    };
    m.push((
        "trace.stream_ns_per_instr",
        ratio(stream_all.as_nanos() as f64, records as f64),
        "ns",
    ));
    m.push((
        "trace.stream_share_timing",
        ratio(stream_timing.as_secs_f64(), timing.busy.as_secs_f64()),
        "ratio",
    ));
    m.push((
        "trace.stream_share_coverage",
        ratio(stream_coverage.as_secs_f64(), coverage.busy.as_secs_f64()),
        "ratio",
    ));
    m.push(("trace.memo_steps", memo_steps as f64, "count"));

    // 4. One untraced batch; its host serves the probes below.
    let untraced = untraced_batch(bench, &list, &unique, &encoded, run_dir.path(), &mut out)?;

    // 5a. Tick driver and shard speedup over the suite's timing jobs.
    let suite = jobs::unique(&Bench::SuiteCold.jobs(&programs, seed));
    let mut driven: Vec<(&TimingJob, &Arc<Program>)> = Vec::new();
    for job in &suite {
        if let Job::Timing(t) = job {
            if !driven.iter().any(|(d, _)| d.design == t.design) {
                driven.push((t, program_of(&programs, t.workload)));
            }
        }
    }
    let (mut setup, mut step, mut commit) = (Vec::new(), Duration::ZERO, Duration::ZERO);
    for &(job, program) in &driven {
        let expected = match unique
            .iter()
            .position(|u| matches!(u, Job::Timing(t) if t == job))
        {
            Some(i) => serial[i].clone(),
            None => JobOutput::Timing(Arc::new(simulate_cmp_with_shards_mode(
                program, job.design, &job.cfg, 1, mode,
            ))),
        };
        let d = drive_ticks(program, job, mode);
        out.check(JobOutput::Timing(Arc::new(d.result)) == expected, || {
            format!(
                "tick driver disagrees with simulate_cmp on {:?}",
                job.design
            )
        });
        setup.push(d.setup.as_secs_f64());
        step += d.step;
        commit += d.commit;
    }
    let (first_job, first_program) = driven[0];
    let shard2 = shard_speedup(first_program, first_job, mode, &mut out);

    // 5b. Structure costs by differential coverage runs.
    let structures = structure_costs(&programs, seed, mode);

    // 5c. Store, codec, daemon and client calls.
    let store = store_probe(&programs, &unique, &serial, run_dir.path(), &mut out)?;
    let serve = serve_probe(&untraced.daemon, &unique, &encoded, &mut out)?;
    let Untraced {
        daemon,
        stats,
        wall_s,
        cpu_s,
    } = untraced;
    daemon.stop();

    m.push(("cmp.jobs", timing.jobs as f64, "count"));
    m.push(("cmp.busy_s", timing.busy.as_secs_f64(), "s"));
    m.push((
        "cmp.ns_per_core_cycle",
        ratio(timing.busy.as_nanos() as f64, timing.units as f64),
        "ns",
    ));
    m.push((
        "cmp.allocs_per_core_cycle",
        ratio(timing.allocs as f64, timing.units as f64),
        "allocs/cycle",
    ));
    m.push(("cmp.setup_ms_per_job", mean(&setup) * 1e3, "ms"));
    m.push((
        "cmp.commit_share",
        ratio(commit.as_secs_f64(), (step + commit).as_secs_f64()),
        "ratio",
    ));
    m.push(("cmp.shard2_speedup", shard2, "ratio"));
    m.push(("coverage.jobs", coverage.jobs as f64, "count"));
    m.push(("coverage.busy_s", coverage.busy.as_secs_f64(), "s"));
    m.push((
        "coverage.ns_per_instr",
        ratio(coverage.busy.as_nanos() as f64, coverage.units as f64),
        "ns",
    ));
    m.push((
        "coverage.allocs_per_instr",
        ratio(coverage.allocs as f64, coverage.units as f64),
        "allocs/instr",
    ));
    m.push(("coverage.density_busy_s", density.busy.as_secs_f64(), "s"));
    m.push(("btb.ns_per_instr", structures.btb, "ns"));
    m.push(("core.airbtb_ns_per_instr", structures.airbtb, "ns"));
    m.push(("prefetch.shift_ns_per_instr", structures.shift, "ns"));
    m.push(("uarch.l1i_ns_per_instr", structures.l1i, "ns"));
    m.push(("cmp.sim_core_cycles", counts.core_cycles as f64, "count"));
    m.push(("cmp.sim_retired", counts.retired as f64, "count"));
    m.push(("btb.sim_misses", counts.btb_misses as f64, "count"));
    m.push(("uarch.sim_l1i_misses", counts.l1i_misses as f64, "count"));
    m.push(("prefetch.sim_fills", counts.prefetch_fills as f64, "count"));
    m.push(("engine.executed", stats.executed as f64, "count"));
    m.push(("engine.hits", stats.hits as f64, "count"));
    m.push(("engine.disk_hits", stats.disk_hits as f64, "count"));
    // Only jobs the untraced engine executed kept its pool busy; a
    // served batch executes none.
    let executed_busy = if stats.executed > 0 { serial_busy } else { 0.0 };
    m.push((
        "engine.pool_efficiency",
        pool_efficiency(executed_busy, bench.threads(), wall_s),
        "ratio",
    ));
    m.push(("store.save_us", store.save_us, "us"));
    m.push(("store.load_us", store.load_us, "us"));
    m.push(("store.entry_bytes", store.entry_bytes, "bytes"));
    m.push(("serve.connect_ms", serve.connect_ms, "ms"));
    m.push(("serve.batch_ms", serve.batch_ms, "ms"));
    m.push(("daemon.run_job_us", serve.run_job_us, "us"));
    m.push(("daemon.finish_batch_ms", serve.finish_batch_ms, "ms"));
    m.push(("codec.encode_us", serve.encode_us, "us"));
    m.push(("codec.decode_us", serve.decode_us, "us"));
    out.overhead = if stats.executed > 0 {
        format!(
            "traced serial busy {serial_busy:.3} s against the untraced batch's \
             {wall_s:.3} s wall, {cpu_s:.3} s CPU on {} thread(s)",
            bench.threads()
        )
    } else {
        format!(
            "none: the untraced batch executed no jobs (served in {:.3} ms)",
            wall_s * 1e3
        )
    };
    out.fingerprint = format!(
        "core_cycles={} retired={} btb_misses={} l1i_misses={} prefetch_fills={}",
        counts.core_cycles,
        counts.retired,
        counts.btb_misses,
        counts.l1i_misses,
        counts.prefetch_fills
    );
    out.metrics = m;
    Ok(out)
}

/// Slot of a job's class in per-class arrays: timing, coverage, density.
fn class_index(job: &Job) -> usize {
    match job {
        Job::Timing(_) => 0,
        Job::Coverage(_) => 1,
        Job::Density(_) => 2,
    }
}

/// Replays the record streams `job` consumes, alone, and returns the
/// record count. A timing job's cores each pull one stream, seeded as
/// `simulate_cmp` seeds them, for their instruction budget (the
/// lookahead's few records of overshoot are not replayed).
fn replay_streams(program: &Program, job: &Job, mode: ExecMode) -> u64 {
    match job {
        Job::Timing(t) => {
            let n = t.cfg.warmup_instrs + t.cfg.measure_instrs;
            for id in 0..t.cfg.cores as u64 {
                let core_seed = t.cfg.seed.wrapping_add(id * 0x9E37);
                black_box(replay(program, core_seed ^ (id << 32), n, mode));
            }
            n * t.cfg.cores as u64
        }
        Job::Coverage(c) => {
            let n = c.opts.warmup_instrs + c.opts.measure_instrs;
            black_box(replay(program, c.opts.seed, n, mode));
            n
        }
        Job::Density(d) => {
            black_box(replay(program, d.seed, d.instrs, mode));
            d.instrs
        }
    }
}

/// Pulls `n` records of one stream and folds their PCs, so the pull
/// cannot be optimised away.
fn replay(program: &Program, seed: u64, n: u64, mode: ExecMode) -> u64 {
    let mut sink = 0u64;
    program
        .stream(seed, mode)
        .for_each_record(n, |r| sink = sink.wrapping_add(r.pc.raw()));
    sink
}

/// The untraced batch of the traced run and the daemon serving probes.
struct Untraced {
    daemon: Daemon,
    stats: confluence_sim::EngineStats,
    wall_s: f64,
    cpu_s: f64,
}

/// Runs the workload's batch once, untraced: a fresh engine on the cold
/// workloads (then mounted as a daemon for the probes), one request to a
/// freshly set-up daemon on served-warm. Its outputs must equal the
/// serial pass's.
fn untraced_batch(
    bench: Bench,
    list: &[Job],
    unique: &[Job],
    serial: &[Vec<u8>],
    dir: &Path,
    out: &mut Traced,
) -> Result<Untraced, String> {
    let (programs, _, _) = jobs::generate_programs();
    if bench == Bench::ServedWarm {
        let outputs = served::execute_in_process(&programs, list, unique)?;
        let (daemon, _) = Daemon::start(dir, 0, programs, unique, &outputs)?;
        let (wall_s, served) = daemon.request(list, unique);
        let served_ok = served.as_deref() == Ok(serial) && daemon.expected == serial;
        out.check(served_ok, || {
            "served outputs differ from the serial pass".to_string()
        });
        return Ok(Untraced {
            stats: daemon.host.engine().stats(),
            daemon,
            wall_s,
            cpu_s: 0.0,
        });
    }
    let engine = SimEngine::new(programs.clone()).with_threads(bench.threads());
    let cpu = process_cpu_s();
    let t = Instant::now();
    engine.run(list);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu;
    let stats = engine.stats();
    out.check(stats.executed == unique.len() as u64, || {
        format!(
            "executed {} jobs for {} unique",
            stats.executed,
            unique.len()
        )
    });
    for (job, expected) in unique.iter().zip(serial) {
        out.check(&engine.output(job).to_bytes() == expected, || {
            format!("engine and serial outputs differ on {job:?}")
        });
    }
    // Mount the warm engine as a daemon: the probes' requests are then
    // memory hits, as a warm daemon's are.
    let host = EngineHost::new(engine, None);
    let daemon = Daemon::serve(dir, 0, host, programs, serial.to_vec())?;
    Ok(Untraced {
        daemon,
        stats,
        wall_s,
        cpu_s,
    })
}

/// What the tick driver measured on one job.
struct Driven {
    result: TimingResult,
    setup: Duration,
    step: Duration,
    commit: Duration,
}

/// Steps one timing job's cores through the two-phase tick serially,
/// exactly as `simulate_cmp_with_shards_mode` does at one shard, timing
/// the LLC set-up once and the `step_local` and `commit_fills` phases on
/// every [`SAMPLE_EVERY`]th cycle.
fn drive_ticks(program: &Program, job: &TimingJob, mode: ExecMode) -> Driven {
    let cfg = &job.cfg;
    let t = Instant::now();
    let mut llc = SharedLlc::new(cfg.mem).expect("valid LLC geometry");
    let reserved = job.design.storage_profile().llc_resident_bytes as usize;
    if reserved > 0 {
        llc.reserve_metadata_lines(reserved.div_ceil(cfg.mem.block_bytes))
            .expect("reservation fits");
    }
    let code_blocks = program.stats().code_bytes.div_ceil(cfg.mem.block_bytes);
    let first_block = VAddr::new(0x4000_0000).block();
    for i in 0..code_blocks {
        llc.warm_fill(BlockAddr::from_raw(first_block.raw() + i as u64));
    }
    let setup = t.elapsed();

    let mut history = ShiftHistory::with_capacity(cfg.history_entries);
    let llc_latency = llc.mean_access_latency(0).round() as u64;
    let mut cores: Vec<CoreFrontend<'_>> = (0..cfg.cores)
        .map(|id| {
            CoreFrontend::new(
                id,
                program,
                job.design,
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
    let (mut step, mut commit) = (Duration::ZERO, Duration::ZERO);
    let mut now = 0u64;
    while cores.iter().any(|c| !c.is_done()) {
        let sampled = now.is_multiple_of(SAMPLE_EVERY);
        let t0 = sampled.then(Instant::now);
        let (generator, followers) = cores.split_first_mut().expect("at least one core");
        generator.step_local(now, &mut HistoryView::Writer(&mut history));
        for core in followers {
            core.step_local(now, &mut HistoryView::Reader(&history));
        }
        let t1 = sampled.then(Instant::now);
        for core in cores.iter_mut() {
            core.commit_fills(now, &mut llc);
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            step += t1 - t0;
            commit += t1.elapsed();
        }
        now += 1;
        assert!(now < guard, "tick driver exceeded the cycle guard");
    }
    Driven {
        result: TimingResult {
            design: job.design,
            per_core: cores.iter().map(|c| c.stats()).collect(),
            total_cycles: now,
        },
        setup,
        step,
        commit,
    }
}

/// One timing job at 1 shard against 2 shards, alternated twice; the
/// ratio of the best times. Both must give the same result.
fn shard_speedup(program: &Program, job: &TimingJob, mode: ExecMode, out: &mut Traced) -> f64 {
    let mut best = [f64::INFINITY; 2];
    let mut results = Vec::new();
    for _ in 0..2 {
        for (slot, shards) in [1, 2].into_iter().enumerate() {
            let t = Instant::now();
            let r = simulate_cmp_with_shards_mode(program, job.design, &job.cfg, shards, mode);
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
            results.push(r);
        }
    }
    out.check(results.windows(2).all(|w| w[0] == w[1]), || {
        "sharded and serial timing results differ".to_string()
    });
    ratio(best[0], best[1])
}

/// Per-instruction host cost of each modelled structure.
struct StructureCosts {
    btb: f64,
    airbtb: f64,
    shift: f64,
    l1i: f64,
}

/// Differential coverage runs on every workload: the stream alone, the
/// harness with a perfect BTB (the L1-I), + SHIFT, then the Baseline1k
/// BTB without SHIFT and the paper AirBTB with it. The BTB is passive in
/// the harness, so each step isolates one structure; see
/// [`attribute`].
fn structure_costs(programs: &Programs, seed: u64, mode: ExecMode) -> StructureCosts {
    let base = CoverageOptions {
        seed: ExperimentConfig::quick().coverage().seed ^ seed,
        ..ExperimentConfig::quick().coverage()
    };
    let shift = base.clone().with_shift();
    let instrs = base.warmup_instrs + base.measure_instrs;
    // Summed over the programs: btb, airbtb, shift, l1i.
    let mut sums = [0.0; 4];
    // The stream alone (`None`), then the harness per structure set.
    let runs: [Option<(BtbSpec, &CoverageOptions)>; 5] = [
        None,
        Some((BtbSpec::Perfect, &base)),
        Some((BtbSpec::Perfect, &shift)),
        Some((BtbSpec::Baseline1k, &base)),
        Some((BtbSpec::airbtb_paper(), &shift)),
    ];
    for (_, program) in programs {
        let mut times = [[0.0; DIFF_REPS]; 5];
        for rep in 0..DIFF_REPS {
            for (run, slot) in runs.iter().zip(&mut times) {
                let t = Instant::now();
                match run {
                    None => {
                        black_box(replay(program, base.seed, instrs, mode));
                    }
                    Some((spec, opts)) => {
                        black_box(run_coverage_with_mode(
                            program,
                            || spec.build(program),
                            opts,
                            mode,
                        ));
                    }
                }
                slot[rep] = t.elapsed().as_secs_f64();
            }
        }
        let [stream, perfect, perfect_shift, baseline, airbtb] = times.map(|t| median(&t));
        let air = attribute(&[stream, perfect, perfect_shift], airbtb);
        let btb = attribute(&[stream, perfect], baseline);
        sums[0] += btb[2];
        sums[1] += air[3];
        sums[2] += air[2];
        sums[3] += air[1];
    }
    let per_instr = |s: f64| s * 1e9 / (instrs as f64 * programs.len() as f64);
    StructureCosts {
        btb: per_instr(sums[0]),
        airbtb: per_instr(sums[1]),
        shift: per_instr(sums[2]),
        l1i: per_instr(sums[3]),
    }
}

/// Per-entry store costs.
struct StoreCosts {
    save_us: f64,
    load_us: f64,
    entry_bytes: f64,
}

/// Saves every serial output to a fresh store, then loads each back.
fn store_probe(
    programs: &Programs,
    unique: &[Job],
    serial: &[JobOutput],
    dir: &Path,
    out: &mut Traced,
) -> Result<StoreCosts, String> {
    let root = dir.join("probe-store");
    let store = ResultStore::open(&root, SCHEMA_VERSION)
        .map_err(|e| format!("cannot open store {}: {e}", root.display()))?;
    let keys: Vec<StoreKey<'_>> = unique
        .iter()
        .map(|job| StoreKey {
            spec: program_of(programs, job.workload()).spec(),
            job,
        })
        .collect();
    let t = Instant::now();
    for (key, output) in keys.iter().zip(serial) {
        store
            .save(key, output)
            .map_err(|e| format!("store save failed: {e}"))?;
    }
    let save = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded: Vec<Option<JobOutput>> = keys.iter().map(|k| store.load(k)).collect();
    let load = t.elapsed().as_secs_f64();
    for (got, want) in loaded.iter().zip(serial) {
        out.check(got.as_ref() == Some(want), || {
            "store round trip changed an output".to_string()
        });
    }
    let bytes: u64 = keys
        .iter()
        .map(|k| std::fs::metadata(store.entry_path(k)).map_or(0, |m| m.len()))
        .sum();
    let n = keys.len() as f64;
    Ok(StoreCosts {
        save_us: ratio(save * 1e6, n),
        load_us: ratio(load * 1e6, n),
        entry_bytes: ratio(bytes as f64, n),
    })
}

/// Client, daemon and codec costs.
struct ServeCosts {
    connect_ms: f64,
    batch_ms: f64,
    run_job_us: f64,
    finish_batch_ms: f64,
    encode_us: f64,
    decode_us: f64,
}

/// Times the served path's layers on the coverage-cold list (served-warm's
/// request): `Client::connect`, `Client::submit` on an open connection,
/// `EngineHost::run_job`, `snapshot` + `finish_batch`, and the job and
/// output codecs.
fn serve_probe(
    daemon: &Daemon,
    unique: &[Job],
    serial: &[Vec<u8>],
    out: &mut Traced,
) -> Result<ServeCosts, String> {
    let (probe, expected): (Vec<&Job>, Vec<&Vec<u8>>) = unique
        .iter()
        .zip(serial)
        .filter(|(j, _)| !matches!(j, Job::Timing(_)))
        .unzip();
    let payloads: Vec<Vec<u8>> = probe.iter().map(|j| j.to_bytes()).collect();
    let fingerprint = daemon.host.fingerprint();
    let connect = || {
        Client::connect(&daemon.sock, SCHEMA_VERSION, fingerprint)
            .map_err(|e| format!("cannot connect to the daemon: {e}"))
    };

    let mut connect_s = Vec::with_capacity(SERVE_REPS);
    for _ in 0..SERVE_REPS {
        let t = Instant::now();
        let client = connect()?;
        connect_s.push(t.elapsed().as_secs_f64());
        drop(client);
    }
    let mut client = connect()?;
    let mut batch_s = Vec::with_capacity(SERVE_REPS);
    for batch in 0..SERVE_REPS {
        let t = Instant::now();
        let reply = client
            .submit(batch as u64 + 1, payloads.clone())
            .map_err(|e| format!("served batch failed: {e}"))?;
        batch_s.push(t.elapsed().as_secs_f64());
        out.check(reply.outputs.iter().eq(expected.iter().copied()), || {
            "probe batch outputs differ from the serial pass".to_string()
        });
    }
    drop(client);

    let host: &EngineHost = &daemon.host;
    let t = Instant::now();
    for _ in 0..CALL_REPS {
        for payload in &payloads {
            black_box(host.run_job(payload).map_err(|r| r.message)?);
        }
    }
    let run_job = t.elapsed().as_secs_f64() / (CALL_REPS * payloads.len()) as f64;
    let t = Instant::now();
    for _ in 0..CALL_REPS {
        let before = host.snapshot();
        black_box(host.finish_batch(before));
    }
    let finish = t.elapsed().as_secs_f64() / CALL_REPS as f64;

    let outputs: Vec<JobOutput> = expected
        .iter()
        .map(|b| JobOutput::from_bytes(b).expect("serial outputs decode"))
        .collect();
    let pairs = (CALL_REPS * probe.len()) as f64;
    let t = Instant::now();
    for _ in 0..CALL_REPS {
        for (job, output) in probe.iter().zip(&outputs) {
            black_box((job.to_bytes(), output.to_bytes()));
        }
    }
    let encode = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..CALL_REPS {
        for (payload, bytes) in payloads.iter().zip(&expected) {
            black_box((
                Job::from_bytes(payload).ok(),
                JobOutput::from_bytes(bytes).ok(),
            ));
        }
    }
    let decode = t.elapsed().as_secs_f64();

    Ok(ServeCosts {
        connect_ms: median(&connect_s) * 1e3,
        batch_ms: median(&batch_s) * 1e3,
        run_job_us: run_job * 1e6,
        finish_batch_ms: finish * 1e3,
        encode_us: ratio(encode * 1e6, pairs),
        decode_us: ratio(decode * 1e6, pairs),
    })
}
