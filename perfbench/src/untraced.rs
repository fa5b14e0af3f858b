//! The untraced runs, which alone give the end-to-end numbers. Each
//! workload runs a fixed number of batches, [`Bench::batches`] of
//! `--seconds`, so every commit measures the same work; set-up and the
//! correctness checks run outside the timed windows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use confluence_sim::SimEngine;
use confluence_store::Encode;
use confluence_types::DetRng;

use crate::arith::median;
use crate::host::{self, process_cpu_s, RunDir};
use crate::jobs::{self, Bench};
use crate::served::{self, Daemon, SetupParts};

/// Set-ups per run, at least: `setup_s` is their median.
const SETUPS: usize = 11;

/// Salt separating the correctness sample's RNG from the job seeds.
const SAMPLE_SALT: u64 = 0x5A3_97E5;

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed batch (a whole job list on the cold
    /// workloads, one request on served-warm).
    pub batch_s: Vec<f64>,
    /// Process CPU seconds over all timed batches.
    pub cpu_s: f64,
    /// Peak RSS of each peak window, in MiB: one per batch on the cold
    /// workloads, one over all requests on served-warm.
    pub peak_mb: Vec<f64>,
    /// Operations attempted: jobs on the cold workloads, requests on
    /// served-warm.
    pub attempted: u64,
    /// Operations that errored, panicked or failed the correctness gate.
    pub failed: u64,
    /// FNV-1a digest of the outputs of the `--seed` list (a cold run's
    /// first batch; every served request).
    pub digest: u64,
    /// Why operations failed, for stderr.
    pub problems: Vec<String>,
}

/// A cold workload: batch `b` of [`Bench::batches`] is a fresh engine
/// over freshly generated and translated programs (one set-up), running
/// the whole job list under [`jobs::batch_seed`]`(seed, b)`.
pub fn run_cold(bench: Bench, seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let mut rng = DetRng::seed_from(seed ^ SAMPLE_SALT);
    for batch in 0..bench.batches(seconds) {
        reset_peak();
        let (programs, generate_s, compile_s) = jobs::generate_programs();
        m.setup_s.push(generate_s + compile_s);
        let list = bench.jobs(&programs, jobs::batch_seed(seed, batch));
        let unique = jobs::unique(&list);
        let engine = SimEngine::new(programs).with_threads(bench.threads());
        let cpu = process_cpu_s();
        let t = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| engine.run(&list)));
        m.batch_s.push(t.elapsed().as_secs_f64());
        m.cpu_s += process_cpu_s() - cpu;
        m.peak_mb.push(host::peak_rss_mb());
        m.attempted += unique.len() as u64;
        if ran.is_err() {
            m.failed += unique.len() as u64;
            m.problems.push("a batch panicked".to_string());
        } else {
            let outputs: Vec<Vec<u8>> =
                unique.iter().map(|j| engine.output(j).to_bytes()).collect();
            m.failed += check_cold_batch(&engine, &unique, &outputs, &mut rng, &mut m.problems);
            if batch == 0 {
                m.digest = jobs::digest(&outputs);
            }
        }
        // The engine owns this batch's programs: dropping it here keeps
        // the peak RSS to one program set.
    }
    while m.setup_s.len() < SETUPS {
        let (_, generate_s, compile_s) = jobs::generate_programs();
        m.setup_s.push(generate_s + compile_s);
    }
    m
}

/// Opens a peak-RSS window; see [`host::reset_peak_rss`].
fn reset_peak() {
    if let Err(e) = host::reset_peak_rss() {
        eprintln!("warning: cannot reset VmHWM ({e}); peak_rss_mb holds earlier work too");
    }
}

/// The correctness gate of one cold batch; returns its failed jobs.
/// Exactly-once (executed equals unique), and a seed-chosen sample
/// re-run through the reference executor at one shard, compared bit for
/// bit with the batch's encoded `outputs`.
fn check_cold_batch(
    engine: &SimEngine,
    unique: &[confluence_sim::Job],
    outputs: &[Vec<u8>],
    rng: &mut DetRng,
    problems: &mut Vec<String>,
) -> u64 {
    let executed = engine.stats().executed;
    let mut bad = vec![false; unique.len()];
    for i in jobs::reference_mismatches(engine.workloads(), unique, outputs, rng) {
        bad[i] = true;
        problems.push(format!("job {i} differs from the reference executor"));
    }
    let extra = executed.abs_diff(unique.len() as u64);
    if extra > 0 {
        problems.push(format!(
            "executed {executed} jobs for {} unique",
            unique.len()
        ));
    }
    (bad.iter().filter(|&&b| b).count() as u64 + extra).min(unique.len() as u64)
}

/// served-warm: a closed loop of one client sending
/// [`Bench::batches`] requests to a daemon. The outputs are executed
/// once in process before any set-up; each of the [`SETUPS`] set-ups
/// then fills a fresh store with them and starts a daemon, and the last
/// one serves the timed requests.
///
/// # Errors
///
/// A set-up that fails: the run has nothing to measure.
pub fn run_served(seed: u64, seconds: f64) -> Result<Measured, String> {
    let run_dir = RunDir::create().map_err(|e| format!("cannot create the run directory: {e}"))?;
    let mut m = Measured::default();
    let (programs, _, _) = jobs::generate_programs();
    let list = Bench::ServedWarm.jobs(&programs, seed);
    let unique = jobs::unique(&list);
    let t = Instant::now();
    let outputs = served::execute_in_process(&programs, &list, &unique)?;
    println!(
        "in-process execution of {} unique jobs: {:.3} s (not in setup_s)",
        unique.len(),
        t.elapsed().as_secs_f64()
    );
    let mut daemon: Option<Daemon> = None;
    let mut parts = Vec::with_capacity(SETUPS);
    for tag in 0..SETUPS {
        // One daemon at a time, so the peak RSS is one set-up's.
        if let Some(old) = daemon.take() {
            old.stop();
        }
        let t = Instant::now();
        let (started, part) =
            Daemon::start(run_dir.path(), tag, programs.clone(), &unique, &outputs)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        daemon = Some(started);
        parts.push(part);
    }
    let daemon = daemon.expect("at least one set-up");
    let part_median = |f: fn(&SetupParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    println!(
        "set-up parts, medians: programs {:.4} s, store fill {:.4} s, daemon start {:.4} s",
        part_median(|p| p.programs_s),
        part_median(|p| p.fill_s),
        part_median(|p| p.start_s)
    );

    reset_peak();
    let cpu = process_cpu_s();
    for _ in 0..Bench::ServedWarm.batches(seconds) {
        let (latency, served) = daemon.request(&list, &unique);
        m.batch_s.push(latency);
        m.attempted += 1;
        let problem = match served {
            Err(e) => Some(e),
            Ok(outputs) if outputs != daemon.expected => {
                Some("served outputs differ from the in-process outputs".to_string())
            }
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            m.failed += 1;
            if m.problems.len() < 10 {
                m.problems.push(problem);
            }
        }
    }
    m.cpu_s = process_cpu_s() - cpu;
    m.peak_mb.push(host::peak_rss_mb());
    m.digest = jobs::digest(&daemon.expected);
    daemon.stop();
    Ok(m)
}
