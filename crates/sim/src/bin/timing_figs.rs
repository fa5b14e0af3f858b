//! Regenerates the three timing figures (2, 6, 7) in one pass over a
//! shared engine: the batched job set is deduplicated, so the Baseline and
//! every design point shared between the figures is simulated once. The
//! batch is pure CMP timing work, each job on one worker at one shard, so
//! `--compare-serial` here measures the job-grain speedup of timing runs
//! specifically, and asserts the pool's rendering is byte-identical to a
//! fully serial reference.
//!
//! Usage: `timing_figs [--quick] [--csv|--markdown] [--threads N]
//! [--compare-serial] [--store-dir DIR | --no-store] [--store-cap-bytes N]
//! [--connect SOCK]`. `CONFLUENCE_STORE=DIR` also enables the persistent
//! result store; `--connect` submits the batch to a `confluence-serve`
//! daemon instead of simulating in process.

use confluence_sim::cli;
use confluence_sim::experiments::{self, ExperimentConfig, FIG2_DESIGNS, FIG6_DESIGNS};
use confluence_sim::report::Report;
use confluence_sim::SimEngine;

fn figure_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<confluence_sim::Job> {
    // Batch all three figures' jobs so shared design points run once.
    let mut jobs = experiments::fig_perf_area_jobs(engine, &FIG2_DESIGNS, cfg);
    jobs.extend(experiments::fig_perf_area_jobs(engine, &FIG6_DESIGNS, cfg));
    jobs.extend(experiments::fig7_jobs(engine, cfg));
    jobs
}

fn figures(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Report> {
    vec![
        experiments::fig2(engine, cfg),
        experiments::fig6(engine, cfg),
        experiments::fig7(engine, cfg),
    ]
}

const USAGE: &str = "timing_figs [--quick] [--csv | --markdown] [--compare-serial] \
     [--threads N] [--store-dir DIR | --no-store] [--store-cap-bytes N] \
     [--peer SOCK]... [--peer-timeout-ms N] [--no-fastpath] [--connect SOCK]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let switches = [cli::COMMON_SWITCHES, &["--compare-serial"]].concat();
    let values = [cli::COMMON_VALUE_FLAGS, &["--connect"]].concat();
    cli::reject_unknown_args(&args, &switches, &values, USAGE);
    let flags = cli::parse_common(&args);
    let compare = args.iter().any(|a| a == "--compare-serial");
    let cfg = flags.config();
    let mut engine = cfg.engine().with_exec_mode(cli::exec_mode_from_args(&args));
    if let Some(n) = flags.threads {
        engine = engine.with_threads(n);
    }
    let engine = cli::attach_store(engine, &args);

    let jobs = figure_jobs(&engine, &cfg);
    let run = cli::dispatch_batch(&engine, &jobs, "for 3 timing figures", &args);
    let reports = figures(&engine, &cfg);
    let rendered = cli::finish_batch(&engine, &flags, &run, &reports, &args);

    if compare {
        cli::compare_serial(&engine, &flags, &jobs, &run, &rendered, |reference| {
            figures(reference, &cfg)
        });
    }
}
