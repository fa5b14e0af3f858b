//! Runs every table/figure reproduction through one shared [`SimEngine`]
//! and prints the full suite.
//!
//! All figures' jobs are batched and executed on the engine's worker pool
//! first — most expensive first, one job per worker — with each unique
//! `(workload, design/BTB-spec, options)` simulation run exactly once
//! across the whole suite; the
//! figures then format from the warm cache. With a persistent store
//! attached (`--store-dir`, or `CONFLUENCE_STORE=DIR`), results also
//! survive the process: a second run against the same store executes
//! nothing and emits byte-identical reports. `--compare-serial` re-runs
//! the same batch on a fresh single-threaded engine, asserts the two
//! renderings are byte-identical, and reports the wall-clock speedup.
//!
//! Usage: `all_experiments [--quick] [--csv] [--markdown] [--serial]
//! [--compare-serial] [--threads N] [--store-dir DIR | --no-store]
//! [--store-cap-bytes N] [--connect SOCK]`
//!
//! With `--connect SOCK` (or `CONFLUENCE_CONNECT=SOCK`) the batch is
//! submitted to a running `confluence-serve` daemon instead of being
//! simulated in process; stdout is byte-identical either way.

use confluence_sim::cli;
use confluence_sim::experiments;

const USAGE: &str = "all_experiments [--quick] [--csv | --markdown] [--serial | \
     --compare-serial] [--threads N] [--store-dir DIR | --no-store] \
     [--store-cap-bytes N] [--peer SOCK]... [--peer-timeout-ms N] \
     [--no-warm-artifacts] [--no-fastpath] [--connect SOCK]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let switches = [cli::COMMON_SWITCHES, &["--serial", "--compare-serial"]].concat();
    let values = [cli::COMMON_VALUE_FLAGS, &["--connect"]].concat();
    cli::reject_unknown_args(&args, &switches, &values, USAGE);
    let flags = cli::parse_common(&args);
    let serial = args.iter().any(|a| a == "--serial");
    let compare = args.iter().any(|a| a == "--compare-serial");
    if serial && flags.threads.is_some() {
        eprintln!("error: --serial and --threads are mutually exclusive");
        std::process::exit(2);
    }
    let cfg = flags.config();

    eprintln!("generating workloads...");
    let mut engine = cfg.engine().with_exec_mode(cli::exec_mode_from_args(&args));
    if serial {
        engine = engine.with_threads(1);
    } else if let Some(n) = flags.threads {
        engine = engine.with_threads(n);
    }
    let engine = cli::attach_store(engine, &args);

    let jobs = experiments::all_jobs(&engine, &cfg);
    let run = cli::dispatch_batch(&engine, &jobs, "across figures", &args);
    let reports = experiments::suite_reports(&engine, &cfg);
    let rendered = cli::finish_batch(&engine, &flags, &run, &reports, &args);

    if compare && !serial {
        cli::compare_serial(&engine, &flags, &jobs, &run, &rendered, |reference| {
            experiments::suite_reports(reference, &cfg)
        });
    }
}
