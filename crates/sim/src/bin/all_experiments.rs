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
//! With `--connect SOCK` (or `CONFLUENCE_CONNECT=SOCK`) the batch is
//! submitted to a running `confluence-serve` daemon instead of being
//! simulated in process; stdout is byte-identical either way.
//!
//! The flags are listed by the usage line that `confluence_sim::cli`
//! renders from the table in `main`, printed on any argument error.

use confluence_sim::cli;
use confluence_sim::experiments;

fn main() {
    cli::parse(&[
        cli::OUTPUT_FLAGS,
        cli::ENGINE_FLAGS,
        &[cli::COMPARE_SERIAL, cli::CONNECT],
    ])
    .run_reports(
        "across figures",
        experiments::all_jobs,
        experiments::suite_reports,
    );
}
