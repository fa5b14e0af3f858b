//! Regenerates the three timing figures (2, 6, 7) in one pass over a
//! shared engine: the batched job set is deduplicated, so the Baseline and
//! every design point shared between the figures is simulated once. The
//! batch is pure CMP timing work, each job on one worker at one shard, so
//! `--compare-serial` here measures the job-grain speedup of timing runs
//! specifically, and asserts the pool's rendering is byte-identical to a
//! fully serial reference.
//!
//! `CONFLUENCE_STORE=DIR` also enables the persistent result store;
//! `--connect` submits the batch to a `confluence-serve` daemon instead
//! of simulating in process. The flags are listed by the usage line that
//! `confluence_sim::cli` renders from the table in `main`, printed on any
//! argument error.

use confluence_sim::cli;
use confluence_sim::experiments::{fig2, fig6, fig7};

fn main() {
    cli::parse(&[
        cli::OUTPUT_FLAGS,
        cli::ENGINE_FLAGS,
        &[cli::COMPARE_SERIAL, cli::CONNECT],
    ])
    .run_reports("for 3 timing figures", |results, cfg| {
        vec![fig2(results, cfg), fig6(results, cfg), fig7(results, cfg)]
    });
}
