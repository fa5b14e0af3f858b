//! Runs registered design-space searches over the experiment engine.
//!
//! Each study iterates a seeded [`confluence_search::SearchStrategy`]
//! against the shared memoizing engine: batches of candidate points
//! become content-keyed jobs (the same jobs the sweeps run, where the
//! spaces coincide), so a store populated by `all_experiments` or a
//! previous search serves re-runs without executing a single
//! simulation — stderr reports exactly how many ran.
//!
//! With no `--study`, every registered study runs; `--seed N` (default
//! 42) seeds every strategy. `--connect` submits each search batch to a
//! `confluence-serve` daemon instead of simulating in process; stdout
//! stays byte-identical either way. The flags are listed by the usage
//! line that `confluence_sim::cli` renders from the table in `main`,
//! printed on any argument error.

use confluence_search::{driver, objective};
use confluence_sim::cli::{self, Flag};

const SEED: Flag = Flag::value("--seed", "N", "an integer value");

fn main() {
    let mut cli = cli::parse(&[
        &[cli::LIST, cli::STUDY, SEED],
        cli::OUTPUT_FLAGS,
        cli::ENGINE_FLAGS,
        &[cli::CONNECT],
    ]);
    if cli.args.switch("--list") {
        for s in objective::registry() {
            println!("{:18} {:18} {}", s.name, s.strategy_name(), s.caption);
        }
        return;
    }
    let seed = cli
        .args
        .parsed("--seed")
        .unwrap_or_else(|e| cli::fail(&e))
        .unwrap_or(42);
    let studies = cli.studies(objective::find, objective::registry);
    let engine = cli.engine();

    let mut daemon_executed: u64 = 0;
    let mut total_iterations = 0;
    for study in &studies {
        eprintln!(
            "searching {} ({}, seed {seed})...",
            study.name,
            study.strategy_name()
        );
        let outcome = driver::run_search(&engine, &cli.cfg, study, seed, |jobs| {
            if let Some(stats) = cli.run_jobs(&engine, jobs) {
                daemon_executed += stats.executed;
            }
        });
        println!("{}", cli.render(&outcome.trajectory));
        println!("{}", cli.render(&outcome.frontier));
        println!("{}", cli.render(&outcome.answer));
        total_iterations += outcome.iterations;
    }

    engine.apply_store_cap(cli.store_cap);
    if cli.connect().is_some() {
        eprintln!(
            "search: daemon executed {daemon_executed} simulations across \
             {total_iterations} search iterations"
        );
    } else {
        eprintln!(
            "search: executed {} simulations across {total_iterations} search iterations",
            engine.stats().executed
        );
        eprintln!(
            "{}",
            cli::cache_summary("cache", &engine.stats(), engine.store())
        );
    }
}
