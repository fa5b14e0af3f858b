//! Runs registered design-space searches over the experiment engine.
//!
//! Each study iterates a seeded [`confluence_search::SearchStrategy`]
//! against the shared memoizing engine: batches of candidate points
//! become content-keyed jobs (the same jobs the sweeps run, where the
//! spaces coincide), so a store populated by `all_experiments` or a
//! previous search serves re-runs without executing a single
//! simulation — stderr reports exactly how many ran.
//!
//! Usage: `search [--list] [--study NAME]... [--seed N] [--quick]
//! [--csv | --markdown] [--threads N] [--store-dir DIR | --no-store]
//! [--store-cap-bytes N] [--no-fastpath] [--connect SOCK]`
//!
//! With no `--study`, every registered study runs. `--connect` submits
//! each search batch to a `confluence-serve` daemon instead of
//! simulating in process; stdout stays byte-identical either way.

use confluence_search::{driver, objective};
use confluence_sim::cli;

const USAGE: &str = "search [--list] [--study NAME]... [--seed N] [--quick] \
     [--csv | --markdown] [--threads N] [--store-dir DIR | --no-store] \
     [--store-cap-bytes N] [--peer SOCK]... [--peer-timeout-ms N] \
     [--no-fastpath] [--connect SOCK]";

/// The `--seed N` / `--seed=N` value, defaulting to 42. Exits with
/// status 2 on a malformed value.
fn seed_from_args(args: &[String]) -> u64 {
    let mut found: Option<&str> = None;
    let mut i = 1;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--seed=") {
            found = Some(v);
        } else if args[i] == "--seed" {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    found = Some(v);
                    i += 1;
                }
                _ => {
                    eprintln!("error: --seed requires an integer value");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    match found {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: --seed requires an integer value, got '{v}'");
            std::process::exit(2);
        }),
        None => 42,
    }
}

/// Every `--study NAME` / `--study=NAME` selection, resolved against the
/// registry. Exits with status 2 on an unknown name.
fn studies_from_args(args: &[String]) -> Vec<objective::Study> {
    let resolve = |name: &str| {
        objective::find(name).unwrap_or_else(|| {
            eprintln!("error: unknown study '{name}' (try --list)");
            std::process::exit(2);
        })
    };
    let mut selected = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--study=") {
            selected.push(resolve(name));
        } else if args[i] == "--study" {
            match args.get(i + 1) {
                Some(name) if !name.starts_with("--") => {
                    selected.push(resolve(name));
                    i += 1;
                }
                _ => {
                    eprintln!("error: --study requires a name (try --list)");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    if selected.is_empty() {
        objective::registry()
    } else {
        selected
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let switches = [cli::COMMON_SWITCHES, &["--list"]].concat();
    let values = [cli::COMMON_VALUE_FLAGS, &["--study", "--seed", "--connect"]].concat();
    cli::reject_unknown_args(&args, &switches, &values, USAGE);

    if args.iter().any(|a| a == "--list") {
        for s in objective::registry() {
            println!("{:18} {:18} {}", s.name, s.strategy_name(), s.caption);
        }
        return;
    }

    let flags = cli::parse_common(&args);
    let seed = seed_from_args(&args);
    let studies = studies_from_args(&args);
    let cfg = flags.config();

    eprintln!("generating workloads...");
    let mut engine = cfg.engine().with_exec_mode(cli::exec_mode_from_args(&args));
    if let Some(n) = flags.threads {
        engine = engine.with_threads(n);
    }
    let engine = cli::attach_store(engine, &args);
    let connect = cli::connect_from_args(&args);

    let mut daemon_executed: u64 = 0;
    let mut total_iterations = 0;
    for study in &studies {
        eprintln!(
            "searching {} ({}, seed {seed})...",
            study.name,
            study.strategy_name()
        );
        let outcome = driver::run_search(&engine, &cfg, study, seed, |jobs| match &connect {
            Some(sock) => match confluence_sim::daemon::submit_jobs(sock, &engine, jobs) {
                Ok(stats) => daemon_executed += stats.executed,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            },
            None => {
                engine.run(jobs);
            }
        });
        println!("{}", flags.render(&outcome.trajectory));
        println!("{}", flags.render(&outcome.frontier));
        println!("{}", flags.render(&outcome.answer));
        total_iterations += outcome.iterations;
    }

    cli::run_store_gc(&engine, &args);
    match &connect {
        Some(_) => eprintln!(
            "search: daemon executed {daemon_executed} simulations across \
             {total_iterations} search iterations"
        ),
        None => {
            eprintln!(
                "search: executed {} simulations across {total_iterations} search iterations",
                engine.stats().executed
            );
            eprintln!("{}", cli::cache_summary(&engine));
        }
    }
}
