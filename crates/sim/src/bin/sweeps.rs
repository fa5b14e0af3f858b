//! Runs registered sensitivity-sweep studies through a shared
//! [`confluence_sim::SimEngine`].
//!
//! Studies are declarative [`confluence_sim::SweepSpec`]s from
//! `confluence_sim::sweeps::registry()`; their points reuse the figure
//! suite's configurations wherever they coincide, so a store populated by
//! `all_experiments` serves most of a sweep from disk.
//!
//! Usage: `sweeps [--list] [--study NAME]... [--quick] [--csv | --markdown]
//! [--threads N] [--store-dir DIR | --no-store] [--store-cap-bytes N]
//! [--connect SOCK]`
//!
//! With no `--study`, every registered study runs. `CONFLUENCE_STORE=DIR`
//! also enables the persistent result store; `--connect` submits the
//! batch to a `confluence-serve` daemon instead of simulating in process.

use confluence_sim::cli;
use confluence_sim::sweeps;
use confluence_sim::Job;

const USAGE: &str = "sweeps [--list] [--study NAME]... [--quick] [--csv | --markdown] \
     [--threads N] [--store-dir DIR | --no-store] [--store-cap-bytes N] \
     [--peer SOCK]... [--peer-timeout-ms N] [--no-fastpath] [--connect SOCK]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let switches = [cli::COMMON_SWITCHES, &["--list"]].concat();
    let values = [cli::COMMON_VALUE_FLAGS, &["--study", "--connect"]].concat();
    cli::reject_unknown_args(&args, &switches, &values, USAGE);
    if args.iter().any(|a| a == "--list") {
        for s in sweeps::registry() {
            println!(
                "{:16} {:28} {} points",
                s.name,
                s.axis.parameter(),
                s.axis.len()
            );
        }
        return;
    }

    let flags = cli::parse_common(&args);

    // Repeatable --study NAME / --study=NAME; no occurrences selects the
    // full registry.
    let resolve = |name: &str| match sweeps::find(name) {
        Some(spec) => spec,
        None => {
            eprintln!("error: unknown study '{name}' (try --list)");
            std::process::exit(2);
        }
    };
    let mut selected = Vec::new();
    let mut i = 0;
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
    let studies = if selected.is_empty() {
        sweeps::registry()
    } else {
        selected
    };

    let cfg = flags.config();

    eprintln!("generating workloads...");
    let mut engine = cfg.engine().with_exec_mode(cli::exec_mode_from_args(&args));
    if let Some(n) = flags.threads {
        engine = engine.with_threads(n);
    }
    let engine = cli::attach_store(engine, &args);

    let jobs: Vec<Job> = studies.iter().flat_map(|s| s.jobs(&engine, &cfg)).collect();
    let run = cli::dispatch_batch(
        &engine,
        &jobs,
        &format!("across {} studies", studies.len()),
        &args,
    );
    let reports: Vec<_> = studies.iter().map(|s| s.report(&engine, &cfg)).collect();
    cli::finish_batch(&engine, &flags, &run, &reports, &args);
}
