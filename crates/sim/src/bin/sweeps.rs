//! Runs registered sensitivity-sweep studies through a shared
//! [`confluence_sim::SimEngine`].
//!
//! Studies are declarative [`confluence_sim::SweepSpec`]s from
//! `confluence_sim::sweeps::registry()`; their points reuse the figure
//! suite's configurations wherever they coincide, so a store populated by
//! `all_experiments` serves most of a sweep from disk.
//!
//! With no `--study`, every registered study runs; `--list` prints the
//! registry. `CONFLUENCE_STORE=DIR` also enables the persistent result
//! store; `--connect` submits the batch to a `confluence-serve` daemon
//! instead of simulating in process. The flags are listed by the usage
//! line that `confluence_sim::cli` renders from the table in `main`,
//! printed on any argument error.

use confluence_sim::cli;
use confluence_sim::sweeps;

fn main() {
    let cli = cli::parse(&[
        &[cli::LIST, cli::STUDY],
        cli::OUTPUT_FLAGS,
        cli::ENGINE_FLAGS,
        &[cli::CONNECT],
    ]);
    if cli.args.switch("--list") {
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
    let studies = cli.studies(sweeps::find, sweeps::registry);
    cli.run_reports(
        &format!("across {} studies", studies.len()),
        |engine, cfg| studies.iter().flat_map(|s| s.jobs(engine, cfg)).collect(),
        |engine, cfg| studies.iter().map(|s| s.report(engine, cfg)).collect(),
    );
}
