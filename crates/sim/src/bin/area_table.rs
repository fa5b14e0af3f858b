//! Regenerates the paper's storage/area accounting.
//!
//! The table is pure arithmetic over the design points' storage
//! profiles — no simulations run, so none of the suite-wide engine or
//! store options apply here: only the output-format switches, listed by
//! the usage line printed on any argument error.

use confluence_sim::cli;
use confluence_sim::experiments;

fn main() {
    let cli = cli::parse(&[cli::OUTPUT_FLAGS]);
    println!("{}", cli.render(&experiments::area_table()));
}
