//! Regenerates the paper's l1i_coverage result: [`confluence_sim::cli::run_figure`]
//! runs the jobs its formatter reads as one batch, then prints the report.
//! Flags: listed by the usage line printed on any argument error;
//! `CONFLUENCE_STORE=DIR` also enables the store.

fn main() {
    confluence_sim::cli::run_figure(confluence_sim::experiments::l1i_coverage);
}
