//! Regenerates the paper's fig6 result through a [`confluence_sim::SimEngine`].
//! Flags: listed by the usage line printed on any argument error (see
//! [`confluence_sim::cli::run_figure`]); `CONFLUENCE_STORE=DIR` also
//! enables the store.

fn main() {
    confluence_sim::cli::run_figure(confluence_sim::experiments::fig6);
}
