//! The experiment daemon: one warm [`confluence_sim::SimEngine`] (and
//! optionally one persistent store) serving job batches to many
//! concurrent clients over a Unix-domain socket, for as long as the
//! process lives.
//!
//! Clients are the ordinary batch binaries run with `--connect SOCK`
//! (`all_experiments`, `sweeps`, `timing_figs`); their stdout is
//! byte-identical to an in-process run, while all execution, caching,
//! and store maintenance happen here.
//!
//! Usage: `confluence-serve --socket PATH [--quick] [--threads N]
//! [--store-dir DIR | --no-store] [--store-cap-bytes N]
//! [--peer SOCK]... [--peer-timeout-ms N] [--no-fastpath]`
//!
//! `--peer SOCK` (repeatable) names other daemons forming a **remote
//! warm tier**: a key that misses this daemon's memory and disk is
//! fetched from the peers in one batched round trip, re-verified
//! byte-for-byte, promoted into the local store, and served — so a
//! fleet of daemons shares warmth without sharing a filesystem. A dead
//! peer degrades to local simulation; see README "The remote warm
//! tier".
//!
//! The scale flags (`--quick` vs full) fix the workload configuration
//! for the daemon's lifetime; clients built over a different
//! configuration are refused at handshake with a typed `ConfigMismatch`
//! rather than served aliased results. A ready line is printed to
//! stderr once the socket is listening.

use std::sync::Arc;

use confluence_serve::Server;
use confluence_sim::cli;
use confluence_sim::daemon::EngineHost;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(socket) = cli::socket_from_args(&args) else {
        eprintln!("error: confluence-serve requires --socket PATH");
        std::process::exit(2);
    };
    if cli::connect_from_args(&args).is_some() {
        eprintln!("error: --connect is a client flag; the daemon listens with --socket");
        std::process::exit(2);
    }
    cli::reject_unknown_args(
        &args,
        &["--quick", "--no-store", "--no-fastpath"],
        &[
            "--socket",
            "--threads",
            "--store-dir",
            "--store-cap-bytes",
            "--peer",
            "--peer-timeout-ms",
        ],
        "confluence-serve --socket PATH [--quick] [--threads N] \
         [--store-dir DIR | --no-store] [--store-cap-bytes N] \
         [--peer SOCK]... [--peer-timeout-ms N] [--no-fastpath]",
    );
    let flags = cli::parse_common(&args);
    let cfg = flags.config();

    eprintln!("generating workloads...");
    let mut engine = cfg.engine().with_exec_mode(cli::exec_mode_from_args(&args));
    if let Some(n) = flags.threads {
        engine = engine.with_threads(n);
    }
    let engine = cli::attach_store(engine, &args);
    let store = match engine.store() {
        Some(s) => format!("store {}", s.root().display()),
        None => "store disabled".to_string(),
    };
    let peers = match engine.peers() {
        Some(p) => format!(
            ", {} peer(s) [{}]",
            p.sockets().len(),
            p.sockets()
                .iter()
                .map(|s| s.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        None => String::new(),
    };
    let host = Arc::new(EngineHost::new(engine, cli::store_cap_from_args(&args)));

    let server = match Server::bind(&socket, Arc::clone(&host)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", socket.display());
            std::process::exit(1);
        }
    };
    eprintln!(
        "confluence-serve: listening on {} ({} mode, schema v{}, config {:016x}, \
         {} thread(s), {store}{peers})",
        socket.display(),
        if flags.quick { "quick" } else { "full" },
        confluence_sim::SCHEMA_VERSION,
        host.fingerprint(),
        host.engine().threads(),
    );
    if let Err(e) = server.run() {
        eprintln!("error: daemon accept loop failed: {e}");
        std::process::exit(1);
    }
}
