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
//! `--socket PATH` is required; the other flags are the engine flags of
//! every batch binary (`confluence_sim::cli::ENGINE_FLAGS`), listed by
//! the usage line printed on any argument error. The daemon declares no
//! `--connect`, so a shell that exports `CONFLUENCE_CONNECT` for its
//! clients can still start it. The socket is bound before any workload
//! is generated, so a path that cannot be bound (a regular file, a
//! missing directory) exits 2 like any other argument error.
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
//! stderr once the engine is built and the daemon accepts; a client
//! that connects earlier waits in the socket's backlog.

use std::path::PathBuf;
use std::sync::Arc;

use confluence_serve::Listener;
use confluence_sim::cli::{self, Flag};
use confluence_sim::daemon::EngineHost;

const SOCKET: Flag = Flag::value("--socket", "PATH", "a socket path");

fn main() {
    let mut cli = cli::parse(&[&[SOCKET], cli::ENGINE_FLAGS]);
    let Some(socket) = cli.args.value("--socket").map(PathBuf::from) else {
        cli::fail("confluence-serve requires --socket PATH");
    };
    // Bound before the workloads are generated, so a path that cannot
    // be bound is refused like any other argument error.
    let listener = Listener::bind(&socket)
        .unwrap_or_else(|e| cli::fail(&format!("cannot bind {}: {e}", socket.display())));
    let engine = cli.engine();
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
    let host = Arc::new(EngineHost::new(engine, cli.store_cap));
    let server = listener.serve(Arc::clone(&host));
    eprintln!(
        "confluence-serve: listening on {} ({} mode, schema v{}, config {:016x}, \
         {} thread(s), {store}{peers})",
        socket.display(),
        if cli.cfg.quick { "quick" } else { "full" },
        confluence_sim::SCHEMA_VERSION,
        host.fingerprint(),
        host.engine().threads(),
    );
    if let Err(e) = server.run() {
        eprintln!("error: daemon accept loop failed: {e}");
        std::process::exit(1);
    }
}
