//! Shared command-line plumbing for the figure binaries: every runner
//! accepts the same persistent-store options and prints the same cache
//! summary.
//!
//! Resolution order for the store directory:
//!
//! 1. `--no-store` — run with the in-memory cache only;
//! 2. `--store-dir DIR` — explicit location;
//! 3. `CONFLUENCE_STORE=DIR` — environment override for CI and shells;
//! 4. otherwise no persistence.
//!
//! The store is always opened at the current [`SCHEMA_VERSION`]
//! (`crate::codec`), so entries written by older schemas are invisible
//! rather than wrong.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use confluence_store::ResultStore;
use confluence_trace::ExecMode;

use crate::codec::SCHEMA_VERSION;
use crate::engine::{EngineStats, SimEngine};
use crate::experiments::{unique_jobs, ExperimentConfig};
use crate::job::Job;
use crate::report::Report;

/// Environment variable naming the default store directory.
pub const STORE_ENV: &str = "CONFLUENCE_STORE";

/// Environment variable naming the default store size cap in bytes.
pub const STORE_CAP_ENV: &str = "CONFLUENCE_STORE_CAP";

/// Environment variable naming the default daemon socket for
/// `--connect` mode.
pub const CONNECT_ENV: &str = "CONFLUENCE_CONNECT";

/// Environment variable naming default peer sockets for the remote warm
/// tier (comma-separated, same order as repeated `--peer` flags).
pub const PEER_ENV: &str = "CONFLUENCE_PEER";

/// The boolean flags every engine-running binary accepts (the shared
/// half of each binary's known-flag table — see [`reject_unknown_args`]).
pub const COMMON_SWITCHES: &[&str] = &[
    "--quick",
    "--csv",
    "--markdown",
    "--no-store",
    "--no-fastpath",
];

/// The value-taking flags every engine-running binary accepts.
pub const COMMON_VALUE_FLAGS: &[&str] = &[
    "--threads",
    "--store-dir",
    "--store-cap-bytes",
    "--peer",
    "--peer-timeout-ms",
];

/// Everything on the command line that is not in the known-flag tables,
/// in argument order: unknown `--flags`, known switches spelled with a
/// value (`--quick=1`), and stray positional words. `value_flags`
/// consume the following token as their value (space form) unless it
/// looks like another flag, matching [`flag_value`]'s grammar exactly —
/// so a `--threads` with a missing value is *not* reported here (it is
/// `flag_value`'s own exit-2 case, with a more precise message).
pub fn find_unknown_args(args: &[String], switches: &[&str], value_flags: &[&str]) -> Vec<String> {
    let mut unknown = Vec::new();
    let mut i = 1; // args[0] is the binary path
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if let Some(rest) = arg.strip_prefix("--") {
            let name: &str = &arg[..2 + rest.find('=').unwrap_or(rest.len())];
            let has_eq = rest.contains('=');
            if value_flags.contains(&name) {
                if !has_eq {
                    // Space-form value: consume it (when present).
                    if args.get(i).is_some_and(|v| !v.starts_with("--")) {
                        i += 1;
                    }
                }
            } else if !switches.contains(&name) || has_eq {
                unknown.push(arg.clone());
            }
        } else {
            unknown.push(arg.clone());
        }
    }
    unknown
}

/// The strict-parsing gate every binary runs right after collecting its
/// arguments: anything [`find_unknown_args`] flags is an error — printed
/// with the binary's usage line — and exit 2. Before this gate a typo
/// like `--qiuck` silently fell through the string probes and ran the
/// full multi-hour suite.
pub fn reject_unknown_args(args: &[String], switches: &[&str], value_flags: &[&str], usage: &str) {
    let unknown = find_unknown_args(args, switches, value_flags);
    if unknown.is_empty() {
        return;
    }
    for arg in &unknown {
        eprintln!("error: unrecognized argument '{arg}'");
    }
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// The usage tail shared by every single-figure binary (see
/// [`run_figure`]); batch binaries append their extras to it.
pub const FIGURE_USAGE_TAIL: &str = "[--quick] [--csv | --markdown] [--threads N] \
     [--store-dir DIR | --no-store] [--store-cap-bytes N] \
     [--peer SOCK]... [--peer-timeout-ms N] [--no-fastpath]";

/// The value of `--flag V` or `--flag=V` on the command line, else the
/// `env` fallback (when given and non-empty). `what` names the expected
/// value in the error message. Exits with status 2 when the flag is
/// present without a usable value — every option shared by the figure
/// binaries parses through this one helper, so the accepted spellings
/// cannot drift apart.
fn flag_value(args: &[String], flag: &str, what: &str, env: Option<&str>) -> Option<String> {
    let eq_form = format!("{flag}=");
    if let Some(v) = args.iter().find_map(|a| a.strip_prefix(eq_form.as_str())) {
        if v.is_empty() {
            eprintln!("error: {flag} requires {what}");
            std::process::exit(2);
        }
        return Some(v.to_string());
    }
    if let Some(i) = args.iter().position(|a| a == flag) {
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => return Some(v.clone()),
            _ => {
                eprintln!("error: {flag} requires {what}");
                std::process::exit(2);
            }
        }
    }
    env.and_then(std::env::var_os)
        .filter(|v| !v.is_empty())
        .and_then(|v| v.into_string().ok())
}

/// Every value of a **repeatable** `--flag V` / `--flag=V`, in command
/// line order; when the flag never appears, the `env` fallback split on
/// commas. Exits with status 2 on any occurrence without a usable value
/// — a silently dropped peer would quietly turn a fleet-warm run cold.
fn flag_values(args: &[String], flag: &str, what: &str, env: Option<&str>) -> Vec<String> {
    let eq_form = format!("{flag}=");
    let mut values = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if let Some(v) = arg.strip_prefix(eq_form.as_str()) {
            if v.is_empty() {
                eprintln!("error: {flag} requires {what}");
                std::process::exit(2);
            }
            values.push(v.to_string());
        } else if arg == flag {
            match args.get(i) {
                Some(v) if !v.starts_with("--") => {
                    values.push(v.clone());
                    i += 1;
                }
                _ => {
                    eprintln!("error: {flag} requires {what}");
                    std::process::exit(2);
                }
            }
        }
    }
    if values.is_empty() {
        if let Some(list) = env
            .and_then(std::env::var_os)
            .filter(|v| !v.is_empty())
            .and_then(|v| v.into_string().ok())
        {
            values.extend(
                list.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from),
            );
        }
    }
    values
}

/// The execution mode the given command line asks for: `--no-fastpath`
/// forces the reference interpreter, otherwise the
/// [`CONFLUENCE_NO_FASTPATH`](confluence_trace::NO_FASTPATH_ENV)
/// environment variable decides (defaulting to the compiled fast path).
/// Either way the outputs are bit-identical — the flag only trades speed
/// for a shorter audit trail.
pub fn exec_mode_from_args(args: &[String]) -> ExecMode {
    if args.iter().any(|a| a == "--no-fastpath") {
        ExecMode::Reference
    } else {
        ExecMode::from_env()
    }
}

/// The store directory the given command line asks for, if any.
/// Exits with status 2 on a malformed `--store-dir`.
pub fn store_dir_from_args(args: &[String]) -> Option<PathBuf> {
    if args.iter().any(|a| a == "--no-store") {
        return None;
    }
    flag_value(args, "--store-dir", "a path", Some(STORE_ENV)).map(PathBuf::from)
}

/// The daemon socket the command line asks to run against, if any: the
/// `--connect` flag, else the `CONFLUENCE_CONNECT` environment
/// variable. With a socket set, the batch binaries submit their jobs to
/// a running `confluence-serve` instead of simulating in process.
/// Exits with status 2 on a malformed `--connect`.
pub fn connect_from_args(args: &[String]) -> Option<PathBuf> {
    flag_value(args, "--connect", "a socket path", Some(CONNECT_ENV)).map(PathBuf::from)
}

/// The socket path a daemon invocation asks to listen on (`--socket`).
/// Exits with status 2 on a malformed value.
pub fn socket_from_args(args: &[String]) -> Option<PathBuf> {
    flag_value(args, "--socket", "a socket path", None).map(PathBuf::from)
}

/// The per-peer I/O timeout the command line asks for
/// (`--peer-timeout-ms`), defaulting to
/// [`DEFAULT_PEER_TIMEOUT`](crate::peers::DEFAULT_PEER_TIMEOUT).
/// Exits with status 2 on a malformed value.
pub fn peer_timeout_from_args(args: &[String]) -> Duration {
    match flag_value(args, "--peer-timeout-ms", "a millisecond count", None) {
        Some(v) => Duration::from_millis(v.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("error: --peer-timeout-ms requires a millisecond count, got '{v}'");
            std::process::exit(2);
        })),
        None => crate::peers::DEFAULT_PEER_TIMEOUT,
    }
}

/// The remote warm tier the command line asks for: every `--peer SOCK`
/// (repeatable, consulted in order), else the comma-separated
/// [`PEER_ENV`] fallback. Returns `None` when no peers are named. Exits
/// with status 2 on a `--peer` without a value or a malformed
/// `--peer-timeout-ms`.
pub fn peers_from_args(args: &[String]) -> Option<crate::peers::PeerSet> {
    let sockets: Vec<PathBuf> = flag_values(args, "--peer", "a socket path", Some(PEER_ENV))
        .into_iter()
        .map(PathBuf::from)
        .collect();
    if sockets.is_empty() {
        return None;
    }
    Some(crate::peers::PeerSet::new(
        sockets,
        peer_timeout_from_args(args),
    ))
}

/// Attaches the persistent store requested by `args` (if any) to an
/// engine. Exits with status 2 if an explicitly requested store cannot
/// be opened — silently dropping persistence the caller asked for would
/// waste every simulation in the run.
pub fn attach_store(engine: SimEngine, args: &[String]) -> SimEngine {
    // In connect mode persistence belongs to the daemon: jobs never
    // execute locally, so a local store would only record nothing and
    // confuse the accounting. The same goes for peers — read-through
    // happens on whichever engine executes, which is the daemon's.
    if connect_from_args(args).is_some() {
        if store_dir_from_args(args).is_some() {
            eprintln!(
                "note: --connect routes jobs to the daemon's store; ignoring the local store"
            );
        }
        if peers_from_args(args).is_some() {
            eprintln!(
                "note: --connect routes jobs to the daemon; pass --peer to the daemon instead"
            );
        }
        return engine;
    }
    let engine = match store_dir_from_args(args) {
        Some(dir) => match ResultStore::open(&dir, SCHEMA_VERSION) {
            Ok(store) => engine.with_store(store),
            Err(e) => {
                eprintln!("error: cannot open result store at {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
        None => engine,
    };
    match peers_from_args(args) {
        Some(peers) => {
            // Fetched entries are promoted into the local store before
            // they serve — that write-through is what makes a lying
            // peer recoverable (adopt re-verifies every byte) and what
            // keeps repeat runs local. No store, nowhere to promote.
            if engine.store().is_none() {
                eprintln!(
                    "error: --peer requires a persistent store to promote fetched entries \
                     into; pass --store-dir DIR (or set {STORE_ENV})"
                );
                std::process::exit(2);
            }
            engine.with_peers(peers)
        }
        None => engine,
    }
}

/// The store size cap the command line asks for, if any: the
/// `--store-cap-bytes` flag, else the `CONFLUENCE_STORE_CAP` environment
/// variable. Exits with status 2 on a malformed value.
pub fn store_cap_from_args(args: &[String]) -> Option<u64> {
    flag_value(
        args,
        "--store-cap-bytes",
        "a byte count",
        Some(STORE_CAP_ENV),
    )
    .map(|v| {
        v.parse::<u64>().unwrap_or_else(|_| {
            // Name whichever spelling actually supplied the bad value so
            // the fix is obvious from the message alone.
            let source = if args
                .iter()
                .any(|a| a == "--store-cap-bytes" || a.starts_with("--store-cap-bytes="))
            {
                "--store-cap-bytes"
            } else {
                STORE_CAP_ENV
            };
            eprintln!("error: {source} requires a byte count, got '{v}'");
            std::process::exit(2);
        })
    })
}

/// Applies the requested store cap (if any) after a batch: evicts
/// oldest-written entries until the store fits, reporting what went. Runs
/// after the batch — never between jobs — so a capped store still serves
/// every intra-run hit and only sheds history it can re-derive.
pub fn run_store_gc(engine: &SimEngine, args: &[String]) {
    let (Some(store), Some(cap)) = (engine.store(), store_cap_from_args(args)) else {
        return;
    };
    let gc = store.evict_to_cap(cap);
    if gc.evicted_entries > 0 {
        eprintln!(
            "store gc: evicted {} entries ({} bytes) to fit the {} byte cap",
            gc.evicted_entries, gc.evicted_bytes, cap
        );
    }
}

/// The flags shared by the multi-report binaries (`all_experiments`,
/// `sweeps`): scale, output format, and worker-pool width.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommonFlags {
    /// `--quick`: reduced simulation sizes.
    pub quick: bool,
    /// `--csv`: CSV output instead of aligned tables.
    pub csv: bool,
    /// `--markdown`: GitHub-flavoured markdown tables.
    pub markdown: bool,
    /// `--threads N`: explicit worker-pool width.
    pub threads: Option<usize>,
}

impl CommonFlags {
    /// The experiment configuration these flags select.
    pub fn config(&self) -> ExperimentConfig {
        if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::full()
        }
    }

    /// Renders a report in the selected output format.
    pub fn render(&self, r: &Report) -> String {
        if self.csv {
            r.to_csv()
        } else if self.markdown {
            r.to_markdown()
        } else {
            r.to_table()
        }
    }
}

/// Parses the [`CommonFlags`] out of a command line. Exits with status 2
/// on a malformed `--threads` or a malformed store cap
/// (`--store-cap-bytes` / `CONFLUENCE_STORE_CAP`) — bad knobs fail up
/// front, before any workload is generated, instead of being silently
/// replaced by defaults mid-run.
pub fn parse_common(args: &[String]) -> CommonFlags {
    store_cap_from_args(args); // exits 2 on a malformed cap
    let threads = flag_value(args, "--threads", "an integer value", None).map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("error: --threads requires an integer value, got '{v}'");
            std::process::exit(2);
        })
    });
    CommonFlags {
        quick: args.iter().any(|a| a == "--quick"),
        csv: args.iter().any(|a| a == "--csv"),
        markdown: args.iter().any(|a| a == "--markdown"),
        threads,
    }
}

/// The whole main of a single-figure binary: parse the shared flags
/// ([`CommonFlags`] plus the store options), build the engine, render
/// the figure produced by `figure`, and print the cache summary to
/// stderr. The nine `figN`-style binaries differ only in the formatter
/// they pass.
pub fn run_figure(figure: fn(&SimEngine, &ExperimentConfig) -> Report) {
    let args: Vec<String> = std::env::args().collect();
    let name = args
        .first()
        .map(|p| {
            std::path::Path::new(p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.clone())
        })
        .unwrap_or_else(|| "figure".to_string());
    reject_unknown_args(
        &args,
        COMMON_SWITCHES,
        COMMON_VALUE_FLAGS,
        &format!("{name} {FIGURE_USAGE_TAIL}"),
    );
    let flags = parse_common(&args);
    let cfg = flags.config();
    let mut engine = cfg.engine().with_exec_mode(exec_mode_from_args(&args));
    if let Some(n) = flags.threads {
        engine = engine.with_threads(n);
    }
    let engine = attach_store(engine, &args);
    println!("{}", flags.render(&figure(&engine, &cfg)));
    run_store_gc(&engine, &args);
    eprintln!("{}", cache_summary(&engine));
}

/// Accounting from one [`run_batch`] pass, consumed by [`finish_batch`]
/// (purity baseline) and [`compare_serial`] (timed reference).
pub struct BatchRun {
    /// Engine accounting right after the batch returned.
    pub stats: EngineStats,
    /// Wall-clock time of the batch.
    pub elapsed: Duration,
    /// Distinct job keys in the batch.
    pub unique: usize,
    /// The daemon's per-batch accounting, when the batch ran over
    /// `--connect` instead of in process. [`finish_batch`] renders the
    /// cache summary from this instead of the (execution-free) local
    /// engine counters.
    pub daemon: Option<confluence_serve::BatchStats>,
}

/// The batch-run half of a multi-report binary's main: announce the
/// batch, execute it on the engine's pool, and assert the engine's
/// headline contract — every unique simulation ran exactly once or came
/// from the persistent store. The `context` string names the batch in
/// the announcement ("across figures", "across 6 studies", ...).
pub fn run_batch(engine: &SimEngine, jobs: &[Job], context: &str) -> BatchRun {
    let unique = unique_jobs(jobs);
    eprintln!(
        "running {} unique simulations ({} requested {context}) on {} thread(s)...",
        unique,
        jobs.len(),
        engine.threads()
    );
    let start = Instant::now();
    engine.run(jobs);
    let elapsed = start.elapsed();
    let stats = engine.stats();
    assert_eq!(
        stats.executed + stats.disk_hits,
        unique as u64,
        "each unique simulation must be executed once or served from the store"
    );
    eprintln!(
        "engine: executed {} simulations in {:.2?} ({} requests, {} memory hits, {} disk hits)",
        stats.executed, elapsed, stats.requests, stats.hits, stats.disk_hits
    );
    BatchRun {
        stats,
        elapsed,
        unique,
        daemon: None,
    }
}

/// Routes one batch by command line: [`run_batch_connected`] when
/// `--connect` (or `CONFLUENCE_CONNECT`) names a daemon socket,
/// [`run_batch`] in process otherwise. The batch binaries call this so
/// the daemon mode threads through every one of them identically.
pub fn dispatch_batch(
    engine: &SimEngine,
    jobs: &[Job],
    context: &str,
    args: &[String],
) -> BatchRun {
    match connect_from_args(args) {
        Some(sock) => run_batch_connected(engine, jobs, context, &sock),
        None => run_batch(engine, jobs, context),
    }
}

/// The `--connect` counterpart of [`run_batch`]: submit the jobs to the
/// daemon at `sock`, seed every result into the local engine's cache
/// (so the caller's formatters are pure local reads, and stdout is
/// byte-identical to an in-process run), and report the daemon's
/// per-batch accounting. Exits with status 1 on any daemon failure —
/// there is no silent local fallback, because a half-remote run would
/// produce correct output while quietly not testing what was asked.
pub fn run_batch_connected(
    engine: &SimEngine,
    jobs: &[Job],
    context: &str,
    sock: &std::path::Path,
) -> BatchRun {
    let unique = unique_jobs(jobs);
    eprintln!(
        "submitting {} unique simulations ({} requested {context}) to the daemon at {}...",
        unique,
        jobs.len(),
        sock.display()
    );
    let start = Instant::now();
    let stats = match crate::daemon::submit_jobs(sock, engine, jobs) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = start.elapsed();
    eprintln!(
        "daemon: executed {} simulations in {:.2?} ({} requests, {} memory hits, {} disk hits)",
        stats.executed, elapsed, stats.requests, stats.hits, stats.disk_hits
    );
    BatchRun {
        stats: engine.stats(),
        elapsed,
        unique,
        daemon: Some(stats),
    }
}

/// The rendering half: print every report in the selected format, assert
/// that formatting was pure cache reads (no re-simulation), apply the
/// requested store GC, and print the cache summary. Returns the rendered
/// reports so `--compare-serial` can diff them against a reference run.
pub fn finish_batch(
    engine: &SimEngine,
    flags: &CommonFlags,
    run: &BatchRun,
    reports: &[Report],
    args: &[String],
) -> Vec<String> {
    let rendered: Vec<String> = reports.iter().map(|r| flags.render(r)).collect();
    for out in &rendered {
        println!("{out}");
    }
    let final_stats = engine.stats();
    assert_eq!(
        (final_stats.executed, final_stats.disk_hits),
        (run.stats.executed, run.stats.disk_hits),
        "formatting must be pure cache hits"
    );
    run_store_gc(engine, args);
    match &run.daemon {
        Some(stats) => eprintln!("{}", daemon_cache_summary(stats)),
        None => eprintln!("{}", cache_summary(engine)),
    }
    rendered
}

/// The `--compare-serial` tail of a multi-report binary: re-run the same
/// batch on a fresh single-threaded engine (sharing the `Arc`'d
/// programs, never the cache), assert its rendering is **byte-identical**
/// to the parallel run's, and report the speedup — the validation hook
/// for both job-grain parallelism and the core-grain two-phase tick.
///
/// Skipped with an explanation when a store is attached: warm, the timed
/// run measured disk reads; cold, it paid store writes the reference
/// would not — either way the wall-clocks would not compare simulation
/// against simulation.
pub fn compare_serial(
    engine: &SimEngine,
    flags: &CommonFlags,
    jobs: &[Job],
    run: &BatchRun,
    parallel_rendering: &[String],
    render: impl Fn(&SimEngine) -> Vec<Report>,
) {
    if engine.store().is_some() {
        eprintln!(
            "skipping serial comparison: a result store was attached to the timed \
             run ({} jobs served from disk), so wall-clocks are not comparable \
             (re-run with --no-store to compare)",
            run.stats.disk_hits
        );
        return;
    }
    eprintln!("re-running the batch serially for comparison...");
    let reference = SimEngine::new(engine.workloads().to_vec())
        .with_threads(1)
        .with_exec_mode(engine.exec_mode());
    let start = Instant::now();
    reference.run(jobs);
    let serial_elapsed = start.elapsed();
    assert_eq!(
        reference.stats().executed,
        run.unique as u64,
        "the serial reference must actually simulate every unique job"
    );
    let serial_rendering: Vec<String> =
        render(&reference).iter().map(|r| flags.render(r)).collect();
    assert_eq!(
        serial_rendering, parallel_rendering,
        "serial and parallel runs must render identical reports"
    );
    eprintln!(
        "serial reference output is byte-identical to the parallel run ({} reports)",
        serial_rendering.len()
    );
    eprintln!(
        "serial: {:.2?}; parallel: {:.2?}; speedup {:.2}x on {} threads",
        serial_elapsed,
        run.elapsed,
        serial_elapsed.as_secs_f64() / run.elapsed.as_secs_f64(),
        engine.threads()
    );
}

/// One-line cache accounting for a finished run, printed to stderr by
/// every binary so report output on stdout stays byte-comparable. The
/// trailing memo section is the warm-path audit trail: a run served
/// entirely from the store shows `0 recorded` (CI asserts exactly that).
pub fn cache_summary(engine: &SimEngine) -> String {
    let stats = engine.stats();
    let store = match engine.store() {
        Some(s) => {
            let usage = s.usage();
            store_segment(
                &s.root().display().to_string(),
                s.schema(),
                usage.entries as u64,
                usage.bytes,
            )
        }
        None => "store disabled".to_string(),
    };
    let memo = engine.memo_stats();
    summary_line(
        "cache",
        &stats,
        &store,
        memo.replayed,
        memo.recorded,
        memo.live,
        memo.tables as u64,
        memo.steps as u64,
    )
}

/// The same one-line accounting, rendered from a daemon's `BatchDone`
/// stats instead of a local engine — so a `--connect` run's stderr
/// carries the identical audit trail. The `daemon cache:` prefix marks
/// whose counters these are.
pub fn daemon_cache_summary(stats: &confluence_serve::BatchStats) -> String {
    let store = match &stats.store {
        Some(l) => store_segment(&l.root, l.schema, l.entries, l.bytes),
        None => "store disabled".to_string(),
    };
    let engine_stats = EngineStats {
        requests: stats.requests,
        executed: stats.executed,
        hits: stats.hits,
        disk_hits: stats.disk_hits,
        remote_hits: stats.remote_hits,
        remote_round_trips: stats.remote_round_trips,
        remote_bytes: stats.remote_bytes,
    };
    summary_line(
        "daemon cache",
        &engine_stats,
        &store,
        stats.memo_replayed,
        stats.memo_recorded,
        stats.memo_live,
        stats.memo_tables,
        stats.memo_steps,
    )
}

/// The store segment of a cache summary, shared by the local and daemon
/// renderings so the two cannot drift apart.
fn store_segment(root: &str, schema: u32, entries: u64, bytes: u64) -> String {
    format!("store {root} (schema v{schema}, {entries} entries, {bytes} bytes)")
}

#[allow(clippy::too_many_arguments)]
fn summary_line(
    label: &str,
    stats: &EngineStats,
    store: &str,
    replayed: u64,
    recorded: u64,
    live: u64,
    tables: u64,
    steps: u64,
) -> String {
    // The remote tail is always rendered — `0 fetched` on peerless runs —
    // so scripts can grep one stable shape everywhere (local, daemon,
    // and search summaries alike).
    format!(
        "{label}: {} requests = {} executed + {} memory hits + {} disk hits; {store}; \
         memo: {replayed} replay hits, {recorded} recorded, {live} live, \
         {tables} tables ({steps} steps); \
         remote: {} fetched, {} bytes, {} round trip(s)",
        stats.requests,
        stats.executed,
        stats.hits,
        stats.disk_hits,
        stats.remote_hits,
        stats.remote_bytes,
        stats.remote_round_trips,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cache_summary_reports_store_entry_count_and_bytes() {
        let dir =
            std::env::temp_dir().join(format!("confluence-cli-summary-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir, SCHEMA_VERSION).expect("temp dir writable");
        let program = std::sync::Arc::new(
            confluence_trace::Program::generate(&confluence_trace::WorkloadSpec::tiny()).unwrap(),
        );
        let engine = SimEngine::new(vec![(confluence_trace::Workload::WebFrontend, program)])
            .with_store(store);
        assert!(cache_summary(&engine).contains("0 entries, 0 bytes"));

        engine.coverage(&crate::job::CoverageJob {
            workload: confluence_trace::Workload::WebFrontend,
            btb: crate::job::BtbSpec::Perfect,
            opts: crate::coverage::CoverageOptions {
                warmup_instrs: 5_000,
                measure_instrs: 5_000,
                ..Default::default()
            },
        });
        let bytes = engine.store().unwrap().size_bytes();
        assert!(bytes > 0, "execution must spill to the store");
        let summary = cache_summary(&engine);
        assert!(
            summary.contains(&format!("1 entries, {bytes} bytes")),
            "summary must carry the store usage: {summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn common_flags_parse() {
        let flags = parse_common(&args(&["--quick", "--csv", "--threads", "3"]));
        assert!(flags.quick && flags.csv && !flags.markdown);
        assert_eq!(flags.threads, Some(3));
        // The shared flag parser accepts the `=` spelling everywhere.
        assert_eq!(parse_common(&args(&["--threads=5"])).threads, Some(5));
        assert!(flags.config().quick);
        let defaults = parse_common(&args(&[]));
        assert!(!defaults.quick && !defaults.csv && !defaults.markdown);
        assert_eq!(defaults.threads, None);
        assert!(!defaults.config().quick);
    }

    #[test]
    fn store_cap_parses_both_spellings() {
        assert_eq!(
            store_cap_from_args(&args(&["--store-cap-bytes", "4096"])),
            Some(4096)
        );
        assert_eq!(
            store_cap_from_args(&args(&["--store-cap-bytes=123456"])),
            Some(123456)
        );
        if std::env::var_os(STORE_CAP_ENV).is_none() {
            assert_eq!(store_cap_from_args(&args(&["--quick"])), None);
        }
    }

    #[test]
    fn cache_summary_carries_the_memo_audit_trail() {
        let program = std::sync::Arc::new(
            confluence_trace::Program::generate(&confluence_trace::WorkloadSpec::tiny()).unwrap(),
        );
        let engine = SimEngine::new(vec![(confluence_trace::Workload::WebFrontend, program)]);
        let summary = cache_summary(&engine);
        assert!(
            summary.contains("memo: 0 replay hits, 0 recorded, 0 live, 0 tables (0 steps)"),
            "untranslated engine reports an empty memo section: {summary}"
        );
        engine.coverage(&crate::job::CoverageJob {
            workload: confluence_trace::Workload::WebFrontend,
            btb: crate::job::BtbSpec::Perfect,
            opts: crate::coverage::CoverageOptions {
                warmup_instrs: 5_000,
                measure_instrs: 5_000,
                ..Default::default()
            },
        });
        let memo = engine.memo_stats();
        assert!(memo.recorded > 0, "a cold run records paths");
        assert!(
            cache_summary(&engine).contains(&format!("{} recorded", memo.recorded)),
            "summary must carry the memo counters"
        );
    }

    #[test]
    fn unknown_args_catches_typos_and_strays() {
        let check = |list: &[&str]| -> Vec<String> {
            // Prepend the binary-path slot the real args vector has.
            let mut full = vec!["target/debug/fig1".to_string()];
            full.extend(list.iter().map(|s| s.to_string()));
            find_unknown_args(&full, COMMON_SWITCHES, COMMON_VALUE_FLAGS)
        };
        // A typo'd switch is flagged; so is a bare positional word.
        assert_eq!(check(&["--qiuck"]), vec!["--qiuck"]);
        assert_eq!(check(&["--quick", "extra"]), vec!["extra"]);
        // A known switch spelled with a value is an error, not a value flag.
        assert_eq!(check(&["--quick=1"]), vec!["--quick=1"]);
        // Multiple offenders are all reported, in order.
        assert_eq!(
            check(&["--stduy", "history", "--quick", "--csvv"]),
            vec!["--stduy", "history", "--csvv"]
        );
    }

    #[test]
    fn unknown_args_accepts_well_formed_lines() {
        let check = |list: &[&str]| -> Vec<String> {
            let mut full = vec!["target/debug/fig1".to_string()];
            full.extend(list.iter().map(|s| s.to_string()));
            find_unknown_args(&full, COMMON_SWITCHES, COMMON_VALUE_FLAGS)
        };
        assert!(check(&[]).is_empty());
        assert!(check(&["--quick", "--csv"]).is_empty());
        // Value flags consume their value in both spellings.
        assert!(check(&["--threads", "3", "--store-dir", "/tmp/x"]).is_empty());
        assert!(check(&["--threads=3", "--store-dir=/tmp/x", "--quick"]).is_empty());
        assert!(check(&["--store-cap-bytes", "4096", "--no-store"]).is_empty());
        // A value flag with a missing value is flag_value's case, not ours.
        assert!(check(&["--threads"]).is_empty());
        assert!(check(&["--threads", "--quick"]).is_empty());
        // Extra per-binary flags extend the tables.
        let switches = [COMMON_SWITCHES, &["--list"]].concat();
        let values = [COMMON_VALUE_FLAGS, &["--study"]].concat();
        let mut full = vec!["sweeps".to_string()];
        full.extend(
            ["--list", "--study", "history", "--study=btb-capacity"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(find_unknown_args(&full, &switches, &values).is_empty());
    }

    #[test]
    fn no_store_wins_over_everything() {
        assert_eq!(
            store_dir_from_args(&args(&["--store-dir", "/tmp/x", "--no-store"])),
            None
        );
    }

    #[test]
    fn explicit_dir_is_used() {
        assert_eq!(
            store_dir_from_args(&args(&["--quick", "--store-dir", "/tmp/x"])),
            Some(PathBuf::from("/tmp/x"))
        );
    }

    #[test]
    fn equals_form_is_supported() {
        assert_eq!(
            store_dir_from_args(&args(&["--store-dir=/tmp/y"])),
            Some(PathBuf::from("/tmp/y"))
        );
    }

    #[test]
    fn absent_flags_and_env_mean_no_store() {
        // The test runner never sets CONFLUENCE_STORE; guard anyway.
        if std::env::var_os(STORE_ENV).is_none() {
            assert_eq!(store_dir_from_args(&args(&["--quick"])), None);
        }
    }
}
