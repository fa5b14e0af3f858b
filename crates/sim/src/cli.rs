//! The one front end of every binary. A binary names the flags it
//! accepts — the shared [`OUTPUT_FLAGS`] and [`ENGINE_FLAGS`] tables
//! plus its own [`Flag`]s — and [`parse`] reads the command line once
//! against them. The usage line is rendered from the same tables, so it
//! cannot drift from what is accepted.
//!
//! Every argument error is settled before any workload is generated: an
//! unknown or stray argument, a switch given a value, a missing or
//! malformed value, a single-value flag given twice, `--peer` without a
//! store, a store directory that cannot be opened, and
//! `--compare-serial` together with `--connect`. Each prints an `error:`
//! line (unknown arguments add the usage line) and exits with status 2.
//! Before strict parsing a typo like `--qiuck` silently fell through and
//! ran the full multi-hour suite.
//!
//! The checked [`Cli`] then builds the engine ([`Cli::engine`]), runs a
//! batch in process or on a `--connect` daemon ([`Cli::run_jobs`]), and
//! drives a whole report binary ([`Cli::run_reports`]). A run
//! ends with one stderr line, [`cache_summary`], rendered from one
//! [`EngineStats`]: this process's engine's, or the daemon's for the
//! batch.
//!
//! A flag's environment fallback is read only when the flag is absent.
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

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use confluence_serve::EngineStats;
use confluence_store::ResultStore;
use confluence_trace::ExecMode;

use crate::codec::SCHEMA_VERSION;
use crate::engine::{Results, SimEngine};
use crate::experiments::{plan, unique_jobs, ExperimentConfig};
use crate::job::Job;
use crate::peers::{PeerSet, DEFAULT_PEER_TIMEOUT};
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

/// One flag a binary accepts: a switch, or a flag that takes a value as
/// `--flag V` or `--flag=V`.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage line and what it must be
    /// (for error messages); `None` for a switch.
    value: Option<(&'static str, &'static str)>,
    /// The environment variable read when the flag is not given; a
    /// repeatable flag reads it as a comma-separated list.
    env: Option<&'static str>,
    /// Whether the flag may take several values, kept in command-line
    /// order. Any other value flag given twice is an error.
    repeatable: bool,
}

impl Flag {
    /// A boolean switch.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            env: None,
            repeatable: false,
        }
    }

    /// A flag taking one value, shown as `placeholder` in the usage line
    /// and described as `what` when it is missing or malformed.
    pub const fn value(name: &'static str, placeholder: &'static str, what: &'static str) -> Flag {
        Flag {
            value: Some((placeholder, what)),
            ..Flag::switch(name)
        }
    }

    /// The same flag, falling back to the environment variable `var`.
    pub const fn env(self, var: &'static str) -> Flag {
        Flag {
            env: Some(var),
            ..self
        }
    }

    /// The same flag, accepted any number of times.
    pub const fn repeatable(self) -> Flag {
        Flag {
            repeatable: true,
            ..self
        }
    }

    fn what(&self) -> &'static str {
        self.value.map_or("", |(_, what)| what)
    }

    fn usage(&self) -> String {
        match self.value {
            None => format!("[{}]", self.name),
            Some((v, _)) if self.repeatable => format!("[{} {v}]...", self.name),
            Some((v, _)) => format!("[{} {v}]", self.name),
        }
    }
}

/// The output-format switches of every binary that prints reports.
pub const OUTPUT_FLAGS: &[Flag] = &[Flag::switch("--csv"), Flag::switch("--markdown")];

/// The flags of every binary that builds an engine: scale, pool width,
/// store, remote warm tier and record-stream path.
pub const ENGINE_FLAGS: &[Flag] = &[
    Flag::switch("--quick"),
    Flag::value("--threads", "N", "an integer value"),
    Flag::value("--store-dir", "DIR", "a path").env(STORE_ENV),
    Flag::switch("--no-store"),
    Flag::value("--store-cap-bytes", "N", "a byte count").env(STORE_CAP_ENV),
    Flag::value("--peer", "SOCK", "a socket path")
        .env(PEER_ENV)
        .repeatable(),
    Flag::value("--peer-timeout-ms", "N", "a millisecond count"),
    Flag::switch("--no-fastpath"),
];

/// `--connect SOCK`: run the batches on a `confluence-serve` daemon.
pub const CONNECT: Flag = Flag::value("--connect", "SOCK", "a socket path").env(CONNECT_ENV);

/// `--compare-serial`: re-run the batch serially and check the bytes
/// (see [`Cli::run_reports`]).
pub const COMPARE_SERIAL: Flag = Flag::switch("--compare-serial");

/// `--list`: print the study registry and exit.
pub const LIST: Flag = Flag::switch("--list");

/// `--study NAME`: select a registered study (see [`Cli::studies`]).
pub const STUDY: Flag = Flag::value("--study", "NAME", "a name (try --list)").repeatable();

/// The values one command line gave the flags it declared.
#[derive(Debug, Default)]
pub struct Args {
    /// Each flag given, in the order first seen: the flag, where its
    /// values came from (its name, or the environment variable that
    /// stood in for it) and its values (none for a switch).
    given: Vec<(Flag, &'static str, Vec<String>)>,
}

impl Args {
    fn get(&self, name: &str) -> Option<&(Flag, &'static str, Vec<String>)> {
        self.given.iter().find(|(flag, ..)| flag.name == name)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of the flag `name`, if it or its environment variable
    /// gave one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).first().map(String::as_str)
    }

    /// Every value of the repeatable flag `name`, in command-line order.
    fn values(&self, name: &str) -> &[String] {
        self.get(name).map_or(&[], |(.., values)| values)
    }

    /// The value of `name` parsed as `T`. A malformed value is an error
    /// naming the flag, or the environment variable that supplied it.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let (Some((flag, source, _)), Some(v)) = (self.get(name), self.value(name)) else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| format!("{source} requires {}, got '{v}'", flag.what()))
    }

    /// The store directory asked for, if any; `--no-store` wins over
    /// `--store-dir` and its environment variable.
    fn store_dir(&self) -> Option<PathBuf> {
        if self.switch("--no-store") {
            return None;
        }
        self.value("--store-dir").map(PathBuf::from)
    }
}

/// Why a command line was refused. Either way the binary exits with
/// status 2.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// Unknown flags, switches given a value and stray words, in
    /// command-line order; reported with the usage line.
    Unrecognized(Vec<String>),
    /// A missing or repeated value, naming the flag.
    Invalid(String),
}

/// One pass over `argv` (`argv[0]` is the binary path) against `flags`,
/// then each absent flag's environment fallback, read through `env`.
/// A value flag takes the next argument as its value unless that looks
/// like another flag (`--threads --quick` is a missing value).
fn scan(
    argv: &[String],
    flags: &[Flag],
    env: impl Fn(&str) -> Option<String>,
) -> Result<Args, ArgError> {
    let mut args = Args::default();
    let mut unknown = Vec::new();
    let mut invalid = None;
    let mut rest = argv.iter().skip(1).peekable();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (arg.as_str(), None),
        };
        let Some(flag) = flags
            .iter()
            .find(|f| f.name == name && (f.value.is_some() || inline.is_none()))
        else {
            unknown.push(arg.clone());
            continue;
        };
        let value = match inline {
            Some(v) => Some(v.to_string()),
            None if flag.value.is_some() => rest.next_if(|v| !v.starts_with("--")).cloned(),
            None => None,
        };
        if flag.value.is_some() && value.as_deref().unwrap_or("").is_empty() {
            invalid.get_or_insert(format!("{} requires {}", flag.name, flag.what()));
            continue;
        }
        match args.given.iter_mut().find(|(f, ..)| f.name == flag.name) {
            None => args
                .given
                .push((*flag, flag.name, value.into_iter().collect())),
            Some((.., values)) if flag.repeatable || flag.value.is_none() => values.extend(value),
            Some(_) => {
                invalid.get_or_insert(format!("{} may be given only once", flag.name));
            }
        }
    }
    if !unknown.is_empty() {
        return Err(ArgError::Unrecognized(unknown));
    }
    if let Some(message) = invalid {
        return Err(ArgError::Invalid(message));
    }
    for flag in flags {
        let Some(var) = flag.env.filter(|_| args.get(flag.name).is_none()) else {
            continue;
        };
        let Some(v) = env(var).filter(|v| !v.is_empty()) else {
            continue;
        };
        let values = if flag.repeatable {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        } else {
            vec![v]
        };
        args.given.push((*flag, var, values));
    }
    Ok(args)
}

/// The usage line: the binary's file name, then every flag it accepts.
fn usage(argv: &[String], flags: &[Flag]) -> String {
    let binary = argv.first().and_then(|p| Path::new(p).file_name());
    let line = binary.map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    flags
        .iter()
        .fold(line, |line, flag| line + " " + &flag.usage())
}

/// Prints `error: {message}` and exits with status 2, the status of
/// every argument error.
pub fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Reads the process's command line against `tables` (the shared tables
/// a binary accepts plus its own flags) and checks it in full; on any
/// argument error prints it and exits with status 2, before the caller
/// has generated anything.
pub fn parse(tables: &[&[Flag]]) -> Cli {
    let argv: Vec<String> = std::env::args().collect();
    let flags = tables.concat();
    match scan(&argv, &flags, |var| std::env::var(var).ok()) {
        Ok(args) => Cli::check(args).unwrap_or_else(|e| fail(&e)),
        Err(ArgError::Invalid(message)) => fail(&message),
        Err(ArgError::Unrecognized(unknown)) => {
            for arg in &unknown {
                eprintln!("error: unrecognized argument '{arg}'");
            }
            eprintln!("usage: {}", usage(&argv, &flags));
            std::process::exit(2)
        }
    }
}

/// A checked command line: the flags' values, with everything the
/// engine needs already parsed, opened and cross-checked.
pub struct Cli {
    /// What the command line gave each flag.
    pub args: Args,
    /// The experiment scale (`--quick`).
    pub cfg: ExperimentConfig,
    /// The store size cap (`--store-cap-bytes`, else
    /// `CONFLUENCE_STORE_CAP`), if any.
    pub store_cap: Option<u64>,
    threads: Option<usize>,
    store: Option<ResultStore>,
    peers: Option<PeerSet>,
}

impl Cli {
    /// Parses the engine flags' values and refuses the combinations no
    /// run can honour. Opens the store, so a directory that cannot be
    /// opened fails here and not after the workloads are generated —
    /// silently dropping persistence the caller asked for would waste
    /// every simulation in the run.
    fn check(args: Args) -> Result<Cli, String> {
        let cfg = if args.switch("--quick") {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::full()
        };
        let threads = args.parsed("--threads")?;
        let store_cap = args.parsed("--store-cap-bytes")?;
        let timeout = args
            .parsed("--peer-timeout-ms")?
            .map_or(DEFAULT_PEER_TIMEOUT, Duration::from_millis);
        let sockets: Vec<PathBuf> = args.values("--peer").iter().map(PathBuf::from).collect();
        let mut peers = (!sockets.is_empty()).then(|| PeerSet::new(sockets, timeout));
        let mut store_dir = args.store_dir();
        if args.switch(CONNECT.name) {
            if args.switch(COMPARE_SERIAL.name) {
                return Err(format!(
                    "--compare-serial cannot be combined with --connect or {CONNECT_ENV}: the \
                     serial reference runs in process, so it would be timed against a daemon \
                     round trip"
                ));
            }
            // In connect mode persistence belongs to the daemon: jobs never
            // execute locally, so a local store would only record nothing and
            // confuse the accounting. The same goes for peers — read-through
            // happens on whichever engine executes, which is the daemon's.
            if store_dir.take().is_some() {
                eprintln!(
                    "note: --connect routes jobs to the daemon's store; ignoring the local store"
                );
            }
            if peers.take().is_some() {
                eprintln!(
                    "note: --connect routes jobs to the daemon; pass --peer to the daemon instead"
                );
            }
        }
        // Fetched entries are promoted into the local store before they
        // serve — that write-through is what makes a lying peer
        // recoverable (adopt re-verifies every byte) and what keeps repeat
        // runs local. No store, nowhere to promote.
        if peers.is_some() && store_dir.is_none() {
            return Err(format!(
                "--peer requires a persistent store to promote fetched entries into; \
                 pass --store-dir DIR (or set {STORE_ENV})"
            ));
        }
        let store = store_dir
            .map(|dir| {
                ResultStore::open(&dir, SCHEMA_VERSION)
                    .map_err(|e| format!("cannot open result store at {}: {e}", dir.display()))
            })
            .transpose()?;
        Ok(Cli {
            args,
            cfg,
            store_cap,
            threads,
            store,
            peers,
        })
    }

    /// Generates the workloads and builds the engine the command line
    /// asks for: pool width, record-stream path (`--no-fastpath` forces
    /// the reference interpreter; outputs are bit-identical either way),
    /// store and peers. Call it once: the store and peers move into the
    /// engine.
    pub fn engine(&mut self) -> SimEngine {
        eprintln!("generating workloads...");
        let mut engine = SimEngine::new(self.cfg.workloads());
        if self.args.switch("--no-fastpath") {
            engine = engine.with_exec_mode(ExecMode::Reference);
        }
        if let Some(n) = self.threads {
            engine = engine.with_threads(n);
        }
        if let Some(store) = self.store.take() {
            engine = engine.with_store(store);
        }
        if let Some(peers) = self.peers.take() {
            engine = engine.with_peers(peers);
        }
        engine
    }

    /// The daemon socket batches run on (`--connect`, else
    /// `CONFLUENCE_CONNECT`), if any.
    pub fn connect(&self) -> Option<&Path> {
        self.args.value(CONNECT.name).map(Path::new)
    }

    /// The studies `--study` selects, resolved by `find`, or the whole
    /// `registry` when none is named. Exits with status 2 on an unknown
    /// name.
    pub fn studies<T>(
        &self,
        find: impl Fn(&str) -> Option<T>,
        registry: impl FnOnce() -> Vec<T>,
    ) -> Vec<T> {
        let names = self.args.values(STUDY.name);
        if names.is_empty() {
            return registry();
        }
        names
            .iter()
            .map(|name| {
                find(name).unwrap_or_else(|| fail(&format!("unknown study '{name}' (try --list)")))
            })
            .collect()
    }

    /// Renders a report in the selected output format.
    pub fn render(&self, r: &Report) -> String {
        if self.args.switch("--csv") {
            r.to_csv()
        } else if self.args.switch("--markdown") {
            r.to_markdown()
        } else {
            r.to_table()
        }
    }

    /// Runs `jobs` and leaves every result readable from `engine`: on the
    /// `--connect` daemon when one is named, returning its per-batch
    /// accounting, in process otherwise. A daemon failure exits with
    /// status 1 — there is no silent local fallback, because a
    /// half-remote run would produce correct output while quietly not
    /// testing what was asked.
    pub fn run_jobs(&self, engine: &SimEngine, jobs: &[Job]) -> Option<EngineStats> {
        let Some(sock) = self.connect() else {
            engine.run(jobs);
            return None;
        };
        match crate::daemon::submit_jobs(sock, engine, jobs) {
            Ok(stats) => Some(stats),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// The whole main of a report binary: build the engine, run the
    /// batch the reports read ([`plan`]; in process or on the `--connect`
    /// daemon, see [`Cli::run_jobs`]), print every report `reports`
    /// formats from the warm cache, apply the store cap and print the
    /// cache summary. `context` names the batch in the announcement
    /// ("across figures", "across 6 studies", ...).
    ///
    /// Asserts the engine's headline contract — every unique simulation
    /// ran exactly once or came from the persistent store — and that
    /// formatting was pure cache reads. With `--compare-serial`, the
    /// batch then re-runs serially (see `compare_serial`).
    pub fn run_reports(
        mut self,
        context: &str,
        reports: impl Fn(&dyn Results, &ExperimentConfig) -> Vec<Report>,
    ) {
        let engine = self.engine();
        let jobs = plan(&engine.workload_list(), |results| {
            reports(results, &self.cfg)
        });
        let unique = unique_jobs(&jobs);
        let batch = format!(
            "{unique} unique simulations ({} requested {context})",
            jobs.len()
        );
        match self.connect() {
            Some(sock) => eprintln!("submitting {batch} to the daemon at {}...", sock.display()),
            None => eprintln!("running {batch} on {} thread(s)...", engine.threads()),
        }
        let start = Instant::now();
        let daemon = self.run_jobs(&engine, &jobs);
        let elapsed = start.elapsed();
        let stats = engine.stats();
        let (label, shown) = match daemon {
            Some(d) => ("daemon", d),
            None => {
                assert_eq!(
                    stats.executed + stats.disk_hits,
                    unique as u64,
                    "each unique simulation must be executed once or served from the store"
                );
                ("engine", stats)
            }
        };
        eprintln!(
            "{label}: executed {} simulations in {elapsed:.2?} ({} requests, {} memory hits, \
             {} disk hits)",
            shown.executed, shown.requests, shown.hits, shown.disk_hits
        );

        let render = |engine: &SimEngine| -> Vec<String> {
            reports(engine, &self.cfg)
                .iter()
                .map(|r| self.render(r))
                .collect()
        };
        let rendered = render(&engine);
        for out in &rendered {
            println!("{out}");
        }
        let after = engine.stats();
        assert_eq!(
            (after.executed, after.disk_hits),
            (stats.executed, stats.disk_hits),
            "formatting must be pure cache hits"
        );
        engine.apply_store_cap(self.store_cap);
        match daemon {
            Some(d) => eprintln!("{}", cache_summary("daemon cache", &d, None)),
            None => eprintln!(
                "{}",
                cache_summary("cache", &engine.stats(), engine.store())
            ),
        }
        if self.args.switch(COMPARE_SERIAL.name) {
            compare_serial(&engine, &jobs, elapsed, &rendered, render);
        }
    }
}

/// The whole main of a single-figure binary: [`Cli::run_reports`] over
/// the one report `figure` formats, with the shared output and engine
/// flags. The nine `figN`-style binaries differ only in the formatter
/// they pass.
pub fn run_figure(figure: fn(&dyn Results, &ExperimentConfig) -> Report) {
    parse(&[OUTPUT_FLAGS, ENGINE_FLAGS])
        .run_reports("for one figure", |r, cfg| vec![figure(r, cfg)]);
}

/// The `--compare-serial` tail of [`Cli::run_reports`]: re-run the same
/// batch on a fresh single-threaded engine (sharing the `Arc`'d
/// programs, never the cache), assert its rendering is
/// **byte-identical** to the parallel run's, and report the speedup —
/// the validation hook for job-grain parallelism.
///
/// Skipped with an explanation when a store is attached: warm, the timed
/// run measured disk reads; cold, it paid store writes the reference
/// would not — either way the wall-clocks would not compare simulation
/// against simulation. (`--connect` is refused with `--compare-serial`
/// by [`parse`] for the same reason.)
fn compare_serial(
    engine: &SimEngine,
    jobs: &[Job],
    parallel: Duration,
    parallel_rendering: &[String],
    render: impl Fn(&SimEngine) -> Vec<String>,
) {
    if engine.store().is_some() {
        eprintln!(
            "skipping serial comparison: a result store was attached to the timed \
             run ({} jobs served from disk), so wall-clocks are not comparable \
             (re-run with --no-store to compare)",
            engine.stats().disk_hits
        );
        return;
    }
    eprintln!("re-running the batch serially for comparison...");
    let reference = SimEngine::new(engine.workloads().to_vec())
        .with_threads(1)
        .with_exec_mode(engine.exec_mode());
    let start = Instant::now();
    reference.run(jobs);
    let serial = start.elapsed();
    assert_eq!(
        reference.stats().executed,
        unique_jobs(jobs) as u64,
        "the serial reference must actually simulate every unique job"
    );
    let serial_rendering = render(&reference);
    assert_eq!(
        serial_rendering, parallel_rendering,
        "serial and parallel runs must render identical reports"
    );
    eprintln!(
        "serial reference output is byte-identical to the parallel run ({} reports)",
        serial_rendering.len()
    );
    eprintln!(
        "serial: {serial:.2?}; parallel: {parallel:.2?}; speedup {:.2}x on {} threads",
        serial.as_secs_f64() / parallel.as_secs_f64(),
        engine.threads()
    );
}

/// One-line cache accounting for a finished run, printed to stderr by
/// every binary so report output on stdout stays byte-comparable.
/// `label` says whose counters `stats` are: `cache` for this process's
/// engine, `daemon cache` for a `--connect` batch. A local `store` adds
/// its segment; a daemon's store is not this process's to read. The
/// remote segment is always rendered, `0 fetched` on peerless runs, so
/// scripts can grep one shape everywhere.
pub fn cache_summary(label: &str, stats: &EngineStats, store: Option<&ResultStore>) -> String {
    let store = store.map_or_else(String::new, |s| {
        let usage = s.usage();
        format!(
            "; store {} (schema v{}, {} entries, {} bytes)",
            s.root().display(),
            s.schema(),
            usage.entries,
            usage.bytes
        )
    });
    format!(
        "{label}: {} requests = {} executed + {} memory hits + {} disk hits{store}; \
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

    /// The figure binaries' flags.
    fn figure_flags() -> Vec<Flag> {
        [OUTPUT_FLAGS, ENGINE_FLAGS].concat()
    }

    /// Scans `list` behind a binary-path slot, with `env` as the whole
    /// environment.
    fn scan_with(list: &[&str], flags: &[Flag], env: &[(&str, &str)]) -> Result<Args, ArgError> {
        let mut argv = vec!["target/debug/fig1".to_string()];
        argv.extend(list.iter().map(|s| s.to_string()));
        scan(&argv, flags, |var| {
            env.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        })
    }

    /// A well-formed figure command line, scanned with no environment.
    fn args(list: &[&str]) -> Args {
        scan_with(list, &figure_flags(), &[]).expect("well-formed command line")
    }

    /// The same, checked.
    fn checked(list: &[&str]) -> Cli {
        Cli::check(args(list)).expect("consistent command line")
    }

    /// The arguments `scan` reports as unrecognized (none when it
    /// accepts the line or refuses it for another reason).
    fn unrecognized(list: &[&str], flags: &[Flag]) -> Vec<String> {
        match scan_with(list, flags, &[]) {
            Err(ArgError::Unrecognized(args)) => args,
            _ => Vec::new(),
        }
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
        assert!(
            cache_summary("cache", &engine.stats(), engine.store()).contains("0 entries, 0 bytes")
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
        let bytes = engine.store().unwrap().size_bytes();
        assert!(bytes > 0, "execution must spill to the store");
        let summary = cache_summary("cache", &engine.stats(), engine.store());
        assert!(
            summary.contains(&format!("1 entries, {bytes} bytes")),
            "summary must carry the store usage: {summary}"
        );
        // A daemon's counters come without a store segment.
        let daemon = cache_summary("daemon cache", &engine.stats(), None);
        assert!(!daemon.contains("store"), "{daemon}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_flags_parse() {
        let cli = checked(&["--quick", "--csv", "--threads", "3"]);
        assert!(cli.args.switch("--quick") && cli.args.switch("--csv"));
        assert!(!cli.args.switch("--markdown"));
        assert_eq!(cli.threads, Some(3));
        // The shared flag parser accepts the `=` spelling everywhere.
        assert_eq!(checked(&["--threads=5"]).threads, Some(5));
        assert!(cli.cfg.quick);
        let defaults = checked(&[]);
        assert!(!defaults.args.switch("--quick") && !defaults.args.switch("--csv"));
        assert!(!defaults.args.switch("--markdown"));
        assert_eq!(defaults.threads, None);
        assert!(!defaults.cfg.quick);
    }

    #[test]
    fn store_cap_parses_both_spellings() {
        assert_eq!(
            checked(&["--store-cap-bytes", "4096"]).store_cap,
            Some(4096)
        );
        assert_eq!(
            checked(&["--store-cap-bytes=123456"]).store_cap,
            Some(123456)
        );
        assert_eq!(checked(&["--quick"]).store_cap, None);
    }

    #[test]
    fn scan_catches_typos_and_strays() {
        let check = |list: &[&str]| unrecognized(list, &figure_flags());
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
    fn scan_accepts_well_formed_lines() {
        let check = |list: &[&str]| unrecognized(list, &figure_flags());
        assert!(check(&[]).is_empty());
        assert!(check(&["--quick", "--csv"]).is_empty());
        // Value flags consume their value in both spellings.
        assert!(check(&["--threads", "3", "--store-dir", "/tmp/x"]).is_empty());
        assert!(check(&["--threads=3", "--store-dir=/tmp/x", "--quick"]).is_empty());
        assert!(check(&["--store-cap-bytes", "4096", "--no-store"]).is_empty());
        // A value flag with a missing value is its own error, not an
        // unrecognized argument.
        assert!(check(&["--threads"]).is_empty());
        assert!(check(&["--threads", "--quick"]).is_empty());
        // Extra per-binary flags extend the tables.
        let sweeps = [&figure_flags()[..], &[LIST, STUDY]].concat();
        assert!(unrecognized(
            &["--list", "--study", "history", "--study=btb-capacity"],
            &sweeps
        )
        .is_empty());
    }

    #[test]
    fn missing_and_repeated_values_are_refused() {
        let refusal = |list: &[&str], flags: &[Flag]| match scan_with(list, flags, &[]) {
            Err(ArgError::Invalid(message)) => message,
            other => panic!("{list:?} must be refused, got {other:?}"),
        };
        let figure = figure_flags();
        for list in [
            &["--threads"] as &[&str],
            &["--threads", "--quick"],
            &["--threads="],
        ] {
            assert_eq!(
                refusal(list, &figure),
                "--threads requires an integer value"
            );
        }
        // One rule for every single-value flag, search's --seed included.
        let search = [
            &figure[..],
            &[Flag::value("--seed", "N", "an integer value")],
        ]
        .concat();
        for (list, flag) in [
            (
                &["--threads", "2", "--threads", "4"] as &[&str],
                "--threads",
            ),
            (
                &["--store-dir=/tmp/a", "--store-dir", "/tmp/b"],
                "--store-dir",
            ),
            (&["--seed", "1", "--seed", "2"], "--seed"),
        ] {
            let message = format!("{flag} may be given only once");
            assert_eq!(refusal(list, &search), message);
        }
        // A repeated switch changes nothing; a repeatable flag collects
        // its values in order.
        assert!(args(&["--quick", "--quick"]).switch("--quick"));
        assert_eq!(
            args(&["--peer", "/tmp/a", "--peer=/tmp/b"]).values("--peer"),
            ["/tmp/a", "/tmp/b"]
        );
    }

    #[test]
    fn environment_fallbacks_apply_only_when_the_flag_is_absent() {
        let env = [(STORE_ENV, "/tmp/env"), (PEER_ENV, "/tmp/a, /tmp/b,,")];
        let scanned = |list: &[&str]| scan_with(list, &figure_flags(), &env).unwrap();
        assert_eq!(scanned(&[]).store_dir(), Some(PathBuf::from("/tmp/env")));
        let flag = scanned(&["--store-dir", "/tmp/flag"]).store_dir();
        assert_eq!(flag, Some(PathBuf::from("/tmp/flag")));
        assert_eq!(scanned(&[]).values("--peer"), ["/tmp/a", "/tmp/b"]);
        assert_eq!(scanned(&["--peer", "/tmp/c"]).values("--peer"), ["/tmp/c"]);
    }

    #[test]
    fn an_unopenable_store_dir_is_refused() {
        let file =
            std::env::temp_dir().join(format!("confluence-cli-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"x").expect("temp dir writable");
        let dir = file.join("store");
        let err = Cli::check(args(&["--store-dir", dir.to_str().unwrap()])).err();
        assert!(err.unwrap().starts_with("cannot open result store at"));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn usage_lists_every_accepted_flag() {
        assert_eq!(
            usage(&["target/release/fig7".to_string()], &figure_flags()),
            "fig7 [--csv] [--markdown] [--quick] [--threads N] [--store-dir DIR] [--no-store] \
             [--store-cap-bytes N] [--peer SOCK]... [--peer-timeout-ms N] [--no-fastpath]"
        );
    }

    #[test]
    fn no_store_wins_over_everything() {
        assert_eq!(
            args(&["--store-dir", "/tmp/x", "--no-store"]).store_dir(),
            None
        );
    }

    #[test]
    fn explicit_dir_is_used() {
        assert_eq!(
            args(&["--quick", "--store-dir", "/tmp/x"]).store_dir(),
            Some(PathBuf::from("/tmp/x"))
        );
    }

    #[test]
    fn equals_form_is_supported() {
        assert_eq!(
            args(&["--store-dir=/tmp/y"]).store_dir(),
            Some(PathBuf::from("/tmp/y"))
        );
    }

    #[test]
    fn absent_flags_and_env_mean_no_store() {
        assert_eq!(args(&["--quick"]).store_dir(), None);
    }
}
