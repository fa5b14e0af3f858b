//! The parallel memoizing experiment engine.
//!
//! [`SimEngine`] owns the generated workload programs (shared via `Arc`,
//! never cloned) and a content-keyed result cache. Figures declare the
//! [`Job`]s they need; the engine executes each *unique* job exactly once —
//! on a scoped worker pool when batched through [`SimEngine::run`], or
//! inline on first demand — and every later request for the same key is a
//! cache hit. Requests that race an in-flight execution block on that
//! execution instead of recomputing.
//!
//! Jobs are pure functions of their key (the simulators are deterministic
//! and each job builds its own structures from a [`crate::BtbSpec`]
//! factory), so parallel and serial execution produce byte-identical
//! results; `engine_determinism` in the integration suite asserts this.
//!
//! Scheduling is **cost-aware**: batches start their most expensive jobs
//! first ([`Job::cost_hint`] — CMP timing runs dwarf everything else), so
//! the long runs overlap with the swarm of cheap coverage and density
//! jobs instead of trailing them. Parallelism is job-grain only: every
//! timing run steps its cores on the one worker that claimed it. Splitting
//! a run across core shards (`crate::cmp::simulate_cmp_with_shards`)
//! made it slower, not faster, on the 2-vCPU hosts this was measured on —
//! two spinning shard threads plus the other worker oversubscribe them.
//!
//! With a [`ResultStore`] attached ([`SimEngine::with_store`]) the cache
//! grows a second, persistent tier: a claimed key consults **memory →
//! disk → execute**, fresh executions are spilled back to disk, and a
//! later process re-running the same jobs serves them all from the store
//! (`disk_hits` in [`EngineStats`]). Corrupt or stale entries fail the
//! store's verification and simply re-execute. In-flight blocking
//! semantics are unchanged: racing requests for a key wait on whichever
//! thread claimed it, whether that thread loads from disk or simulates.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use confluence_serve::FETCH_HOP_LIMIT;
use confluence_store::{Encode, ResultStore, Tier};
use confluence_trace::{ExecMode, MemoStats, MemoTable, Program, Workload};

use crate::cmp::{simulate_cmp_with_shards_mode, TimingResult};
use crate::codec::{output_matches, workloads_fingerprint, ArtifactKey, StoreKey};
use crate::coverage::{branch_density_mode, run_coverage_with_mode, CoverageResult};
use crate::job::{CoverageJob, DensityJob, Job, JobOutput, TimingJob};
use crate::peers::PeerSet;

/// Environment variable that disables the persistent warm-artifact tier
/// when set to a non-empty value other than `0` (the
/// `--no-warm-artifacts` CLI flag sets the same thing explicitly).
/// Results never depend on it — artifacts only replay paths the executor
/// would re-derive bit-identically.
pub const NO_WARM_ARTIFACTS_ENV: &str = "CONFLUENCE_NO_WARM_ARTIFACTS";

/// Resolves the warm-artifact default from [`NO_WARM_ARTIFACTS_ENV`].
fn warm_artifacts_from_env() -> bool {
    !matches!(std::env::var_os(NO_WARM_ARTIFACTS_ENV), Some(v) if !v.is_empty() && v != *"0")
}

/// Snapshot of the engine's cache accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total job requests served (executions + hits).
    pub requests: u64,
    /// Unique jobs actually simulated.
    pub executed: u64,
    /// Requests satisfied from the in-memory cache (or by waiting on an
    /// in-flight execution of the same key).
    pub hits: u64,
    /// Unique jobs served from the persistent result store instead of
    /// being simulated.
    pub disk_hits: u64,
    /// Entries (results and artifacts) fetched from remote peers and
    /// promoted into the local store. A promoted result is then served
    /// as a `disk_hits` entry — `remote_hits` counts where the bytes
    /// came from, not an extra serving tier.
    pub remote_hits: u64,
    /// Completed batched fetch exchanges with peers (at most one per
    /// consulted peer per tier per batch).
    pub remote_round_trips: u64,
    /// Raw entry bytes received from peers (verified or not).
    pub remote_bytes: u64,
}

/// What a filled cache slot holds: the job's output, or a record that the
/// executing thread panicked — waiters re-panic instead of deadlocking.
type SlotResult = Result<Arc<JobOutput>, String>;

/// One cache slot: filled exactly once, then read forever. Requests that
/// find the slot before its result is ready wait on the condvar.
struct Slot {
    ready: Mutex<Option<SlotResult>>,
    cond: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            ready: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    fn fill(&self, result: SlotResult) {
        *self.ready.lock().expect("slot poisoned") = Some(result);
        self.cond.notify_all();
    }
}

/// Parallel memoizing executor for simulation jobs.
pub struct SimEngine {
    workloads: Vec<(Workload, Arc<Program>)>,
    threads: usize,
    /// Record-stream path every job executes through. Outputs are
    /// byte-identical across modes, so the mode is *not* part of any cache
    /// or store key — entries are shared freely between fast-path and
    /// reference runs. The compiled form itself is cached on each
    /// `Arc<Program>` (`Program::compiled`), so the whole suite pays one
    /// translation per workload per process, shared across jobs and shards.
    mode: ExecMode,
    cache: Mutex<HashMap<Job, Arc<Slot>>>,
    store: Option<ResultStore>,
    /// Whether the store's warm-artifact tier is consulted/written. With
    /// it on, the first job to *execute* against a workload first imports
    /// that workload's persisted path-memo table (so even a cold process
    /// replays from record zero), and [`SimEngine::persist_warm_artifacts`]
    /// writes back whatever the run newly recorded.
    warm_artifacts: bool,
    /// Workloads whose artifact load already happened (hit or miss) —
    /// the import is idempotent but the disk read is worth doing once.
    warm_loaded: Mutex<HashSet<Workload>>,
    /// Artifact imports that actually loaded a table, over the engine's
    /// whole lifetime. Observability for the daemon's once-per-lifetime
    /// import guarantee: a second batch over the same workloads must
    /// leave this unchanged.
    warm_imports: AtomicU64,
    /// The remote warm tier: peer daemons consulted (batched, once per
    /// batch) for keys missing from both memory and local disk. Fetched
    /// entries are re-verified and promoted into the local store, so
    /// the per-job lookup chain below never talks to the network.
    peers: Option<PeerSet>,
    requests: AtomicU64,
    executed: AtomicU64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    remote_hits: AtomicU64,
    remote_round_trips: AtomicU64,
    remote_bytes: AtomicU64,
}

impl SimEngine {
    /// Creates an engine over the given workload programs, sized to the
    /// host's available parallelism.
    pub fn new(workloads: Vec<(Workload, Arc<Program>)>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SimEngine {
            workloads,
            threads,
            mode: ExecMode::from_env(),
            cache: Mutex::new(HashMap::new()),
            store: None,
            warm_artifacts: warm_artifacts_from_env(),
            warm_loaded: Mutex::new(HashSet::new()),
            warm_imports: AtomicU64::new(0),
            peers: None,
            requests: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            remote_hits: AtomicU64::new(0),
            remote_round_trips: AtomicU64::new(0),
            remote_bytes: AtomicU64::new(0),
        }
    }

    /// Overrides the worker-pool width. `1` forces serial execution (the
    /// reference path for determinism checks and speedup baselines).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the record-stream execution path (the default is
    /// resolved from `CONFLUENCE_NO_FASTPATH`). Results do not depend on
    /// the mode, only wall-clock time does.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// The record-stream path this engine executes jobs through.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Attaches a persistent result store as the second cache tier:
    /// lookups go memory → disk → execute, and fresh executions are
    /// written back to the store.
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Attaches a remote warm tier: peer daemons consulted (in one
    /// batched round trip per batch) for keys missing from memory and
    /// local disk. Requires an attached store — fetched entries are
    /// promoted through the store's verified atomic write path, never
    /// trusted directly.
    pub fn with_peers(mut self, peers: PeerSet) -> Self {
        self.peers = Some(peers);
        self
    }

    /// The attached peer set, if any.
    pub fn peers(&self) -> Option<&PeerSet> {
        self.peers.as_ref()
    }

    /// Overrides whether the store's warm-artifact tier is used (the
    /// default is resolved from [`NO_WARM_ARTIFACTS_ENV`]). Like the exec
    /// mode, this only moves wall-clock time: artifacts replay paths the
    /// executors would otherwise re-record, bit for bit.
    pub fn with_warm_artifacts(mut self, on: bool) -> Self {
        self.warm_artifacts = on;
        self
    }

    /// Whether the warm-artifact tier is enabled (it still needs an
    /// attached store to do anything).
    pub fn warm_artifacts(&self) -> bool {
        self.warm_artifacts
    }

    /// The worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workload programs, in presentation order.
    pub fn workloads(&self) -> &[(Workload, Arc<Program>)] {
        &self.workloads
    }

    /// The program generated for `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the engine was not built with that workload.
    pub fn program(&self, workload: Workload) -> &Arc<Program> {
        self.workloads
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, p)| p)
            .unwrap_or_else(|| panic!("engine has no program for workload {workload:?}"))
    }

    /// Current cache accounting.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            remote_round_trips: self.remote_round_trips.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
        }
    }

    /// Executes a batch of jobs on the worker pool. Duplicate keys within
    /// the batch are collapsed first; keys already cached are hits. Returns
    /// once every job's result is cached, so subsequent per-job accessors
    /// are pure lookups.
    pub fn run(&self, jobs: &[Job]) {
        // Remote warm tier first, while the batch is still a batch: one
        // fetch round trip covers every local miss, after which the
        // per-job chain below finds the promoted entries on local disk.
        self.prefetch_remote(jobs);
        let mut deduped: Vec<&Job> = Vec::with_capacity(jobs.len());
        let mut seen = std::collections::HashSet::with_capacity(jobs.len());
        for job in jobs {
            if seen.insert(job) {
                deduped.push(job);
            }
        }
        // Drop jobs whose results are already cached — the warm path pays
        // no worker spawn/join for what amounts to pure cache reads. Keys
        // that are merely in flight stay in the batch so `run` still
        // returns only once their results land.
        let mut unique: Vec<&Job> = {
            let cache = self.cache.lock().expect("engine cache poisoned");
            deduped
                .into_iter()
                .filter(|job| match cache.get(*job) {
                    Some(slot) => slot.ready.lock().expect("slot poisoned").is_none(),
                    None => true,
                })
                .collect()
        };
        if unique.is_empty() {
            return;
        }
        // Most-expensive first: a CMP timing run started last would pin
        // the batch's tail to a single worker, while one started first
        // overlaps with the swarm of cheap coverage/density jobs. The sort
        // is stable, so equal-cost jobs keep their declaration order.
        unique.sort_by_key(|job| std::cmp::Reverse(job.cost_hint()));
        let workers = self.threads.min(unique.len()).max(1);
        if workers == 1 {
            for job in unique {
                self.fetch(job);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = unique.get(i) else { break };
                    self.fetch(job);
                });
            }
        });
    }

    /// Result of a coverage job (computed now if absent).
    pub fn coverage(&self, job: &CoverageJob) -> CoverageResult {
        match &*self.fetch(&Job::Coverage(job.clone())) {
            JobOutput::Coverage(r) => *r,
            other => unreachable!("coverage job produced {other:?}"),
        }
    }

    /// Result of a timing job (computed now if absent), shared straight
    /// out of the cache.
    pub fn timing(&self, job: &TimingJob) -> Arc<TimingResult> {
        match &*self.fetch(&Job::Timing(job.clone())) {
            JobOutput::Timing(r) => Arc::clone(r),
            other => unreachable!("timing job produced {other:?}"),
        }
    }

    /// Result of any job by key (computed now if absent), shared straight
    /// out of the cache. The daemon's entry point: one method serving
    /// whatever an encoded request decodes to, with the same memoization
    /// and in-flight dedup as the typed accessors.
    pub fn output(&self, job: &Job) -> Arc<JobOutput> {
        self.fetch(job)
    }

    /// Installs an already-known result for `job` without touching the
    /// stats counters, the disk tier, or the executors. The client side
    /// of a daemon run uses this to inject daemon-computed outputs so
    /// the figure formatters' subsequent reads are pure local hits. A
    /// key that is already cached (or in flight) is left alone.
    pub fn seed(&self, job: Job, output: JobOutput) {
        let mut cache = self.cache.lock().expect("engine cache poisoned");
        if let Entry::Vacant(v) = cache.entry(job) {
            let slot = Arc::new(Slot::new());
            slot.fill(Ok(Arc::new(output)));
            v.insert(slot);
        }
    }

    /// `(static, dynamic)` densities of a density job (computed now if
    /// absent).
    pub fn density(&self, job: &DensityJob) -> (f64, f64) {
        match &*self.fetch(&Job::Density(job.clone())) {
            JobOutput::Density(s, d) => (*s, *d),
            other => unreachable!("density job produced {other:?}"),
        }
    }

    /// Memoized fetch: the first request for a key claims it and executes;
    /// concurrent requests for the same key wait for that execution;
    /// later requests read the cached result.
    fn fetch(&self, job: &Job) -> Arc<JobOutput> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (slot, claimed) = {
            let mut cache = self.cache.lock().expect("engine cache poisoned");
            match cache.entry(job.clone()) {
                Entry::Occupied(e) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    (Arc::clone(e.get()), false)
                }
                Entry::Vacant(v) => {
                    let slot = Arc::new(Slot::new());
                    v.insert(Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if claimed {
            // Catch panics over the whole claimed path — disk tier
            // included, since `store_key`/`program` can panic too — so
            // racing waiters on this key re-panic instead of blocking
            // forever on a slot that will never fill.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match self.load_from_store(job) {
                    Some(out) => (out, true),
                    None => {
                        let output = self.execute(job);
                        self.save_to_store(job, &output);
                        (Arc::new(output), false)
                    }
                }
            }));
            match outcome {
                Ok((out, from_disk)) => {
                    let counter = if from_disk {
                        &self.disk_hits
                    } else {
                        &self.executed
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    slot.fill(Ok(Arc::clone(&out)));
                    out
                }
                Err(panic) => {
                    let msg = panic_message(&panic);
                    slot.fill(Err(format!("job {job:?} panicked: {msg}")));
                    std::panic::resume_unwind(panic);
                }
            }
        } else {
            let mut ready = slot.ready.lock().expect("slot poisoned");
            while ready.is_none() {
                ready = slot.cond.wait(ready).expect("slot poisoned");
            }
            match ready.as_ref().expect("checked above") {
                Ok(out) => Arc::clone(out),
                Err(msg) => panic!("waited-on {msg}"),
            }
        }
    }

    /// The remote pre-pass of a batch: collects every unique job with
    /// no in-memory result and no local disk entry, fetches the lot
    /// from the peers in **one batched round trip** (per consulted
    /// peer), re-verifies and promotes each returned entry into the
    /// local store, and — only for workloads that still have to execute
    /// — fetches their warm artifacts the same way. A no-op without
    /// peers or without a store; any peer failure degrades to local
    /// simulation. Jobs whose workload this engine does not serve are
    /// skipped here and left to the per-job path's own error handling.
    pub fn prefetch_remote(&self, jobs: &[Job]) {
        let (Some(peers), Some(store)) = (&self.peers, &self.store) else {
            return;
        };
        let fingerprint = workloads_fingerprint(&self.workloads);
        // Unique jobs missing from both local tiers. Keys merely in
        // flight are skipped too: whoever claimed them is already
        // producing the result.
        let mut missing: Vec<(&Job, Vec<u8>)> = Vec::new();
        {
            let mut seen = HashSet::with_capacity(jobs.len());
            let cache = self.cache.lock().expect("engine cache poisoned");
            for job in jobs {
                if !seen.insert(job) || cache.contains_key(job) {
                    continue;
                }
                if !self.workloads.iter().any(|(w, _)| *w == job.workload()) {
                    continue;
                }
                let key = self.store_key(job).to_bytes();
                if store.load_raw(&key, Tier::Result).is_none() {
                    missing.push((job, key));
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        let keys: Vec<Vec<u8>> = missing.iter().map(|(_, k)| k.clone()).collect();
        let fetched = peers.fetch(fingerprint, Tier::Result, FETCH_HOP_LIMIT, &keys);
        self.remote_round_trips
            .fetch_add(fetched.round_trips, Ordering::Relaxed);
        self.remote_bytes
            .fetch_add(fetched.bytes, Ordering::Relaxed);
        let mut unresolved: Vec<&Job> = Vec::new();
        for ((job, key), entry) in missing.iter().zip(fetched.entries) {
            match entry {
                // adopt_raw re-verifies every byte; a lying peer's entry
                // falls through to `unresolved` and re-simulates.
                Some(data) if store.adopt_raw(key, &data, Tier::Result) => {
                    self.remote_hits.fetch_add(1, Ordering::Relaxed);
                }
                _ => unresolved.push(job),
            }
        }
        // Warm artifacts only help jobs that will actually execute, so a
        // fully-served batch stops at exactly one round trip.
        if !self.warm_artifacts || unresolved.is_empty() {
            return;
        }
        let mut wl_seen = HashSet::new();
        let mut art_keys: Vec<Vec<u8>> = Vec::new();
        {
            let loaded = self.warm_loaded.lock().expect("warm-loaded poisoned");
            for job in unresolved {
                let workload = job.workload();
                if !wl_seen.insert(workload) || loaded.contains(&workload) {
                    continue;
                }
                let key = ArtifactKey {
                    spec: self.program(workload).spec(),
                }
                .to_bytes();
                if store.load_raw(&key, Tier::Artifact).is_none() {
                    art_keys.push(key);
                }
            }
        }
        if art_keys.is_empty() {
            return;
        }
        let fetched = peers.fetch(fingerprint, Tier::Artifact, FETCH_HOP_LIMIT, &art_keys);
        self.remote_round_trips
            .fetch_add(fetched.round_trips, Ordering::Relaxed);
        self.remote_bytes
            .fetch_add(fetched.bytes, Ordering::Relaxed);
        for (key, entry) in art_keys.iter().zip(fetched.entries) {
            if let Some(data) = entry {
                if store.adopt_raw(key, &data, Tier::Artifact) {
                    self.remote_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The serving side of the remote warm tier: answers a peer's (or a
    /// daemonless client's) batched fetch with raw verified entries
    /// from the local store. Keys the local store misses are forwarded
    /// to this engine's own peers while `ttl > 0` (with `ttl - 1`, so
    /// mutually-peered daemons terminate instead of recursing); entries
    /// a further peer supplies are promoted locally before being served
    /// onward. Without a store everything is a miss.
    pub fn fetch_remote_raw(&self, tier: Tier, ttl: u32, keys: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let Some(store) = &self.store else {
            return vec![None; keys.len()];
        };
        let mut entries: Vec<Option<Vec<u8>>> =
            keys.iter().map(|k| store.load_raw(k, tier)).collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| entries[i].is_none()).collect();
        if missing.is_empty() || ttl == 0 {
            return entries;
        }
        let Some(peers) = &self.peers else {
            return entries;
        };
        let subset: Vec<Vec<u8>> = missing.iter().map(|&i| keys[i].clone()).collect();
        let fingerprint = workloads_fingerprint(&self.workloads);
        let fetched = peers.fetch(fingerprint, tier, ttl - 1, &subset);
        self.remote_round_trips
            .fetch_add(fetched.round_trips, Ordering::Relaxed);
        self.remote_bytes
            .fetch_add(fetched.bytes, Ordering::Relaxed);
        for (&slot, entry) in missing.iter().zip(fetched.entries) {
            if let Some(data) = entry {
                if store.adopt_raw(&keys[slot], &data, tier) {
                    self.remote_hits.fetch_add(1, Ordering::Relaxed);
                    entries[slot] = Some(data);
                }
            }
        }
        entries
    }

    /// The persistent key for `job`: the job plus the spec its program
    /// was generated from, so runs over differently-tuned programs never
    /// share an entry even when the `Job` itself is equal.
    fn store_key<'a>(&'a self, job: &'a Job) -> StoreKey<'a> {
        StoreKey {
            spec: self.program(job.workload()).spec(),
            job,
        }
    }

    /// Disk tier of a claimed fetch. `None` on any miss: absent store,
    /// absent entry, failed verification, or (belt and braces) an entry
    /// whose output kind does not answer this job.
    fn load_from_store(&self, job: &Job) -> Option<Arc<JobOutput>> {
        let store = self.store.as_ref()?;
        let output: JobOutput = store.load(&self.store_key(job))?;
        if !output_matches(job, &output) {
            return None;
        }
        Some(Arc::new(output))
    }

    /// Spills a fresh execution to the store. Best-effort: a write
    /// failure (full disk, read-only store) costs a re-simulation in the
    /// next process, never correctness, so it is not propagated.
    fn save_to_store(&self, job: &Job, output: &JobOutput) {
        if let Some(store) = &self.store {
            let _ = store.save(&self.store_key(job), output);
        }
    }

    /// Pre-loads `workload`'s persisted path-memo table before its first
    /// execution in this process, so the executors the job spins up start
    /// in replay mode from record zero. Runs at most one disk read per
    /// workload; a missing, corrupt, or mismatched artifact is simply a
    /// miss (the run re-records and [`SimEngine::persist_warm_artifacts`]
    /// repairs the file).
    fn ensure_warm_artifacts(&self, workload: Workload) {
        if !self.warm_artifacts {
            return;
        }
        let Some(store) = &self.store else { return };
        let mut loaded = self.warm_loaded.lock().expect("warm-loaded poisoned");
        if !loaded.insert(workload) {
            return;
        }
        let program = self.program(workload);
        if let Some(table) = store.load_artifact::<MemoTable>(&ArtifactKey {
            spec: program.spec(),
        }) {
            program.compiled().import_memo(&table);
            self.warm_imports.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many warm-artifact imports actually loaded a table so far.
    /// At most one per workload per engine lifetime — the figure a
    /// long-running daemon amortizes across every batch it serves.
    pub fn warm_imports(&self) -> u64 {
        self.warm_imports.load(Ordering::Relaxed)
    }

    /// Writes each workload's newly recorded paths back to the store's
    /// artifact tier; returns how many artifact files were written. A
    /// no-op without a store or with the tier disabled, and — because
    /// imports mark the bank clean — a fully warm run writes nothing,
    /// leaving artifact mtimes (and thus GC order) undisturbed.
    /// Workloads the run never translated are skipped, not compiled.
    pub fn persist_warm_artifacts(&self) -> usize {
        if !self.warm_artifacts {
            return 0;
        }
        let Some(store) = &self.store else { return 0 };
        let mut written = 0;
        for (_, program) in &self.workloads {
            let Some(compiled) = program.compiled_if_translated() else {
                continue;
            };
            let Some(table) = compiled.export_new_memo() else {
                continue;
            };
            let key = ArtifactKey {
                spec: program.spec(),
            };
            if store.save_artifact(&key, &table).is_ok() {
                written += 1;
            }
        }
        written
    }

    /// Aggregate path-memo accounting across the workloads this process
    /// actually translated (untranslated programs have no bank to read).
    pub fn memo_stats(&self) -> MemoStats {
        let mut total = MemoStats::default();
        for (_, program) in &self.workloads {
            if let Some(compiled) = program.compiled_if_translated() {
                let s = compiled.memo_stats();
                total.tables += s.tables;
                total.steps += s.steps;
                total.replayed += s.replayed;
                total.recorded += s.recorded;
                total.live += s.live;
            }
        }
        total
    }

    fn execute(&self, job: &Job) -> JobOutput {
        self.ensure_warm_artifacts(job.workload());
        match job {
            Job::Coverage(c) => {
                let program = self.program(c.workload);
                JobOutput::Coverage(run_coverage_with_mode(
                    program,
                    || c.btb.build(program),
                    &c.opts,
                    self.mode,
                ))
            }
            Job::Timing(t) => JobOutput::Timing(Arc::new(simulate_cmp_with_shards_mode(
                self.program(t.workload),
                t.design,
                &t.cfg,
                1,
                self.mode,
            ))),
            Job::Density(d) => {
                let program = self.program(d.workload);
                let (s, dy) = branch_density_mode(program, d.instrs, d.seed, self.mode);
                JobOutput::Density(s, dy)
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageOptions;
    use crate::designs::DesignPoint;
    use crate::job::BtbSpec;
    use crate::TimingConfig;
    use confluence_trace::WorkloadSpec;
    use confluence_uarch::MemParams;

    fn tiny_engine() -> SimEngine {
        let program = Arc::new(Program::generate(&WorkloadSpec::tiny()).expect("valid spec"));
        SimEngine::new(vec![(Workload::WebFrontend, program)])
    }

    fn tiny_opts() -> CoverageOptions {
        CoverageOptions {
            warmup_instrs: 20_000,
            measure_instrs: 40_000,
            ..Default::default()
        }
    }

    #[test]
    fn repeated_requests_execute_once() {
        let engine = tiny_engine();
        let job = CoverageJob {
            workload: Workload::WebFrontend,
            btb: BtbSpec::Baseline1k,
            opts: tiny_opts(),
        };
        let a = engine.coverage(&job);
        let b = engine.coverage(&job);
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn batch_collapses_duplicates_across_job_kinds() {
        let engine = tiny_engine().with_threads(4);
        let cov: Job = CoverageJob {
            workload: Workload::WebFrontend,
            btb: BtbSpec::Baseline1k,
            opts: tiny_opts(),
        }
        .into();
        let timing: Job = TimingJob {
            workload: Workload::WebFrontend,
            design: DesignPoint::Baseline,
            cfg: TimingConfig {
                cores: 2,
                warmup_instrs: 20_000,
                measure_instrs: 20_000,
                mem: MemParams {
                    cores: 4,
                    ..MemParams::default()
                },
                ..TimingConfig::default()
            },
        }
        .into();
        let density: Job = DensityJob {
            workload: Workload::WebFrontend,
            instrs: 50_000,
            seed: 3,
        }
        .into();
        let batch: Vec<Job> = vec![
            cov.clone(),
            timing.clone(),
            density.clone(),
            cov.clone(),
            timing.clone(),
            density,
        ];
        engine.run(&batch);
        assert_eq!(engine.stats().executed, 3, "duplicates must collapse");
        // A second identical batch is all hits.
        engine.run(&batch);
        assert_eq!(engine.stats().executed, 3);
    }

    /// A fresh store directory under the system temp dir; removed on drop.
    struct StoreDir(std::path::PathBuf);

    impl StoreDir {
        fn new(tag: &str) -> StoreDir {
            let path = std::env::temp_dir().join(format!(
                "confluence-engine-store-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            StoreDir(path)
        }

        fn open(&self) -> ResultStore {
            ResultStore::open(&self.0, crate::codec::SCHEMA_VERSION).expect("temp dir writable")
        }
    }

    impl Drop for StoreDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_job() -> CoverageJob {
        CoverageJob {
            workload: Workload::WebFrontend,
            btb: BtbSpec::Baseline1k,
            opts: tiny_opts(),
        }
    }

    /// The on-disk entry file for `job` in a tiny engine's store.
    fn tiny_entry_path(engine: &SimEngine, job: &CoverageJob) -> std::path::PathBuf {
        let job = Job::Coverage(job.clone());
        let key = StoreKey {
            spec: engine.program(Workload::WebFrontend).spec(),
            job: &job,
        };
        engine.store().expect("store attached").entry_path(&key)
    }

    #[test]
    fn second_engine_serves_from_disk() {
        let dir = StoreDir::new("warm");
        let job = tiny_job();

        let cold = tiny_engine().with_store(dir.open());
        let first = cold.coverage(&job);
        assert_eq!(cold.stats().executed, 1);
        assert_eq!(cold.stats().disk_hits, 0);
        assert_eq!(cold.store().unwrap().len(), 1);

        // A fresh engine (fresh process, in spirit) re-derives nothing.
        let warm = tiny_engine().with_store(dir.open());
        let second = warm.coverage(&job);
        assert_eq!(second, first, "stored result must equal the fresh one");
        let stats = warm.stats();
        assert_eq!(stats.executed, 0, "warm run must not simulate");
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.hits, 0);

        // Within the warm engine, later requests are memory hits, not
        // repeated disk reads.
        warm.coverage(&job);
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(warm.stats().hits, 1);
    }

    #[test]
    fn truncated_entry_is_resimulated_and_overwritten() {
        let dir = StoreDir::new("truncate");
        let job = tiny_job();

        let cold = tiny_engine().with_store(dir.open());
        let expected = cold.coverage(&job);
        let path = tiny_entry_path(&cold, &job);
        let clean = std::fs::read(&path).expect("entry written");
        std::fs::write(&path, &clean[..clean.len() / 2]).unwrap();

        let repaired = tiny_engine().with_store(dir.open());
        assert_eq!(repaired.coverage(&job), expected);
        let stats = repaired.stats();
        assert_eq!(stats.executed, 1, "corrupt entry must re-simulate");
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            clean,
            "re-simulation must overwrite the corrupt entry in place"
        );

        // The overwritten entry serves the next engine from disk again.
        let warm = tiny_engine().with_store(dir.open());
        assert_eq!(warm.coverage(&job), expected);
        assert_eq!(warm.stats().disk_hits, 1);
    }

    #[test]
    fn bit_flipped_entry_is_resimulated_not_trusted() {
        let dir = StoreDir::new("bitflip");
        let job = tiny_job();

        let cold = tiny_engine().with_store(dir.open());
        let expected = cold.coverage(&job);
        let path = tiny_entry_path(&cold, &job);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the value region.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let repaired = tiny_engine().with_store(dir.open());
        assert_eq!(
            repaired.coverage(&job),
            expected,
            "garbled entry must never leak into results"
        );
        assert_eq!(repaired.stats().executed, 1);
        assert_eq!(repaired.stats().disk_hits, 0);
    }

    /// Regression: with a store attached, the disk tier runs *inside*
    /// the claimed path's panic guard. A job whose workload the engine
    /// lacks panics in `store_key` — racing waiters must re-panic, not
    /// block forever on a slot that never fills.
    #[test]
    fn store_tier_panic_reaches_waiters_instead_of_deadlocking() {
        let dir = StoreDir::new("panic");
        let engine = tiny_engine().with_store(dir.open());
        // tiny_engine only has WebFrontend.
        let job = CoverageJob {
            workload: Workload::OltpDb2,
            ..tiny_job()
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            engine.coverage(&job)
                        }))
                        .is_err()
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap(), "every request must observe the panic");
            }
        });
    }

    #[test]
    fn run_batches_mix_disk_hits_and_executions() {
        let dir = StoreDir::new("batch");
        let a: Job = tiny_job().into();
        let b: Job = CoverageJob {
            btb: BtbSpec::Perfect,
            ..tiny_job()
        }
        .into();

        let cold = tiny_engine().with_store(dir.open());
        cold.run(std::slice::from_ref(&a));
        assert_eq!(cold.stats().executed, 1);

        // Warm engine: `a` comes from disk, `b` still executes; both are
        // persisted afterwards.
        let mixed = tiny_engine().with_store(dir.open()).with_threads(2);
        mixed.run(&[a.clone(), b.clone()]);
        let stats = mixed.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.executed, 1);
        assert_eq!(mixed.store().unwrap().len(), 2);
    }

    /// The on-disk warm-artifact file for a tiny engine's workload.
    fn tiny_artifact_path(engine: &SimEngine) -> std::path::PathBuf {
        let key = ArtifactKey {
            spec: engine.program(Workload::WebFrontend).spec(),
        };
        engine.store().expect("store attached").artifact_path(&key)
    }

    #[test]
    fn warm_artifacts_preload_replays_instead_of_recording() {
        let dir = StoreDir::new("artifact");
        let job = tiny_job();

        let cold = tiny_engine()
            .with_store(dir.open())
            .with_warm_artifacts(true);
        let expected = cold.coverage(&job);
        assert!(cold.memo_stats().recorded > 0, "cold run must record paths");
        assert_eq!(cold.persist_warm_artifacts(), 1);
        let art_path = tiny_artifact_path(&cold);
        assert!(art_path.is_file(), "artifact file must land on disk");
        // Nothing new recorded since the export: a second persist is a
        // no-op and must not rewrite the file.
        let mtime = std::fs::metadata(&art_path).unwrap().modified().unwrap();
        assert_eq!(cold.persist_warm_artifacts(), 0);
        assert_eq!(
            std::fs::metadata(&art_path).unwrap().modified().unwrap(),
            mtime
        );

        // Make the fresh engine actually execute (not disk-hit the
        // result): drop the result tier, keep the artifact tier.
        std::fs::remove_file(tiny_entry_path(&cold, &job)).unwrap();

        let warm = tiny_engine()
            .with_store(dir.open())
            .with_warm_artifacts(true);
        assert_eq!(
            warm.coverage(&job),
            expected,
            "warm replay is bit-identical"
        );
        let stats = warm.memo_stats();
        assert!(stats.replayed > 0, "warm run must replay from the artifact");
        assert_eq!(stats.recorded, 0, "a fully warm run records nothing new");
        assert_eq!(warm.persist_warm_artifacts(), 0, "imported bank is clean");
    }

    #[test]
    fn corrupt_artifact_is_a_miss_then_repaired() {
        let dir = StoreDir::new("artifact-corrupt");
        let job = tiny_job();

        let cold = tiny_engine()
            .with_store(dir.open())
            .with_warm_artifacts(true);
        let expected = cold.coverage(&job);
        cold.persist_warm_artifacts();
        let art_path = tiny_artifact_path(&cold);
        let clean = std::fs::read(&art_path).unwrap();
        let mut garbled = clean.clone();
        let mid = garbled.len() / 2;
        garbled[mid] ^= 0x04;
        std::fs::write(&art_path, &garbled).unwrap();
        std::fs::remove_file(tiny_entry_path(&cold, &job)).unwrap();

        let repaired = tiny_engine()
            .with_store(dir.open())
            .with_warm_artifacts(true);
        assert_eq!(
            repaired.coverage(&job),
            expected,
            "a garbled artifact must never change results"
        );
        // In-process memo hits still happen, but the import itself must
        // have missed: the run re-records (a warm import records nothing).
        assert!(
            repaired.memo_stats().recorded > 0,
            "corrupt artifact must be a miss that re-records"
        );
        assert_eq!(repaired.persist_warm_artifacts(), 1);
        assert_eq!(
            std::fs::read(&art_path).unwrap(),
            clean,
            "re-recording must rebuild the identical canonical artifact"
        );
    }

    #[test]
    fn warm_artifacts_off_touches_no_artifact_files() {
        let dir = StoreDir::new("artifact-off");
        let job = tiny_job();
        let engine = tiny_engine()
            .with_store(dir.open())
            .with_warm_artifacts(false);
        engine.coverage(&job);
        assert_eq!(engine.persist_warm_artifacts(), 0);
        assert!(!tiny_artifact_path(&engine).exists());
        assert_eq!(engine.store().unwrap().usage().artifacts, 0);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let program = Arc::new(Program::generate(&WorkloadSpec::tiny()).expect("valid spec"));
        let parallel =
            SimEngine::new(vec![(Workload::WebFrontend, Arc::clone(&program))]).with_threads(4);
        let serial = SimEngine::new(vec![(Workload::WebFrontend, program)]).with_threads(1);
        let jobs: Vec<Job> = [BtbSpec::Baseline1k, BtbSpec::Large16k, BtbSpec::Perfect]
            .into_iter()
            .map(|btb| {
                CoverageJob {
                    workload: Workload::WebFrontend,
                    btb,
                    opts: tiny_opts(),
                }
                .into()
            })
            .collect();
        parallel.run(&jobs);
        serial.run(&jobs);
        for job in &jobs {
            let Job::Coverage(c) = job else {
                unreachable!()
            };
            assert_eq!(parallel.coverage(c), serial.coverage(c));
        }
    }
}
