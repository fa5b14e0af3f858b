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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use confluence_serve::{EngineStats, FETCH_HOP_LIMIT};
use confluence_store::{Encode, ResultStore};
use confluence_trace::{ExecMode, Program, Workload};

use crate::cmp::{simulate_cmp_with_shards_mode, TimingResult};
use crate::codec::{output_matches, workloads_fingerprint, StoreKey};
use crate::coverage::{branch_density_mode, run_coverage_with_mode, CoverageResult};
use crate::job::{CoverageJob, DensityJob, Job, JobOutput, TimingJob};
use crate::peers::PeerSet;

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

/// The result slots and the engine's counters, behind one lock: every
/// request takes it once anyway, to find its slot.
#[derive(Default)]
struct Cache {
    slots: HashMap<Job, Arc<Slot>>,
    stats: EngineStats,
}

/// What every report reads: the workloads it covers and the result of
/// each job it names. [`SimEngine`] answers from its cache;
/// [`crate::experiments::plan`] answers with empty results and records
/// the reads, which is how a report's batch is derived from the report
/// itself. A report's reads must therefore depend only on its
/// configuration, never on the results it reads.
pub trait Results {
    /// The workloads to report on, in presentation order.
    fn workload_list(&self) -> Vec<Workload>;

    /// Result of a coverage job.
    fn coverage(&self, job: &CoverageJob) -> CoverageResult;

    /// Result of a timing job.
    fn timing(&self, job: &TimingJob) -> Arc<TimingResult>;

    /// `(static, dynamic)` densities of a density job.
    fn density(&self, job: &DensityJob) -> (f64, f64);
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
    cache: Mutex<Cache>,
    store: Option<ResultStore>,
    /// The remote warm tier: peer daemons consulted (batched, once per
    /// batch) for keys missing from both memory and local disk. Fetched
    /// entries are re-verified and promoted into the local store, so
    /// the per-job lookup chain below never talks to the network.
    peers: Option<PeerSet>,
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
            cache: Mutex::default(),
            store: None,
            peers: None,
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
        self.lock_cache().stats
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Cache> {
        self.cache.lock().expect("engine cache poisoned")
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
            let cache = self.lock_cache();
            deduped
                .into_iter()
                .filter(|job| match cache.slots.get(*job) {
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

    /// Result of any job by key (computed now if absent), shared straight
    /// out of the cache. The daemon's entry point: one method serving
    /// whatever an encoded request decodes to, with the same memoization
    /// and in-flight dedup as the typed [`Results`] reads.
    pub fn output(&self, job: &Job) -> Arc<JobOutput> {
        self.fetch(job)
    }

    /// Installs an already-known result for `job` without touching the
    /// stats counters, the disk tier, or the executors. The client side
    /// of a daemon run uses this to inject daemon-computed outputs so
    /// the figure formatters' subsequent reads are pure local hits. A
    /// key that is already cached (or in flight) is left alone.
    pub fn seed(&self, job: Job, output: JobOutput) {
        if let Entry::Vacant(v) = self.lock_cache().slots.entry(job) {
            let slot = Arc::new(Slot::new());
            slot.fill(Ok(Arc::new(output)));
            v.insert(slot);
        }
    }

    /// Memoized fetch: the first request for a key claims it and executes;
    /// concurrent requests for the same key wait for that execution;
    /// later requests read the cached result.
    fn fetch(&self, job: &Job) -> Arc<JobOutput> {
        let (slot, claimed) = {
            let mut guard = self.lock_cache();
            let cache = &mut *guard;
            cache.stats.requests += 1;
            match cache.slots.entry(job.clone()) {
                Entry::Occupied(e) => {
                    cache.stats.hits += 1;
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
                    let mut cache = self.lock_cache();
                    if from_disk {
                        cache.stats.disk_hits += 1;
                    } else {
                        cache.stats.executed += 1;
                    }
                    drop(cache);
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
    /// peer), and re-verifies and promotes each returned entry into the
    /// local store. A no-op without peers or without a store; any peer
    /// failure degrades to local simulation. Jobs whose workload this
    /// engine does not serve are skipped here and left to the per-job
    /// path's own error handling.
    pub fn prefetch_remote(&self, jobs: &[Job]) {
        let (Some(peers), Some(store)) = (&self.peers, &self.store) else {
            return;
        };
        // Unique jobs missing from both local tiers. Keys merely in
        // flight are skipped too: whoever claimed them is already
        // producing the result.
        let mut missing: Vec<Vec<u8>> = Vec::new();
        {
            let mut seen = HashSet::with_capacity(jobs.len());
            let cache = self.lock_cache();
            for job in jobs {
                if !seen.insert(job) || cache.slots.contains_key(job) {
                    continue;
                }
                if !self.workloads.iter().any(|(w, _)| *w == job.workload()) {
                    continue;
                }
                let key = self.store_key(job).to_bytes();
                if store.load_raw(&key).is_none() {
                    missing.push(key);
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        self.adopt_from_peers(peers, store, FETCH_HOP_LIMIT, &missing);
    }

    /// The serving side of the remote warm tier: answers a peer's (or a
    /// daemonless client's) batched fetch with raw verified entries
    /// from the local store. Keys the local store misses are forwarded
    /// to this engine's own peers while `ttl > 0` (with `ttl - 1`, so
    /// mutually-peered daemons terminate instead of recursing); entries
    /// a further peer supplies are promoted locally before being served
    /// onward. Without a store everything is a miss.
    pub fn fetch_remote_raw(&self, ttl: u32, keys: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let Some(store) = &self.store else {
            return vec![None; keys.len()];
        };
        let mut entries: Vec<Option<Vec<u8>>> = keys.iter().map(|k| store.load_raw(k)).collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| entries[i].is_none()).collect();
        if missing.is_empty() || ttl == 0 {
            return entries;
        }
        let Some(peers) = &self.peers else {
            return entries;
        };
        let subset: Vec<Vec<u8>> = missing.iter().map(|&i| keys[i].clone()).collect();
        let adopted = self.adopt_from_peers(peers, store, ttl - 1, &subset);
        for (&slot, entry) in missing.iter().zip(adopted) {
            entries[slot] = entry;
        }
        entries
    }

    /// Fetches `keys` from the peers in one batched exchange per peer,
    /// counts the round trips and bytes, and adopts each returned entry
    /// into the local store. `adopt_raw` re-verifies every byte, so a
    /// lying peer's entry is dropped and its job re-simulates. Returns
    /// the adopted entries, index-aligned with `keys`.
    fn adopt_from_peers(
        &self,
        peers: &PeerSet,
        store: &ResultStore,
        ttl: u32,
        keys: &[Vec<u8>],
    ) -> Vec<Option<Vec<u8>>> {
        let fetched = peers.fetch(workloads_fingerprint(&self.workloads), ttl, keys);
        let adopted: Vec<Option<Vec<u8>>> = keys
            .iter()
            .zip(fetched.entries)
            .map(|(key, entry)| entry.filter(|data| store.adopt_raw(key, data)))
            .collect();
        let stats = &mut self.lock_cache().stats;
        stats.remote_round_trips += fetched.round_trips;
        stats.remote_bytes += fetched.bytes;
        stats.remote_hits += adopted.iter().flatten().count() as u64;
        adopted
    }

    /// Applies a store size cap (`--store-cap-bytes`) after a batch:
    /// evicts the oldest-written entries until the store fits `cap` and
    /// notes on stderr what went. Call it after a batch, never between
    /// jobs, so a capped store still serves every intra-run hit and only
    /// sheds history it can re-derive. Without a store or a cap it does
    /// nothing, and in particular reads nothing from the store directory.
    pub fn apply_store_cap(&self, cap: Option<u64>) {
        let (Some(store), Some(cap)) = (&self.store, cap) else {
            return;
        };
        let gc = store.evict_to_cap(cap);
        if gc.evicted_entries > 0 {
            eprintln!(
                "store gc: evicted {} entries ({} bytes) to fit the {cap} byte cap",
                gc.evicted_entries, gc.evicted_bytes
            );
        }
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

    fn execute(&self, job: &Job) -> JobOutput {
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

/// The engine's cache as report input: each read is the job's result,
/// computed now if absent.
impl Results for SimEngine {
    fn workload_list(&self) -> Vec<Workload> {
        self.workloads.iter().map(|(w, _)| *w).collect()
    }

    fn coverage(&self, job: &CoverageJob) -> CoverageResult {
        match &*self.fetch(&Job::Coverage(job.clone())) {
            JobOutput::Coverage(r) => *r,
            other => unreachable!("coverage job produced {other:?}"),
        }
    }

    fn timing(&self, job: &TimingJob) -> Arc<TimingResult> {
        match &*self.fetch(&Job::Timing(job.clone())) {
            JobOutput::Timing(r) => Arc::clone(r),
            other => unreachable!("timing job produced {other:?}"),
        }
    }

    fn density(&self, job: &DensityJob) -> (f64, f64) {
        match &*self.fetch(&Job::Density(job.clone())) {
            JobOutput::Density(s, d) => (*s, *d),
            other => unreachable!("density job produced {other:?}"),
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
