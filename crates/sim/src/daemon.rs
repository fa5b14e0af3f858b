//! The engine-facing halves of the experiment daemon: the
//! [`BatchHost`] implementation the `confluence-serve` binary mounts a
//! [`SimEngine`] behind, and the client helper the `--connect` mode of
//! the figure binaries submits batches through.
//!
//! `confluence_serve` deliberately knows nothing about simulation — job
//! payloads are opaque bytes at its layer. This module is where the
//! opacity ends: [`EngineHost`] decodes each payload with the job codec
//! (`crate::codec`), answers a job whose result the engine already holds
//! straight from its cache (`SimEngine::cached`, counted as a hit, so
//! the server sends it without a worker thread), runs every other job
//! through the shared engine (inheriting its in-flight dedup, so two
//! clients submitting the same content-keyed job trigger one execution
//! and two results), and settles each batch: it applies the store cap,
//! when one is set, and answers with the engine's [`EngineStats`] over
//! the batch's window. Without a cap a settled batch reads nothing from
//! the store directory. The handshake pins [`SCHEMA_VERSION`] and the
//! [`workloads_fingerprint`] of the engine's generator specs, so a
//! quick-mode client talking to a full-mode daemon is a typed
//! `ConfigMismatch` refusal, never silently different numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use confluence_serve::{BatchHost, EngineStats, ErrorCode, Rejection};
use confluence_serve::{Client, ClientError};
use confluence_store::{Decode, Encode};

use crate::codec::{output_matches, workloads_fingerprint, SCHEMA_VERSION};
use crate::engine::SimEngine;
use crate::job::{Job, JobOutput};

/// A [`SimEngine`] mounted behind the daemon protocol.
pub struct EngineHost {
    engine: SimEngine,
    fingerprint: u64,
    store_cap: Option<u64>,
}

impl EngineHost {
    /// Mounts `engine` as a batch host. `store_cap` (from
    /// `--store-cap-bytes` / `CONFLUENCE_STORE_CAP`) is applied to the
    /// engine's store after every batch, so a long-running daemon keeps
    /// its disk footprint bounded without ever evicting mid-batch.
    pub fn new(engine: SimEngine, store_cap: Option<u64>) -> Self {
        let fingerprint = workloads_fingerprint(engine.workloads());
        EngineHost {
            engine,
            fingerprint,
            store_cap,
        }
    }

    /// The mounted engine.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The workload-config fingerprint clients must present.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl BatchHost for EngineHost {
    fn schema(&self) -> u32 {
        SCHEMA_VERSION
    }

    fn validate_hello(&self, schema: u32, fingerprint: u64) -> Result<(), Rejection> {
        if schema != SCHEMA_VERSION {
            return Err(Rejection::new(
                ErrorCode::SchemaMismatch,
                format!("daemon serves job schema v{SCHEMA_VERSION}, client speaks v{schema}"),
            ));
        }
        if fingerprint != self.fingerprint {
            return Err(Rejection::new(
                ErrorCode::ConfigMismatch,
                format!(
                    "client workload configuration {fingerprint:016x} differs from the \
                     daemon's {:016x} (e.g. --quick against a full-scale daemon)",
                    self.fingerprint
                ),
            ));
        }
        Ok(())
    }

    fn threads(&self) -> usize {
        self.engine.threads()
    }

    fn cost_hint(&self, job: &[u8]) -> u64 {
        // Undecodable payloads rank anywhere; run_job rejects them with
        // a proper typed error when their turn comes.
        Job::from_bytes(job).map_or(0, |j| j.cost_hint())
    }

    fn cached(&self, payload: &[u8]) -> Option<Vec<u8>> {
        // An undecodable payload is no hit; run_job refuses it typed.
        let job = Job::from_bytes(payload).ok()?;
        self.engine.cached(&job).map(|output| output.to_bytes())
    }

    fn run_job(&self, payload: &[u8]) -> Result<Vec<u8>, Rejection> {
        let job = Job::from_bytes(payload).map_err(|e| {
            Rejection::new(
                ErrorCode::MalformedJob,
                format!("job failed to decode: {e}"),
            )
        })?;
        let workload = job.workload();
        if !self.engine.workloads().iter().any(|(w, _)| *w == workload) {
            return Err(Rejection::new(
                ErrorCode::MalformedJob,
                format!("daemon serves no workload {workload:?}"),
            ));
        }
        // A failed allocation aborts the process, which no unwind catches,
        // so a job whose fields would size a table past its limit is
        // refused before the engine sees it.
        job.check_sizes()
            .map_err(|e| Rejection::new(ErrorCode::MalformedJob, format!("job refused: {e}")))?;
        // A panicking job must stay a connection-scoped failure, not a
        // daemon crash. The engine's slot bookkeeping survives the
        // unwind (waiters on the key re-panic and land here too).
        let output = catch_unwind(AssertUnwindSafe(|| self.engine.output(&job)))
            .map_err(|_| Rejection::new(ErrorCode::JobFailed, format!("job {job:?} failed")))?;
        Ok(output.to_bytes())
    }

    fn prepare_batch(&self, jobs: &[Vec<u8>]) {
        // The batched remote pre-pass: decode what decodes (undecodable
        // payloads earn their typed rejection in run_job) and fetch
        // every local miss from the peers in one round trip. Called
        // after `snapshot`, so the promotions land in this batch's
        // remote-counter deltas. Without peers there is nothing to
        // fetch, so nothing is decoded.
        if self.engine.peers().is_none() {
            return;
        }
        let decoded: Vec<Job> = jobs
            .iter()
            .filter_map(|payload| Job::from_bytes(payload).ok())
            .collect();
        self.engine.prefetch_remote(&decoded);
    }

    fn fetch_batch(&self, ttl: u32, keys: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        self.engine.fetch_remote_raw(ttl, keys)
    }

    fn snapshot(&self) -> EngineStats {
        self.engine.stats()
    }

    fn finish_batch(&self, before: EngineStats) -> EngineStats {
        self.engine.apply_store_cap(self.store_cap);
        self.engine.stats().since(&before)
    }
}

/// Submits `jobs` to the daemon at `sock` and seeds every result into
/// `engine`'s in-memory cache, so the caller's report formatters are
/// pure local hits afterwards — the same post-condition as
/// `SimEngine::run`. Duplicate keys are collapsed before submission
/// (result frames refer to jobs by index, so the daemon never needs to
/// see a duplicate). Returns the daemon's per-batch accounting.
///
/// # Errors
///
/// [`ClientError::Daemon`] carries the daemon's typed refusal; any
/// output that fails to decode or answers the wrong job kind is a
/// [`ClientError::Protocol`].
pub fn submit_jobs(
    sock: &Path,
    engine: &SimEngine,
    jobs: &[Job],
) -> Result<EngineStats, ClientError> {
    let fingerprint = workloads_fingerprint(engine.workloads());
    let mut client = Client::connect(sock, SCHEMA_VERSION, fingerprint)?;

    let mut deduped: Vec<&Job> = Vec::with_capacity(jobs.len());
    let mut seen = std::collections::HashSet::with_capacity(jobs.len());
    for job in jobs {
        if seen.insert(job) {
            deduped.push(job);
        }
    }
    let payloads: Vec<Vec<u8>> = deduped.iter().map(|j| j.to_bytes()).collect();
    let reply = client.submit(1, payloads)?;

    for (job, bytes) in deduped.into_iter().zip(&reply.outputs) {
        let output = JobOutput::from_bytes(bytes)
            .map_err(|e| ClientError::Protocol(format!("daemon result failed to decode: {e}")))?;
        if !output_matches(job, &output) {
            return Err(ClientError::Protocol(format!(
                "daemon answered job {job:?} with the wrong output kind"
            )));
        }
        engine.seed(job.clone(), output);
    }
    Ok(reply.stats)
}
