//! The served-warm pieces: the in-process outputs a daemon must serve, a
//! daemon over a store filled with them, and one closed-loop client
//! request against it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use confluence_serve::{Server, ServerHandle};
use confluence_sim::codec::StoreKey;
use confluence_sim::daemon::{submit_jobs, EngineHost};
use confluence_sim::{Job, JobOutput, SimEngine, SCHEMA_VERSION};
use confluence_store::{Encode, ResultStore};

use crate::jobs::{self, program_of, Bench, Programs};

/// Executes `jobs` in process on a fresh engine with served-warm's
/// threads and no store: the outputs of `unique`, in its order, that
/// every served request must reproduce.
///
/// # Errors
///
/// An engine that does not execute every unique job exactly once.
pub fn execute_in_process(
    programs: &Programs,
    jobs: &[Job],
    unique: &[Job],
) -> Result<Vec<JobOutput>, String> {
    let engine = SimEngine::new(programs.clone()).with_threads(Bench::ServedWarm.threads());
    engine.run(jobs);
    let executed = engine.stats().executed;
    if executed != unique.len() as u64 {
        return Err(format!(
            "in-process run executed {executed} jobs for {} unique",
            unique.len()
        ));
    }
    Ok(unique
        .iter()
        .map(|j| JobOutput::clone(&engine.output(j)))
        .collect())
}

/// Seconds each part of one served-warm set-up took.
#[derive(Clone, Copy, Debug)]
pub struct SetupParts {
    /// Generating and translating the daemon's programs.
    pub programs_s: f64,
    /// Filling the store, one `ResultStore::save` per unique job.
    pub fill_s: f64,
    /// Building the daemon's engine, binding its socket and spawning it.
    pub start_s: f64,
}

/// A running in-process daemon and what its clients need.
pub struct Daemon {
    server: ServerHandle,
    /// The engine host the server runs batches on.
    pub host: Arc<EngineHost>,
    /// The daemon's socket (relative to the working directory).
    pub sock: PathBuf,
    /// Programs a client engine is built over: the daemon's workload
    /// specs, so the handshake fingerprints match.
    pub client_programs: Programs,
    /// Encoded outputs of the unique jobs, as the store holds them.
    pub expected: Vec<Vec<u8>>,
}

impl Daemon {
    /// One served-warm set-up: generates and translates fresh programs
    /// (a daemon process never inherits a client's warm programs), fills
    /// a fresh store under `dir` with `outputs` through
    /// `ResultStore::save`, keyed as the engine keys them, and starts a
    /// daemon over both. `tag` keeps several daemons' files apart.
    /// Returns the daemon and how long each part of the set-up took.
    ///
    /// # Errors
    ///
    /// A store or socket that cannot be set up.
    pub fn start(
        dir: &Path,
        tag: usize,
        client_programs: Programs,
        unique: &[Job],
        outputs: &[JobOutput],
    ) -> Result<(Daemon, SetupParts), String> {
        let t = Instant::now();
        let (programs, _, _) = jobs::generate_programs();
        let programs_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let store_dir = dir.join(format!("store-{tag}"));
        let store = ResultStore::open(&store_dir, SCHEMA_VERSION)
            .map_err(|e| format!("cannot open store {}: {e}", store_dir.display()))?;
        for (job, output) in unique.iter().zip(outputs) {
            let key = StoreKey {
                spec: program_of(&programs, job.workload()).spec(),
                job,
            };
            store
                .save(&key, output)
                .map_err(|e| format!("store fill failed: {e}"))?;
        }
        let fill_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let engine = SimEngine::new(programs)
            .with_threads(Bench::ServedWarm.threads())
            .with_store(store);
        let expected = outputs.iter().map(|o| o.to_bytes()).collect();
        let daemon = Daemon::serve(
            dir,
            tag,
            EngineHost::new(engine, None),
            client_programs,
            expected,
        )?;
        let parts = SetupParts {
            programs_s,
            fill_s,
            start_s: t.elapsed().as_secs_f64(),
        };
        Ok((daemon, parts))
    }

    /// Starts a daemon over `host` on a socket under `dir`.
    ///
    /// # Errors
    ///
    /// A socket that cannot be bound.
    pub fn serve(
        dir: &Path,
        tag: usize,
        host: EngineHost,
        client_programs: Programs,
        expected: Vec<Vec<u8>>,
    ) -> Result<Daemon, String> {
        let host = Arc::new(host);
        let sock = dir.join(format!("d{tag}.sock"));
        let server = Server::bind(&sock, Arc::clone(&host))
            .map_err(|e| format!("cannot bind {}: {e}", sock.display()))?
            .spawn();
        Ok(Daemon {
            server,
            host,
            sock,
            client_programs,
            expected,
        })
    }

    /// One closed-loop request: `daemon::submit_jobs` from a fresh client
    /// engine, then every output read back from that engine. Returns the
    /// latency from connect to the last output read, and the encoded
    /// outputs (index-aligned with `unique`) or why the request failed.
    pub fn request(&self, jobs: &[Job], unique: &[Job]) -> (f64, Result<Vec<Vec<u8>>, String>) {
        let client = SimEngine::new(self.client_programs.clone());
        let t = Instant::now();
        let served = submit_jobs(&self.sock, &client, jobs)
            .map_err(|e| e.to_string())
            .map(|stats| {
                // Only read back after a full reply: every job is seeded,
                // so each read is a local hit, never a local simulation.
                let outputs: Vec<_> = unique.iter().map(|j| client.output(j)).collect();
                (stats, outputs)
            });
        let latency = t.elapsed().as_secs_f64();
        let checked = served.and_then(|(stats, outputs)| {
            if stats.executed != 0 || client.stats().executed != 0 {
                return Err(format!(
                    "served request simulated: daemon {} client {}",
                    stats.executed,
                    client.stats().executed
                ));
            }
            Ok(outputs.iter().map(|o| o.to_bytes()).collect())
        });
        (latency, checked)
    }

    /// Stops the server, joining its accept loop and connections.
    pub fn stop(self) {
        if let Err(e) = self.server.stop() {
            eprintln!("warning: daemon accept loop failed: {e}");
        }
    }
}
