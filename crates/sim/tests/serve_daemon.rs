//! End-to-end tests of the experiment daemon: an in-process
//! `confluence_serve::Server` mounted over an [`EngineHost`], exercised
//! through real Unix-domain sockets by real [`Client`]s — concurrent
//! clients with overlapping batches, warm second batches, store GC,
//! the remote warm tier, and the protocol's typed failure paths.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use confluence_serve::protocol::{self, Frame};
use confluence_serve::{Client, ClientError, ErrorCode, Server, ServerHandle};
use confluence_sim::daemon::{submit_jobs, EngineHost};
use confluence_sim::{
    BtbSpec, CoverageJob, CoverageOptions, DensityJob, Job, PeerSet, SimEngine, SCHEMA_VERSION,
};
use confluence_store::{Encode, ResultStore};
use confluence_trace::{Program, Workload, WorkloadSpec};

/// Fresh per-test scratch directory (sockets and stores live here).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "confluence-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir writable");
    dir
}

/// An engine over the deterministic tiny workload; every call generates
/// an identical program, so daemon and clients share a fingerprint.
fn tiny_engine() -> SimEngine {
    let program = Arc::new(Program::generate(&WorkloadSpec::tiny()).expect("tiny spec generates"));
    SimEngine::new(vec![(Workload::WebFrontend, program)]).with_threads(2)
}

/// A small mixed batch: three coverage points and a density probe, all
/// cheap enough for CI but distinct content keys.
fn tiny_jobs() -> Vec<Job> {
    let opts = CoverageOptions {
        warmup_instrs: 5_000,
        measure_instrs: 5_000,
        ..Default::default()
    };
    let coverage = |btb| {
        Job::Coverage(CoverageJob {
            workload: Workload::WebFrontend,
            btb,
            opts: opts.clone(),
        })
    };
    vec![
        coverage(BtbSpec::Perfect),
        coverage(BtbSpec::Baseline1k),
        coverage(BtbSpec::Ideal16k),
        Job::Density(DensityJob {
            workload: Workload::WebFrontend,
            instrs: 5_000,
            seed: 7,
        }),
    ]
}

fn spawn_daemon(
    engine: SimEngine,
    sock: &Path,
    cap: Option<u64>,
) -> (Arc<EngineHost>, ServerHandle) {
    let host = Arc::new(EngineHost::new(engine, cap));
    let server = Server::bind(sock, Arc::clone(&host)).expect("bind test socket");
    (host, server.spawn())
}

/// Reference outputs computed in process, for byte comparison.
fn reference_outputs(jobs: &[Job]) -> Vec<Vec<u8>> {
    let engine = tiny_engine();
    jobs.iter().map(|j| engine.output(j).to_bytes()).collect()
}

#[test]
fn concurrent_clients_share_exactly_once_execution() {
    let dir = scratch("concurrent");
    let sock = dir.join("daemon.sock");
    let (host, handle) = spawn_daemon(tiny_engine(), &sock, None);

    let jobs = tiny_jobs();
    let expected = reference_outputs(&jobs);

    // Four clients, overlapping batches over the same content keys, each
    // seeding its own local engine — the in-process shape of four
    // separate figure binaries pointed at one daemon.
    let client_stats: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (sock, jobs) = (&sock, &jobs);
                scope.spawn(move || {
                    let local = tiny_engine();
                    let stats = submit_jobs(sock, &local, jobs).expect("batch succeeds");
                    let outputs: Vec<Vec<u8>> =
                        jobs.iter().map(|j| local.output(j).to_bytes()).collect();
                    (stats, outputs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical results for every client, against an in-process run.
    for (_, outputs) in &client_stats {
        assert_eq!(outputs, &expected, "daemon results must match in-process");
    }
    // Exactly once across all four clients: the daemon's engine executed
    // each unique job a single time and served everything else as hits.
    let unique = jobs.len() as u64;
    let totals = host.engine().stats();
    assert_eq!(totals.executed, unique);
    assert_eq!(totals.requests, 4 * unique);
    assert_eq!(totals.hits, 3 * unique);
    // Per-batch deltas are windows over the shared counters: overlapping
    // batches each see the executions that landed during their window,
    // so each delta is bounded by the truth even though concurrent
    // windows overlap.
    for (stats, _) in &client_stats {
        assert!(
            stats.executed <= unique,
            "no batch can over-claim: {stats:?}"
        );
    }

    handle.stop().expect("clean shutdown");
    assert!(!sock.exists(), "stop removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_second_batch_executes_nothing() {
    let dir = scratch("warm");
    let sock = dir.join("daemon.sock");
    let jobs = tiny_jobs();
    let engine = tiny_engine()
        .with_store(ResultStore::open(dir.join("store"), SCHEMA_VERSION).expect("store opens"));
    let (_host, handle) = spawn_daemon(engine, &sock, None);

    // Batch 1: a cold daemon executes every job.
    let local1 = tiny_engine();
    let stats1 = submit_jobs(&sock, &local1, &jobs).expect("first batch");
    assert_eq!(stats1.executed, jobs.len() as u64);

    // Batch 2 (fresh client): pure memory hits — not even disk reads.
    let local2 = tiny_engine();
    let stats2 = submit_jobs(&sock, &local2, &jobs).expect("second batch");
    assert_eq!(stats2.executed, 0, "warm daemon executes nothing");
    assert_eq!(stats2.disk_hits, 0);
    assert_eq!(stats2.hits, jobs.len() as u64);
    assert_eq!(stats2.requests, jobs.len() as u64, "one request per job");

    // Both clients still decode identical bytes.
    let expected = reference_outputs(&jobs);
    for local in [&local1, &local2] {
        let outputs: Vec<Vec<u8>> = jobs.iter().map(|j| local.output(j).to_bytes()).collect();
        assert_eq!(outputs, expected);
    }

    handle.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_applies_store_cap_after_each_batch() {
    let dir = scratch("gc");
    let sock = dir.join("daemon.sock");
    let store_dir = dir.join("store");
    let engine = tiny_engine()
        .with_store(ResultStore::open(&store_dir, SCHEMA_VERSION).expect("store opens"));
    // A 1-byte cap: every entry the batch writes must be evicted again
    // in the daemon's post-batch maintenance.
    let (host, handle) = spawn_daemon(engine, &sock, Some(1));

    let jobs = tiny_jobs();
    let local = tiny_engine();
    let stats = submit_jobs(&sock, &local, &jobs).expect("batch succeeds");
    assert_eq!(stats.executed, jobs.len() as u64);

    let usage = host.engine().store().expect("store attached").usage();
    assert_eq!(usage.entries, 0, "post-batch GC must enforce the cap");

    handle.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_handshakes_are_typed_refusals() {
    let dir = scratch("handshake");
    let sock = dir.join("daemon.sock");
    let (host, handle) = spawn_daemon(tiny_engine(), &sock, None);
    let fingerprint = host.fingerprint();

    match Client::connect(&sock, SCHEMA_VERSION + 1, fingerprint) {
        Err(ClientError::Daemon { code, .. }) => assert_eq!(code, ErrorCode::SchemaMismatch),
        Err(other) => panic!("schema mismatch must be a typed refusal, got {other:?}"),
        Ok(_) => panic!("schema mismatch must not connect"),
    }
    match Client::connect(&sock, SCHEMA_VERSION, fingerprint ^ 1) {
        Err(ClientError::Daemon { code, .. }) => assert_eq!(code, ErrorCode::ConfigMismatch),
        Err(other) => panic!("config mismatch must be a typed refusal, got {other:?}"),
        Ok(_) => panic!("config mismatch must not connect"),
    }
    // A client speaking an earlier frame protocol is refused typed
    // before it can misread a v3 `BatchDone`.
    for proto in [1, 2] {
        use std::os::unix::net::UnixStream;
        let mut stream = UnixStream::connect(&sock).expect("connect");
        protocol::send(
            &mut stream,
            &Frame::Hello {
                proto,
                schema: SCHEMA_VERSION,
                fingerprint,
            },
        )
        .expect("hello");
        match protocol::recv(&mut stream) {
            Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::ProtoMismatch),
            other => panic!("a v{proto} hello must earn a typed refusal, got {other:?}"),
        }
    }
    // The daemon is not poisoned: a correct handshake still succeeds.
    Client::connect(&sock, SCHEMA_VERSION, fingerprint).expect("valid handshake accepted");

    handle.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_traffic_gets_typed_errors_and_never_poisons() {
    let dir = scratch("malformed");
    let sock = dir.join("daemon.sock");
    let (host, handle) = spawn_daemon(tiny_engine(), &sock, None);
    let fingerprint = host.fingerprint();

    // A frame that decodes to garbage (valid envelope, junk payload):
    // the daemon answers with a typed Error frame, not a hangup.
    {
        use std::os::unix::net::UnixStream;
        let mut stream = UnixStream::connect(&sock).expect("connect");
        confluence_store::write_frame(&mut stream, &[0xFF, 0x01, 0x02]).expect("send junk");
        match protocol::recv(&mut stream) {
            Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::MalformedFrame),
            other => panic!("junk frame must earn a typed error, got {other:?}"),
        }
    }

    // A well-formed frame protocol carrying an undecodable job payload.
    {
        let mut client = Client::connect(&sock, SCHEMA_VERSION, fingerprint).expect("handshake");
        match client.submit(1, vec![b"not a job".to_vec()]) {
            Err(ClientError::Daemon { code, .. }) => assert_eq!(code, ErrorCode::MalformedJob),
            other => panic!("bad job payload must be a typed error, got {other:?}"),
        }
    }

    // A client that submits a batch and vanishes without reading.
    {
        use std::os::unix::net::UnixStream;
        let mut stream = UnixStream::connect(&sock).expect("connect");
        protocol::send(
            &mut stream,
            &Frame::Hello {
                proto: protocol::PROTO_VERSION,
                schema: SCHEMA_VERSION,
                fingerprint,
            },
        )
        .expect("hello");
        assert!(matches!(
            protocol::recv(&mut stream),
            Ok(Frame::HelloAck { .. })
        ));
        let payloads = tiny_jobs().iter().map(Encode::to_bytes).collect();
        protocol::send(
            &mut stream,
            &Frame::SubmitBatch {
                batch_id: 9,
                jobs: payloads,
            },
        )
        .expect("submit");
        drop(stream); // gone before a single result frame is read
    }

    // After all of that, an honest client still gets full service and
    // exactly-once totals hold.
    let jobs = tiny_jobs();
    let local = tiny_engine();
    submit_jobs(&sock, &local, &jobs).expect("daemon survives hostile clients");
    let expected = reference_outputs(&jobs);
    let outputs: Vec<Vec<u8>> = jobs.iter().map(|j| local.output(j).to_bytes()).collect();
    assert_eq!(outputs, expected);

    handle.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A result-store directory pre-warmed with every `tiny_jobs` result
/// by a plain in-process run.
fn warmed_store(dir: &Path) -> PathBuf {
    let store_dir = dir.join("store-warm");
    let engine = tiny_engine()
        .with_store(ResultStore::open(&store_dir, SCHEMA_VERSION).expect("store opens"));
    engine.run(&tiny_jobs());
    store_dir
}

/// The acceptance shape of the remote warm tier: daemon A holds a warm
/// store, daemon B starts with an empty one and `--peer A`. B's first
/// batch simulates nothing — every key is fetched from A in **one**
/// round trip, promoted into B's store, and served as a local disk hit
/// — and the client's bytes are identical to an in-process run.
#[test]
fn peered_daemon_serves_first_batch_without_simulating() {
    let dir = scratch("remote-tier");
    let sock_a = dir.join("a.sock");
    let sock_b = dir.join("b.sock");
    let jobs = tiny_jobs();

    let engine_a = tiny_engine().with_store(
        ResultStore::open(warmed_store(&dir), SCHEMA_VERSION).expect("warm store reopens"),
    );
    let (_host_a, handle_a) = spawn_daemon(engine_a, &sock_a, None);

    let store_b = dir.join("store-b");
    let engine_b = tiny_engine()
        .with_store(ResultStore::open(&store_b, SCHEMA_VERSION).expect("empty store opens"))
        .with_peers(PeerSet::new(vec![sock_a.clone()], Duration::from_secs(5)));
    let (_host_b, handle_b) = spawn_daemon(engine_b, &sock_b, None);

    let local = tiny_engine();
    let stats = submit_jobs(&sock_b, &local, &jobs).expect("batch against B succeeds");

    let unique = jobs.len() as u64;
    assert_eq!(stats.executed, 0, "B must simulate nothing");
    assert_eq!(stats.remote_hits, unique, "every key fetched from A");
    assert_eq!(
        stats.remote_round_trips, 1,
        "a fully-served batch costs exactly one round trip"
    );
    assert!(stats.remote_bytes > 0, "fetched entries have bytes");
    assert_eq!(
        stats.disk_hits, unique,
        "promoted entries serve as local disk hits"
    );

    // Byte-identical to an in-process run.
    let expected = reference_outputs(&jobs);
    let outputs: Vec<Vec<u8>> = jobs.iter().map(|j| local.output(j).to_bytes()).collect();
    assert_eq!(outputs, expected, "remote-served results must match");

    // The promotion is durable: kill A, and a cold engine over B's
    // store still serves everything from disk.
    handle_a.stop().expect("A shuts down");
    handle_b.stop().expect("B shuts down");
    let replay = tiny_engine()
        .with_store(ResultStore::open(&store_b, SCHEMA_VERSION).expect("B's store reopens"));
    replay.run(&jobs);
    let replay_stats = replay.stats();
    assert_eq!(replay_stats.executed, 0, "B's store was really populated");
    assert_eq!(replay_stats.disk_hits, unique);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dead peer ahead of a live one degrades to a skip, not a failure:
/// the batch still completes remotely in one round trip.
#[test]
fn dead_first_peer_falls_through_to_the_live_one() {
    let dir = scratch("remote-dead-first");
    let sock_a = dir.join("a.sock");
    let jobs = tiny_jobs();

    let engine_a = tiny_engine().with_store(
        ResultStore::open(warmed_store(&dir), SCHEMA_VERSION).expect("warm store reopens"),
    );
    let (_host_a, handle_a) = spawn_daemon(engine_a, &sock_a, None);

    let engine_b = tiny_engine()
        .with_store(ResultStore::open(dir.join("store-b"), SCHEMA_VERSION).expect("store opens"))
        .with_peers(PeerSet::new(
            vec![dir.join("nobody-home.sock"), sock_a.clone()],
            Duration::from_millis(500),
        ));
    engine_b.run(&jobs);

    let stats = engine_b.stats();
    assert_eq!(stats.executed, 0, "the live peer still serves everything");
    assert_eq!(stats.remote_hits, jobs.len() as u64);
    assert_eq!(
        stats.remote_round_trips, 1,
        "a dead peer completes no round trip"
    );

    handle_a.stop().expect("A shuts down");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With every peer dead, the remote tier degrades all the way to local
/// simulation — the run completes, it is just cold.
#[test]
fn all_peers_dead_degrades_to_local_simulation() {
    let dir = scratch("remote-all-dead");
    let jobs = tiny_jobs();
    let engine = tiny_engine()
        .with_store(ResultStore::open(dir.join("store"), SCHEMA_VERSION).expect("store opens"))
        .with_peers(PeerSet::new(
            vec![dir.join("gone.sock")],
            Duration::from_millis(200),
        ));
    engine.run(&jobs);
    let stats = engine.stats();
    assert_eq!(stats.executed, jobs.len() as u64, "everything simulates");
    assert_eq!(stats.remote_hits, 0);
    assert_eq!(stats.remote_round_trips, 0);

    let expected = reference_outputs(&jobs);
    let outputs: Vec<Vec<u8>> = jobs.iter().map(|j| engine.output(j).to_bytes()).collect();
    assert_eq!(outputs, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mutually-peered daemons, both cold: the fetch forwards A → B → A …
/// until the hop limit runs out, terminates with a miss (no livelock,
/// no stack of daemons waiting on each other forever), and the batch
/// completes by simulating locally.
#[test]
fn mutually_peered_daemons_terminate_with_a_miss() {
    let dir = scratch("remote-loop");
    let sock_a = dir.join("a.sock");
    let sock_b = dir.join("b.sock");
    let jobs = tiny_jobs();

    let peers_to = |sock: &Path| PeerSet::new(vec![sock.to_path_buf()], Duration::from_secs(5));
    let engine_a = tiny_engine()
        .with_store(ResultStore::open(dir.join("store-a"), SCHEMA_VERSION).expect("store opens"))
        .with_peers(peers_to(&sock_b));
    let engine_b = tiny_engine()
        .with_store(ResultStore::open(dir.join("store-b"), SCHEMA_VERSION).expect("store opens"))
        .with_peers(peers_to(&sock_a));
    let (_host_a, handle_a) = spawn_daemon(engine_a, &sock_a, None);
    let (_host_b, handle_b) = spawn_daemon(engine_b, &sock_b, None);

    let local = tiny_engine();
    let stats = submit_jobs(&sock_a, &local, &jobs).expect("looped fetch terminates");
    assert_eq!(
        stats.executed,
        jobs.len() as u64,
        "nobody holds the entries, so A simulates them"
    );
    assert_eq!(stats.remote_hits, 0, "a miss everywhere stays a miss");

    let expected = reference_outputs(&jobs);
    let outputs: Vec<Vec<u8>> = jobs.iter().map(|j| local.output(j).to_bytes()).collect();
    assert_eq!(outputs, expected);

    handle_a.stop().expect("A shuts down");
    handle_b.stop().expect("B shuts down");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lying peer — right protocol, garbage entry bytes — demotes to a
/// miss: `adopt_raw` re-verifies every byte and rejects, the job
/// re-simulates locally, and the write-back repairs the local slot. The
/// store is never poisoned.
#[test]
fn lying_peer_demotes_to_miss_and_write_back_repairs() {
    let dir = scratch("remote-liar");
    let sock = dir.join("liar.sock");
    let jobs = tiny_jobs();

    // A hand-rolled peer that answers every fetch with a well-formed
    // FetchHit whose entry bytes are garbage (wrong checksum, wrong
    // everything) — the protocol-level shape of a corrupt or malicious
    // fleet member.
    let listener = std::os::unix::net::UnixListener::bind(&sock).expect("bind liar socket");
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let Ok(Frame::Hello { schema, .. }) = protocol::recv(&mut stream) else {
                continue;
            };
            let _ = protocol::send(
                &mut stream,
                &Frame::HelloAck {
                    proto: protocol::PROTO_VERSION,
                    schema,
                },
            );
            let keys = match protocol::recv(&mut stream) {
                Ok(Frame::FetchResults { keys, .. }) => keys,
                _ => continue,
            };
            for idx in 0..keys.len() as u32 {
                let _ = protocol::send(
                    &mut stream,
                    &Frame::FetchHit {
                        idx,
                        entry: vec![0xAB; 64],
                    },
                );
            }
            let _ = protocol::send(
                &mut stream,
                &Frame::FetchDone {
                    hits: keys.len() as u32,
                    misses: 0,
                },
            );
        }
    });

    let store_dir = dir.join("store");
    let engine = tiny_engine()
        .with_store(ResultStore::open(&store_dir, SCHEMA_VERSION).expect("store opens"))
        .with_peers(PeerSet::new(vec![sock.clone()], Duration::from_secs(5)));
    engine.run(&jobs);

    let stats = engine.stats();
    assert_eq!(stats.remote_hits, 0, "garbage entries must never adopt");
    assert_eq!(
        stats.executed,
        jobs.len() as u64,
        "every lied-about key re-simulates"
    );
    assert!(
        stats.remote_bytes > 0,
        "the lie was received, then rejected"
    );

    // Results are correct despite the hostile peer...
    let expected = reference_outputs(&jobs);
    let outputs: Vec<Vec<u8>> = jobs.iter().map(|j| engine.output(j).to_bytes()).collect();
    assert_eq!(outputs, expected);

    // ...and the write-back repaired the local slots with verified
    // bytes: a cold engine over the same store is pure disk hits.
    drop(engine);
    let replay = tiny_engine()
        .with_store(ResultStore::open(&store_dir, SCHEMA_VERSION).expect("store reopens"));
    replay.run(&jobs);
    assert_eq!(replay.stats().executed, 0, "store holds verified entries");
    assert_eq!(replay.stats().disk_hits, jobs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
