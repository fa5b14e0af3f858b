//! The accept loop and per-connection protocol driver.
//!
//! The server owns nothing about simulation: it is generic over a
//! [`BatchHost`], the engine-owning side of the daemon, and knows only
//! its job bytes and its [`EngineStats`] counters, whose delta over a
//! batch the batch's `BatchDone` carries. A [`Listener`] binds the
//! socket before the host exists, so a daemon refuses an unusable path
//! before it builds its engine.
//!
//! The accept loop blocks in `accept` and gives each connection a
//! thread of its own. For every connection it runs the handshake, then
//! answers `SubmitBatch` frames in two steps. First the connection
//! thread asks the host for each job's cached result
//! ([`BatchHost::cached`]) and sends every hit's `JobResult` frame in
//! submission order, as one burst in one write, before any worker
//! starts; a batch the host holds entirely is answered without a
//! thread. Then it fans the misses out over at most `host.threads()`
//! worker threads (most-expensive-first by `host.cost_hint`, matching
//! the engine's own scheduler) and streams their frames back in
//! completion order. A miss's result leaves as soon as the connection's
//! writer is free: the writer waits for the next result, then sends it
//! and every other result already waiting as one burst, in one write.
//! Frames are read through a buffer, so a burst from the client costs
//! one read, not three per frame.
//! Exactly-once semantics across concurrent clients are
//! the host's business — the engine's content-keyed in-flight dedup —
//! so two clients submitting the same job each get a result frame while
//! the simulation runs once.
//!
//! Failure isolation is per connection: a malformed frame or rejected
//! job earns a typed [`Frame::Error`] and a clean close; a client that
//! disconnects mid-batch aborts its remaining job *claims* (work other
//! clients are waiting on still completes inside the host) and its
//! thread exits. Nothing a client does can poison the shared engine.

use std::io::{self, BufReader, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::protocol::{
    self, EngineStats, ErrorCode, Frame, RecvError, FETCH_HOP_LIMIT, PROTO_VERSION,
};

/// How long [`ServerHandle::stop`] waits for the accept loop to exit
/// after waking it, before it leaves the loop's thread detached.
const STOP_GRACE: Duration = Duration::from_millis(500);

/// A typed refusal from the host: handshake validation or a job that
/// could not be decoded/executed. Sent to the client verbatim as a
/// [`Frame::Error`].
#[derive(Clone, Debug)]
pub struct Rejection {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl Rejection {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Rejection {
            code,
            message: message.into(),
        }
    }
}

/// The engine-owning side of the daemon, as the server sees it.
///
/// Implementations decode the opaque job payloads with their own schema
/// (the `Hello` handshake guarantees both sides agree on it) and are
/// responsible for exactly-once execution under concurrency — the
/// server will call [`BatchHost::run_job`] for the same payload from
/// several connections at once and expects the host to dedup in flight.
/// Each job of a batch is first offered to [`BatchHost::cached`] on the
/// connection's own thread; only the jobs it does not answer reach
/// `cost_hint` and `run_job`, on worker threads.
pub trait BatchHost: Send + Sync + 'static {
    /// The host's job schema version, echoed in `HelloAck`.
    fn schema(&self) -> u32;

    /// Accepts or rejects a client handshake. `schema` and
    /// `fingerprint` are the client's job schema version and
    /// workload-config fingerprint.
    ///
    /// # Errors
    ///
    /// A [`Rejection`] is sent to the client as a typed error frame and
    /// the connection is closed.
    fn validate_hello(&self, schema: u32, fingerprint: u64) -> Result<(), Rejection>;

    /// Worker threads to fan one batch out over.
    fn threads(&self) -> usize;

    /// Relative cost of one encoded job, for most-expensive-first
    /// ordering. Payloads that fail to decode may return anything;
    /// [`BatchHost::run_job`] will reject them properly.
    fn cost_hint(&self, job: &[u8]) -> u64;

    /// The encoded output of a job whose result the host already holds,
    /// counted in its [`EngineStats`] exactly as `run_job` would count a
    /// hit. `None` sends the job to [`BatchHost::run_job`]: a miss, a
    /// job still running elsewhere (the lookup must neither claim nor
    /// wait for it), a failed one, and a payload that does not decode,
    /// so that `run_job` refuses it typed. Called on the connection's
    /// thread, once per job, in submission order. The default holds
    /// nothing.
    fn cached(&self, job: &[u8]) -> Option<Vec<u8>> {
        let _ = job;
        None
    }

    /// Executes one encoded job and returns its encoded output.
    ///
    /// # Errors
    ///
    /// A [`Rejection`] aborts the batch: the client gets a typed error
    /// frame instead of a `BatchDone`.
    fn run_job(&self, job: &[u8]) -> Result<Vec<u8>, Rejection>;

    /// Called once per submitted batch, before any job runs (and after
    /// [`BatchHost::snapshot`], so whatever it does lands in the batch's
    /// accounting window). The remote warm tier lives here: a peered
    /// host collects the batch's local misses and fetches them from its
    /// peers in one batched round trip. The default does nothing.
    fn prepare_batch(&self, jobs: &[Vec<u8>]) {
        let _ = jobs;
    }

    /// Answers one batched fetch from a peer (or a daemonless client):
    /// for each encoded store key, the raw verified entry bytes from
    /// this host's store, or `None` for a miss. With `ttl > 0`
    /// the host may consult its own peers (forwarding `ttl - 1`) before
    /// conceding a miss. Must return exactly `keys.len()` slots. The
    /// default — a host with no store — misses everything.
    fn fetch_batch(&self, ttl: u32, keys: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let _ = ttl;
        vec![None; keys.len()]
    }

    /// The host's counters now. The server reads them before a batch
    /// and hands them back to [`BatchHost::finish_batch`] after it. The
    /// default, for a host that keeps no counters, is all zeros.
    fn snapshot(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Settles a batch: runs any end-of-batch maintenance (store GC) and
    /// returns the counts added since `before`, which the batch's
    /// `BatchDone` carries. The default only takes the delta.
    fn finish_batch(&self, before: EngineStats) -> EngineStats {
        self.snapshot().since(&before)
    }
}

/// A bound Unix-domain socket whose host is not built yet. Binding
/// first lets a daemon refuse an unusable socket path before it pays for
/// building its engine; connections that arrive meanwhile wait in the
/// socket's backlog.
pub struct Listener {
    listener: UnixListener,
    path: PathBuf,
}

impl Listener {
    /// Binds a Unix-domain socket at `path`, replacing a stale socket
    /// file left by a previous run.
    ///
    /// # Errors
    ///
    /// Errors if the socket cannot be bound, and without touching `path`
    /// if it holds anything but a socket, or a socket a live server
    /// answers on (`AddrInUse`).
    pub fn bind(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // A crashed daemon leaves its socket file behind; binding over
        // it needs the stale file gone. Only a socket that refuses a
        // connection is removed: unlinking a live daemon's socket would
        // strand that daemon on a path no client can reach, and a
        // mistyped `--socket notes.txt` must not delete the user's file.
        // Losing a race here means the path is genuinely in use and bind
        // reports AddrInUse.
        match std::fs::symlink_metadata(&path) {
            Ok(meta) if !meta.file_type().is_socket() => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("{} exists and is not a socket", path.display()),
                ));
            }
            Ok(_) => match UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} is the socket of a running server", path.display()),
                    ));
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    match std::fs::remove_file(&path) {
                        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                        _ => {}
                    }
                }
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                Err(_) => {}
            },
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            Err(_) => {}
        }
        let listener = UnixListener::bind(&path)?;
        Ok(Listener { listener, path })
    }

    /// The server that answers this socket's connections with `host`.
    pub fn serve<H: BatchHost>(self, host: Arc<H>) -> Server<H> {
        Server {
            listener: self.listener,
            host,
            path: self.path,
        }
    }
}

/// A bound but not yet running server.
pub struct Server<H: BatchHost> {
    listener: UnixListener,
    host: Arc<H>,
    path: PathBuf,
}

impl<H: BatchHost> Server<H> {
    /// Binds a Unix-domain socket at `path` for `host`: [`Listener::bind`]
    /// then [`Listener::serve`].
    ///
    /// # Errors
    ///
    /// As [`Listener::bind`].
    pub fn bind(path: impl AsRef<Path>, host: Arc<H>) -> io::Result<Self> {
        Ok(Listener::bind(path)?.serve(host))
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Runs the accept loop on the calling thread until the process is
    /// killed. The daemon binary's main loop: the same loop
    /// [`Server::spawn`] runs, blocked in `accept` while no client
    /// connects, so an idle daemon does not wake.
    ///
    /// # Errors
    ///
    /// Errors if the listener fails fatally.
    pub fn run(self) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        serve_loop(self.listener, self.host, &stop, &conns)
    }

    /// Starts the accept loop on a background thread and returns a
    /// handle that can stop it. The in-process form used by tests.
    pub fn spawn(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (exit_tx, exit_rx) = mpsc::sync_channel(1);
        {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                let _ = exit_tx.send(serve_loop(self.listener, self.host, &stop, &conns));
            });
        }
        ServerHandle {
            stop,
            accept: Some(exit_rx),
            conns,
            path: self.path,
        }
    }
}

/// Handle to a spawned server; stopping ends the accept loop, joins
/// every live connection thread, then removes the socket file.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    /// The accept thread's exit result, once its loop returns; `None`
    /// after [`ServerHandle::stop`] or `Drop` has let go of the thread.
    accept: Option<mpsc::Receiver<io::Result<()>>>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    path: PathBuf,
}

impl ServerHandle {
    /// The socket path the server was bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops accepting, waits for in-flight connections to finish, and
    /// removes the socket file.
    ///
    /// The accept loop blocks in `accept`, so `stop` sets the stop flag
    /// and then connects once to the socket path to wake it. That
    /// connect can miss: the socket file may have been removed, and
    /// another server may have bound the path since. If the loop has not
    /// exited shortly after the
    /// wake-up connect, `stop` leaves the accept thread detached, blocked
    /// in `accept` until the process ends, and returns anyway: it never
    /// hangs on the accept loop. It then leaves the socket path alone,
    /// since it may be another server's now.
    ///
    /// # Errors
    ///
    /// Returns the accept loop's fatal error, if it had one, or an error
    /// if its thread panicked.
    pub fn stop(mut self) -> io::Result<()> {
        let exited = self.end_accept_loop();
        let conns = std::mem::take(
            &mut *self
                .conns
                .lock()
                .expect("connection list poisoned: a thread panicked holding it"),
        );
        for conn in conns {
            let _ = conn.join();
        }
        if exited.is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
        exited.unwrap_or(Ok(()))
    }

    /// Sets the stop flag and wakes the accept loop with one connection.
    /// Returns the loop's result if it exits within [`STOP_GRACE`], and
    /// `None` if it does not (the thread is left detached) or if the
    /// handle has already let go of the accept thread.
    fn end_accept_loop(&mut self) -> Option<io::Result<()>> {
        let exit = self.accept.take()?;
        self.stop.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.path);
        match exit.recv_timeout(STOP_GRACE) {
            Ok(result) => Some(result),
            // The thread panicked, which closed its listener all the same.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Some(Err(io::Error::other("the accept loop panicked")))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => None,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.end_accept_loop().is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn serve_loop<H: BatchHost>(
    listener: UnixListener,
    host: Arc<H>,
    stop: &AtomicBool,
    conns: &Mutex<Vec<thread::JoinHandle<()>>>,
) -> io::Result<()> {
    loop {
        // Blocking accept: the loop sleeps until a client connects. To
        // stop it, `ServerHandle` sets the flag and then connects once;
        // that wake-up connection is dropped unserved.
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match accepted {
            Ok((stream, _)) => {
                let host = Arc::clone(&host);
                let handle = thread::spawn(move || handle_connection(&stream, &*host));
                let mut conns = conns
                    .lock()
                    .expect("connection list poisoned: a thread panicked holding it");
                // Drop the handles of connections that already ended, so a
                // daemon that never stops holds one handle per live
                // connection, not one per connection it ever accepted.
                conns.retain(|conn| !conn.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Sends a typed error frame, ignoring transport failure (the client
/// may already be gone), then lets the connection close.
fn refuse(mut out: &UnixStream, code: ErrorCode, message: String) {
    let _ = protocol::send(&mut out, &Frame::Error { code, message });
}

fn handle_connection<H: BatchHost>(mut stream: &UnixStream, host: &H) {
    // Frames are read through a buffer (a burst of them costs one read)
    // and written to the stream itself, one write per frame or burst.
    let mut reader = BufReader::new(stream);
    // Handshake first: anything other than a well-formed, compatible
    // Hello gets a typed refusal and a close.
    match protocol::recv(&mut reader) {
        Ok(Frame::Hello {
            proto,
            schema,
            fingerprint,
        }) => {
            if proto != PROTO_VERSION {
                return refuse(
                    stream,
                    ErrorCode::ProtoMismatch,
                    format!("daemon speaks frame protocol v{PROTO_VERSION}, client sent v{proto}"),
                );
            }
            if let Err(rej) = host.validate_hello(schema, fingerprint) {
                return refuse(stream, rej.code, rej.message);
            }
            let ack = Frame::HelloAck {
                proto: PROTO_VERSION,
                schema: host.schema(),
            };
            if protocol::send(&mut stream, &ack).is_err() {
                return;
            }
        }
        Ok(_) => {
            return refuse(
                stream,
                ErrorCode::MalformedFrame,
                "expected Hello as first frame".to_string(),
            );
        }
        Err(RecvError::Closed | RecvError::Io(_)) => return,
        Err(e @ (RecvError::Envelope(_) | RecvError::Malformed(_))) => {
            return refuse(stream, ErrorCode::MalformedFrame, e.to_string());
        }
    }

    loop {
        match protocol::recv(&mut reader) {
            Ok(Frame::SubmitBatch { batch_id, jobs }) => {
                if !serve_batch(stream, host, batch_id, &jobs) {
                    return;
                }
            }
            Ok(Frame::FetchResults { ttl, keys }) => {
                if !serve_fetch(stream, host, ttl, &keys) {
                    return;
                }
            }
            Ok(_) => {
                return refuse(
                    stream,
                    ErrorCode::MalformedFrame,
                    "expected SubmitBatch".to_string(),
                );
            }
            // A dropped client abandons its reads; nothing to clean up
            // here — the shared engine state lives in the host.
            Err(RecvError::Closed | RecvError::Io(_)) => return,
            Err(e @ (RecvError::Envelope(_) | RecvError::Malformed(_))) => {
                return refuse(stream, ErrorCode::MalformedFrame, e.to_string());
            }
        }
    }
}

/// Answers one batched fetch: a [`Frame::FetchHit`] per key the host
/// holds, then one [`Frame::FetchDone`], all ready at once and so sent
/// in one write. Returns `false` if the connection should close
/// (transport failure or a host that broke the one-slot-per-key
/// contract).
fn serve_fetch<H: BatchHost>(mut out: &UnixStream, host: &H, ttl: u32, keys: &[Vec<u8>]) -> bool {
    let entries = host.fetch_batch(ttl.min(FETCH_HOP_LIMIT), keys);
    if entries.len() != keys.len() {
        refuse(
            out,
            ErrorCode::JobFailed,
            format!("fetch answered {} of {} keys", entries.len(), keys.len()),
        );
        return false;
    }
    let mut burst = Vec::new();
    let mut hits: u32 = 0;
    for (idx, entry) in entries.into_iter().enumerate() {
        if let Some(entry) = entry {
            hits += 1;
            #[allow(clippy::cast_possible_truncation)]
            let idx = idx as u32;
            if protocol::put(&mut burst, &Frame::FetchHit { idx, entry }).is_err() {
                return false;
            }
        }
    }
    #[allow(clippy::cast_possible_truncation)]
    let misses = keys.len() as u32 - hits;
    protocol::put(&mut burst, &Frame::FetchDone { hits, misses }).is_ok()
        && out.write_all(&burst).is_ok()
}

/// Answers one batch: the host's cached results first, then the misses'
/// results as they complete, then `BatchDone`. Returns `false` if the
/// connection should close (transport failure or a rejected job).
fn serve_batch<H: BatchHost>(
    mut out: &UnixStream,
    host: &H,
    batch_id: u64,
    jobs: &[Vec<u8>],
) -> bool {
    let before = host.snapshot();
    host.prepare_batch(jobs);

    // Hits first, from this thread, in submission order and one write:
    // a warm batch needs no worker, no channel and no ranking.
    let mut burst = Vec::new();
    let mut misses: Vec<usize> = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        match host.cached(job) {
            Some(output) => {
                #[allow(clippy::cast_possible_truncation)]
                let job_idx = idx as u32;
                if protocol::put(&mut burst, &Frame::JobResult { job_idx, output }).is_err() {
                    return false;
                }
            }
            None => misses.push(idx),
        }
    }
    if !burst.is_empty() && out.write_all(&burst).is_err() {
        return false;
    }
    if !misses.is_empty() && !run_misses(out, host, jobs, misses) {
        return false;
    }
    let done = Frame::BatchDone {
        batch_id,
        stats: host.finish_batch(before),
    };
    protocol::send(&mut out, &done).is_ok()
}

/// Runs the jobs at `misses` (indices into `jobs`) on worker threads and
/// streams each result as it completes. Returns `false` if the
/// connection should close: the client went away, or a job was
/// rejected, whose typed refusal has then been sent.
fn run_misses<H: BatchHost>(
    mut out: &UnixStream,
    host: &H,
    jobs: &[Vec<u8>],
    mut misses: Vec<usize>,
) -> bool {
    // Most-expensive-first claim order, same policy as the engine's own
    // scheduler: long poles start immediately instead of queueing
    // behind cheap jobs. Stable sort keeps submission order among ties;
    // the sort key costs one `cost_hint` (a payload decode) per job.
    misses.sort_by_cached_key(|&i| std::cmp::Reverse(host.cost_hint(&jobs[i])));

    let workers = host.threads().clamp(1, misses.len());
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let rejection: Mutex<Option<Rejection>> = Mutex::new(None);
    let mut write_failed = false;

    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(u32, Vec<u8>)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, abort, rejection, misses) = (&next, &abort, &rejection, &misses);
            scope.spawn(move || {
                loop {
                    if abort.load(Ordering::SeqCst) {
                        break;
                    }
                    let slot = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&idx) = misses.get(slot) else { break };
                    match host.run_job(&jobs[idx]) {
                        Ok(output) => {
                            #[allow(clippy::cast_possible_truncation)]
                            let job_idx = idx as u32;
                            if tx.send((job_idx, output)).is_err() {
                                break;
                            }
                        }
                        Err(rej) => {
                            // First rejection wins; the batch aborts.
                            rejection
                                .lock()
                                .expect("rejection slot poisoned: a worker panicked holding it")
                                .get_or_insert(rej);
                            abort.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                }
            });
        }
        // The connection thread is the sole frame writer: it waits for
        // the next result, then sends it and every result already
        // waiting in the channel as one burst, in one write. Dropping
        // the spare sender lets the loop end when all workers finish.
        drop(tx);
        let mut burst = Vec::new();
        for first in &rx {
            if write_failed {
                continue; // keep draining so the channel empties
            }
            burst.clear();
            let sent = std::iter::once(first)
                .chain(rx.try_iter())
                .map(|(job_idx, output)| Frame::JobResult { job_idx, output })
                .try_for_each(|frame| protocol::put(&mut burst, &frame))
                .and_then(|()| out.write_all(&burst));
            if sent.is_err() {
                // Client went away mid-batch: abandon its remaining
                // claims. Jobs other clients also requested still
                // complete inside the host's in-flight dedup.
                write_failed = true;
                abort.store(true, Ordering::SeqCst);
            }
        }
    });

    if write_failed {
        return false;
    }
    let rejected = rejection
        .lock()
        .expect("rejection slot poisoned: a worker panicked holding it")
        .take();
    if let Some(rej) = rejected {
        refuse(out, rej.code, rej.message);
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_constructor() {
        let r = Rejection::new(ErrorCode::MalformedJob, "nope");
        assert_eq!(r.code, ErrorCode::MalformedJob);
        assert_eq!(r.message, "nope");
    }

    /// A host that keeps no counters settles every batch at zero.
    #[test]
    fn batch_stats_default_is_all_zero() {
        let stats = IdleHost.finish_batch(IdleHost.snapshot());
        assert_eq!(stats, EngineStats::default());
    }

    /// A host that accepts every handshake and is never sent a batch.
    struct IdleHost;

    impl BatchHost for IdleHost {
        fn schema(&self) -> u32 {
            1
        }

        fn validate_hello(&self, _: u32, _: u64) -> Result<(), Rejection> {
            Ok(())
        }

        fn threads(&self) -> usize {
            1
        }

        fn cost_hint(&self, _: &[u8]) -> u64 {
            0
        }

        fn run_job(&self, _: &[u8]) -> Result<Vec<u8>, Rejection> {
            Ok(Vec::new())
        }
    }

    /// A daemon that never stops must not keep one thread handle per
    /// connection it ever served: finished ones go at the next accept.
    #[test]
    fn finished_connection_handles_are_not_retained() {
        const CONNECTIONS: usize = 16;
        let sock =
            std::env::temp_dir().join(format!("confluence-serve-reap-{}.sock", std::process::id()));
        let host = Arc::new(IdleHost);
        let server = Server::bind(&sock, Arc::clone(&host)).unwrap().spawn();
        for _ in 0..CONNECTIONS {
            drop(crate::Client::connect(&sock, 1, 0).unwrap());
            // Each connection thread owns a clone of the host until it
            // returns; wait for the one just closed before opening the
            // next, so every earlier connection has ended by then.
            while Arc::strong_count(&host) > 2 {
                thread::yield_now();
            }
        }
        let retained = server.conns.lock().unwrap().len();
        assert!(
            retained <= 2,
            "{retained} handles retained after {CONNECTIONS} sequential connections"
        );
        server.stop().unwrap();
    }

    /// The wake-up connect cannot reach a loop whose socket file is
    /// gone; `stop` must still return, leaving the loop detached.
    #[test]
    fn stop_returns_when_the_socket_file_is_gone() {
        let sock =
            std::env::temp_dir().join(format!("confluence-serve-gone-{}.sock", std::process::id()));
        let server = Server::bind(&sock, Arc::new(IdleHost)).unwrap().spawn();
        std::fs::remove_file(&sock).unwrap();
        let (stopped_tx, stopped) = mpsc::channel();
        thread::spawn(move || stopped_tx.send(server.stop().is_ok()));
        assert_eq!(
            stopped.recv_timeout(Duration::from_secs(5)),
            Ok(true),
            "stop did not return within 5 s of its socket file being removed"
        );
    }

    /// Another server that binds the path once the old socket file is
    /// gone takes the wake-up connect; `stop` must still return, and
    /// must leave the new server's socket file in place.
    #[test]
    fn stop_leaves_a_rebound_path_to_its_new_owner() {
        let sock = std::env::temp_dir().join(format!(
            "confluence-serve-rebound-{}.sock",
            std::process::id()
        ));
        let old = Server::bind(&sock, Arc::new(IdleHost)).unwrap().spawn();
        std::fs::remove_file(&sock).unwrap();
        let new = Server::bind(&sock, Arc::new(IdleHost)).unwrap().spawn();
        let (stopped_tx, stopped) = mpsc::channel();
        thread::spawn(move || stopped_tx.send(old.stop().is_ok()));
        assert_eq!(stopped.recv_timeout(Duration::from_secs(5)), Ok(true));
        drop(crate::Client::connect(&sock, 1, 0).expect("the new server still answers"));
        new.stop().unwrap();
    }

    /// A live server's socket is not another server's to take: `bind`
    /// must fail with `AddrInUse`, and the live server must still answer
    /// on the path.
    #[test]
    fn bind_refuses_a_live_servers_socket() {
        let sock =
            std::env::temp_dir().join(format!("confluence-serve-live-{}.sock", std::process::id()));
        let live = Server::bind(&sock, Arc::new(IdleHost)).unwrap().spawn();
        let err = Server::bind(&sock, Arc::new(IdleHost))
            .err()
            .expect("binding over a live server's socket must fail");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(crate::Client::connect(&sock, 1, 0).expect("the live server still answers"));
        live.stop().unwrap();
    }

    /// A socket file nobody answers on is a crashed server's leftover:
    /// `bind` replaces it.
    #[test]
    fn bind_replaces_a_stale_socket() {
        let sock = std::env::temp_dir().join(format!(
            "confluence-serve-stale-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&sock);
        drop(UnixListener::bind(&sock).unwrap());
        let server = Server::bind(&sock, Arc::new(IdleHost)).unwrap().spawn();
        drop(crate::Client::connect(&sock, 1, 0).expect("the new server answers"));
        server.stop().unwrap();
    }

    /// A path that holds anything but a socket is not the server's to
    /// replace: `bind` must fail and leave the file as it was.
    #[test]
    fn bind_leaves_a_regular_file_in_place() {
        let path = std::env::temp_dir().join(format!(
            "confluence-serve-not-a-socket-{}.txt",
            std::process::id()
        ));
        std::fs::write(&path, b"notes").unwrap();
        let err = Server::bind(&path, Arc::new(IdleHost))
            .err()
            .expect("binding over a regular file must fail");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read(&path).unwrap(), b"notes");
        std::fs::remove_file(&path).unwrap();
    }

    /// Job `[0]` returns at once; job `[1]` waits until the test opens
    /// the gate. Every job echoes its payload. A job whose byte is in
    /// `cached` is answered from the cache, and running it panics.
    struct GatedHost {
        gate: Mutex<mpsc::Receiver<()>>,
        cached: Vec<u8>,
    }

    impl GatedHost {
        /// A host that caches the jobs `cached`, and the sender that
        /// opens its gate.
        fn new(cached: &[u8]) -> (Arc<Self>, mpsc::Sender<()>) {
            let (open_gate, gate) = mpsc::channel();
            let host = GatedHost {
                gate: Mutex::new(gate),
                cached: cached.to_vec(),
            };
            (Arc::new(host), open_gate)
        }
    }

    impl BatchHost for GatedHost {
        fn schema(&self) -> u32 {
            1
        }

        fn validate_hello(&self, _: u32, _: u64) -> Result<(), Rejection> {
            Ok(())
        }

        fn threads(&self) -> usize {
            2
        }

        fn cost_hint(&self, _: &[u8]) -> u64 {
            0
        }

        fn cached(&self, job: &[u8]) -> Option<Vec<u8>> {
            self.cached.contains(&job[0]).then(|| job.to_vec())
        }

        fn run_job(&self, job: &[u8]) -> Result<Vec<u8>, Rejection> {
            assert!(
                !self.cached.contains(&job[0]),
                "run_job called for the cached job {job:?}"
            );
            if job == [1] {
                // Bounded, so a failed test cannot wedge the worker.
                let _ = self
                    .gate
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
            }
            Ok(job.to_vec())
        }
    }

    /// A batch the host holds entirely is answered without running a
    /// job: every result and the `BatchDone` arrive, though this host's
    /// `run_job` panics on each of these jobs.
    #[test]
    fn a_fully_cached_batch_runs_no_job() {
        let sock = std::env::temp_dir().join(format!(
            "confluence-serve-cached-{}.sock",
            std::process::id()
        ));
        let (host, _gate) = GatedHost::new(&[2, 3, 4]);
        let server = Server::bind(&sock, host).unwrap().spawn();
        let jobs = vec![vec![4], vec![2], vec![3]];
        let reply = crate::Client::connect(&sock, 1, 0)
            .unwrap()
            .submit(5, jobs.clone())
            .expect("every result and the BatchDone arrive");
        assert_eq!(reply.outputs, jobs);
        server.stop().unwrap();
    }

    /// Results stream in completion order: job `[0]`'s result must reach
    /// the client while job `[1]` is still running, because `[1]` runs
    /// only once the client has read it. A writer that held results
    /// until the batch ended would deadlock with the client; the read
    /// timeout is the watchdog that fails the test instead. Cached jobs
    /// (`[2]` and `[3]` on the second host) come before every miss, in
    /// submission order, and the misses still stream.
    #[test]
    fn results_stream_before_the_batch_ends() {
        stream_past_the_gate("plain", &[], &[vec![0], vec![1]], &[0], 1);
        stream_past_the_gate(
            "cached",
            &[2, 3],
            &[vec![2], vec![0], vec![3], vec![1]],
            &[0, 2, 1],
            3,
        );
    }

    /// Submits `jobs` to a [`GatedHost`] caching `cached` and expects the
    /// results of `before_gate` (job indices, in that order) while job
    /// `gated` waits at the gate, then `gated`'s result and `BatchDone`.
    fn stream_past_the_gate(
        tag: &str,
        cached: &[u8],
        jobs: &[Vec<u8>],
        before_gate: &[u32],
        gated: u32,
    ) {
        let sock = std::env::temp_dir().join(format!(
            "confluence-serve-stream-{tag}-{}.sock",
            std::process::id()
        ));
        let (host, open_gate) = GatedHost::new(cached);
        let server = Server::bind(&sock, host).unwrap().spawn();
        let mut stream = UnixStream::connect(&sock).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            schema: 1,
            fingerprint: 0,
        };
        protocol::send(&mut stream, &hello).unwrap();
        assert!(matches!(
            protocol::recv(&mut stream),
            Ok(Frame::HelloAck { .. })
        ));
        let batch = Frame::SubmitBatch {
            batch_id: 7,
            jobs: jobs.to_vec(),
        };
        protocol::send(&mut stream, &batch).unwrap();
        let mut expect_result = |idx: u32| match protocol::recv(&mut stream) {
            Ok(Frame::JobResult { job_idx, output }) if job_idx == idx => {
                assert_eq!(output, jobs[idx as usize]);
            }
            other => panic!("expected job {idx}'s result, got {other:?}"),
        };
        for &idx in before_gate {
            expect_result(idx);
        }
        open_gate.send(()).unwrap();
        expect_result(gated);
        assert!(matches!(
            protocol::recv(&mut stream),
            Ok(Frame::BatchDone { batch_id: 7, .. })
        ));
        drop(stream);
        server.stop().unwrap();
    }
}
