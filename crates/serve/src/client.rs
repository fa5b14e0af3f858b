//! The blocking client: handshake once, submit batches, collect
//! streamed results back into submission order. Also the peer-facing
//! side of the remote warm tier: [`Client::fetch`] asks a daemon for a
//! whole batch of raw store entries in one round trip.

use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::protocol::{self, EngineStats, ErrorCode, Frame, RecvError, PROTO_VERSION};

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(io::Error),
    /// The daemon refused or aborted with a typed error frame.
    Daemon {
        /// Machine-readable failure class from the daemon.
        code: ErrorCode,
        /// Human-readable detail from the daemon.
        message: String,
    },
    /// The daemon violated the protocol (wrong frame, bad index,
    /// corrupt envelope) — client and daemon disagree about the wire.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon transport failed: {e}"),
            ClientError::Daemon { code, message } => {
                write!(f, "daemon refused ({code:?}): {message}")
            }
            ClientError::Protocol(what) => write!(f, "daemon protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Closed => ClientError::Protocol("daemon closed mid-exchange".to_string()),
            RecvError::Io(e) => ClientError::Io(e),
            e @ (RecvError::Envelope(_) | RecvError::Malformed(_)) => {
                ClientError::Protocol(e.to_string())
            }
        }
    }
}

/// One batch's results: every output in submission order, plus the
/// daemon's cache accounting for the batch.
#[derive(Debug)]
pub struct BatchReply {
    /// Encoded job outputs, index-aligned with the submitted jobs.
    pub outputs: Vec<Vec<u8>>,
    /// The daemon-side batch accounting from `BatchDone`.
    pub stats: EngineStats,
}

/// A connected, handshaken session with the daemon.
///
/// Frames are read through a buffer, so a burst of result frames the
/// daemon sent in one write costs one read here, not three per frame.
/// Each request frame is written to the socket itself, in one write.
pub struct Client {
    stream: BufReader<UnixStream>,
}

impl Client {
    /// Connects to the daemon socket at `path` and performs the
    /// handshake, declaring this client's job `schema` version and
    /// workload-config `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] carries the daemon's typed refusal
    /// (protocol/schema/config mismatch); transport and protocol
    /// violations as their variants describe.
    pub fn connect(
        path: impl AsRef<Path>,
        schema: u32,
        fingerprint: u64,
    ) -> Result<Self, ClientError> {
        Self::handshake(UnixStream::connect(path)?, schema, fingerprint)
    }

    /// As [`Client::connect`], but with `timeout` applied to every read
    /// and write on the stream — the peer-facing form: a dead or wedged
    /// peer daemon surfaces as a timed-out [`ClientError::Io`] the
    /// caller demotes to a miss, instead of hanging the batch.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`], plus the I/O error a socket read or write
    /// reports when the peer exceeds `timeout`.
    pub fn connect_with_timeout(
        path: impl AsRef<Path>,
        schema: u32,
        fingerprint: u64,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::handshake(stream, schema, fingerprint)
    }

    fn handshake(stream: UnixStream, schema: u32, fingerprint: u64) -> Result<Self, ClientError> {
        let mut stream = BufReader::new(stream);
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            schema,
            fingerprint,
        };
        protocol::send(stream.get_mut(), &hello)?;
        match protocol::recv(&mut stream)? {
            Frame::HelloAck { .. } => Ok(Client { stream }),
            Frame::Error { code, message } => Err(ClientError::Daemon { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Submits one batch of encoded jobs and blocks until every result
    /// and the final `BatchDone` arrive. Results stream back in the
    /// daemon's order (cached jobs first, then completion order) and are
    /// reassembled into submission order here.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] if the daemon aborts the batch with a
    /// typed error (e.g. a malformed or failed job); transport and
    /// protocol violations as their variants describe.
    pub fn submit(&mut self, batch_id: u64, jobs: Vec<Vec<u8>>) -> Result<BatchReply, ClientError> {
        let count = jobs.len();
        let frame = Frame::SubmitBatch { batch_id, jobs };
        protocol::send(self.stream.get_mut(), &frame)?;

        let mut outputs: Vec<Option<Vec<u8>>> = vec![None; count];
        let mut filled = 0usize;
        loop {
            match protocol::recv(&mut self.stream)? {
                Frame::JobResult { job_idx, output } => {
                    let slot = outputs.get_mut(job_idx as usize).ok_or_else(|| {
                        ClientError::Protocol(format!(
                            "result index {job_idx} out of range for batch of {count}"
                        ))
                    })?;
                    if slot.replace(output).is_some() {
                        return Err(ClientError::Protocol(format!(
                            "duplicate result for job {job_idx}"
                        )));
                    }
                    filled += 1;
                }
                Frame::BatchDone {
                    batch_id: done_id,
                    stats,
                } => {
                    if done_id != batch_id {
                        return Err(ClientError::Protocol(format!(
                            "BatchDone for batch {done_id}, expected {batch_id}"
                        )));
                    }
                    if filled != count {
                        return Err(ClientError::Protocol(format!(
                            "BatchDone after {filled} of {count} results"
                        )));
                    }
                    let outputs = outputs.into_iter().flatten().collect();
                    return Ok(BatchReply { outputs, stats });
                }
                Frame::Error { code, message } => {
                    return Err(ClientError::Daemon { code, message });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame mid-batch: {other:?}"
                    )));
                }
            }
        }
    }

    /// Asks the daemon for a whole batch of raw store entries — **one
    /// round trip** for any number of keys. Returns one slot per key,
    /// index-aligned: the raw entry bytes on a hit (which the caller must
    /// re-verify via `ResultStore::adopt_raw` before trusting), `None` on
    /// a miss. `ttl` bounds how many further peer
    /// hops the daemon may take on this client's behalf.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] carries the daemon's typed refusal;
    /// transport and protocol violations as their variants describe.
    pub fn fetch(
        &mut self,
        ttl: u32,
        keys: Vec<Vec<u8>>,
    ) -> Result<Vec<Option<Vec<u8>>>, ClientError> {
        let count = keys.len();
        protocol::send(self.stream.get_mut(), &Frame::FetchResults { ttl, keys })?;

        let mut entries: Vec<Option<Vec<u8>>> = vec![None; count];
        let mut filled = 0u32;
        loop {
            match protocol::recv(&mut self.stream)? {
                Frame::FetchHit { idx, entry } => {
                    let slot = entries.get_mut(idx as usize).ok_or_else(|| {
                        ClientError::Protocol(format!(
                            "fetch hit index {idx} out of range for {count} keys"
                        ))
                    })?;
                    if slot.replace(entry).is_some() {
                        return Err(ClientError::Protocol(format!(
                            "duplicate fetch hit for key {idx}"
                        )));
                    }
                    filled += 1;
                }
                Frame::FetchDone { hits, misses } => {
                    if hits != filled || (hits as usize) + (misses as usize) != count {
                        return Err(ClientError::Protocol(format!(
                            "FetchDone claims {hits} hits / {misses} misses \
                             after {filled} hits of {count} keys"
                        )));
                    }
                    return Ok(entries);
                }
                Frame::Error { code, message } => {
                    return Err(ClientError::Daemon { code, message });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame mid-fetch: {other:?}"
                    )));
                }
            }
        }
    }
}
