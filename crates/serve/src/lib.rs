//! The experiment service: one warm engine, many concurrent clients.
//!
//! Every stand-alone run of the experiment suite pays engine spin-up
//! (workload generation, program translation) and shares cache warmth
//! only through the filesystem. This crate is the daemon shape of the
//! same machinery: a long-running process owns the engine and its
//! persistent store, and N clients submit job batches over a
//! Unix-domain socket, sharing one in-memory cache and exactly-once
//! execution across all of them.
//!
//! Three layers, lowest first:
//!
//! - [`protocol`] — the versioned frame vocabulary ([`Frame`],
//!   [`ErrorCode`]) and the one stats record, [`EngineStats`], that an
//!   engine keeps, a `BatchDone` carries and every binary's stderr
//!   summary is rendered from; encoded with the store's codec
//!   conventions and carried in the store's checksummed stream envelope
//!   (`confluence_store::write_frame`). Job payloads are **opaque byte
//!   strings** at this layer: the daemon and its clients agree on the
//!   job schema out of band (the `Hello` handshake pins schema version
//!   and workload-config fingerprint), which keeps this crate free of
//!   any simulator dependency — and the dependency DAG acyclic, since
//!   `confluence_sim` links the client side into the figure binaries.
//! - [`server`] — the accept loop and per-connection protocol driver,
//!   generic over a [`BatchHost`]: the engine-owning side implements a
//!   handful of methods (validate a handshake, answer a cached job,
//!   cost-rank a job, run a job, report its counters and settle a
//!   batch) and gets multiplexing, streamed results, and per-connection
//!   failure isolation for free.
//! - [`client`] — the blocking client: handshake, submit a batch,
//!   collect streamed results into submission order.
//!
//! The engine-facing [`BatchHost`] implementation and the
//! `confluence-serve` binary live in `confluence_sim` (`daemon` module),
//! which owns the job codec and the engine.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod protocol;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;

#[cfg(unix)]
pub use client::{BatchReply, Client, ClientError};
pub use protocol::{EngineStats, ErrorCode, Frame, FETCH_HOP_LIMIT, MAX_FRAME_LEN, PROTO_VERSION};
#[cfg(unix)]
pub use server::{BatchHost, Listener, Rejection, Server, ServerHandle};
