//! The remote warm tier's client side: an ordered list of peer daemon
//! sockets consulted when a key misses both the in-memory cache and the
//! local disk store.
//!
//! A [`PeerSet`] never changes results, only where warm bytes come
//! from. Every fetch is **batched** — one `FetchResults` exchange per
//! peer per batch of misses, so a cold batch costs one round trip, not
//! one per job — and every fetched entry is re-verified byte-for-byte
//! by `ResultStore::adopt_raw` before anything trusts it: a corrupt or
//! lying peer demotes to a miss (the job re-simulates and the
//! write-back repairs the local slot), never poisons the store. A dead or wedged peer surfaces as a
//! timed-out connect/read, earns one stderr note, and the batch
//! completes by simulating locally — degradation, not failure.
//!
//! Peers are consulted in command-line order; later peers see only the
//! keys earlier peers missed. The handshake each connection performs
//! pins the job schema version and workload-config fingerprint exactly
//! like a batch client, so differently-configured fleets refuse each
//! other typed instead of aliasing entries.

use std::path::{Path, PathBuf};
use std::time::Duration;

use confluence_serve::{Client, ClientError};

use crate::codec::SCHEMA_VERSION;

/// Peer connect/read timeout when `--peer-timeout-ms` is absent.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_millis(2000);

/// An ordered set of peer daemon sockets forming the remote warm tier.
#[derive(Clone, Debug)]
pub struct PeerSet {
    sockets: Vec<PathBuf>,
    timeout: Duration,
}

/// What one batched [`PeerSet::fetch`] brought back.
#[derive(Debug)]
pub struct PeerFetch {
    /// One slot per requested key, index-aligned: the raw entry bytes a
    /// peer returned (unverified — the caller must `adopt_raw` them),
    /// or `None` when every reachable peer missed.
    pub entries: Vec<Option<Vec<u8>>>,
    /// Completed fetch exchanges (one per peer that answered). The
    /// figure the one-round-trip-per-batch contract is asserted on.
    pub round_trips: u64,
    /// Total raw entry bytes received.
    pub bytes: u64,
}

impl PeerSet {
    /// A peer set over `sockets`, consulted in order, with `timeout`
    /// bounding every connect, read, and write per peer.
    pub fn new(sockets: Vec<PathBuf>, timeout: Duration) -> Self {
        PeerSet { sockets, timeout }
    }

    /// The peer sockets, in consultation order.
    pub fn sockets(&self) -> &[PathBuf] {
        &self.sockets
    }

    /// The per-peer I/O timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Fetches `keys` from the peers in one batched exchange per peer:
    /// the first peer sees every key, each later peer only what is
    /// still missing, and the loop stops as soon as nothing is. A peer
    /// that cannot be reached (or breaks protocol) is noted on stderr
    /// and skipped — its keys stay misses. `fingerprint` is this
    /// engine's workload-config fingerprint for the handshake; `ttl`
    /// bounds how many further hops a peer may take on our behalf.
    pub fn fetch(&self, fingerprint: u64, ttl: u32, keys: &[Vec<u8>]) -> PeerFetch {
        let mut out = PeerFetch {
            entries: vec![None; keys.len()],
            round_trips: 0,
            bytes: 0,
        };
        for sock in &self.sockets {
            let missing: Vec<usize> = (0..keys.len())
                .filter(|&i| out.entries[i].is_none())
                .collect();
            if missing.is_empty() {
                break;
            }
            let subset: Vec<Vec<u8>> = missing.iter().map(|&i| keys[i].clone()).collect();
            match fetch_one(sock, self.timeout, fingerprint, ttl, subset) {
                Ok(fetched) => {
                    out.round_trips += 1;
                    for (&slot, entry) in missing.iter().zip(fetched) {
                        if let Some(data) = entry {
                            out.bytes += data.len() as u64;
                            out.entries[slot] = Some(data);
                        }
                    }
                }
                Err(e) => {
                    eprintln!(
                        "note: peer {} unavailable ({e}); treating its entries as misses",
                        sock.display()
                    );
                }
            }
        }
        out
    }
}

/// One peer, one connection, one batched fetch.
fn fetch_one(
    sock: &Path,
    timeout: Duration,
    fingerprint: u64,
    ttl: u32,
    keys: Vec<Vec<u8>>,
) -> Result<Vec<Option<Vec<u8>>>, ClientError> {
    let mut client = Client::connect_with_timeout(sock, SCHEMA_VERSION, fingerprint, timeout)?;
    client.fetch(ttl, keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_peer_is_a_noted_miss_not_a_failure() {
        let peers = PeerSet::new(
            vec![PathBuf::from("/nonexistent/confluence-peer.sock")],
            Duration::from_millis(50),
        );
        let keys = vec![vec![1u8, 2, 3], vec![4u8]];
        let fetched = peers.fetch(0xABCD, 1, &keys);
        assert_eq!(fetched.entries, vec![None, None]);
        assert_eq!(
            fetched.round_trips, 0,
            "a failed peer completes no round trip"
        );
        assert_eq!(fetched.bytes, 0);
    }

    #[test]
    fn empty_peer_set_fetches_nothing() {
        let peers = PeerSet::new(Vec::new(), DEFAULT_PEER_TIMEOUT);
        let fetched = peers.fetch(0, 0, &[vec![9u8]]);
        assert_eq!(fetched.entries, vec![None]);
        assert_eq!(fetched.round_trips, 0);
    }
}
