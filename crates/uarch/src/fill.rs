//! Typed shared-resource fill requests for the two-phase CMP tick.
//!
//! The cycle-level CMP model steps every core's private pipeline state
//! concurrently (phase 1) against an immutable view of the shared
//! hierarchy, then commits shared-resource effects serially in fixed core
//! order (phase 2) so results are byte-identical to fully serial stepping.
//! A [`FillRequest`] is the unit that crosses the phase boundary: phase 1
//! decides *that* a block fill is needed (and reserves the private
//! tracking slot — an MSHR entry or a prefetch slot — with a pending
//! ready time), phase 2 performs the LLC access that yields the fill
//! latency and patches the reservation.
//!
//! The split is sound because nothing in the issuing cycle reads a fill's
//! ready time — only its *presence* (MSHR occupancy, in-flight dedup) —
//! and completed fills are only drained at the top of the next cycle, by
//! which point phase 2 has committed the real latency.

use confluence_types::BlockAddr;

use crate::llc::SharedLlc;

/// Ready-time sentinel carried by a reservation between phase 1 (request)
/// and phase 2 (commit). Never observed by a drain: the commit at the end
/// of the issuing cycle replaces it before any cycle advances.
pub const PENDING_FILL: u64 = u64::MAX;

/// Cycles the Confluence predecoder adds to every L1-I fill.
///
/// The paper's predecoder scans a block for branches as it arrives from
/// the LLC, extracting each branch's type and PC-relative displacement
/// before the block enters the L1-I and AirBTB (Section 3.2), and cites
/// "a few cycles" for the scan (SPARC T4-style predecode). The branch
/// contents themselves come from the program's
/// [`PredecodeSource`](confluence_types::PredecodeSource) oracle.
pub const DEFAULT_PREDECODE_LATENCY: u64 = 2;

/// What kind of fill the request tracks, i.e. which private reservation
/// the committed latency patches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillKind {
    /// A demand miss tracked by an MSHR entry for the block.
    Demand,
    /// A prefetch tracked by the core's in-flight slot at this index.
    Prefetch(usize),
}

/// One deferred shared-hierarchy access, emitted by a core in phase 1 in
/// the exact order the serial model would have performed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillRequest {
    /// The instruction block being filled.
    pub block: BlockAddr,
    /// Which reservation the latency lands in.
    pub kind: FillKind,
    /// Core-private latency added on top of the LLC access
    /// ([`DEFAULT_PREDECODE_LATENCY`] for designs that predecode fills).
    pub extra_latency: u64,
}

impl SharedLlc {
    /// Phase-2 half of a deferred fill: performs the LLC access (LRU
    /// update, install-on-miss, hit/miss accounting) on behalf of `core`
    /// and returns the complete fill latency including the request's
    /// private extra.
    pub fn commit_fill(&mut self, core: usize, req: &FillRequest) -> u64 {
        self.access(core, req.block) + req.extra_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MemParams;

    #[test]
    fn commit_fill_matches_direct_access_plus_extra() {
        let params = MemParams {
            llc_slice_bytes: 4 * 1024,
            cores: 4,
            ..MemParams::default()
        };
        let mut direct = SharedLlc::new(params).unwrap();
        let mut committed = SharedLlc::new(params).unwrap();
        let req = |raw, extra_latency| FillRequest {
            block: BlockAddr::from_raw(raw),
            kind: FillKind::Demand,
            extra_latency,
        };
        // Same access sequence through both halves: identical latencies
        // and identical cache state transitions (miss then hit).
        for (raw, extra) in [(5, 0), (5, 2), (9, 3)] {
            let want = direct.access(1, BlockAddr::from_raw(raw)) + extra;
            assert_eq!(committed.commit_fill(1, &req(raw, extra)), want);
        }
        assert_eq!(direct.hits(), committed.hits());
        assert_eq!(direct.misses(), committed.misses());
    }
}
