//! Fetch-directed prefetching (Reinman, Calder & Austin, MICRO 1999).
//!
//! FDP decouples the branch prediction unit from the L1-I with a fetch
//! queue and prefetches the instruction blocks of enqueued fetch regions
//! that are not already resident. It reuses the existing branch predictor
//! metadata, so it adds no storage — but its lookahead is limited to the
//! fetch queue depth and its accuracy decays geometrically as the branch
//! predictor speculates further ahead (paper Section 2.1).

use confluence_types::{BlockAddr, FetchRegion, StorageProfile};

/// Fetch-directed prefetcher over the BPU's fetch queue.
///
/// The timing simulator calls [`Fdp::on_region_enqueued`] whenever the BPU
/// pushes a fetch region; the returned blocks are candidate prefetches
/// (the caller filters blocks already resident or in flight).
#[derive(Clone, Debug, Default)]
pub struct Fdp {
    issued: u64,
    /// Last few blocks issued, to suppress duplicate requests for regions
    /// spanning the same block.
    recent: Option<BlockAddr>,
}

impl Fdp {
    /// Creates an FDP prefetcher.
    pub fn new() -> Self {
        Fdp::default()
    }

    /// Handles a fetch region entering the fetch queue; appends the blocks
    /// it spans to `out` as prefetch candidates.
    pub fn on_region_enqueued(&mut self, region: FetchRegion, out: &mut Vec<BlockAddr>) {
        for block in region.blocks() {
            if self.recent == Some(block) {
                continue;
            }
            self.recent = Some(block);
            self.issued += 1;
            out.push(block);
        }
    }

    /// Prefetch candidates issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// FDP reuses branch-predictor metadata: no added storage.
    pub fn storage(&self) -> StorageProfile {
        StorageProfile::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::VAddr;

    #[test]
    fn emits_blocks_of_region() {
        let mut fdp = Fdp::new();
        let mut out = Vec::new();
        // Region crossing a block boundary: 2 blocks.
        fdp.on_region_enqueued(FetchRegion::new(VAddr::new(0x1038), 4), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], VAddr::new(0x1038).block());
        assert_eq!(out[1], VAddr::new(0x1038).block().next());
    }

    #[test]
    fn suppresses_consecutive_duplicates() {
        let mut fdp = Fdp::new();
        let mut out = Vec::new();
        fdp.on_region_enqueued(FetchRegion::new(VAddr::new(0x1000), 2), &mut out);
        fdp.on_region_enqueued(FetchRegion::new(VAddr::new(0x1008), 2), &mut out);
        assert_eq!(out.len(), 1, "same block enqueued twice must issue once");
    }

    #[test]
    fn no_storage_overhead() {
        assert_eq!(Fdp::new().storage().dedicated_bits(), 0);
    }
}
