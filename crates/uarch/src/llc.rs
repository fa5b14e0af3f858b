//! Shared NUCA last-level cache model (16 x 512 KB slices).
//!
//! The LLC serves three roles in the reproduction:
//!
//! 1. backing store for instruction fills (block residency + latency);
//! 2. host for *virtualized* predictor metadata — SHIFT's history buffer
//!    and PhantomBTB's temporal groups live in reserved LLC lines
//!    (predictor virtualization, Burcea et al.); the reservation reduces
//!    effective LLC capacity;
//! 3. the latency term exposed to hierarchical BTBs that keep their second
//!    level in the LLC (PhantomBTB).

use confluence_types::{BlockAddr, ConfigError};

use crate::cache::SetAssocCache;
use crate::noc::MeshNoc;
use crate::params::MemParams;

/// Shared block-grain LLC with NUCA latency and metadata reservations.
#[derive(Clone, Debug)]
pub struct SharedLlc {
    cache: SetAssocCache<()>,
    noc: MeshNoc,
    params: MemParams,
    hits: u64,
    misses: u64,
    reserved_lines: usize,
}

impl SharedLlc {
    /// Creates the paper's 16-slice, 512 KB/slice configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` describe an invalid geometry.
    pub fn new(params: MemParams) -> Result<Self, ConfigError> {
        let cache = SetAssocCache::with_capacity(params.llc_blocks(), params.llc_ways)?;
        let noc = MeshNoc::new(params.cores, params.noc_hop_latency)?;
        Ok(SharedLlc {
            cache,
            noc,
            params,
            hits: 0,
            misses: 0,
            reserved_lines: 0,
        })
    }

    /// Reserves `lines` LLC lines for virtualized predictor metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if the reservation exceeds capacity.
    pub fn reserve_metadata_lines(&mut self, lines: usize) -> Result<(), ConfigError> {
        self.cache.reserve_lines(self.reserved_lines + lines)?;
        self.reserved_lines += lines;
        Ok(())
    }

    /// Lines currently reserved for metadata.
    pub fn reserved_lines(&self) -> usize {
        self.reserved_lines
    }

    /// Effective capacity in lines after reservations.
    pub fn capacity_lines(&self) -> usize {
        self.cache.capacity()
    }

    /// Round-trip latency (cycles) for `core` to reach the bank holding
    /// `block`, including the bank access itself but not memory.
    pub fn access_latency(&self, core: usize, block: BlockAddr) -> u64 {
        self.noc.round_trip(core, block) + self.params.llc_bank_latency
    }

    /// Mean LLC access latency from `core` (uniform bank distribution).
    pub fn mean_access_latency(&self, core: usize) -> f64 {
        self.noc.mean_round_trip(core) + self.params.llc_bank_latency as f64
    }

    /// Performs an instruction-block access on behalf of `core`.
    ///
    /// Returns the total fill latency in cycles: LLC round trip on a hit,
    /// plus the memory penalty on an LLC miss. The block is installed on
    /// miss (fills from memory allocate in LLC).
    pub fn access(&mut self, core: usize, block: BlockAddr) -> u64 {
        let base = self.access_latency(core, block);
        if self.cache.lookup(block.raw()).is_some() {
            self.hits += 1;
            base
        } else {
            self.misses += 1;
            self.cache.insert(block.raw(), ());
            base + self.params.mem_latency
        }
    }

    /// Residency probe without counter updates.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.cache.contains(block.raw())
    }

    /// Pre-installs a block (used to warm the LLC with the code footprint).
    pub fn warm_fill(&mut self, block: BlockAddr) {
        self.cache.insert(block.raw(), ());
    }

    /// LLC hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// LLC misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The underlying mesh model.
    pub fn noc(&self) -> &MeshNoc {
        &self.noc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> MemParams {
        MemParams {
            llc_slice_bytes: 4 * 1024,
            cores: 4,
            ..MemParams::default()
        }
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut llc = SharedLlc::new(small_params()).unwrap();
        let b = BlockAddr::from_raw(5);
        let miss = llc.access(0, b);
        let hit = llc.access(0, b);
        assert!(miss > hit, "miss {miss} must exceed hit {hit}");
        assert_eq!(miss - hit, small_params().mem_latency);
        assert_eq!(llc.hits(), 1);
        assert_eq!(llc.misses(), 1);
    }

    #[test]
    fn latency_depends_on_distance() {
        let llc = SharedLlc::new(small_params()).unwrap();
        // Bank 3 is farther from core 0 than bank 0.
        let near = llc.access_latency(0, BlockAddr::from_raw(0));
        let far = llc.access_latency(0, BlockAddr::from_raw(3));
        assert!(far > near);
    }

    #[test]
    fn metadata_reservation_shrinks_capacity() {
        let mut llc = SharedLlc::new(small_params()).unwrap();
        let before = llc.capacity_lines();
        llc.reserve_metadata_lines(32).unwrap();
        assert_eq!(llc.capacity_lines(), before - 32);
        llc.reserve_metadata_lines(32).unwrap();
        assert_eq!(llc.capacity_lines(), before - 64);
        assert_eq!(llc.reserved_lines(), 64);
    }

    #[test]
    fn warm_fill_installs_without_counting() {
        let mut llc = SharedLlc::new(small_params()).unwrap();
        llc.warm_fill(BlockAddr::from_raw(9));
        assert!(llc.contains(BlockAddr::from_raw(9)));
        assert_eq!(llc.misses(), 0);
        assert_eq!(
            llc.access(1, BlockAddr::from_raw(9)),
            llc.access_latency(1, BlockAddr::from_raw(9))
        );
    }

    #[test]
    fn default_paper_geometry() {
        let llc = SharedLlc::new(MemParams::default()).unwrap();
        assert_eq!(llc.capacity_lines(), 131072);
    }
}
