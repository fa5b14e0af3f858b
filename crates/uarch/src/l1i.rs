//! L1 instruction cache model (32 KB, 4-way, 64 B blocks).

use confluence_types::{BlockAddr, ConfigError};

use crate::cache::SetAssocCache;
use crate::params::MemParams;

/// Block-grain L1-I model with fill/eviction reporting.
///
/// Confluence keeps AirBTB contents synchronized with the L1-I, so the
/// cache reports every eviction to its caller; the frontend wires those
/// into AirBTB bundle evictions.
#[derive(Clone, Debug)]
pub struct L1ICache {
    cache: SetAssocCache<()>,
    hits: u64,
    misses: u64,
}

impl L1ICache {
    /// Creates the paper's 32 KB / 4-way configuration.
    pub fn new_32k() -> Self {
        let p = MemParams::default();
        Self::new(p.l1i_sets(), p.l1i_ways).expect("default geometry is valid")
    }

    /// Creates an L1-I of `kb` kilobytes at the default associativity and
    /// block size (the capacity axis of the L1-I sensitivity sweep).
    ///
    /// # Errors
    ///
    /// Returns an error when the capacity does not divide into a
    /// power-of-two set count (64 B blocks, 4 ways: any power-of-two
    /// capacity ≥ 1 KB works).
    pub fn with_capacity_kb(kb: usize) -> Result<Self, ConfigError> {
        let p = MemParams::default();
        let blocks = kb * 1024 / p.block_bytes;
        if blocks == 0 || !blocks.is_multiple_of(p.l1i_ways) {
            return Err(ConfigError::new(format!(
                "L1-I capacity {kb} KB does not fit {}-way {}-byte blocks",
                p.l1i_ways, p.block_bytes
            )));
        }
        Self::new(blocks / p.l1i_ways, p.l1i_ways)
    }

    /// Creates an L1-I with explicit geometry.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid set/way counts.
    pub fn new(sets: usize, ways: usize) -> Result<Self, ConfigError> {
        Ok(L1ICache {
            cache: SetAssocCache::new(sets, ways)?,
            hits: 0,
            misses: 0,
        })
    }

    /// Number of blocks the cache can hold.
    pub fn capacity_blocks(&self) -> usize {
        self.cache.capacity()
    }

    /// Looks up `block`, updating recency and hit/miss counters.
    pub fn access(&mut self, block: BlockAddr) -> bool {
        if self.cache.lookup(block.raw()).is_some() {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Residency check without recency or counter updates.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.cache.contains(block.raw())
    }

    /// Fills `block` (demand or prefetch), returning the evicted block if
    /// any. Refilling a resident block only refreshes recency.
    pub fn fill(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        self.cache
            .insert(block.raw(), ())
            .map(|(k, ())| BlockAddr::from_raw(k))
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses per kilo-access.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Iterates over resident blocks.
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.cache.iter().map(|(k, _)| BlockAddr::from_raw(k))
    }
}

impl Default for L1ICache {
    fn default() -> Self {
        Self::new_32k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_512_blocks() {
        let c = L1ICache::new_32k();
        assert_eq!(c.capacity_blocks(), 512);
    }

    #[test]
    fn capacity_kb_constructor_scales_blocks() {
        assert_eq!(
            L1ICache::with_capacity_kb(32).unwrap().capacity_blocks(),
            512
        );
        assert_eq!(
            L1ICache::with_capacity_kb(16).unwrap().capacity_blocks(),
            256
        );
        assert_eq!(
            L1ICache::with_capacity_kb(128).unwrap().capacity_blocks(),
            2048
        );
        assert!(L1ICache::with_capacity_kb(0).is_err());
    }

    #[test]
    fn fill_then_hit() {
        let mut c = L1ICache::new(2, 2).unwrap();
        let b = BlockAddr::from_raw(4);
        assert!(!c.access(b));
        c.fill(b);
        assert!(c.access(b));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn eviction_reported() {
        let mut c = L1ICache::new(1, 2).unwrap();
        c.fill(BlockAddr::from_raw(1));
        c.fill(BlockAddr::from_raw(2));
        let evicted = c.fill(BlockAddr::from_raw(3));
        assert_eq!(evicted, Some(BlockAddr::from_raw(1)));
    }
}
