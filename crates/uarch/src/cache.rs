//! Generic set-associative cache with true-LRU replacement.
//!
//! The cache stores an arbitrary payload per line and reports evictions,
//! which Confluence depends on: AirBTB bundle evictions are synchronized
//! with L1-I block evictions (paper Section 3.2).

use confluence_types::ConfigError;

/// One resident line.
#[derive(Clone, Debug)]
struct Line<V> {
    key: u64,
    value: V,
}

/// A set-associative cache keyed by `u64` (callers use block numbers or
/// basic-block addresses) with true-LRU replacement within each set.
///
/// # Example
///
/// ```
/// use confluence_uarch::SetAssocCache;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cache = SetAssocCache::new(2, 2)?; // 2 sets x 2 ways
/// assert!(cache.insert(0, "a").is_none());
/// assert!(cache.insert(2, "b").is_none()); // same set as key 0
/// let evicted = cache.insert(4, "c");      // evicts LRU (key 0)
/// assert_eq!(evicted, Some((0, "a")));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<V> {
    sets: Vec<Vec<Line<V>>>,
    set_mask: u64,
    ways: usize,
    /// Per-set way reduction used to model LLC capacity reserved for
    /// virtualized metadata (SHIFT history, PhantomBTB groups).
    reserved_ways: Vec<usize>,
}

impl<V> SetAssocCache<V> {
    /// Creates a cache with `sets` sets (power of two) and `ways` ways.
    ///
    /// # Errors
    ///
    /// Returns an error if `sets` is not a nonzero power of two or `ways`
    /// is zero.
    pub fn new(sets: usize, ways: usize) -> Result<Self, ConfigError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "sets = {sets} must be a nonzero power of two"
            )));
        }
        if ways == 0 {
            return Err(ConfigError::new("ways must be nonzero"));
        }
        Ok(SetAssocCache {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            set_mask: (sets - 1) as u64,
            ways,
            reserved_ways: vec![0; sets],
        })
    }

    /// Creates a cache sized for `capacity_lines` total lines at the given
    /// associativity (sets = capacity / ways, rounded down to a power of
    /// two).
    ///
    /// # Errors
    ///
    /// Returns an error if the derived set count is zero.
    pub fn with_capacity(capacity_lines: usize, ways: usize) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::new("ways must be nonzero"));
        }
        let sets = (capacity_lines / ways).next_power_of_two();
        let sets = if sets * ways > capacity_lines && sets > 1 {
            sets / 2
        } else {
            sets
        };
        Self::new(sets.max(1), ways)
    }

    /// Removes exactly `lines` lines of capacity from the cache, spread
    /// across sets, modelling LLC space reserved for virtualized metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if the reservation exceeds total capacity.
    pub fn reserve_lines(&mut self, lines: usize) -> Result<(), ConfigError> {
        let total = self.sets.len() * self.ways;
        if lines >= total {
            return Err(ConfigError::new(format!(
                "cannot reserve {lines} of {total} total lines"
            )));
        }
        let per_set = lines / self.sets.len();
        let extra = lines % self.sets.len();
        for (i, r) in self.reserved_ways.iter_mut().enumerate() {
            *r = per_set + usize::from(i < extra);
            debug_assert!(*r < self.ways);
        }
        // Trim any now-overfull sets (cold path; caches are usually empty
        // when reservations are applied).
        for (i, set) in self.sets.iter_mut().enumerate() {
            let allowed = self.ways - self.reserved_ways[i];
            set.truncate(allowed);
        }
        Ok(())
    }

    /// Total line capacity after reservations.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways - self.reserved_ways.iter().sum::<usize>()
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Associativity (before reservations).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key & self.set_mask) as usize
    }

    /// Looks up `key`, promoting it to MRU on a hit.
    #[inline]
    pub fn lookup(&mut self, key: u64) -> Option<&V> {
        let set = self.set_of(key);
        let lines = &mut self.sets[set];
        let pos = lines.iter().position(|l| l.key == key)?;
        if pos != 0 {
            let line = lines.remove(pos);
            lines.insert(0, line);
        }
        Some(&lines[0].value)
    }

    /// Looks up `key` and returns a mutable payload reference, promoting it
    /// to MRU on a hit.
    #[inline]
    pub fn lookup_mut(&mut self, key: u64) -> Option<&mut V> {
        let set = self.set_of(key);
        let lines = &mut self.sets[set];
        let pos = lines.iter().position(|l| l.key == key)?;
        if pos != 0 {
            let line = lines.remove(pos);
            lines.insert(0, line);
        }
        Some(&mut lines[0].value)
    }

    /// Checks residency without updating recency.
    #[inline]
    pub fn probe(&self, key: u64) -> Option<&V> {
        let set = self.set_of(key);
        self.sets[set]
            .iter()
            .find(|l| l.key == key)
            .map(|l| &l.value)
    }

    /// True if `key` is resident (no recency update).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.probe(key).is_some()
    }

    /// Inserts `key` as MRU, returning the evicted `(key, value)` if the
    /// set overflowed. Re-inserting a resident key replaces its payload and
    /// promotes it (no eviction).
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        let set = self.set_of(key);
        let allowed = self.ways - self.reserved_ways[set];
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|l| l.key == key) {
            let mut line = lines.remove(pos);
            line.value = value;
            lines.insert(0, line);
            return None;
        }
        let evicted = if lines.len() >= allowed.max(1) {
            lines.pop().map(|l| (l.key, l.value))
        } else {
            None
        };
        lines.insert(0, Line { key, value });
        evicted
    }

    /// Removes `key`, returning its payload.
    pub fn invalidate(&mut self, key: u64) -> Option<V> {
        let set = self.set_of(key);
        let lines = &mut self.sets[set];
        let pos = lines.iter().position(|l| l.key == key)?;
        Some(lines.remove(pos).value)
    }

    /// Removes every line for which `keep` returns false. The remaining
    /// lines keep their recency order.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &V) -> bool) {
        for set in &mut self.sets {
            set.retain(|l| keep(l.key, &l.value));
        }
    }

    /// Iterates over `(key, &value)` of all resident lines (set order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|l| (l.key, &l.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_geometry() {
        assert!(SetAssocCache::<()>::new(0, 4).is_err());
        assert!(SetAssocCache::<()>::new(3, 4).is_err());
        assert!(SetAssocCache::<()>::new(4, 0).is_err());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(1, 3).unwrap();
        c.insert(1, 'a');
        c.insert(2, 'b');
        c.insert(3, 'c');
        // Touch 1 -> LRU is now 2.
        assert_eq!(c.lookup(1), Some(&'a'));
        assert_eq!(c.insert(4, 'd'), Some((2, 'b')));
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn probe_does_not_promote() {
        let mut c = SetAssocCache::new(1, 2).unwrap();
        c.insert(1, ());
        c.insert(2, ());
        assert!(c.probe(1).is_some());
        // 1 is still LRU despite the probe.
        assert_eq!(c.insert(3, ()), Some((1, ())));
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut c = SetAssocCache::new(1, 2).unwrap();
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.probe(1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut c = SetAssocCache::new(4, 1).unwrap();
        for k in 0..4 {
            assert!(c.insert(k, k).is_none());
        }
        assert_eq!(c.len(), 4);
        // Fifth insert conflicts only with its own set.
        assert_eq!(c.insert(4, 4), Some((0, 0)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(2, 2).unwrap();
        c.insert(5, 'x');
        assert_eq!(c.invalidate(5), Some('x'));
        assert!(!c.contains(5));
        assert_eq!(c.invalidate(5), None);
    }

    #[test]
    fn with_capacity_rounds_sensibly() {
        let c = SetAssocCache::<()>::with_capacity(512, 4).unwrap();
        assert_eq!(c.set_count() * c.ways(), 512);
        let c = SetAssocCache::<()>::with_capacity(500, 4).unwrap();
        assert!(c.set_count() * c.ways() <= 512);
    }

    #[test]
    fn reserve_lines_reduces_capacity_exactly() {
        let mut c = SetAssocCache::<()>::new(8, 4).unwrap();
        c.reserve_lines(10).unwrap();
        assert_eq!(c.capacity(), 32 - 10);
        assert!(c.reserve_lines(32).is_err());
    }

    #[test]
    fn reserved_sets_evict_earlier() {
        let mut c = SetAssocCache::new(1, 4).unwrap();
        c.reserve_lines(2).unwrap();
        c.insert(0, 0);
        c.insert(1, 1);
        // Only 2 ways remain: the third insert evicts.
        assert!(c.insert(2, 2).is_some());
    }

    #[test]
    fn retain_drops_rejected_lines_and_keeps_recency() {
        let mut c = SetAssocCache::new(1, 4).unwrap();
        for k in [1, 2, 3, 4] {
            c.insert(k, ());
        }
        c.retain(|k, _| k % 2 == 0);
        assert_eq!(c.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![4, 2]);
    }
}
