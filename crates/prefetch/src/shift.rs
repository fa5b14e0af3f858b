//! SHIFT: Shared History Instruction Fetch (Kaynak, Grot & Falsafi,
//! MICRO 2013) — the stream-based instruction prefetcher Confluence builds
//! on.
//!
//! SHIFT records the block-grain instruction access stream of *one* history
//! generator core into a circular **history buffer**, with an **index
//! table** mapping each block address to its most recent position. Both
//! structures are virtualized in the LLC and shared by every core running
//! the workload. On an L1-I miss, a core looks up the index, starts a
//! stream cursor at the recorded position, and replays the stream ahead of
//! its fetch unit, issuing prefetches; each confirmed prediction (the core
//! actually demands a predicted block) advances the stream.

use std::collections::HashMap;

use confluence_types::{BlockAddr, BuildFoldHasher, StorageProfile};

/// Default history capacity: 32K entries (paper Section 4.2.1, 204 KB
/// virtualized in the LLC).
pub const DEFAULT_HISTORY_ENTRIES: usize = 32 * 1024;

/// Default stream lookahead: how many predicted blocks SHIFT keeps in
/// flight ahead of the core's confirmed fetch stream.
pub const DEFAULT_LOOKAHEAD: usize = 24;

/// Number of follower blocks one history entry's footprint can cover.
pub const FOOTPRINT_SPAN: u64 = 7;

/// One history entry: a trigger block plus a footprint bitmap of the
/// following `FOOTPRINT_SPAN` blocks touched while the entry was open.
/// Spatio-temporal compaction is what lets the paper's 32K entries
/// (~51 bits each, 204 KB) cover a multi-megabyte instruction working set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct HistoryEntry {
    base: BlockAddr,
    mask: u8,
}

impl HistoryEntry {
    /// Blocks covered by this entry, in ascending order starting at `base`.
    fn blocks(self) -> impl Iterator<Item = BlockAddr> {
        let base = self.base;
        let mask = self.mask;
        std::iter::once(base).chain(
            (0..FOOTPRINT_SPAN)
                .filter(move |i| mask & (1 << i) != 0)
                .map(move |i| BlockAddr::from_raw(base.raw() + i + 1)),
        )
    }

    /// The block a stream cursor reads next from this entry, with its
    /// index in [`HistoryEntry::blocks`]: the one after `skip_through`
    /// when the entry covers that block (the base when it does not), else
    /// the one at `offset`. Walks the footprint mask in place; equal to
    /// indexing the collected `blocks()`.
    fn next_block(self, offset: u8, skip_through: Option<BlockAddr>) -> Option<(usize, BlockAddr)> {
        let start = match skip_through {
            Some(after) => self.position(after).map_or(0, |p| p + 1),
            None => offset as usize,
        };
        Some((start, self.block_at(start)?))
    }

    /// Index of `block` in [`HistoryEntry::blocks`].
    fn position(self, block: BlockAddr) -> Option<usize> {
        if block == self.base {
            return Some(0);
        }
        let mut mask = self.footprint();
        let mut index = 1;
        while mask != 0 {
            if self.follower(mask.trailing_zeros()) == block {
                return Some(index);
            }
            mask &= mask - 1;
            index += 1;
        }
        None
    }

    /// The `index`-th block of [`HistoryEntry::blocks`].
    fn block_at(self, index: usize) -> Option<BlockAddr> {
        let Some(skip) = index.checked_sub(1) else {
            return Some(self.base);
        };
        let mut mask = self.footprint();
        for _ in 0..skip {
            mask &= mask.wrapping_sub(1);
        }
        (mask != 0).then(|| self.follower(mask.trailing_zeros()))
    }

    /// The footprint bits `blocks()` reads.
    fn footprint(self) -> u8 {
        self.mask & ((1 << FOOTPRINT_SPAN) - 1)
    }

    /// The block footprint bit `bit` stands for.
    fn follower(self, bit: u32) -> BlockAddr {
        BlockAddr::from_raw(self.base.raw() + u64::from(bit) + 1)
    }

    #[cfg(test)]
    fn covers(self, block: BlockAddr) -> bool {
        let delta = block.raw().wrapping_sub(self.base.raw());
        delta == 0 || (delta <= FOOTPRINT_SPAN && self.mask & (1 << (delta - 1)) != 0)
    }
}

/// The shared history: circular buffer + index table.
///
/// One instance exists per workload and is shared by all cores (the paper
/// embeds it in LLC data blocks and the LLC tag array).
#[derive(Clone, Debug)]
pub struct ShiftHistory {
    buffer: Vec<HistoryEntry>,
    /// Monotonically increasing sequence number of the next write.
    head_seq: u64,
    /// Block address -> most recent sequence number of an entry covering it.
    index: HashMap<BlockAddr, u64, BuildFoldHasher>,
    capacity: usize,
    last_recorded: Option<BlockAddr>,
}

impl ShiftHistory {
    /// Creates a history with the paper's 32K-entry capacity.
    pub fn new_32k() -> Self {
        Self::with_capacity(DEFAULT_HISTORY_ENTRIES)
    }

    /// Creates a history with an explicit entry capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be nonzero");
        ShiftHistory {
            buffer: vec![HistoryEntry::default(); capacity],
            head_seq: 0,
            index: HashMap::default(),
            capacity,
            last_recorded: None,
        }
    }

    /// Records one block access from the history-generator core.
    ///
    /// Consecutive duplicates are collapsed, and accesses within
    /// `FOOTPRINT_SPAN` blocks *ahead* of the open entry's trigger merge
    /// into its footprint bitmap instead of consuming a new entry
    /// (spatio-temporal compaction, as in PIF/SHIFT).
    pub fn record(&mut self, block: BlockAddr) {
        if self.last_recorded == Some(block) {
            return;
        }
        self.last_recorded = Some(block);
        // Try to merge into the open (most recent) entry. Re-touching a
        // block the entry already covers is a *temporal recurrence* and
        // must start a fresh entry, or replay ordering would be lost.
        if self.head_seq > 0 {
            let open_pos = ((self.head_seq - 1) % self.capacity as u64) as usize;
            let open = &mut self.buffer[open_pos];
            let delta = block.raw().wrapping_sub(open.base.raw());
            if delta == 0 && open.mask == 0 {
                return; // plain duplicate of a fresh entry
            }
            if (1..=FOOTPRINT_SPAN).contains(&delta) && open.mask & (1 << (delta - 1)) == 0 {
                open.mask |= 1 << (delta - 1);
                self.index.insert(block, self.head_seq - 1);
                return;
            }
        }
        let pos = (self.head_seq % self.capacity as u64) as usize;
        // Lazily drop index entries of the overwritten slot if they still
        // point at it.
        if self.head_seq >= self.capacity as u64 {
            let old = self.buffer[pos];
            let old_seq = self.head_seq - self.capacity as u64;
            for b in old.blocks() {
                if self.index.get(&b) == Some(&old_seq) {
                    self.index.remove(&b);
                }
            }
        }
        self.buffer[pos] = HistoryEntry {
            base: block,
            mask: 0,
        };
        self.index.insert(block, self.head_seq);
        self.head_seq += 1;
    }

    /// Entries recorded so far (capped at capacity once wrapped).
    pub fn len(&self) -> usize {
        self.head_seq.min(self.capacity as u64) as usize
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.head_seq == 0
    }

    /// Looks up the most recent occurrence of `block`, returning a stream
    /// cursor pointing at the remainder of that entry's footprint and the
    /// entries that follow.
    pub fn lookup(&self, block: BlockAddr) -> Option<StreamCursor> {
        let seq = *self.index.get(&block)?;
        if !self.seq_valid(seq) {
            return None;
        }
        // Start within the found entry so the rest of its footprint (the
        // blocks after `block`) replays too.
        Some(StreamCursor {
            next_seq: seq,
            offset: 0,
            skip_through: Some(block),
        })
    }

    /// Reads the next predicted block under `cursor` and advances it.
    /// Returns `None` when the cursor catches up with the writer or falls
    /// out of the window.
    pub fn read(&self, cursor: &mut StreamCursor) -> Option<BlockAddr> {
        loop {
            let seq = cursor.next_seq;
            if seq >= self.head_seq || !self.seq_valid(seq) {
                return None;
            }
            let entry = self.buffer[(seq % self.capacity as u64) as usize];
            // Walk the entry's covered blocks from the cursor's offset.
            if let Some((index, b)) = entry.next_block(cursor.offset, cursor.skip_through) {
                cursor.skip_through = None;
                cursor.offset = (index + 1) as u8;
                return Some(b);
            }
            cursor.next_seq += 1;
            cursor.offset = 0;
            cursor.skip_through = None;
        }
    }

    fn seq_valid(&self, seq: u64) -> bool {
        seq < self.head_seq && self.head_seq - seq <= self.capacity as u64
    }

    /// Storage profile: history entries in LLC data blocks, index pointers
    /// in the LLC tag array (paper: 204 KB + ~240 KB for 32K entries).
    pub fn storage(&self) -> StorageProfile {
        // One history entry holds a 42-bit block address plus alignment
        // overhead; the paper reports 204 KB for 32K entries (~51 bits).
        let history_bytes = (self.capacity as u64 * 51).div_ceil(8);
        // The index extends LLC tags with a pointer (log2 capacity bits)
        // per indexed block; the paper reports ~240 KB.
        let ptr_bits = (self.capacity as u64).trailing_zeros() as u64 + 1;
        let index_bytes = (self.capacity as u64 * 4 * ptr_bits).div_ceil(8);
        StorageProfile::empty()
            .with_llc_resident(history_bytes)
            .with_llc_tag_extension(index_bytes)
    }
}

impl Default for ShiftHistory {
    fn default() -> Self {
        Self::new_32k()
    }
}

/// A core's phase-1 view of the shared history during a two-phase CMP
/// tick.
///
/// SHIFT's history is written by exactly one core — the generator — and
/// read by all of them (paper Section 3.4). The two-phase tick exploits
/// that asymmetry: the generator core steps first holding the `Writer`
/// view (its records land immediately, exactly as serial stepping orders
/// them), and every other core then steps concurrently holding `Reader`
/// views of the now-up-to-date history. The view is what makes the
/// sharing contract explicit in the type system instead of every caller
/// threading `&mut ShiftHistory` through code that mostly reads.
#[derive(Debug)]
pub enum HistoryView<'a> {
    /// The generator core's exclusive view: reads and records.
    Writer(&'a mut ShiftHistory),
    /// A follower core's concurrent view: reads only.
    Reader(&'a ShiftHistory),
}

impl HistoryView<'_> {
    /// The history, for lookups and stream reads.
    pub fn history(&self) -> &ShiftHistory {
        match self {
            HistoryView::Writer(h) => h,
            HistoryView::Reader(h) => h,
        }
    }

    /// Records one generator-core access. Returns `false` (and does
    /// nothing) on a `Reader` view — only the generator may write, and a
    /// follower attempting to is a wiring bug the caller can assert on.
    pub fn record(&mut self, block: BlockAddr) -> bool {
        match self {
            HistoryView::Writer(h) => {
                h.record(block);
                true
            }
            HistoryView::Reader(_) => false,
        }
    }
}

/// A read cursor into the shared history stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamCursor {
    next_seq: u64,
    /// Within-entry position for footprint expansion.
    offset: u8,
    /// When resuming inside an entry: skip blocks up to and including this
    /// one (the demanded trigger).
    skip_through: Option<BlockAddr>,
}

/// Per-core SHIFT prefetch engine.
///
/// Owns a stream cursor into the shared history plus the queue of
/// predicted-but-unconfirmed blocks. The engine is deliberately decoupled
/// from the cache simulation: [`ShiftEngine::on_access`] returns the blocks
/// to prefetch and the caller decides how fills are timed.
#[derive(Clone, Debug)]
pub struct ShiftEngine {
    cursor: Option<StreamCursor>,
    /// Predicted blocks awaiting confirmation, in stream order.
    pending: std::collections::VecDeque<BlockAddr>,
    lookahead: usize,
    /// Statistics: predictions issued / confirmed.
    issued: u64,
    confirmed: u64,
    redirects: u64,
}

impl ShiftEngine {
    /// Creates an engine with the default lookahead.
    pub fn new() -> Self {
        Self::with_lookahead(DEFAULT_LOOKAHEAD)
    }

    /// Creates an engine with an explicit lookahead depth.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn with_lookahead(lookahead: usize) -> Self {
        assert!(lookahead > 0, "lookahead must be nonzero");
        ShiftEngine {
            cursor: None,
            pending: std::collections::VecDeque::with_capacity(lookahead * 2),
            lookahead,
            issued: 0,
            confirmed: 0,
            redirects: 0,
        }
    }

    /// Processes one demand L1-I access from this core.
    ///
    /// `was_miss` indicates the access missed in the L1-I. Blocks the
    /// engine wants prefetched are appended to `out` (deduplicated against
    /// its own pending queue, but not against cache contents — the caller
    /// filters resident blocks).
    pub fn on_access(
        &mut self,
        history: &ShiftHistory,
        block: BlockAddr,
        was_miss: bool,
        out: &mut Vec<BlockAddr>,
    ) {
        // Confirmation: the demanded block appears among the first few
        // pending predictions (allow small skips from minor divergence).
        if let Some(pos) = self.pending.iter().take(4).position(|&b| b == block) {
            for _ in 0..=pos {
                self.pending.pop_front();
            }
            self.confirmed += 1;
            self.refill(history, out);
            return;
        }
        if was_miss {
            // Off-stream miss: re-index the stream at this block.
            self.redirects += 1;
            self.pending.clear();
            self.cursor = history.lookup(block);
            self.refill(history, out);
        }
    }

    /// Tops up the pending queue to the lookahead depth from the cursor.
    fn refill(&mut self, history: &ShiftHistory, out: &mut Vec<BlockAddr>) {
        let Some(cursor) = &mut self.cursor else {
            return;
        };
        while self.pending.len() < self.lookahead {
            match history.read(cursor) {
                Some(b) => {
                    // Collapse blocks already predicted and pending.
                    if !self.pending.contains(&b) {
                        self.pending.push_back(b);
                        out.push(b);
                        self.issued += 1;
                    }
                }
                None => {
                    // Caught up with the writer or fell out of the window.
                    break;
                }
            }
        }
    }

    /// Predictions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Predictions confirmed by demand accesses.
    pub fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Stream re-index events (off-stream misses).
    pub fn redirects(&self) -> u64 {
        self.redirects
    }
}

impl Default for ShiftEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(ids: impl IntoIterator<Item = u64>) -> Vec<BlockAddr> {
        ids.into_iter().map(BlockAddr::from_raw).collect()
    }

    #[test]
    fn record_compacts_spatial_runs_into_footprints() {
        let mut h = ShiftHistory::with_capacity(16);
        for b in blocks([1, 1, 1, 2, 2, 3]) {
            h.record(b);
        }
        // One footprint entry covers the whole run; all blocks indexed.
        assert_eq!(h.len(), 1);
        assert!(h.lookup(BlockAddr::from_raw(2)).is_some());
        assert!(h.lookup(BlockAddr::from_raw(3)).is_some());
    }

    #[test]
    fn lookup_points_after_most_recent_occurrence() {
        let mut h = ShiftHistory::with_capacity(16);
        for b in blocks([1, 2, 3, 1, 4, 5]) {
            h.record(b);
        }
        let mut c = h.lookup(BlockAddr::from_raw(1)).unwrap();
        // Most recent occurrence of 1 is followed by 4, 5.
        assert_eq!(h.read(&mut c), Some(BlockAddr::from_raw(4)));
        assert_eq!(h.read(&mut c), Some(BlockAddr::from_raw(5)));
        assert_eq!(h.read(&mut c), None, "cursor must stop at the writer");
    }

    #[test]
    fn wraparound_invalidates_old_entries() {
        let mut h = ShiftHistory::with_capacity(4);
        // Spread blocks far apart so each consumes one entry.
        for b in blocks([100, 200, 300, 400, 500, 600]) {
            h.record(b);
        }
        // Blocks 100 and 200 were overwritten.
        assert!(h.lookup(BlockAddr::from_raw(100)).is_none());
        assert!(h.lookup(BlockAddr::from_raw(500)).is_some());
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn engine_streams_after_reindex() {
        let mut h = ShiftHistory::with_capacity(64);
        for b in blocks(10..30) {
            h.record(b);
        }
        let mut e = ShiftEngine::with_lookahead(4);
        let mut out = Vec::new();
        // Miss on block 12: stream resumes at 13.
        e.on_access(&h, BlockAddr::from_raw(12), true, &mut out);
        assert_eq!(out, blocks([13, 14, 15, 16]));
        // Confirm 13: one more block streams out.
        out.clear();
        e.on_access(&h, BlockAddr::from_raw(13), false, &mut out);
        assert_eq!(out, blocks([17]));
        assert_eq!(e.confirmed(), 1);
    }

    #[test]
    fn engine_tolerates_small_divergence() {
        let mut h = ShiftHistory::with_capacity(64);
        for b in blocks(10..30) {
            h.record(b);
        }
        let mut e = ShiftEngine::with_lookahead(6);
        let mut out = Vec::new();
        e.on_access(&h, BlockAddr::from_raw(12), true, &mut out);
        // Demand skips 13 and hits 15 (short divergence): still confirmed.
        out.clear();
        e.on_access(&h, BlockAddr::from_raw(15), false, &mut out);
        assert_eq!(e.confirmed(), 1);
        assert_eq!(e.redirects(), 1, "only the initial miss re-indexed");
    }

    #[test]
    fn off_stream_miss_reindexes() {
        let mut h = ShiftHistory::with_capacity(64);
        for b in blocks([1, 2, 3, 50, 51, 52]) {
            h.record(b);
        }
        let mut e = ShiftEngine::with_lookahead(2);
        let mut out = Vec::new();
        e.on_access(&h, BlockAddr::from_raw(1), true, &mut out);
        assert_eq!(out, blocks([2, 3]));
        out.clear();
        // Divergence to 50: re-index there.
        e.on_access(&h, BlockAddr::from_raw(50), true, &mut out);
        assert_eq!(out, blocks([51, 52]));
        assert_eq!(e.redirects(), 2);
    }

    #[test]
    fn unknown_block_produces_no_prefetches() {
        let h = ShiftHistory::with_capacity(16);
        let mut e = ShiftEngine::new();
        let mut out = Vec::new();
        e.on_access(&h, BlockAddr::from_raw(99), true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_matches_paper_budget() {
        let h = ShiftHistory::new_32k();
        let p = h.storage();
        // Paper: 204 KB history (LLC-resident) + ~240 KB index (tag array).
        assert!(
            (190_000..230_000).contains(&(p.llc_resident_bytes as usize)),
            "history bytes {}",
            p.llc_resident_bytes
        );
        assert!(
            (200_000..280_000).contains(&(p.llc_tag_extension_bytes as usize)),
            "index bytes {}",
            p.llc_tag_extension_bytes
        );
        assert_eq!(
            p.dedicated_bits(),
            0,
            "SHIFT adds no dedicated per-core SRAM"
        );
    }

    #[test]
    fn footprint_entry_covers_base_and_masked_followers() {
        let e = HistoryEntry {
            base: BlockAddr::from_raw(100),
            mask: 0b0000_0101,
        };
        assert!(e.covers(BlockAddr::from_raw(100)));
        assert!(e.covers(BlockAddr::from_raw(101)));
        assert!(!e.covers(BlockAddr::from_raw(102)));
        assert!(e.covers(BlockAddr::from_raw(103)));
        assert!(!e.covers(BlockAddr::from_raw(99)));
        let blocks: Vec<u64> = e.blocks().map(|b| b.raw()).collect();
        assert_eq!(blocks, vec![100, 101, 103]);
    }

    /// The reference walk `read` used before walking masks in place:
    /// collect the entry's blocks, then index them.
    fn collected_next_block(
        entry: HistoryEntry,
        offset: u8,
        skip_through: Option<BlockAddr>,
    ) -> Option<(usize, BlockAddr)> {
        let blocks: Vec<BlockAddr> = entry.blocks().collect();
        let start = match skip_through {
            Some(after) => blocks
                .iter()
                .position(|&b| b == after)
                .map(|p| p + 1)
                .unwrap_or(0),
            None => offset as usize,
        };
        blocks.get(start).map(|&b| (start, b))
    }

    #[test]
    fn in_place_walk_matches_collected_blocks_exhaustively() {
        // Every mask byte, at a small base and at the top of the block
        // address space (where followers wrap), for every cursor offset
        // a footprint can reach and every skip block in and around it.
        let top = BlockAddr::from_raw(u64::MAX).raw();
        for base in [BlockAddr::from_raw(100), BlockAddr::from_raw(top - 3)] {
            for mask in 0..=u8::MAX {
                let entry = HistoryEntry { base, mask };
                for offset in 0..=FOOTPRINT_SPAN as u8 + 2 {
                    assert_eq!(
                        entry.next_block(offset, None),
                        collected_next_block(entry, offset, None),
                        "mask {mask:#010b}, offset {offset}"
                    );
                }
                for delta in 0..=FOOTPRINT_SPAN + 3 {
                    let skip = BlockAddr::from_raw(base.raw().wrapping_sub(1).wrapping_add(delta));
                    for offset in [0, 3] {
                        assert_eq!(
                            entry.next_block(offset, Some(skip)),
                            collected_next_block(entry, offset, Some(skip)),
                            "mask {mask:#010b}, skip {skip:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn history_view_gates_writes_to_the_generator() {
        let mut h = ShiftHistory::with_capacity(8);
        let mut writer = HistoryView::Writer(&mut h);
        assert!(writer.record(BlockAddr::from_raw(1)));
        assert!(writer.history().lookup(BlockAddr::from_raw(1)).is_some());
        let mut reader = HistoryView::Reader(&h);
        assert!(!reader.record(BlockAddr::from_raw(2)));
        assert!(reader.history().lookup(BlockAddr::from_raw(2)).is_none());
        assert_eq!(h.len(), 1, "reader views must never mutate");
    }
}
