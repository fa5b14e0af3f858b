//! PhantomBTB: a virtualized two-level BTB with temporal-group prefetching
//! (Burcea & Moshovos, ASPLOS 2009; evaluated as the state-of-the-art BTB
//! prefetcher baseline in the paper).
//!
//! Mechanics reproduced here (paper Sections 2.1 and 5.2):
//!
//! - a 1K-entry conventional first level plus a 64-entry prefetch buffer;
//! - a second level of *temporal groups* — six BTB entries that missed
//!   consecutively in the first level, packed into one LLC line and tagged
//!   with the 32-instruction code region of the group's first miss. Groups
//!   are stored in formation order, so consecutive groups capture the
//!   temporal stream of misses;
//! - on a first-level miss, the group tagged by the missing region (plus
//!   its formation-order successor) is fetched from the LLC into the
//!   prefetch buffer, arriving only after the LLC round-trip latency (the
//!   timeliness problem Confluence removes). Prefetch-buffer hits *chase*
//!   the stream by fetching subsequent groups;
//! - the trigger miss itself is never eliminated, and control-flow
//!   divergence between group formation and reuse limits coverage (the
//!   paper measures 61% against AirBTB's 93%).

use std::collections::VecDeque;

use confluence_types::{StorageProfile, VAddr};
use confluence_uarch::SetAssocCache;

use crate::conventional::{ConvEntry, ConventionalBtb};
use crate::design::{BtbDesign, BtbOutcome, ResolvedBranch};

/// Entries per temporal group (six fit in a 64-byte LLC line).
pub const GROUP_ENTRIES: usize = 6;
/// Code-region granularity used to tag groups (the paper uses 32
/// instructions; we widen to 128 instructions, which maximizes trigger hit
/// rate on the synthetic workloads).
const REGION_SHIFT: u32 = 9;
/// Number of temporal groups kept in the LLC (4K lines = 256 KB).
pub const GROUP_TABLE_LINES: usize = 4096;
/// Groups fetched per trigger miss.
const GROUPS_PER_TRIGGER: u64 = 4;

/// One temporal group: `GROUP_ENTRIES` entries that missed consecutively,
/// stored inline so that storing and fetching groups allocates nothing.
type Group = [(VAddr, ConvEntry); GROUP_ENTRIES];

/// PhantomBTB with an LLC-virtualized temporal-group second level.
#[derive(Clone, Debug)]
pub struct PhantomBtb {
    l1: ConventionalBtb,
    prefetch_buffer: SetAssocCache<ConvEntry>,
    /// Temporal groups in formation order (bounded circular log modelling
    /// the 4K reserved LLC lines).
    group_log: VecDeque<Group>,
    /// Sequence number of the next group to be appended.
    log_head: u64,
    /// Region tag -> sequence number of the most recent group it triggered.
    index: SetAssocCache<u64>,
    /// Group currently being formed from consecutive L1 misses.
    forming: Vec<(VAddr, ConvEntry)>,
    forming_region: u64,
    /// Next group sequence to chase when prefetched entries prove useful.
    chase: Option<u64>,
    /// Groups fetched from the LLC but not yet arrived: (ready, seq).
    inflight: Vec<(u64, u64)>,
    /// Pseudo-cycle counter advanced once per lookup (the BPU performs one
    /// lookup per cycle), used to model group arrival latency.
    now: u64,
    llc_latency: u64,
    prefetch_entries: usize,
}

impl PhantomBtb {
    /// Creates the paper's configuration: 1K-entry L1, 64-entry prefetch
    /// buffer, 4K temporal groups, with the given mean LLC round-trip
    /// latency (cycles).
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors (cannot occur for this fixed
    /// configuration).
    pub fn paper_config(llc_latency: u64) -> Result<Self, confluence_types::ConfigError> {
        Self::new(1024, 64, llc_latency)
    }

    /// Creates a PhantomBTB with explicit sizes.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid geometries.
    pub fn new(
        l1_entries: usize,
        prefetch_entries: usize,
        llc_latency: u64,
    ) -> Result<Self, confluence_types::ConfigError> {
        Ok(PhantomBtb {
            l1: ConventionalBtb::new("PhantomBTB-L1", l1_entries, 4, 0)?,
            prefetch_buffer: SetAssocCache::new(1, prefetch_entries.max(1))?,
            group_log: VecDeque::with_capacity(GROUP_TABLE_LINES),
            log_head: 0,
            index: SetAssocCache::new(GROUP_TABLE_LINES / 4, 4)?,
            forming: Vec::with_capacity(GROUP_ENTRIES),
            forming_region: 0,
            chase: None,
            inflight: Vec::new(),
            now: 0,
            llc_latency,
            prefetch_entries,
        })
    }

    #[inline]
    fn region_of(pc: VAddr) -> u64 {
        pc.raw() >> REGION_SHIFT
    }

    #[inline]
    fn key(bb_start: VAddr) -> u64 {
        bb_start.raw() >> 2
    }

    fn seq_valid(&self, seq: u64) -> bool {
        seq < self.log_head && self.log_head - seq <= self.group_log.len() as u64
    }

    fn group_at(&self, seq: u64) -> Option<&Group> {
        if !self.seq_valid(seq) {
            return None;
        }
        let oldest = self.log_head - self.group_log.len() as u64;
        self.group_log.get((seq - oldest) as usize)
    }

    /// Schedules the LLC fetch of one group.
    fn fetch_group(&mut self, seq: u64) {
        if self.seq_valid(seq) && !self.inflight.iter().any(|&(_, s)| s == seq) {
            self.inflight.push((self.now + self.llc_latency, seq));
        }
    }

    /// Installs groups whose LLC fetch has completed, in fetch order.
    fn drain_inflight(&mut self) {
        let mut i = 0;
        while let Some(&(ready, seq)) = self.inflight.get(i) {
            if ready > self.now {
                i += 1;
                continue;
            }
            self.inflight.remove(i);
            if let Some(&group) = self.group_at(seq) {
                for (bb, entry) in group {
                    self.prefetch_buffer.insert(Self::key(bb), entry);
                }
            }
        }
    }

    /// Number of groups stored so far (observability for tests).
    pub fn stored_groups(&self) -> usize {
        self.group_log.len()
    }
}

impl BtbDesign for PhantomBtb {
    fn name(&self) -> &'static str {
        "PhantomBTB"
    }

    fn lookup(&mut self, bb_start: VAddr, _branch_pc: VAddr) -> BtbOutcome {
        self.now += 1;
        self.drain_inflight();

        if let Some(entry) = self.l1.find(bb_start) {
            return BtbOutcome {
                first_level_hit: true,
                hit: true,
                target: direct_target(entry),
                class: Some(entry.class),
                fill_bubble: 0,
            };
        }
        // Prefetch-buffer hit: promote into the L1 and chase the stream of
        // groups that followed this one at formation time.
        if let Some(entry) = self.prefetch_buffer.invalidate(Self::key(bb_start)) {
            self.l1.install(bb_start, entry);
            if let Some(next) = self.chase {
                self.fetch_group(next);
                self.chase = Some(next + 1);
            }
            return BtbOutcome {
                first_level_hit: true,
                hit: true,
                target: direct_target(entry),
                class: Some(entry.class),
                fill_bubble: 0,
            };
        }
        // Miss: trigger a group fetch for this region from the LLC.
        let region = Self::region_of(bb_start);
        if let Some(&seq) = self.index.lookup(region) {
            for k in 0..GROUPS_PER_TRIGGER {
                self.fetch_group(seq + k);
            }
            self.chase = Some(seq + GROUPS_PER_TRIGGER);
        }
        // If an in-flight group (including one just triggered) carries this
        // entry, the virtualized second level *will* serve it — but only
        // after the LLC round trip, exposing the core to that latency
        // (paper Section 2.3: "delays in accessing the second level of BTB
        // storage in the LLC"). Content-wise the miss is eliminated;
        // timing-wise the arrival delay is a fetch bubble.
        let key = Self::key(bb_start);
        let mut found: Option<(u64, ConvEntry)> = None;
        for &(ready, seq) in &self.inflight {
            if let Some(group) = self.group_at(seq) {
                if let Some(&(_, entry)) = group.iter().find(|&&(bb, _)| Self::key(bb) == key) {
                    if found.map(|(r, _)| ready < r).unwrap_or(true) {
                        found = Some((ready, entry));
                    }
                }
            }
        }
        if let Some((ready, entry)) = found {
            self.l1.install(bb_start, entry);
            return BtbOutcome {
                first_level_hit: false,
                hit: true,
                target: direct_target(entry),
                class: Some(entry.class),
                fill_bubble: ready.saturating_sub(self.now),
            };
        }
        BtbOutcome::miss()
    }

    fn update(&mut self, resolved: &ResolvedBranch) {
        if !resolved.taken {
            return;
        }
        let entry = ConventionalBtb::make_entry(resolved);
        // Was this a first-level miss? (The prefetch buffer was already
        // drained/promoted during lookup, so probing L1 suffices.)
        let missed = self.l1.find(resolved.bb_start).is_none();
        self.l1.install(resolved.bb_start, entry);
        if !missed {
            return;
        }
        // Temporal-group formation: consecutive misses pack together.
        if self.forming.is_empty() {
            self.forming_region = Self::region_of(resolved.bb_start);
        }
        self.forming.push((resolved.bb_start, entry));
        if self.forming.len() == GROUP_ENTRIES {
            let group: Group = self.forming[..].try_into().expect("a full group");
            self.forming.clear();
            self.index.insert(self.forming_region, self.log_head);
            if self.group_log.len() == GROUP_TABLE_LINES {
                self.group_log.pop_front();
            }
            self.group_log.push_back(group);
            self.log_head += 1;
        }
    }

    fn storage(&self) -> StorageProfile {
        // Dedicated: the L1 (same budget class as the baseline) plus the
        // prefetch buffer with full-address tags.
        let mut profile = self.l1.storage();
        let pf_bits = 1 + (confluence_types::VADDR_BITS as u64 - 2) + 30 + 2 + 4;
        profile = profile.with_array("prefetch buffer", self.prefetch_entries as u64 * pf_bits);
        // Virtualized: 4K LLC lines of temporal groups, shared across cores.
        profile.with_llc_resident((GROUP_TABLE_LINES * 64) as u64)
    }
}

fn direct_target(entry: ConvEntry) -> Option<VAddr> {
    use confluence_types::BranchClass;
    match entry.class {
        BranchClass::Conditional | BranchClass::Unconditional => Some(entry.target),
        BranchClass::Return | BranchClass::Indirect => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::BranchKind;

    fn resolved(bb: u64) -> ResolvedBranch {
        ResolvedBranch {
            bb_start: VAddr::new(bb),
            pc: VAddr::new(bb + 4),
            kind: BranchKind::Unconditional,
            taken: true,
            target: VAddr::new(0x9000),
        }
    }

    /// Drives the BTB through a miss sequence twice; the second pass should
    /// benefit from temporal groups formed during the first.
    #[test]
    fn temporal_groups_prefetch_recurring_miss_sequences() {
        let mut btb = PhantomBtb::new(4, 64, 2).unwrap();
        // A long recurring sequence of branches, all conflicting in the
        // tiny 4-entry L1, so every pass misses without prefetch.
        let seq: Vec<u64> = (0..24).map(|i| 0x10_000 + i * 0x100).collect();
        // Pass 1: cold misses; groups form.
        for &bb in &seq {
            btb.lookup(VAddr::new(bb), VAddr::new(bb + 4));
            btb.update(&resolved(bb));
        }
        assert!(
            btb.stored_groups() >= 3,
            "groups stored: {}",
            btb.stored_groups()
        );
        // Pass 2: replay. Trigger misses fetch groups; later entries hit.
        let mut hits = 0;
        for &bb in &seq {
            if btb.lookup(VAddr::new(bb), VAddr::new(bb + 4)).hit {
                hits += 1;
            }
            btb.update(&resolved(bb));
        }
        assert!(
            hits > seq.len() / 2,
            "prefetching eliminated only {hits}/{} misses",
            seq.len()
        );
    }

    #[test]
    fn trigger_miss_is_never_eliminated() {
        let mut btb = PhantomBtb::new(4, 64, 1).unwrap();
        let seq: Vec<u64> = (0..12).map(|i| 0x10_000 + i * 0x100).collect();
        // Pass 1: cold; temporal groups form (two groups of six).
        for &bb in &seq {
            btb.lookup(VAddr::new(bb), VAddr::new(bb + 4));
            btb.update(&resolved(bb));
        }
        // Pass 2: the first lookup of the recurring sequence triggers the
        // group fetch. The entry is served by the virtualized second level
        // only after the LLC round trip — a timing bubble the first level
        // cannot hide — while entries behind it arrive in time and hit for
        // free.
        let mut outcomes = Vec::new();
        for &bb in &seq {
            outcomes.push(btb.lookup(VAddr::new(bb), VAddr::new(bb + 4)));
            btb.update(&resolved(bb));
        }
        assert!(
            outcomes[0].fill_bubble > 0 || !outcomes[0].hit,
            "the trigger cannot be served for free"
        );
        let free_hits = outcomes[1..]
            .iter()
            .filter(|o| o.hit && o.fill_bubble == 0)
            .count();
        assert!(
            free_hits >= 6,
            "group prefetch covered only {free_hits} later lookups for free"
        );
    }

    #[test]
    fn chasing_extends_coverage_beyond_triggered_groups() {
        let mut btb = PhantomBtb::new(4, 64, 1).unwrap();
        // 30 branches -> 5 groups. With 2 groups per trigger and chasing on
        // prefetch hits, a single trigger should eventually cover the tail.
        let seq: Vec<u64> = (0..30).map(|i| 0x10_000 + i * 0x100).collect();
        for &bb in &seq {
            btb.lookup(VAddr::new(bb), VAddr::new(bb + 4));
            btb.update(&resolved(bb));
        }
        let mut hits = 0;
        for &bb in &seq {
            if btb.lookup(VAddr::new(bb), VAddr::new(bb + 4)).hit {
                hits += 1;
            }
            btb.update(&resolved(bb));
        }
        assert!(hits >= 20, "chasing covered only {hits}/30");
    }

    #[test]
    fn inflight_latency_delays_availability() {
        let mut btb = PhantomBtb::new(4, 64, 50).unwrap();
        let seq: Vec<u64> = (0..12).map(|i| 0x10_000 + i * 0x100).collect();
        for &bb in &seq {
            btb.lookup(VAddr::new(bb), VAddr::new(bb + 4));
            btb.update(&resolved(bb));
        }
        // Evict from L1 by thrashing.
        for i in 100..120 {
            btb.update(&resolved(0x80_000 + i * 0x100));
        }
        // Replay quickly: with a 50-cycle LLC, the first few lookups after
        // the trigger cannot be served for free — any coverage from the
        // in-flight group carries an arrival bubble.
        let mut free_early_hits = 0;
        for &bb in &seq[..4] {
            let o = btb.lookup(VAddr::new(bb), VAddr::new(bb + 4));
            if o.hit && o.fill_bubble == 0 {
                free_early_hits += 1;
            }
            btb.update(&resolved(bb));
        }
        assert_eq!(
            free_early_hits, 0,
            "in-flight groups must not serve immediately"
        );
    }

    #[test]
    fn storage_reports_virtualized_table() {
        let btb = PhantomBtb::paper_config(30).unwrap();
        let p = btb.storage();
        assert_eq!(p.llc_resident_bytes, 256 * 1024);
        // Dedicated ~= baseline BTB budget (paper: 9.9 KB).
        assert!(
            (9.0..11.5).contains(&p.dedicated_kib()),
            "got {} KiB",
            p.dedicated_kib()
        );
    }
}
