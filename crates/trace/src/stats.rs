//! Trace statistics: the workload-characterization numbers the paper reports
//! (working sets, branch densities, stream recurrence).

use std::collections::{HashMap, HashSet};

use confluence_types::{BlockAddr, BranchKind, PredecodeSource, TraceRecord, VAddr};

/// Aggregate statistics over a committed instruction trace.
///
/// `TraceStats` characterizes one trace prefix for inspection (the
/// `trace_inspect` example prints it): instruction mix, block working set,
/// and the distinct taken-branch PCs that make up the BTB footprint. Its
/// static density averages over distinct touched blocks; the Table 2
/// report instead runs `confluence_sim::branch_density_mode`, which
/// averages over demand fetches through a 32 KB L1-I.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Total committed instructions.
    pub instrs: u64,
    /// Total committed branch instructions.
    pub branches: u64,
    /// Committed conditional branches.
    pub conditionals: u64,
    /// Committed taken branches (of any kind).
    pub taken: u64,
    /// Dynamic counts per branch kind.
    pub per_kind: HashMap<BranchKind, u64>,
    /// Distinct 64-byte instruction blocks touched.
    pub unique_blocks: u64,
    /// Distinct program counters of taken branches (the BTB footprint).
    pub unique_taken_branch_pcs: u64,
    /// Mean statically-resident branches per distinct touched block
    /// (compare Table 2's "static" row, which counts demand fetches).
    pub static_branches_per_block: f64,
    /// Distinct basic-block start addresses observed (conventional BTB
    /// entry footprint under basic-block tagging).
    pub unique_bb_starts: u64,
}

impl TraceStats {
    /// Computes statistics over a trace, using `oracle` for static branch
    /// contents of touched blocks.
    pub fn collect<I, P>(trace: I, oracle: &P) -> TraceStats
    where
        I: IntoIterator<Item = TraceRecord>,
        P: PredecodeSource + ?Sized,
    {
        let mut s = TraceStats::default();
        let mut blocks: HashSet<BlockAddr> = HashSet::new();
        let mut taken_pcs: HashSet<VAddr> = HashSet::new();
        let mut bb_starts: HashSet<VAddr> = HashSet::new();
        let mut static_branch_sum: u64 = 0;
        let mut next_is_bb_start = true;

        for r in trace {
            s.instrs += 1;
            if next_is_bb_start {
                bb_starts.insert(r.pc);
                next_is_bb_start = false;
            }
            if blocks.insert(r.pc.block()) {
                static_branch_sum += oracle.branches_in_block(r.pc.block()).len() as u64;
            }
            if let Some(b) = r.branch {
                s.branches += 1;
                *s.per_kind.entry(b.kind).or_insert(0) += 1;
                if b.kind == BranchKind::Conditional {
                    s.conditionals += 1;
                }
                if b.taken {
                    s.taken += 1;
                    taken_pcs.insert(r.pc);
                }
                next_is_bb_start = true;
            }
        }

        s.unique_blocks = blocks.len() as u64;
        s.unique_taken_branch_pcs = taken_pcs.len() as u64;
        s.unique_bb_starts = bb_starts.len() as u64;
        s.static_branches_per_block = if blocks.is_empty() {
            0.0
        } else {
            static_branch_sum as f64 / blocks.len() as f64
        };
        s
    }

    /// Branch instructions per committed instruction.
    pub fn branch_fraction(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.branches as f64 / self.instrs as f64
        }
    }

    /// Taken branches per 1000 committed instructions.
    pub fn taken_per_kilo_instr(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.taken as f64 * 1000.0 / self.instrs as f64
        }
    }

    /// Instruction working set in KiB (distinct blocks × 64 B).
    pub fn working_set_kb(&self) -> f64 {
        self.unique_blocks as f64 * 64.0 / 1024.0
    }
}

/// Temporal instruction stream statistics (paper Section 2.2).
///
/// A *temporal stream* is a recurring subsequence of the block-grain access
/// stream. SHIFT's effectiveness rests on streams being long and recurring;
/// this analysis measures both properties on a trace prefix so tests can
/// assert the generated workloads actually exhibit them.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Number of block-grain accesses analysed (consecutive duplicates
    /// collapsed).
    pub block_accesses: u64,
    /// Fraction of block transitions (A -> B) that repeat a transition seen
    /// earlier in the trace: an upper-bound proxy for next-block
    /// predictability from history.
    pub repeat_transition_frac: f64,
    /// Mean length of maximal repeated runs: given the trace revisits a
    /// block, how many subsequent blocks follow the same order as the
    /// previous visit (the paper reports streams of tens to hundreds of
    /// blocks).
    pub mean_repeat_run: f64,
}

impl StreamStats {
    /// Analyses the block-grain stream of a trace.
    pub fn collect<I>(trace: I) -> StreamStats
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        // Build the block-grain stream (collapse consecutive duplicates).
        let mut stream: Vec<BlockAddr> = Vec::new();
        for r in trace {
            let b = r.pc.block();
            if stream.last() != Some(&b) {
                stream.push(b);
            }
        }

        let mut s = StreamStats {
            block_accesses: stream.len() as u64,
            ..Default::default()
        };
        if stream.len() < 2 {
            return s;
        }

        // Repeat-transition fraction.
        let mut seen: HashSet<(BlockAddr, BlockAddr)> = HashSet::new();
        let mut repeats = 0u64;
        for w in stream.windows(2) {
            if !seen.insert((w[0], w[1])) {
                repeats += 1;
            }
        }
        s.repeat_transition_frac = repeats as f64 / (stream.len() - 1) as f64;

        // Repeat-run lengths: walk the stream; at each position where the
        // block was seen before, follow both cursors forward while they
        // agree (mimics SHIFT's history replay).
        let mut last_pos: HashMap<BlockAddr, usize> = HashMap::new();
        let mut runs: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < stream.len() {
            if let Some(&p) = last_pos.get(&stream[i]) {
                let mut len = 0;
                while i + len < stream.len() && p + len < i && stream[p + len] == stream[i + len] {
                    len += 1;
                }
                if len > 1 {
                    runs.push(len);
                }
                for k in 0..len.max(1) {
                    if i + k < stream.len() {
                        last_pos.insert(stream[i + k], i + k);
                    }
                }
                i += len.max(1);
            } else {
                last_pos.insert(stream[i], i);
                i += 1;
            }
        }
        s.mean_repeat_run = if runs.is_empty() {
            0.0
        } else {
            runs.iter().sum::<usize>() as f64 / runs.len() as f64
        };
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, WorkloadSpec};

    #[test]
    fn stats_count_basics() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let s = TraceStats::collect(p.executor(1).take(100_000), &p);
        assert_eq!(s.instrs, 100_000);
        assert!(s.branches > 0);
        assert!(s.taken <= s.branches);
        assert!(s.conditionals <= s.branches);
        assert!(s.unique_blocks > 0);
    }

    #[test]
    fn static_density_in_expected_band() {
        let p = Program::generate(&WorkloadSpec::base()).unwrap();
        let s = TraceStats::collect(p.executor(1).take(500_000), &p);
        // Paper Table 2: 2.5 - 4.3 static branches per block.
        assert!(
            (2.0..5.5).contains(&s.static_branches_per_block),
            "static density {}",
            s.static_branches_per_block
        );
    }

    #[test]
    fn working_set_grows_with_code_size() {
        let small = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let large = Program::generate(&WorkloadSpec::base().with_code_kb(512)).unwrap();
        let ss = TraceStats::collect(small.executor(1).take(300_000), &small);
        let sl = TraceStats::collect(large.executor(1).take(300_000), &large);
        assert!(sl.unique_blocks > ss.unique_blocks);
    }

    #[test]
    fn streams_recur_in_server_workloads() {
        let p = Program::generate(&WorkloadSpec::tiny()).unwrap();
        let s = StreamStats::collect(p.executor(1).take(300_000));
        // Request-level recurrence: the vast majority of block transitions
        // repeat (the basis of temporal streaming, paper §2.2).
        assert!(
            s.repeat_transition_frac > 0.8,
            "repeat frac {}",
            s.repeat_transition_frac
        );
        assert!(s.mean_repeat_run > 3.0, "mean run {}", s.mean_repeat_run);
    }

    #[test]
    fn stream_stats_empty_trace() {
        let s = StreamStats::collect(Vec::new());
        assert_eq!(s.block_accesses, 0);
        assert_eq!(s.mean_repeat_run, 0.0);
    }

    #[test]
    fn taken_rate_supports_btb_pressure() {
        let p = Program::generate(&WorkloadSpec::base()).unwrap();
        let s = TraceStats::collect(p.executor(1).take(300_000), &p);
        // Server code redirects fetch every ~6-10 instructions.
        let tpk = s.taken_per_kilo_instr();
        assert!((80.0..250.0).contains(&tpk), "taken per kilo-instr {tpk}");
    }
}
