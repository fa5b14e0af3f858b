//! Property-based tests on core data structures and invariants.

use proptest::prelude::*;

use confluence::trace::{decode_records, encode_records, Program, WorkloadSpec};
use confluence::types::{BlockAddr, BranchKind, DetRng, FetchRegion, TraceRecord, VAddr};
use confluence_btb::BtbDesign;
use confluence_core::AirBtb;
use confluence_types::{PredecodedBranch, INSTRS_PER_BLOCK};
use confluence_uarch::{L1ICache, ReturnAddressStack, SetAssocCache};

fn arb_vaddr() -> impl Strategy<Value = VAddr> {
    (0u64..(1 << 40)).prop_map(|v| VAddr::new(v << 2 & ((1 << 47) - 1)))
}

proptest! {
    #[test]
    fn vaddr_block_roundtrip(addr in arb_vaddr()) {
        let block = addr.block();
        let idx = addr.instr_index();
        prop_assert_eq!(block.instr(idx), addr);
        prop_assert!(idx < INSTRS_PER_BLOCK);
    }

    #[test]
    fn fetch_region_blocks_cover_all_instrs(addr in arb_vaddr(), len in 1usize..48) {
        let region = FetchRegion::new(addr, len);
        let blocks: Vec<BlockAddr> = region.blocks().collect();
        // Every instruction's block must be in the block list.
        for pc in region.instrs() {
            prop_assert!(blocks.contains(&pc.block()));
        }
        // Block list is contiguous and minimal.
        prop_assert_eq!(blocks.first().copied(), Some(region.start.block()));
        prop_assert_eq!(blocks.last().copied(), Some(region.last().block()));
        for w in blocks.windows(2) {
            prop_assert_eq!(w[1].raw(), w[0].raw() + 1);
        }
    }

    #[test]
    fn det_rng_below_is_bounded(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn det_rng_is_seed_deterministic(seed in any::<u64>()) {
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The set-associative cache agrees with a naive per-set LRU model.
    #[test]
    fn cache_matches_reference_lru(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..200)) {
        let sets = 4usize;
        let ways = 2usize;
        let mut cache = SetAssocCache::new(sets, ways).unwrap();
        // Reference: per-set vector, front = MRU.
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); sets];
        for (key, is_insert) in ops {
            let set = (key % sets as u64) as usize;
            if is_insert {
                cache.insert(key, ());
                let r = &mut reference[set];
                if let Some(pos) = r.iter().position(|&k| k == key) {
                    r.remove(pos);
                }
                r.insert(0, key);
                r.truncate(ways);
            } else {
                let hit = cache.lookup(key).is_some();
                let r = &mut reference[set];
                let ref_hit = r.contains(&key);
                prop_assert_eq!(hit, ref_hit, "lookup({}) divergence", key);
                if let Some(pos) = r.iter().position(|&k| k == key) {
                    let k = r.remove(pos);
                    r.insert(0, k);
                }
            }
        }
        // Final contents agree.
        for (set, r) in reference.iter().enumerate() {
            for &k in r {
                prop_assert!(cache.contains(k), "set {set} lost key {k}");
            }
        }
    }

    /// RAS behaves as a bounded stack: pops mirror pushes up to capacity.
    #[test]
    fn ras_is_a_bounded_stack(addrs in prop::collection::vec(0u64..1_000, 1..100), cap in 1usize..80) {
        let mut ras = ReturnAddressStack::with_capacity(cap);
        let addrs: Vec<VAddr> = addrs.iter().map(|&a| VAddr::new(a * 4)).collect();
        for &a in &addrs {
            ras.push(a);
        }
        // Pop back: the last min(cap, n) pushes come back in LIFO order.
        let expect = addrs.iter().rev().take(cap);
        for &want in expect {
            prop_assert_eq!(ras.pop(), Some(want));
        }
        prop_assert_eq!(ras.pop(), None);
    }

    /// Trace serialization round-trips arbitrary records.
    #[test]
    fn trace_serialization_roundtrip(records in prop::collection::vec(arb_record(), 0..200)) {
        let encoded = encode_records(records.iter().copied());
        let decoded = decode_records(&encoded).unwrap();
        prop_assert_eq!(records, decoded);
    }

    /// AirBTB contents always mirror the L1-I in Full (synchronized) mode.
    #[test]
    fn airbtb_stays_in_sync_with_l1i(blocks in prop::collection::vec(0u64..512, 1..300)) {
        let mut l1i = L1ICache::new(16, 2).unwrap();
        let mut btb = AirBtb::paper_config();
        let branch = |b: BlockAddr| {
            [PredecodedBranch::direct(3, BranchKind::Call, b.base())]
        };
        for raw in blocks {
            let block = BlockAddr::from_raw(raw);
            if !l1i.contains(block) {
                btb.on_l1i_fill(block, &branch(block));
                if let Some(evicted) = l1i.fill(block) {
                    btb.on_l1i_evict(evicted);
                }
            }
            // Invariant: every resident block's branch hits; the bundle
            // count can never exceed residency.
            for resident in l1i.resident_blocks().collect::<Vec<_>>() {
                let outcome = btb.lookup(resident.base(), resident.instr(3));
                prop_assert!(outcome.hit, "resident block {resident} lost its bundle");
            }
        }
    }

    /// The executor's committed stream is sequentially consistent for any
    /// seed and scaled workload.
    #[test]
    fn executor_stream_is_consistent(seed in any::<u64>(), kb in 48usize..128) {
        let program = Program::generate(&WorkloadSpec::tiny().with_code_kb(kb)).unwrap();
        let mut prev: Option<TraceRecord> = None;
        for r in program.executor(seed).take(3_000) {
            if let Some(p) = prev {
                prop_assert_eq!(r.pc, p.next_pc());
            }
            prev = Some(r);
        }
    }
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    let kinds = prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::IndirectJump),
        Just(BranchKind::IndirectCall),
    ];
    (
        arb_vaddr(),
        proptest::option::of((kinds, any::<bool>(), arb_vaddr())),
    )
        .prop_map(|(pc, branch)| match branch {
            None => TraceRecord::plain(pc),
            Some((kind, taken, target)) => TraceRecord::branch(pc, kind, taken, target),
        })
}

// ---------------------------------------------------------------------------
// Persistent-store codec: arbitrary jobs and outputs round-trip the
// versioned binary schema (`confluence_sim::codec`).

use confluence::prefetch::DEFAULT_LOOKAHEAD;
use confluence::sim::{
    BtbSpec, CoverageJob, CoverageResult, DensityJob, Job, JobOutput, TimingJob,
};
use confluence::store::{Decode, Encode};
use confluence_core::AirBtbMode;
use confluence_sim::{
    CoreStats, CoverageOptions, DesignPoint as Design, TimingConfig, TimingResult,
};
use confluence_uarch::{CoreParams, MemParams};
use std::sync::Arc;

fn arb_workload() -> impl Strategy<Value = confluence::trace::Workload> {
    (0usize..confluence::trace::Workload::ALL.len())
        .prop_map(|i| confluence::trace::Workload::ALL[i])
}

fn arb_design() -> impl Strategy<Value = Design> {
    (0usize..Design::ALL.len()).prop_map(|i| Design::ALL[i])
}

fn arb_airbtb_mode() -> impl Strategy<Value = AirBtbMode> {
    prop_oneof![
        Just(AirBtbMode::CapacityOnly),
        Just(AirBtbMode::SpatialLocality),
        Just(AirBtbMode::Prefetching),
        Just(AirBtbMode::Full),
    ]
}

fn arb_btb_spec() -> impl Strategy<Value = BtbSpec> {
    prop_oneof![
        (1usize..65_536, 1usize..16, 0usize..256).prop_map(|(entries, ways, victim_entries)| {
            BtbSpec::Conventional {
                entries,
                ways,
                victim_entries,
            }
        }),
        Just(BtbSpec::Baseline1k),
        Just(BtbSpec::Large16k),
        (1u64..200).prop_map(|llc_latency| BtbSpec::Phantom { llc_latency }),
        Just(BtbSpec::TwoLevelPaper),
        (arb_airbtb_mode(), 1usize..4096, 1usize..8, 0usize..256).prop_map(
            |(mode, bundles, bundle_entries, overflow_entries)| BtbSpec::AirBtb {
                mode,
                bundles,
                bundle_entries,
                overflow_entries,
            }
        ),
        Just(BtbSpec::Ideal16k),
        Just(BtbSpec::Perfect),
    ]
}

fn arb_coverage_options() -> impl Strategy<Value = CoverageOptions> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), 0usize..1 << 20),
        // Bias the v1 tail extension toward its defaults so both the
        // five-field and the extended encodings get real coverage.
        prop_oneof![
            Just((confluence_sim::DEFAULT_L1I_KB, DEFAULT_LOOKAHEAD)),
            (1usize..512, 1usize..256),
        ],
    )
        .prop_map(
            |(
                (warmup_instrs, measure_instrs, seed),
                (use_shift, history_entries),
                (l1i_kb, shift_lookahead),
            )| {
                CoverageOptions {
                    warmup_instrs,
                    measure_instrs,
                    seed,
                    use_shift,
                    history_entries,
                    l1i_kb,
                    shift_lookahead,
                }
            },
        )
}

fn arb_core_params() -> impl Strategy<Value = CoreParams> {
    (
        (1usize..32, 0usize..64, 0u64..32, 0u64..64),
        (1usize..8, 1usize..256, 1usize..4, 1usize..16),
    )
        .prop_map(|((fq, seq, mf, mp), (rw, ib, ppc, fw))| CoreParams {
            fetch_queue_regions: fq,
            btb_miss_seq_instrs: seq,
            misfetch_penalty: mf,
            mispredict_penalty: mp,
            retire_width: rw,
            instr_buffer: ib,
            predictions_per_cycle: ppc,
            fetch_width: fw,
        })
}

fn arb_mem_params() -> impl Strategy<Value = MemParams> {
    (
        (1usize..1 << 22, 1usize..32, 1u64..16, 1usize..64),
        (1usize..64, 1usize..1 << 24, 1usize..64, 1u64..32),
        (1u64..16, 1u64..512, 1usize..256),
    )
        .prop_map(
            |(
                (l1i_bytes, l1i_ways, l1i_latency, l1i_mshrs),
                (cores, llc_slice_bytes, llc_ways, llc_bank_latency),
                (noc_hop_latency, mem_latency, block_bytes),
            )| MemParams {
                l1i_bytes,
                l1i_ways,
                l1i_latency,
                l1i_mshrs,
                cores,
                llc_slice_bytes,
                llc_ways,
                llc_bank_latency,
                noc_hop_latency,
                mem_latency,
                block_bytes,
            },
        )
}

fn arb_timing_config() -> impl Strategy<Value = TimingConfig> {
    (
        (1usize..64, any::<u64>(), any::<u64>()),
        (0usize..1 << 20, any::<u64>()),
        arb_core_params(),
        arb_mem_params(),
    )
        .prop_map(
            |((cores, warmup_instrs, measure_instrs), (history_entries, seed), core, mem)| {
                TimingConfig {
                    cores,
                    warmup_instrs,
                    measure_instrs,
                    history_entries,
                    seed,
                    core,
                    mem,
                }
            },
        )
}

fn arb_job() -> impl Strategy<Value = Job> {
    prop_oneof![
        (arb_workload(), arb_btb_spec(), arb_coverage_options()).prop_map(
            |(workload, btb, opts)| Job::Coverage(CoverageJob {
                workload,
                btb,
                opts
            })
        ),
        (arb_workload(), arb_design(), arb_timing_config()).prop_map(|(workload, design, cfg)| {
            Job::Timing(TimingJob {
                workload,
                design,
                cfg,
            })
        }),
        (arb_workload(), any::<u64>(), any::<u64>()).prop_map(|(workload, instrs, seed)| {
            Job::Density(DensityJob {
                workload,
                instrs,
                seed,
            })
        }),
    ]
}

fn arb_coverage_result() -> impl Strategy<Value = CoverageResult> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((instrs, branches, taken_branches, btb_misses), (a, m, p))| CoverageResult {
                instrs,
                branches,
                taken_branches,
                btb_misses,
                l1i_accesses: a,
                l1i_misses: m,
                prefetch_fills: p,
            },
        )
}

fn arb_core_stats() -> impl Strategy<Value = CoreStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|((a, b, c, d), (e, f, g, h), (i, j, k, l))| CoreStats {
            cycles: a,
            retired: b,
            branches: c,
            taken_branches: d,
            btb_misses: e,
            misfetches: f,
            l2_bubble_cycles: g,
            mispredicts: h,
            l1i_accesses: i,
            l1i_misses: j,
            prefetch_fills: k,
            fetch_stall_cycles: l,
        })
}

fn arb_job_output() -> impl Strategy<Value = JobOutput> {
    prop_oneof![
        arb_coverage_result().prop_map(JobOutput::Coverage),
        (
            arb_design(),
            prop::collection::vec(arb_core_stats(), 0..20),
            any::<u64>(),
        )
            .prop_map(|(design, per_core, total_cycles)| {
                JobOutput::Timing(Arc::new(TimingResult {
                    design,
                    per_core,
                    total_cycles,
                }))
            }),
        // Raw bit patterns: NaNs and infinities must survive too.
        (any::<u64>(), any::<u64>())
            .prop_map(|(s, d)| JobOutput::Density(f64::from_bits(s), f64::from_bits(d))),
    ]
}

/// A CSV-safe cell/caption: no commas, no newlines (the dialect's
/// documented non-representable characters).
fn arb_cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9 ._%+-]{0,12}").unwrap()
}

proptest! {
    /// Report rendering round-trips: any report over CSV-safe cells is
    /// reconstructed exactly by `Report::from_csv(report.to_csv())`,
    /// and re-rendering the parse is byte-stable. This is the contract
    /// the sweep golden harness rests on.
    #[test]
    fn report_csv_roundtrip(
        caption in arb_cell(),
        headers in prop::collection::vec(arb_cell(), 1..5),
        row_seed in prop::collection::vec(prop::collection::vec(arb_cell(), 5..6), 0..6),
    ) {
        use confluence::sim::report::Report;
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut report = Report::new(caption.clone(), &header_refs);
        for seed in &row_seed {
            // Trim every generated row to the header arity.
            report.row(seed[..headers.len()].to_vec());
        }
        let csv = report.to_csv();
        let parsed = Report::from_csv(&csv).expect("rendered CSV must parse");
        prop_assert_eq!(&parsed, &report);
        prop_assert_eq!(parsed.to_csv(), csv, "re-rendering must be byte-stable");
    }
}

/// Every job any registered sweep study can generate — every swept
/// `CoverageOptions` history capacity, `BtbSpec` geometry, and
/// `TimingConfig` core count, in both quick and full configurations —
/// round-trips the persistent-store codec byte-stably. This is the
/// contract that lets sweep points share the disk store with the figure
/// suite.
#[test]
fn every_sweep_study_job_roundtrips_codec() {
    use confluence_sim::experiments::{plan, ExperimentConfig};
    let mut seen = 0;
    for cfg in [ExperimentConfig::quick(), ExperimentConfig::full()] {
        for study in confluence_sim::sweeps::registry() {
            for job in plan(&confluence::trace::Workload::ALL, |r| study.report(r, &cfg)) {
                let bytes = job.to_bytes();
                let decoded = Job::from_bytes(&bytes).expect("study job must decode");
                assert_eq!(decoded, job, "{}: decode mismatch", study.name);
                assert_eq!(decoded.to_bytes(), bytes, "{}: not byte-stable", study.name);
                seen += 1;
            }
        }
    }
    assert!(
        seen > 100,
        "expected a real corpus of study jobs, got {seen}"
    );
}

proptest! {
    /// Arbitrary jobs round-trip the store codec to equality.
    #[test]
    fn job_codec_roundtrip(job in arb_job()) {
        let bytes = job.to_bytes();
        let decoded = Job::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &job);
        // Re-encoding is byte-stable (canonical form).
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Arbitrary outputs round-trip the store codec byte-stably. Compared
    /// via re-encoded bytes so NaN densities (bit-preserved, but `!=`
    /// under IEEE comparison) still verify.
    #[test]
    fn job_output_codec_roundtrip(output in arb_job_output()) {
        let bytes = output.to_bytes();
        let decoded = JobOutput::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Decoding truncated prefixes of a valid encoding never panics,
    /// never reproduces the original job, and — because coverage options
    /// carry a default-invisible tail extension — any prefix that *does*
    /// decode must be canonical (it re-encodes to exactly that prefix,
    /// i.e. it is the legitimate encoding of a default-tail job, which
    /// the store's full-key comparison distinguishes anyway).
    #[test]
    fn truncated_job_encodings_never_alias(job in arb_job()) {
        let bytes = job.to_bytes();
        for keep in 0..bytes.len() {
            match Job::from_bytes(&bytes[..keep]) {
                Err(_) => {}
                Ok(decoded) => {
                    prop_assert!(decoded != job, "prefix {keep} decoded to the original");
                    prop_assert!(
                        decoded.to_bytes() == bytes[..keep],
                        "prefix {keep} decoded non-canonically"
                    );
                }
            }
        }
    }
}
