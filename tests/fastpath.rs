//! Compiled-program fast-path equivalence harness.
//!
//! The compiled SoA stream (`ExecMode::Compiled`) is a pure performance
//! optimization: every observable output must be **byte-identical** to
//! the reference interpreter (`ExecMode::Reference`). Two layers of
//! enforcement live here:
//!
//! 1. an engine-level sweep running every job the `--quick` experiment
//!    suite generates through both modes and asserting identical
//!    [`JobOutput`]s plus byte-identical rendered reports;
//! 2. property tests over randomized [`WorkloadSpec`]s asserting the
//!    two record streams agree record-for-record, cold and with a warm
//!    path memo.

use proptest::prelude::*;

use confluence::sim::{experiments, ExecMode, Job, SimEngine};
use confluence::trace::{Program, WorkloadSpec};

/// Every job of the `--quick` suite, executed through both the compiled
/// fast path and the reference interpreter, produces identical outputs
/// and byte-identical rendered reports. This is the in-tree version of
/// the CI `CONFLUENCE_NO_FASTPATH` stdout comparison.
#[test]
fn quick_suite_outputs_identical_across_exec_modes() {
    let cfg = experiments::ExperimentConfig::quick();
    // Two workloads keep test time sane (mirrors the integration tests).
    let workloads: Vec<_> = cfg.workloads().into_iter().take(2).collect();
    let fast = SimEngine::new(workloads.clone()).with_exec_mode(ExecMode::Compiled);
    let reference = SimEngine::new(workloads).with_exec_mode(ExecMode::Reference);

    let jobs = experiments::all_jobs(&fast, &cfg);
    fast.run(&jobs);
    reference.run(&jobs);

    // Per-job outputs agree exactly (densities compared bit-for-bit).
    let mut seen = std::collections::HashSet::new();
    for job in &jobs {
        if !seen.insert(job.clone()) {
            continue;
        }
        match job {
            Job::Coverage(j) => {
                assert_eq!(
                    fast.coverage(j),
                    reference.coverage(j),
                    "coverage divergence on {j:?}"
                );
            }
            Job::Timing(j) => {
                assert_eq!(
                    *fast.timing(j),
                    *reference.timing(j),
                    "timing divergence on {j:?}"
                );
            }
            Job::Density(j) => {
                let (fs, fd) = fast.density(j);
                let (rs, rd) = reference.density(j);
                assert_eq!(
                    (fs.to_bits(), fd.to_bits()),
                    (rs.to_bits(), rd.to_bits()),
                    "density divergence on {j:?}"
                );
            }
        }
    }

    // The rendered suite is byte-identical in every output format.
    let render = |engine: &SimEngine| -> Vec<String> {
        experiments::suite_reports(engine, &cfg)
            .iter()
            .flat_map(|r| [r.to_csv(), r.to_table(), r.to_markdown()])
            .collect()
    };
    assert_eq!(
        render(&fast),
        render(&reference),
        "rendered reports must be byte-identical across exec modes"
    );
}

proptest! {
    /// For arbitrary small workload shapes and seeds, the compiled
    /// stream and the reference interpreter agree record-for-record,
    /// including the instruction and request accounting.
    #[test]
    fn compiled_stream_matches_reference(
        seed in any::<u64>(),
        structure_seed in any::<u64>(),
        kb in 32usize..96,
        layers in 2usize..6,
        request_types in 1usize..5,
    ) {
        let spec = WorkloadSpec {
            structure_seed,
            layers,
            request_types,
            ..WorkloadSpec::tiny().with_code_kb(kb)
        };
        let program = Program::generate(&spec).expect("valid randomized spec");
        let mut fast = program.stream(seed, ExecMode::Compiled);
        let mut reference = program.stream(seed, ExecMode::Reference);
        for i in 0..10_000u64 {
            let f = fast.next_record();
            let r = reference.next_record();
            prop_assert_eq!(f, r, "stream divergence at record {}", i);
        }
        prop_assert_eq!(fast.instr_count(), reference.instr_count());
        prop_assert_eq!(fast.requests_completed(), reference.requests_completed());
    }

    /// The request-path memo is a pure performance layer: for arbitrary
    /// workload shapes, the paths one compiled stream records into the
    /// program's shared bank replay in a second stream record-for-record
    /// identically to the reference interpreter.
    #[test]
    fn warm_bank_replays_bit_identically(
        seed in any::<u64>(),
        structure_seed in any::<u64>(),
        kb in 32usize..48,
    ) {
        let spec = WorkloadSpec {
            structure_seed,
            ..WorkloadSpec::tiny().with_code_kb(kb)
        };
        let program = Program::generate(&spec).expect("valid randomized spec");
        {
            let mut cold = program.stream(seed, ExecMode::Compiled);
            for _ in 0..12_000u64 {
                cold.next_record();
            }
        }
        let before = program.compiled().memo_stats();
        let mut warm = program.stream(seed, ExecMode::Compiled);
        let mut reference = program.stream(seed, ExecMode::Reference);
        for i in 0..12_000u64 {
            prop_assert_eq!(
                warm.next_record(),
                reference.next_record(),
                "warm replay diverged from the reference at record {}",
                i
            );
        }
        drop(warm);
        prop_assert!(
            program.compiled().memo_stats().replayed > before.replayed,
            "the warm bank must actually replay"
        );
    }
}
