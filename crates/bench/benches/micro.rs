//! Microbenchmarks of the core structures: lookup/insert throughput of
//! AirBTB, the SHIFT engine, the trace executor, the hybrid direction
//! predictor, and the generic set-associative cache.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use confluence_bench::bench_program;
use confluence_btb::{BtbDesign, ConventionalBtb, ResolvedBranch};
use confluence_core::AirBtb;
use confluence_prefetch::{ShiftEngine, ShiftHistory};
use confluence_trace::CompiledProgram;
use confluence_types::{BlockAddr, BranchKind, PredecodeSource, VAddr};
use confluence_uarch::{HybridDirectionPredictor, L1ICache, SetAssocCache};

/// Folds every field of a record into a running checksum.
///
/// This is the benchmark's record consumer: one xor-chain cycle of serial
/// dependency per record, fully register-resident. Consuming each record
/// with `black_box` instead would force a 32-byte memory round-trip per
/// record — a flat tax on both paths that swamps the actual production
/// cost being measured.
#[inline(always)]
fn sink(acc: u64, r: &confluence_types::TraceRecord) -> u64 {
    let branch = match &r.branch {
        Some(b) => b.target.raw().wrapping_add(b.taken as u64),
        None => 0,
    };
    acc ^ r.pc.raw().wrapping_add(branch)
}

fn bench_executor_throughput(c: &mut Criterion) {
    let program = bench_program();
    let mut group = c.benchmark_group("executor");
    group.throughput(Throughput::Elements(100_000));
    // All three stream benches measure steady state: the executors are
    // fast-forwarded past the compiled path's request-memo warm-up
    // (~1-2M records for this program) so the samples compare sustained
    // throughput. One-time costs are measured separately: translation in
    // `compile/cold_compile` below, and the memo warm-up is bounded by
    // the arena cap (a few MB, amortized over billions of suite records).
    group.bench_function("trace_generation_100k", |b| {
        let mut ex = program.executor(1);
        ex.fast_forward(2_000_000);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                if let Some(r) = ex.next_record() {
                    acc = sink(acc, &r);
                }
            }
            black_box(acc)
        })
    });
    // The compiled fast path over the same program: pull-based stepping
    // (what the timing frontend does) and batched internal iteration
    // (what coverage/density do). The acceptance bar is >= 3x the
    // reference `trace_generation_100k` above for the batched form.
    group.bench_function("compiled_next_record_100k", |b| {
        let mut ex = program.compiled().executor(1);
        ex.fast_forward(2_000_000);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                if let Some(r) = ex.next_record() {
                    acc = sink(acc, &r);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("compiled_batch_100k", |b| {
        let mut ex = program.compiled().executor(1);
        ex.fast_forward(2_000_000);
        b.iter(|| {
            let mut acc = 0u64;
            ex.for_each_record(100_000, |r| acc = sink(acc, &r));
            black_box(acc)
        })
    });
    group.finish();
}

/// One-time translation cost of `CompiledProgram::compile` — paid once
/// per workload spec per process (cached on the `Arc<Program>`), so it
/// only has to be cheap relative to a single simulation job.
fn bench_compile_cost(c: &mut Criterion) {
    let program = bench_program();
    let mut group = c.benchmark_group("compile");
    group.throughput(Throughput::Elements(program.stats().basic_blocks as u64));
    group.bench_function("cold_compile", |b| {
        b.iter(|| black_box(CompiledProgram::compile(&program)))
    });
    group.finish();
}

fn bench_airbtb_ops(c: &mut Criterion) {
    let program = bench_program();
    let mut btb = AirBtb::paper_config();
    // Pre-fill with a window of blocks.
    let blocks: Vec<BlockAddr> = program
        .executor(2)
        .take(50_000)
        .map(|r| r.pc.block())
        .collect();
    for &b in &blocks {
        btb.on_l1i_fill(b, program.branches_in_block(b));
    }
    let mut group = c.benchmark_group("airbtb");
    group.throughput(Throughput::Elements(blocks.len() as u64));
    group.bench_function("lookup_stream", |b| {
        b.iter(|| {
            for &blk in &blocks {
                black_box(btb.lookup(blk.base(), blk.instr(3)));
            }
        })
    });
    group.bench_function("fill_evict_stream", |b| {
        b.iter(|| {
            for &blk in &blocks {
                btb.on_l1i_fill(blk, program.branches_in_block(blk));
                btb.on_l1i_evict(blk);
            }
        })
    });
    group.finish();
}

fn bench_conventional_btb(c: &mut Criterion) {
    let mut btb = ConventionalBtb::baseline_1k().unwrap();
    let branches: Vec<ResolvedBranch> = (0..4096u64)
        .map(|i| ResolvedBranch {
            bb_start: VAddr::new(0x1000 + i * 24),
            pc: VAddr::new(0x1000 + i * 24 + 8),
            kind: BranchKind::Unconditional,
            taken: true,
            target: VAddr::new(0x9000 + i * 4),
        })
        .collect();
    let mut group = c.benchmark_group("conventional_btb");
    group.throughput(Throughput::Elements(branches.len() as u64));
    group.bench_function("update_lookup_stream", |b| {
        b.iter(|| {
            for r in &branches {
                btb.update(r);
                black_box(btb.lookup(r.bb_start, r.pc));
            }
        })
    });
    group.finish();
}

fn bench_shift_engine(c: &mut Criterion) {
    let program = bench_program();
    let mut history = ShiftHistory::new_32k();
    let accesses: Vec<BlockAddr> = {
        let mut v = Vec::new();
        let mut last = None;
        for r in program.executor(3).take(200_000) {
            let b = r.pc.block();
            if last != Some(b) {
                last = Some(b);
                v.push(b);
            }
        }
        v
    };
    for &b in &accesses {
        history.record(b);
    }
    let mut group = c.benchmark_group("shift");
    group.throughput(Throughput::Elements(accesses.len() as u64));
    group.bench_function("engine_replay", |b| {
        let mut engine = ShiftEngine::new();
        let mut out = Vec::with_capacity(32);
        b.iter(|| {
            for (i, &blk) in accesses.iter().enumerate() {
                out.clear();
                engine.on_access(&history, blk, i % 37 == 0, &mut out);
                black_box(&out);
            }
        })
    });
    group.bench_function("history_record", |b| {
        let mut h = ShiftHistory::new_32k();
        b.iter(|| {
            for &blk in &accesses {
                h.record(blk);
            }
        })
    });
    group.finish();
}

fn bench_direction_predictor(c: &mut Criterion) {
    let mut bp = HybridDirectionPredictor::new_16k();
    let pcs: Vec<VAddr> = (0..256u64).map(|i| VAddr::new(0x4000 + i * 12)).collect();
    let mut group = c.benchmark_group("direction");
    group.throughput(Throughput::Elements(pcs.len() as u64 * 16));
    group.bench_function("predict_update", |b| {
        b.iter(|| {
            for round in 0..16u64 {
                for (i, &pc) in pcs.iter().enumerate() {
                    let taken = !(i as u64 + round).is_multiple_of(3);
                    black_box(bp.predict(pc));
                    bp.update(pc, taken);
                }
            }
        })
    });
    group.finish();
}

fn bench_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("caches");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("set_assoc_lookup_insert", |b| {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(128, 4).unwrap();
        b.iter(|| {
            for i in 0..10_000u64 {
                let key = (i * 2654435761) % 4096;
                if cache.lookup(key).is_none() {
                    cache.insert(key, i);
                }
            }
        })
    });
    group.bench_function("l1i_access_fill", |b| {
        let mut l1i = L1ICache::new_32k();
        b.iter(|| {
            for i in 0..10_000u64 {
                let block = BlockAddr::from_raw((i * 7919) % 2048);
                if !l1i.access(block) {
                    l1i.fill(block);
                }
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_executor_throughput, bench_compile_cost, bench_airbtb_ops,
        bench_conventional_btb, bench_shift_engine, bench_direction_predictor,
        bench_caches
}

criterion_main!(micro);
