//! Experiment runners: one function per table/figure of the paper.
//!
//! Each figure is split into two pure halves that meet at the
//! [`SimEngine`](crate::SimEngine) cache:
//!
//! - a **job builder** (`fig8_jobs`, …) declaring the unique simulations
//!   the figure needs as content-keyed [`Job`]s;
//! - a **formatter** (`fig8`, …) that reads the cached results and lays
//!   out the same rows/series the paper reports as a [`Report`].
//!
//! Formatters fetch through the engine, so calling one directly still
//! works — missing jobs are computed on demand — but batching the jobs
//! first (`engine.run(&all_jobs(..))`, as the `all_experiments` binary
//! does) executes everything on the worker pool with each unique
//! simulation run exactly once across all figures: the 1K-baseline
//! coverage run is shared by Figures 8/9/10 and the L1-I table, and the
//! Baseline timing run is shared by Figures 2/6/7 and each figure's own
//! normalization row.

use std::sync::Arc;

use confluence_area::AreaModel;
use confluence_trace::{Program, Workload};
use confluence_uarch::MemParams;

use crate::cmp::TimingConfig;
use crate::coverage::CoverageOptions;
use crate::designs::DesignPoint;
use crate::engine::SimEngine;
use crate::job::{BtbSpec, CoverageJob, DensityJob, Job, TimingJob};
use crate::report::{f, pct, Report};
use crate::sweeps::{baseline_job, capacity_job, geometry_job, history_job};

use confluence_core::{AirBtbMode, DEFAULT_BUNDLES};
use confluence_prefetch::DEFAULT_HISTORY_ENTRIES;

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Reduced sizes for smoke tests and `--quick` runs. Preserves
    /// orderings; absolute numbers are noisier.
    pub quick: bool,
}

impl ExperimentConfig {
    /// Full-size configuration (used by the figure binaries).
    pub fn full() -> Self {
        ExperimentConfig { quick: false }
    }

    /// Reduced configuration.
    pub fn quick() -> Self {
        ExperimentConfig { quick: true }
    }

    /// Coverage-harness options for this configuration.
    pub fn coverage(&self) -> CoverageOptions {
        if self.quick {
            CoverageOptions {
                warmup_instrs: 300_000,
                measure_instrs: 500_000,
                ..Default::default()
            }
        } else {
            CoverageOptions {
                warmup_instrs: 1_500_000,
                measure_instrs: 2_500_000,
                ..Default::default()
            }
        }
    }

    /// Timing-simulation configuration.
    pub fn timing(&self) -> TimingConfig {
        if self.quick {
            TimingConfig {
                cores: 4,
                warmup_instrs: 120_000,
                measure_instrs: 120_000,
                mem: MemParams {
                    cores: 4,
                    ..MemParams::default()
                },
                ..TimingConfig::default()
            }
        } else {
            TimingConfig {
                cores: 8,
                warmup_instrs: 200_000,
                measure_instrs: 250_000,
                mem: MemParams {
                    cores: 16,
                    ..MemParams::default()
                },
                ..TimingConfig::default()
            }
        }
    }

    /// The timing configuration at an explicit core count. The LLC gets
    /// the smallest square tile mesh that accommodates the cores (the
    /// NoC models a square mesh, paper Table 1) — *uniformly*, so
    /// LLC-per-core scales consistently along a core sweep rather than
    /// jumping at the suite's native point. In quick mode the 4-core
    /// result is structurally identical to [`ExperimentConfig::timing`],
    /// so that sweep point shares cache keys with the timing figures.
    pub fn timing_with_cores(&self, cores: usize) -> TimingConfig {
        let base = self.timing();
        let mesh_dim = (cores as f64).sqrt().ceil() as usize;
        TimingConfig {
            cores,
            mem: MemParams {
                cores: mesh_dim * mesh_dim,
                ..base.mem
            },
            ..base
        }
    }

    /// Instructions walked by the Table 2 density characterization.
    pub fn density_instrs(&self) -> u64 {
        if self.quick {
            600_000
        } else {
            3_000_000
        }
    }

    /// Generates one workload's program under this configuration's
    /// scaling — the per-workload slice of
    /// [`ExperimentConfig::workloads`], for tests and tools that only
    /// need a subset without paying for all five programs.
    pub fn workload_program(&self, w: Workload) -> Arc<Program> {
        let mut spec = w.spec();
        if self.quick {
            spec.target_code_kb /= 4;
        }
        Arc::new(Program::generate(&spec).expect("preset specs are valid"))
    }

    /// Generates the five paper workloads (scaled down in quick mode),
    /// shared via `Arc` so every job reads one copy.
    pub fn workloads(&self) -> Vec<(Workload, Arc<Program>)> {
        Workload::ALL
            .into_iter()
            .map(|w| (w, self.workload_program(w)))
            .collect()
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// An AirBTB ablation coverage job on the Figure 8 ladder (3 entries
/// per bundle, 32 overflow entries). SHIFT is attached exactly when the
/// ablation level includes prefetch-driven fill.
fn ablation_job(workload: Workload, mode: AirBtbMode, cfg: &ExperimentConfig) -> CoverageJob {
    let opts = match mode {
        AirBtbMode::Prefetching | AirBtbMode::Full => cfg.coverage().with_shift(),
        _ => cfg.coverage(),
    };
    CoverageJob {
        workload,
        btb: BtbSpec::AirBtb {
            mode,
            bundles: DEFAULT_BUNDLES,
            bundle_entries: 3,
            overflow_entries: 32,
        },
        opts,
    }
}

/// The Figure 9 PhantomBTB comparison point.
fn phantom_job(workload: Workload, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Phantom { llc_latency: 26 },
        opts: cfg.coverage(),
    }
}

/// The Figure 9 16K-conventional comparison point.
fn large16k_job(workload: Workload, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Large16k,
        opts: cfg.coverage(),
    }
}

/// The Table 2 characterization run for one workload.
fn density_job(workload: Workload, cfg: &ExperimentConfig) -> DensityJob {
    DensityJob {
        workload,
        instrs: cfg.density_instrs(),
        seed: 3,
    }
}

/// A timing run of one design point (Figures 2, 6, 7).
fn timing_job(workload: Workload, design: DesignPoint, cfg: &ExperimentConfig) -> TimingJob {
    TimingJob {
        workload,
        design,
        cfg: cfg.timing(),
    }
}

/// The Baseline timing run shared by Figures 2, 6 and 7 (normalization
/// denominator and the Baseline row itself).
fn baseline_timing_job(workload: Workload, cfg: &ExperimentConfig) -> TimingJob {
    timing_job(workload, DesignPoint::Baseline, cfg)
}

const FIG1_CAPACITIES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Jobs for Figure 1.
pub fn fig1_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        for k in FIG1_CAPACITIES {
            jobs.push(capacity_job(*w, k * 1024, cfg).into());
        }
    }
    jobs
}

/// Figure 1: BTB MPKI as a function of BTB capacity (1K-32K entries).
pub fn fig1(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&fig1_jobs(engine, cfg));
    let mut report = Report::new(
        "Figure 1: BTB MPKI vs capacity (conventional BTB, kilo-entries)",
        &["workload", "1K", "2K", "4K", "8K", "16K", "32K"],
    );
    for (w, _) in engine.workloads() {
        let mut cells = vec![w.name().to_string()];
        for k in FIG1_CAPACITIES {
            let r = engine.coverage(&capacity_job(*w, k * 1024, cfg));
            cells.push(f(r.btb_mpki(), 1));
        }
        report.row(cells);
    }
    report
}

/// Jobs for Table 2.
pub fn table2_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    engine
        .workloads()
        .iter()
        .map(|(w, _)| density_job(*w, cfg).into())
        .collect()
}

/// The paper's published Table 2 `(static, dynamic)` densities, keyed by
/// workload so the reference column stays correct for any workload subset
/// or ordering.
fn table2_paper_densities(workload: Workload) -> (f64, f64) {
    match workload {
        Workload::OltpDb2 => (3.6, 1.4),
        Workload::OltpOracle => (2.5, 1.6),
        Workload::DssQueries => (3.4, 1.4),
        Workload::MediaStreaming => (3.5, 1.5),
        Workload::WebFrontend => (4.3, 1.5),
    }
}

/// Table 2: static and dynamic branch density in demand-fetched blocks.
pub fn table2(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&table2_jobs(engine, cfg));
    let mut report = Report::new(
        "Table 2: branch density per 64B block (measured vs paper)",
        &[
            "workload",
            "static",
            "static(paper)",
            "dynamic",
            "dynamic(paper)",
        ],
    );
    for (w, _) in engine.workloads() {
        let (stat, dynamic) = engine.density(&density_job(*w, cfg));
        let (paper_stat, paper_dyn) = table2_paper_densities(*w);
        report.row(vec![
            w.name().to_string(),
            f(stat, 2),
            f(paper_stat, 1),
            f(dynamic, 2),
            f(paper_dyn, 1),
        ]);
    }
    report
}

const FIG8_LADDER: [AirBtbMode; 4] = [
    AirBtbMode::CapacityOnly,
    AirBtbMode::SpatialLocality,
    AirBtbMode::Prefetching,
    AirBtbMode::Full,
];

/// Jobs for Figure 8 (the baseline coverage run plus the ablation ladder).
pub fn fig8_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        jobs.push(baseline_job(*w, cfg).into());
        for mode in FIG8_LADDER {
            jobs.push(ablation_job(*w, mode, cfg).into());
        }
    }
    jobs
}

/// Figure 8: breakdown of AirBTB miss-coverage benefits over the 1K-entry
/// conventional BTB (Capacity, +Spatial Locality, +Prefetching,
/// +Block-Based Organization).
pub fn fig8(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&fig8_jobs(engine, cfg));
    let mut report = Report::new(
        "Figure 8: AirBTB coverage breakdown vs 1K conventional BTB \
         (cumulative factors; paper avg: 18% / +57% / +7% / +11% = 93%)",
        &[
            "workload",
            "capacity",
            "+spatial",
            "+prefetch",
            "+block org (total)",
        ],
    );
    for (w, _) in engine.workloads() {
        let rb = engine.coverage(&baseline_job(*w, cfg));
        let mut cells = vec![w.name().to_string()];
        for mode in FIG8_LADDER {
            let r = engine.coverage(&ablation_job(*w, mode, cfg));
            cells.push(pct(r.btb_miss_coverage_vs(&rb)));
        }
        report.row(cells);
    }
    report
}

/// Jobs for Figure 9.
pub fn fig9_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        jobs.push(baseline_job(*w, cfg).into());
        jobs.push(phantom_job(*w, cfg).into());
        jobs.push(geometry_job(*w, (DEFAULT_BUNDLES, 3, 32), cfg).into());
        jobs.push(large16k_job(*w, cfg).into());
    }
    jobs
}

/// Figure 9: BTB misses eliminated vs the 1K-entry conventional BTB for
/// PhantomBTB, AirBTB (Confluence), and a 16K conventional BTB.
pub fn fig9(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&fig9_jobs(engine, cfg));
    let mut report = Report::new(
        "Figure 9: BTB miss coverage vs 1K conventional BTB \
         (paper avg: PhantomBTB 61%, AirBTB 93%, 16K BTB 95%)",
        &["workload", "PhantomBTB", "AirBTB", "16K BTB"],
    );
    for (w, _) in engine.workloads() {
        let rb = engine.coverage(&baseline_job(*w, cfg));
        let rp = engine.coverage(&phantom_job(*w, cfg));
        let ra = engine.coverage(&geometry_job(*w, (DEFAULT_BUNDLES, 3, 32), cfg));
        let r16 = engine.coverage(&large16k_job(*w, cfg));
        report.row(vec![
            w.name().to_string(),
            pct(rp.btb_miss_coverage_vs(&rb)),
            pct(ra.btb_miss_coverage_vs(&rb)),
            pct(r16.btb_miss_coverage_vs(&rb)),
        ]);
    }
    report
}

const FIG10_CONFIGS: [(usize, usize); 4] = [(3, 0), (3, 32), (4, 0), (4, 32)];

/// Jobs for Figure 10.
pub fn fig10_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        jobs.push(baseline_job(*w, cfg).into());
        for (b, ob) in FIG10_CONFIGS {
            jobs.push(geometry_job(*w, (DEFAULT_BUNDLES, b, ob), cfg).into());
        }
    }
    jobs
}

/// Figure 10: AirBTB sensitivity to bundle size (B) and overflow buffer
/// entries (OB).
pub fn fig10(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&fig10_jobs(engine, cfg));
    let mut report = Report::new(
        "Figure 10: AirBTB miss coverage for (B, OB) configurations \
         (paper: B:3/OB:0 can be negative; B:3/OB:32 = 93%; B:4/OB:32 = +2%)",
        &["workload", "B:3,OB:0", "B:3,OB:32", "B:4,OB:0", "B:4,OB:32"],
    );
    for (w, _) in engine.workloads() {
        let rb = engine.coverage(&baseline_job(*w, cfg));
        let mut cells = vec![w.name().to_string()];
        for (b, ob) in FIG10_CONFIGS {
            let r = engine.coverage(&geometry_job(*w, (DEFAULT_BUNDLES, b, ob), cfg));
            cells.push(pct(r.btb_miss_coverage_vs(&rb)));
        }
        report.row(cells);
    }
    report
}

/// Jobs for the L1-I coverage table.
pub fn l1i_coverage_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        jobs.push(baseline_job(*w, cfg).into());
        jobs.push(history_job(*w, DEFAULT_HISTORY_ENTRIES, cfg).into());
    }
    jobs
}

/// Supplementary: SHIFT's L1-I miss coverage (paper Section 5.1 cites
/// ~85-90% of L1-I misses eliminated).
pub fn l1i_coverage(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&l1i_coverage_jobs(engine, cfg));
    let mut report = Report::new(
        "SHIFT L1-I miss coverage vs no prefetching (paper: ~90%)",
        &["workload", "base L1-I MPKI", "SHIFT L1-I MPKI", "coverage"],
    );
    for (w, _) in engine.workloads() {
        let rb = engine.coverage(&baseline_job(*w, cfg));
        let rs = engine.coverage(&history_job(*w, DEFAULT_HISTORY_ENTRIES, cfg));
        report.row(vec![
            w.name().to_string(),
            f(rb.l1i_mpki(), 1),
            f(rs.l1i_mpki(), 1),
            pct(rs.l1i_miss_coverage_vs(&rb)),
        ]);
    }
    report
}

/// The design points plotted in Figure 2 (conventional mechanisms only).
pub const FIG2_DESIGNS: [DesignPoint; 6] = [
    DesignPoint::Baseline,
    DesignPoint::Fdp,
    DesignPoint::PhantomFdp,
    DesignPoint::TwoLevelFdp,
    DesignPoint::TwoLevelShift,
    DesignPoint::Ideal,
];

/// The design points plotted in Figure 6 (Figure 2 + Confluence).
pub const FIG6_DESIGNS: [DesignPoint; 7] = [
    DesignPoint::Baseline,
    DesignPoint::Fdp,
    DesignPoint::PhantomFdp,
    DesignPoint::TwoLevelFdp,
    DesignPoint::TwoLevelShift,
    DesignPoint::Confluence,
    DesignPoint::Ideal,
];

/// Jobs for a perf/area figure over `designs` (always including the
/// Baseline normalization run — which *is* the Baseline row's run).
pub fn fig_perf_area_jobs(
    engine: &SimEngine,
    designs: &[DesignPoint],
    cfg: &ExperimentConfig,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        jobs.push(baseline_timing_job(*w, cfg).into());
        for &d in designs {
            jobs.push(timing_job(*w, d, cfg).into());
        }
    }
    jobs
}

/// Figures 2 and 6: relative performance and relative per-core area of the
/// frontend designs, normalized to the baseline (geometric mean across
/// workloads).
///
/// The Baseline normalization run and the Baseline row share one cache
/// key, so the design that used to be simulated twice per workload is now
/// structurally simulated once.
pub fn fig_perf_area(
    engine: &SimEngine,
    designs: &[DesignPoint],
    cfg: &ExperimentConfig,
    caption: &str,
) -> Report {
    engine.run(&fig_perf_area_jobs(engine, designs, cfg));
    let mut report = Report::new(
        caption.to_string(),
        &[
            "design",
            "rel. performance",
            "rel. area",
            "btb MPKI",
            "L1-I MPKI",
        ],
    );
    let area = AreaModel::paper();
    let base_profile = DesignPoint::Baseline.storage_profile();

    // Baseline IPC per workload for normalization — the same cached runs
    // back the Baseline row below.
    let base_ipc: Vec<f64> = engine
        .workloads()
        .iter()
        .map(|(w, _)| engine.timing(&baseline_timing_job(*w, cfg)).ipc())
        .collect();

    for &d in designs {
        let mut rel_product = 1.0;
        let mut btb_mpki = 0.0;
        let mut l1i_mpki = 0.0;
        for (i, (w, _)) in engine.workloads().iter().enumerate() {
            let r = engine.timing(&timing_job(*w, d, cfg));
            rel_product *= r.ipc() / base_ipc[i];
            btb_mpki += r.btb_mpki();
            l1i_mpki += r.l1i_mpki();
        }
        let n = engine.workloads().len() as f64;
        let geo = rel_product.powf(1.0 / n);
        let rel_area = area.relative_area(&d.storage_profile(), &base_profile);
        report.row(vec![
            d.name().to_string(),
            f(geo, 3),
            f(rel_area, 3),
            f(btb_mpki / n, 1),
            f(l1i_mpki / n, 1),
        ]);
    }
    report
}

/// Figure 2 wrapper.
pub fn fig2(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    fig_perf_area(
        engine,
        &FIG2_DESIGNS,
        cfg,
        "Figure 2: relative performance & area of conventional frontends \
         (paper: FDP 1.05, PhantomBTB+FDP 1.09, 2LevelBTB+SHIFT 1.22, Ideal 1.35)",
    )
}

/// Figure 6 wrapper.
pub fn fig6(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    fig_perf_area(
        engine,
        &FIG6_DESIGNS,
        cfg,
        "Figure 6: relative performance & area including Confluence \
         (paper: Confluence 1.30 at ~1.01x area = 85% of Ideal's improvement)",
    )
}

const FIG7_DESIGNS: [DesignPoint; 4] = [
    DesignPoint::PhantomShift,
    DesignPoint::TwoLevelShift,
    DesignPoint::Confluence,
    DesignPoint::IdealBtbShift,
];

/// Jobs for Figure 7.
pub fn fig7_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (w, _) in engine.workloads() {
        jobs.push(baseline_timing_job(*w, cfg).into());
        for d in FIG7_DESIGNS {
            jobs.push(timing_job(*w, d, cfg).into());
        }
    }
    jobs
}

/// Figure 7: per-workload speedup of BTB designs (all coupled with SHIFT)
/// over the 1K-entry conventional BTB + SHIFT.
pub fn fig7(engine: &SimEngine, cfg: &ExperimentConfig) -> Report {
    engine.run(&fig7_jobs(engine, cfg));
    let mut report = Report::new(
        "Figure 7: speedup of BTB designs (each coupled with SHIFT) over the \
         1K-entry conventional-BTB baseline \
         (paper: Phantom lowest; 2Level = 51% and Confluence = 90% of IdealBTB's speedup)",
        &[
            "workload",
            "PhantomBTB+SHIFT",
            "2LevelBTB+SHIFT",
            "Confluence",
            "IdealBTB+SHIFT",
        ],
    );
    for (w, _) in engine.workloads() {
        let base = engine.timing(&baseline_timing_job(*w, cfg));
        let mut cells = vec![w.name().to_string()];
        for d in FIG7_DESIGNS {
            let r = engine.timing(&timing_job(*w, d, cfg));
            cells.push(f(r.speedup_over(&base), 3));
        }
        report.row(cells);
    }
    report
}

/// Section 4.2 storage/area accounting table (pure arithmetic, no jobs).
pub fn area_table() -> Report {
    let mut report = Report::new(
        "Storage & area accounting (paper Section 4.2; CACTI-lite @40nm)",
        &[
            "structure",
            "dedicated KB",
            "LLC-resident KB",
            "per-core mm2",
            "rel. area",
        ],
    );
    let model = AreaModel::paper();
    let base = DesignPoint::Baseline.storage_profile();
    for d in [
        DesignPoint::Baseline,
        DesignPoint::PhantomFdp,
        DesignPoint::TwoLevelFdp,
        DesignPoint::TwoLevelShift,
        DesignPoint::Confluence,
        DesignPoint::IdealBtbShift,
    ] {
        let p = d.storage_profile();
        report.row(vec![
            d.name().to_string(),
            f(p.dedicated_kib(), 1),
            f(p.llc_resident_bytes as f64 / 1024.0, 0),
            f(model.frontend_mm2(&p), 3),
            f(model.relative_area(&p, &base), 4),
        ]);
    }
    report
}

/// Every job any figure or table in the suite needs, in one batch. The
/// engine collapses the overlap (coverage baselines shared by Figures
/// 8/9/10 + L1-I, timing runs shared by Figures 2/6/7), so one
/// `engine.run(&all_jobs(..))` executes each unique simulation exactly
/// once.
pub fn all_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    jobs.extend(fig1_jobs(engine, cfg));
    jobs.extend(table2_jobs(engine, cfg));
    jobs.extend(fig8_jobs(engine, cfg));
    jobs.extend(fig9_jobs(engine, cfg));
    jobs.extend(fig10_jobs(engine, cfg));
    jobs.extend(l1i_coverage_jobs(engine, cfg));
    jobs.extend(fig_perf_area_jobs(engine, &FIG2_DESIGNS, cfg));
    jobs.extend(fig_perf_area_jobs(engine, &FIG6_DESIGNS, cfg));
    jobs.extend(fig7_jobs(engine, cfg));
    jobs.extend(crate::sweeps::all_sweep_jobs(engine, cfg));
    jobs
}

/// Number of distinct keys in a job list (what a fully shared run
/// executes).
pub fn unique_jobs(jobs: &[Job]) -> usize {
    jobs.iter().collect::<std::collections::HashSet<_>>().len()
}

/// Every report of the full suite, in the presentation order the
/// `all_experiments` binary prints. Batch [`all_jobs`] through the engine
/// first so the formatters here read a warm cache; the warm-store
/// determinism test renders this twice (fresh engine, same store) and
/// asserts byte-identical output with zero executions.
pub fn suite_reports(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Report> {
    let mut reports = vec![
        fig1(engine, cfg),
        table2(engine, cfg),
        fig8(engine, cfg),
        fig9(engine, cfg),
        fig10(engine, cfg),
        l1i_coverage(engine, cfg),
        area_table(),
        fig2(engine, cfg),
        fig6(engine, cfg),
        fig7(engine, cfg),
    ];
    reports.extend(crate::sweeps::sweep_reports(engine, cfg));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_engine() -> (SimEngine, ExperimentConfig) {
        // Two workloads keep test time sane.
        let cfg = ExperimentConfig::quick();
        let workloads = cfg.workloads().into_iter().take(2).collect();
        (SimEngine::new(workloads), cfg)
    }

    #[test]
    fn fig1_mpki_declines_with_capacity() {
        let (engine, cfg) = quick_engine();
        let r = fig1(&engine, &cfg);
        assert_eq!(r.len(), engine.workloads().len());
        let table = r.to_csv();
        // Parse first data row and check monotone non-increase 1K -> 32K.
        let row = table.lines().nth(2).unwrap();
        let vals: Vec<f64> = row.split(',').skip(1).map(|v| v.parse().unwrap()).collect();
        assert!(
            vals[0] >= vals[5],
            "1K {} should exceed 32K {}",
            vals[0],
            vals[5]
        );
    }

    #[test]
    fn table2_produces_all_rows() {
        let (engine, cfg) = quick_engine();
        let r = table2(&engine, &cfg);
        assert_eq!(r.len(), engine.workloads().len());
    }

    #[test]
    fn fig9_airbtb_beats_phantom() {
        let (engine, cfg) = quick_engine();
        let r = fig9(&engine, &cfg);
        let csv = r.to_csv();
        for line in csv.lines().skip(2) {
            let cells: Vec<&str> = line.split(',').collect();
            let phantom: f64 = cells[1].trim_end_matches('%').parse().unwrap();
            let air: f64 = cells[2].trim_end_matches('%').parse().unwrap();
            assert!(
                air > phantom,
                "AirBTB {air}% must beat PhantomBTB {phantom}% ({line})"
            );
        }
    }

    #[test]
    fn area_table_matches_paper_budgets() {
        let r = area_table();
        let csv = r.to_csv();
        let conf_row = csv.lines().find(|l| l.starts_with("Confluence")).unwrap();
        let cells: Vec<&str> = conf_row.split(',').collect();
        let rel: f64 = cells[4].parse().unwrap();
        assert!((1.003..1.02).contains(&rel), "Confluence rel. area {rel}");
    }

    #[test]
    fn coverage_figures_share_the_baseline_run() {
        let (engine, cfg) = quick_engine();
        let n = engine.workloads().len() as u64;
        fig8(&engine, &cfg);
        let after_fig8 = engine.stats().executed;
        // Figure 9 adds Phantom + 16K per workload; its baseline run and
        // its full-AirBTB run are both cache hits from Figure 8.
        fig9(&engine, &cfg);
        let after_fig9 = engine.stats().executed;
        assert_eq!(
            after_fig9 - after_fig8,
            2 * n,
            "fig9 must only add 2 new runs/workload"
        );
        // Figure 10 shares the baseline and the (3,32) point with Fig 8.
        fig10(&engine, &cfg);
        assert_eq!(engine.stats().executed - after_fig9, 3 * n);
        // The L1-I table shares the baseline; only +SHIFT is new.
        let before = engine.stats().executed;
        l1i_coverage(&engine, &cfg);
        assert_eq!(engine.stats().executed - before, n);
    }

    #[test]
    fn all_jobs_overlap_is_collapsed() {
        let (engine, cfg) = quick_engine();
        let jobs = all_jobs(&engine, &cfg);
        let unique = unique_jobs(&jobs);
        assert!(
            unique < jobs.len(),
            "figures must overlap: {unique} unique of {} requested",
            jobs.len()
        );
    }
}
