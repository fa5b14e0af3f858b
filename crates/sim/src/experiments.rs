//! Experiment runners: one function per table/figure of the paper.
//!
//! Each figure is one **formatter** (`fig8`, …): it reads the results
//! it needs through [`Results`] and lays out the rows the paper reports
//! as a [`Report`]. The formatter is also the figure's job list:
//! [`plan`] runs it against a recorder and returns every content-keyed
//! [`Job`] it read, so no figure names its jobs twice.
//!
//! A binary plans its reports, runs the batch on the engine's worker
//! pool (`engine.run(&all_jobs(..))` for the whole suite), then formats
//! from the warm cache. Each unique simulation runs exactly once across
//! all figures: the 1K-baseline coverage run is shared by Figures
//! 8/9/10 and the L1-I table, and the Baseline timing run is shared by
//! Figures 2/6/7 and each figure's own normalization row. A formatter
//! called on a cold [`SimEngine`] still works: each missing result is
//! computed on demand, one at a time.

use std::cell::RefCell;
use std::sync::Arc;

use confluence_area::AreaModel;
use confluence_trace::{Program, Workload};
use confluence_uarch::MemParams;

use crate::cmp::{TimingConfig, TimingResult};
use crate::coverage::{CoverageOptions, CoverageResult};
use crate::designs::DesignPoint;
use crate::engine::{Results, SimEngine};
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

/// Figure 1: BTB MPKI as a function of BTB capacity (1K-32K entries).
pub fn fig1(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new(
        "Figure 1: BTB MPKI vs capacity (conventional BTB, kilo-entries)",
        &["workload", "1K", "2K", "4K", "8K", "16K", "32K"],
    );
    for w in results.workload_list() {
        let mut cells = vec![w.name().to_string()];
        for k in FIG1_CAPACITIES {
            let r = results.coverage(&capacity_job(w, k * 1024, cfg));
            cells.push(f(r.btb_mpki(), 1));
        }
        report.row(cells);
    }
    report
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
pub fn table2(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
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
    for w in results.workload_list() {
        let (stat, dynamic) = results.density(&density_job(w, cfg));
        let (paper_stat, paper_dyn) = table2_paper_densities(w);
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

/// Figure 8: breakdown of AirBTB miss-coverage benefits over the 1K-entry
/// conventional BTB (Capacity, +Spatial Locality, +Prefetching,
/// +Block-Based Organization).
pub fn fig8(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
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
    for w in results.workload_list() {
        let rb = results.coverage(&baseline_job(w, cfg));
        let mut cells = vec![w.name().to_string()];
        for mode in FIG8_LADDER {
            let r = results.coverage(&ablation_job(w, mode, cfg));
            cells.push(pct(r.btb_miss_coverage_vs(&rb)));
        }
        report.row(cells);
    }
    report
}

/// Figure 9: BTB misses eliminated vs the 1K-entry conventional BTB for
/// PhantomBTB, AirBTB (Confluence), and a 16K conventional BTB.
pub fn fig9(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new(
        "Figure 9: BTB miss coverage vs 1K conventional BTB \
         (paper avg: PhantomBTB 61%, AirBTB 93%, 16K BTB 95%)",
        &["workload", "PhantomBTB", "AirBTB", "16K BTB"],
    );
    for w in results.workload_list() {
        let rb = results.coverage(&baseline_job(w, cfg));
        let rp = results.coverage(&phantom_job(w, cfg));
        let ra = results.coverage(&geometry_job(w, (DEFAULT_BUNDLES, 3, 32), cfg));
        let r16 = results.coverage(&large16k_job(w, cfg));
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

/// Figure 10: AirBTB sensitivity to bundle size (B) and overflow buffer
/// entries (OB).
pub fn fig10(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new(
        "Figure 10: AirBTB miss coverage for (B, OB) configurations \
         (paper: B:3/OB:0 can be negative; B:3/OB:32 = 93%; B:4/OB:32 = +2%)",
        &["workload", "B:3,OB:0", "B:3,OB:32", "B:4,OB:0", "B:4,OB:32"],
    );
    for w in results.workload_list() {
        let rb = results.coverage(&baseline_job(w, cfg));
        let mut cells = vec![w.name().to_string()];
        for (b, ob) in FIG10_CONFIGS {
            let r = results.coverage(&geometry_job(w, (DEFAULT_BUNDLES, b, ob), cfg));
            cells.push(pct(r.btb_miss_coverage_vs(&rb)));
        }
        report.row(cells);
    }
    report
}

/// Supplementary: SHIFT's L1-I miss coverage (paper Section 5.1 cites
/// ~85-90% of L1-I misses eliminated).
pub fn l1i_coverage(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new(
        "SHIFT L1-I miss coverage vs no prefetching (paper: ~90%)",
        &["workload", "base L1-I MPKI", "SHIFT L1-I MPKI", "coverage"],
    );
    for w in results.workload_list() {
        let rb = results.coverage(&baseline_job(w, cfg));
        let rs = results.coverage(&history_job(w, DEFAULT_HISTORY_ENTRIES, cfg));
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

/// Figures 2 and 6: relative performance and relative per-core area of the
/// frontend designs, normalized to the baseline (geometric mean across
/// workloads).
///
/// The Baseline normalization run and the Baseline row share one cache
/// key, so the design that used to be simulated twice per workload is now
/// structurally simulated once.
pub fn fig_perf_area(
    results: &dyn Results,
    designs: &[DesignPoint],
    cfg: &ExperimentConfig,
    caption: &str,
) -> Report {
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

    // The reads are the figure's batch, in the order the benchmark runs
    // it (`all_jobs_is_pinned`): per workload the Baseline run (the
    // normalization denominator, and the same cached run as the Baseline
    // row), then every design's run.
    let runs: Vec<(f64, Vec<Arc<TimingResult>>)> = results
        .workload_list()
        .into_iter()
        .map(|w| {
            let base_ipc = results.timing(&baseline_timing_job(w, cfg)).ipc();
            let runs = designs
                .iter()
                .map(|&d| results.timing(&timing_job(w, d, cfg)));
            (base_ipc, runs.collect())
        })
        .collect();

    for (i, &d) in designs.iter().enumerate() {
        let mut rel_product = 1.0;
        let mut btb_mpki = 0.0;
        let mut l1i_mpki = 0.0;
        for (base_ipc, design_runs) in &runs {
            let r = &design_runs[i];
            rel_product *= r.ipc() / base_ipc;
            btb_mpki += r.btb_mpki();
            l1i_mpki += r.l1i_mpki();
        }
        let n = runs.len() as f64;
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
pub fn fig2(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
    fig_perf_area(
        results,
        &FIG2_DESIGNS,
        cfg,
        "Figure 2: relative performance & area of conventional frontends \
         (paper: FDP 1.05, PhantomBTB+FDP 1.09, 2LevelBTB+SHIFT 1.22, Ideal 1.35)",
    )
}

/// Figure 6 wrapper.
pub fn fig6(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
    fig_perf_area(
        results,
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

/// Figure 7: per-workload speedup of BTB designs (all coupled with SHIFT)
/// over the 1K-entry conventional BTB + SHIFT.
pub fn fig7(results: &dyn Results, cfg: &ExperimentConfig) -> Report {
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
    for w in results.workload_list() {
        let base = results.timing(&baseline_timing_job(w, cfg));
        let mut cells = vec![w.name().to_string()];
        for d in FIG7_DESIGNS {
            let r = results.timing(&timing_job(w, d, cfg));
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

/// The batch `report` needs: every job it reads, in read order with
/// repeats kept. `report` runs against a recorder that logs each read
/// and answers it with an empty result (zero counters, zero densities,
/// a timing run with no cores), so its output is meaningless and is
/// dropped. Run the batch and `report` then formats from a warm cache.
/// That holds because a report's reads depend only on its
/// configuration, never on the results it reads.
pub fn plan<R>(workloads: &[Workload], report: impl FnOnce(&dyn Results) -> R) -> Vec<Job> {
    let recorder = Recorder {
        workloads: workloads.to_vec(),
        reads: RefCell::default(),
    };
    report(&recorder);
    recorder.reads.into_inner()
}

/// The [`Results`] behind [`plan`].
struct Recorder {
    workloads: Vec<Workload>,
    reads: RefCell<Vec<Job>>,
}

impl Recorder {
    fn log(&self, job: impl Into<Job>) {
        self.reads.borrow_mut().push(job.into());
    }
}

impl Results for Recorder {
    fn workload_list(&self) -> Vec<Workload> {
        self.workloads.clone()
    }

    fn coverage(&self, job: &CoverageJob) -> CoverageResult {
        self.log(job.clone());
        CoverageResult::default()
    }

    fn timing(&self, job: &TimingJob) -> Arc<TimingResult> {
        self.log(job.clone());
        Arc::new(TimingResult {
            design: job.design,
            per_core: Vec::new(),
            total_cycles: 0,
        })
    }

    fn density(&self, job: &DensityJob) -> (f64, f64) {
        self.log(job.clone());
        (0.0, 0.0)
    }
}

/// Every job any figure, table or sweep in the suite needs, in one
/// batch: [`plan`] over [`suite_reports`]. The engine collapses the
/// overlap (coverage baselines shared by Figures 8/9/10 + L1-I, timing
/// runs shared by Figures 2/6/7), so one `engine.run(&all_jobs(..))`
/// executes each unique simulation exactly once.
pub fn all_jobs(engine: &SimEngine, cfg: &ExperimentConfig) -> Vec<Job> {
    plan(&engine.workload_list(), |results| {
        suite_reports(results, cfg)
    })
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
pub fn suite_reports(results: &dyn Results, cfg: &ExperimentConfig) -> Vec<Report> {
    let mut reports = vec![
        fig1(results, cfg),
        table2(results, cfg),
        fig8(results, cfg),
        fig9(results, cfg),
        fig10(results, cfg),
        l1i_coverage(results, cfg),
        area_table(),
        fig2(results, cfg),
        fig6(results, cfg),
        fig7(results, cfg),
    ];
    reports.extend(crate::sweeps::sweep_reports(results, cfg));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_store::wire::fnv1a;
    use confluence_store::Encode;
    use confluence_trace::WorkloadSpec;

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
    fn plan_returns_reads_in_order_with_repeats() {
        let cfg = ExperimentConfig::quick();
        let coverage = baseline_job(Workload::OltpDb2, &cfg);
        let timing = baseline_timing_job(Workload::OltpDb2, &cfg);
        let jobs = plan(&[Workload::OltpDb2], |results| {
            assert_eq!(results.workload_list(), [Workload::OltpDb2]);
            results.coverage(&coverage);
            results.timing(&timing);
            results.coverage(&coverage);
        });
        let coverage = Job::from(coverage);
        assert_eq!(jobs, [coverage.clone(), timing.into(), coverage]);
    }

    /// `all_jobs` defines the batches the repository benchmark runs, so a
    /// change to it must be deliberate: its length and the FNV-1a of its
    /// concatenated job encodings are pinned at both scales. The list
    /// reads only the engine's workload names, so one tiny program
    /// stands in for all five.
    #[test]
    fn all_jobs_is_pinned() {
        let program = Arc::new(Program::generate(&WorkloadSpec::tiny()).expect("valid spec"));
        let workloads = Workload::ALL.map(|w| (w, Arc::clone(&program)));
        let engine = SimEngine::new(workloads.to_vec());
        for (cfg, hash) in [
            (ExperimentConfig::quick(), 0x29f6_8d27_9f0f_ca24),
            (ExperimentConfig::full(), 0xb5e9_8f5e_d4a9_548e),
        ] {
            let jobs = all_jobs(&engine, &cfg);
            let bytes: Vec<u8> = jobs.iter().flat_map(Encode::to_bytes).collect();
            assert_eq!((jobs.len(), fnv1a(&bytes)), (390, hash), "{cfg:?}");
        }
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
