//! Declarative sensitivity-sweep studies over the experiment engine.
//!
//! The paper's headline claims rest on *sensitivity* behavior — how the
//! unified instruction supply holds up as SHIFT history capacity, AirBTB
//! bundle geometry, and core count vary — but the figure runners only
//! reproduce the published points. A [`SweepSpec`] names a **study**: a
//! [`SweepAxis`] (which parameter is swept, and its point list) whose
//! report reads ordinary content-keyed jobs, one per workload and point.
//! Because points reuse the suite's native configurations wherever they
//! coincide (the 32K-entry SHIFT history point *is* the L1-I table's
//! run, the 512-bundle geometry points *are* Figure 10's, and in quick
//! mode the 4-core scaling point *is* Figures 2/6/7's Baseline), the
//! engine cache and the persistent store dedupe overlapping points
//! across studies and figures.
//!
//! Studies have the same shape as the figures in [`crate::experiments`]:
//! [`SweepSpec::report`] is the one formatter, reading through
//! [`Results`], and [`crate::experiments::plan`] derives a study's batch
//! from it. The `sweeps` binary lists and runs studies from
//! [`registry`]; `all_experiments` batches every study alongside the
//! figures.
//!
//! Adding a study: push a `SweepSpec` in [`registry`]. A new axis
//! variant adds one arm each to [`SweepAxis::point_labels`] and
//! [`SweepSpec::report`], plus its `--list` name in
//! [`SweepAxis::parameter`]. The golden harness in `tests/sweeps.rs`
//! pins each registered study's quick-mode report — regenerate with
//! `CONFLUENCE_REGOLD=1 cargo test`.
//!
//! The per-point job constructors ([`history_job`], [`scaling_job`],
//! [`capacity_job`], ...) are public: the `confluence-search` subsystem
//! maps its search-space points through the same constructors, so a
//! search probe and the matching sweep point share one content key (and
//! therefore one cached simulation).

use confluence_core::AirBtbMode;
use confluence_trace::Workload;

use crate::coverage::CoverageOptions;
use crate::designs::DesignPoint;
use crate::engine::Results;
use crate::experiments::ExperimentConfig;
use crate::job::{BtbSpec, CoverageJob, TimingJob};
use crate::report::{f, pct, Report};

/// The designs compared at every core count by the core-scaling study:
/// the paper's lower bound, its contribution, and its upper bound.
pub const SCALING_DESIGNS: [DesignPoint; 3] = [
    DesignPoint::Baseline,
    DesignPoint::Confluence,
    DesignPoint::Ideal,
];

/// The swept parameter of a study, with its point list.
///
/// Each variant's arm of [`SweepSpec::report`] reads one job per
/// `(workload, point)` pair and formats the study's metric from it; the
/// variants deliberately reuse the figure suite's configurations at
/// coinciding points so the cache collapses the overlap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepAxis {
    /// SHIFT history capacity in entries, on the baseline BTB + SHIFT
    /// coverage run. Metric: L1-I miss coverage vs the no-prefetch
    /// baseline.
    HistoryEntries(Vec<usize>),
    /// AirBTB bundle geometry `(bundles, entries_per_bundle,
    /// overflow_entries)` in Full mode with SHIFT attached. Metric: BTB
    /// miss coverage vs the 1K conventional baseline.
    BundleGeometry(Vec<(usize, usize, usize)>),
    /// CMP core count, timing-simulated for every [`SCALING_DESIGNS`]
    /// design. Metric: per-core IPC.
    Cores(Vec<usize>),
    /// Conventional-BTB capacity in entries (Figure 1's geometry at
    /// arbitrary sizes). Metric: BTB MPKI.
    BtbCapacity(Vec<usize>),
    /// L1-I capacity in kilobytes, on the baseline (no-prefetch) coverage
    /// run. Metric: L1-I demand MPKI.
    L1iSizeKb(Vec<usize>),
    /// SHIFT stream lookahead depth in blocks, on the baseline BTB +
    /// SHIFT coverage run. Metric: L1-I miss coverage vs the no-prefetch
    /// baseline.
    ShiftLookahead(Vec<usize>),
}

impl SweepAxis {
    /// Human-readable labels of the axis points, in sweep order (one
    /// report column per label).
    pub fn point_labels(&self) -> Vec<String> {
        match self {
            SweepAxis::HistoryEntries(points) => {
                points.iter().map(|&n| format!("{}", Kilo(n))).collect()
            }
            SweepAxis::BundleGeometry(points) => points
                .iter()
                .map(|&(b, e, ob)| format!("{b}x{e}+{ob}"))
                .collect(),
            SweepAxis::Cores(points) => points.iter().map(|&c| format!("{c}c")).collect(),
            SweepAxis::BtbCapacity(points) => {
                points.iter().map(|&n| format!("{}", Kilo(n))).collect()
            }
            SweepAxis::L1iSizeKb(points) => points.iter().map(|&kb| format!("{kb}KB")).collect(),
            SweepAxis::ShiftLookahead(points) => points.iter().map(|&d| format!("d{d}")).collect(),
        }
    }

    /// Number of points along the axis.
    pub fn len(&self) -> usize {
        self.point_labels().len()
    }

    /// True when the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-word description of the swept parameter (for `--list`).
    pub fn parameter(&self) -> &'static str {
        match self {
            SweepAxis::HistoryEntries(_) => "shift-history-entries",
            SweepAxis::BundleGeometry(_) => "airbtb-bundle-geometry",
            SweepAxis::Cores(_) => "cmp-core-count",
            SweepAxis::BtbCapacity(_) => "conventional-btb-entries",
            SweepAxis::L1iSizeKb(_) => "l1i-capacity-kb",
            SweepAxis::ShiftLookahead(_) => "shift-lookahead-blocks",
        }
    }
}

/// `1024 -> "1K"`, `512 -> "512"`, `131072 -> "128K"`.
struct Kilo(usize);

impl std::fmt::Display for Kilo {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(fm, "{}K", self.0 / 1024)
        } else {
            write!(fm, "{}", self.0)
        }
    }
}

/// A named sensitivity study: an axis × the suite's workloads, riding the
/// shared engine cache.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Registry name (`sweeps --study <name>`).
    pub name: &'static str,
    /// Report caption.
    pub caption: &'static str,
    /// The swept parameter and its points.
    pub axis: SweepAxis,
}

/// The baseline coverage run sweeps normalize against — the exact job
/// Figures 8/9/10 and the L1-I table share.
pub fn baseline_job(workload: Workload, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: cfg.coverage(),
    }
}

/// Baseline BTB + SHIFT with an explicit history capacity. At the default
/// capacity this is byte-for-byte the L1-I table's `+SHIFT` job.
pub fn history_job(workload: Workload, entries: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: CoverageOptions {
            history_entries: entries,
            ..cfg.coverage().with_shift()
        },
    }
}

/// Full-mode AirBTB + SHIFT at an explicit bundle geometry. At 512
/// bundles this aliases Figure 10's `(entries, overflow)` grid points.
pub fn geometry_job(
    workload: Workload,
    (bundles, bundle_entries, overflow_entries): (usize, usize, usize),
    cfg: &ExperimentConfig,
) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::AirBtb {
            mode: AirBtbMode::Full,
            bundles,
            bundle_entries,
            overflow_entries,
        },
        opts: cfg.coverage().with_shift(),
    }
}

/// A timing run of `design` at an explicit core count (the LLC mesh
/// scales uniformly with the cores — see
/// [`ExperimentConfig::timing_with_cores`]). In quick mode the 4-core
/// point is the exact job Figures 2/6/7 run, so it is always a cache
/// hit; in full mode no point coincides, because the suite's native
/// config pairs 8 cores with a 16-slice LLC while the sweep keeps
/// LLC-per-core consistent along the axis.
pub fn scaling_job(
    workload: Workload,
    design: DesignPoint,
    cores: usize,
    cfg: &ExperimentConfig,
) -> TimingJob {
    TimingJob {
        workload,
        design,
        cfg: cfg.timing_with_cores(cores),
    }
}

/// The baseline (no-prefetch) coverage run at an explicit L1-I capacity.
/// At the paper's 32 KB this *is* the shared coverage baseline — the tail
/// extension of the persisted key encodes to nothing at the default.
pub fn l1i_size_job(workload: Workload, kb: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: CoverageOptions {
            l1i_kb: kb,
            ..cfg.coverage()
        },
    }
}

/// Baseline BTB + SHIFT at an explicit stream lookahead depth. At the
/// default depth (24) this is byte-for-byte the L1-I table's `+SHIFT`
/// job.
pub fn lookahead_job(workload: Workload, depth: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Baseline1k,
        opts: CoverageOptions {
            shift_lookahead: depth,
            ..cfg.coverage().with_shift()
        },
    }
}

/// Figure 1's conventional-BTB geometry at an arbitrary capacity. At
/// whole kilo-entry points this aliases Figure 1's sweep.
pub fn capacity_job(workload: Workload, entries: usize, cfg: &ExperimentConfig) -> CoverageJob {
    CoverageJob {
        workload,
        btb: BtbSpec::Conventional {
            entries,
            ways: 4,
            victim_entries: 64,
        },
        opts: cfg.coverage(),
    }
}

impl SweepSpec {
    /// Formats the study from `results`: one column per axis point. On
    /// an engine, missing points are computed on demand, like any figure
    /// formatter.
    pub fn report(&self, results: &dyn Results, cfg: &ExperimentConfig) -> Report {
        match &self.axis {
            SweepAxis::HistoryEntries(points) => self.per_workload(results, |w| {
                let base = results.coverage(&baseline_job(w, cfg));
                let cell = |n| results.coverage(&history_job(w, n, cfg));
                let cells = points.iter().map(|&n| cell(n).l1i_miss_coverage_vs(&base));
                cells.map(pct).collect()
            }),
            SweepAxis::BundleGeometry(points) => self.per_workload(results, |w| {
                let base = results.coverage(&baseline_job(w, cfg));
                let cell = |g| results.coverage(&geometry_job(w, g, cfg));
                let cells = points.iter().map(|&g| cell(g).btb_miss_coverage_vs(&base));
                cells.map(pct).collect()
            }),
            SweepAxis::Cores(points) => {
                let mut report = self.table(&["workload", "design"]);
                for w in results.workload_list() {
                    // The reads are the study's batch, in the order the
                    // benchmark runs it (`all_jobs_is_pinned`): each core
                    // count's designs together. The rows stay one per
                    // design.
                    let ipc: Vec<Vec<f64>> = points
                        .iter()
                        .map(|&c| {
                            let run = |d| results.timing(&scaling_job(w, d, c, cfg)).ipc();
                            SCALING_DESIGNS.into_iter().map(run).collect()
                        })
                        .collect();
                    for (i, d) in SCALING_DESIGNS.iter().enumerate() {
                        let mut cells = vec![w.name().to_string(), d.name().to_string()];
                        cells.extend(ipc.iter().map(|at_cores| f(at_cores[i], 3)));
                        report.row(cells);
                    }
                }
                report
            }
            SweepAxis::BtbCapacity(points) => self.per_workload(results, |w| {
                let cell = |n| results.coverage(&capacity_job(w, n, cfg)).btb_mpki();
                points.iter().map(|&n| f(cell(n), 2)).collect()
            }),
            SweepAxis::L1iSizeKb(points) => self.per_workload(results, |w| {
                let cell = |kb| results.coverage(&l1i_size_job(w, kb, cfg)).l1i_mpki();
                points.iter().map(|&kb| f(cell(kb), 2)).collect()
            }),
            SweepAxis::ShiftLookahead(points) => self.per_workload(results, |w| {
                let base = results.coverage(&baseline_job(w, cfg));
                let cell = |d| results.coverage(&lookahead_job(w, d, cfg));
                let cells = points.iter().map(|&d| cell(d).l1i_miss_coverage_vs(&base));
                cells.map(pct).collect()
            }),
        }
    }

    /// A report with one row per workload: its name, then `cells(w)`.
    fn per_workload(
        &self,
        results: &dyn Results,
        cells: impl Fn(Workload) -> Vec<String>,
    ) -> Report {
        let mut report = self.table(&["workload"]);
        for w in results.workload_list() {
            let mut row = vec![w.name().to_string()];
            row.extend(cells(w));
            report.row(row);
        }
        report
    }

    /// An empty report: `row_headers`, then one column per axis point.
    fn table(&self, row_headers: &[&str]) -> Report {
        let labels = self.axis.point_labels();
        let headers: Vec<&str> = row_headers
            .iter()
            .copied()
            .chain(labels.iter().map(String::as_str))
            .collect();
        Report::new(self.caption, &headers)
    }
}

/// Every registered study, in presentation order.
pub fn registry() -> Vec<SweepSpec> {
    vec![
        SweepSpec {
            name: "shift-history",
            caption: "Sweep: SHIFT history capacity vs L1-I miss coverage \
                      (baseline BTB + SHIFT; paper runs 32K entries at ~90%)",
            axis: SweepAxis::HistoryEntries(vec![2 * 1024, 8 * 1024, 32 * 1024, 128 * 1024]),
        },
        SweepSpec {
            name: "bundle-geometry",
            caption: "Sweep: AirBTB bundle geometry (entries/bundle x overflow) vs \
                      BTB miss coverage (Full mode + SHIFT; paper point is 512x3+32). \
                      Full-mode bundles mirror the 512-block L1-I, so the grid sweeps \
                      the binding parameters: branch entries per bundle and overflow \
                      capacity (Figure 10's four points plus a 2-entry column)",
            axis: SweepAxis::BundleGeometry(vec![
                (512, 2, 0),
                (512, 2, 32),
                (512, 3, 0),
                (512, 3, 32),
                (512, 4, 0),
                (512, 4, 32),
            ]),
        },
        SweepSpec {
            name: "core-scaling",
            caption: "Sweep: CMP core count vs per-core IPC \
                      (Baseline / Confluence / Ideal frontends share one LLC)",
            axis: SweepAxis::Cores(vec![4, 8, 16]),
        },
        SweepSpec {
            name: "btb-capacity",
            caption: "Sweep: conventional-BTB capacity vs BTB MPKI \
                      (Figure 1's geometry at half-K granularity)",
            axis: SweepAxis::BtbCapacity(vec![512, 1024, 4096, 16 * 1024, 64 * 1024]),
        },
        SweepSpec {
            name: "l1i-size",
            caption: "Sweep: L1-I capacity vs demand MPKI \
                      (baseline BTB, no prefetch; paper Table 1 runs 32 KB — \
                      the capacity wall SHIFT exists to climb over)",
            axis: SweepAxis::L1iSizeKb(vec![16, 32, 64, 128]),
        },
        SweepSpec {
            name: "shift-lookahead",
            caption: "Sweep: SHIFT stream lookahead depth vs L1-I miss coverage \
                      (baseline BTB + SHIFT; the engine's default depth is 24 blocks)",
            axis: SweepAxis::ShiftLookahead(vec![4, 8, 24, 48]),
        },
    ]
}

/// Looks up a registered study by name.
pub fn find(name: &str) -> Option<SweepSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// Every study's report, in registry order.
pub fn sweep_reports(results: &dyn Results, cfg: &ExperimentConfig) -> Vec<Report> {
    registry().iter().map(|s| s.report(results, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{plan, unique_jobs};
    use crate::job::Job;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let studies = registry();
        assert!(studies.len() >= 3, "at least three studies must register");
        let mut names: Vec<&str> = studies.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), studies.len(), "study names must be unique");
        for s in &studies {
            assert!(!s.axis.is_empty(), "{}: axis has no points", s.name);
            assert_eq!(find(s.name).map(|f| f.name), Some(s.name));
        }
        assert!(find("no-such-study").is_none());
    }

    #[test]
    fn studies_overlap_each_other_and_the_figure_suite() {
        let cfg = ExperimentConfig::quick();
        let workloads = [Workload::OltpDb2, Workload::WebFrontend];
        let sweep_jobs = plan(&workloads, |results| sweep_reports(results, &cfg));
        assert!(
            unique_jobs(&sweep_jobs) < sweep_jobs.len(),
            "studies must share points (the coverage baseline at least)"
        );
        // The native-capacity history point is the L1-I table's job, and
        // the native core count is the timing figures' exact config.
        let native_history: Job = history_job(
            Workload::OltpDb2,
            confluence_prefetch::DEFAULT_HISTORY_ENTRIES,
            &cfg,
        )
        .into();
        assert!(sweep_jobs.contains(&native_history));
        let native_timing: Job = TimingJob {
            workload: Workload::OltpDb2,
            design: DesignPoint::Baseline,
            cfg: cfg.timing(),
        }
        .into();
        assert!(
            sweep_jobs.contains(&native_timing),
            "core-scaling must reuse the suite's native timing config"
        );
    }

    #[test]
    fn point_labels_are_unique() {
        for s in registry() {
            let labels = s.axis.point_labels();
            let mut sorted = labels.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), labels.len(), "{}: duplicate labels", s.name);
        }
    }

    #[test]
    fn kilo_labels_render() {
        assert_eq!(format!("{}", Kilo(512)), "512");
        assert_eq!(format!("{}", Kilo(1024)), "1K");
        assert_eq!(format!("{}", Kilo(128 * 1024)), "128K");
        assert_eq!(format!("{}", Kilo(1536)), "1536");
    }
}
