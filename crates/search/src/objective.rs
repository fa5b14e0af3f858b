//! Registered search objectives: what is optimized, over which axis,
//! with which strategy.
//!
//! A [`Study`] binds a named design question ("how many cores maximize
//! IPC per mm² under an area budget?") to a search space, a metric, and
//! a [`SearchStrategy`]. Points map to jobs through the *same public
//! constructors the sweep studies use* ([`confluence_sim::sweeps`]), so
//! a search probe and the matching sweep point share one content key —
//! and therefore one cached simulation in the engine, the persistent
//! store, and the daemon.
//!
//! Metrics aggregate across the five paper workloads with a plain
//! arithmetic mean: it is deterministic, platform-stable (no `powf` in
//! the scoring path), and the search only needs a consistent ordering,
//! not a citable absolute.

use confluence_area::{AreaModel, CORE_MM2};
use confluence_btb::{BtbDesign, ConventionalBtb};
use confluence_core::{AirBtb, AirBtbMode, DEFAULT_BUNDLES};
use confluence_prefetch::ShiftHistory;
use confluence_sim::experiments::ExperimentConfig;
use confluence_sim::sweeps;
use confluence_sim::{DesignPoint, Job, SimEngine};
use confluence_trace::Workload;

use crate::strategy::{
    CoordinateDescent, GoldenSection, Point, SearchStrategy, ThresholdBisection, ThresholdSense,
};

/// One evaluated search point: its human-readable label, the study's
/// metric, and the area charged to it.
#[derive(Clone, Debug, PartialEq)]
pub struct PointEval {
    /// Axis label, e.g. `"8c"`, `"32K"`, `"512x3+32"`.
    pub label: String,
    /// The study's metric at this point (see [`Study::metric_name`]).
    pub metric: f64,
    /// Area in mm² (chip total for the scaling study, frontend mm² for
    /// the capacity studies).
    pub area_mm2: f64,
}

/// How a study turns its evaluations into a final answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerRule {
    /// The feasible point with the best [`Study::score`].
    MaxScore,
    /// The smallest-index feasible point (capacity-minimization studies;
    /// the bisection invariant guarantees it was evaluated).
    SmallestFeasible,
}

/// The search space and metric of one registered study.
#[derive(Clone, Debug)]
pub enum StudyKind {
    /// Maximize aggregate IPC per chip mm² over the core count, under a
    /// total-area budget (golden-section; infeasible points score
    /// `-inf`).
    IpcPerMm2 {
        /// Core-count axis.
        cores: Vec<usize>,
        /// Chip-area budget in mm².
        budget_mm2: f64,
    },
    /// Minimize SHIFT history capacity holding L1-I miss coverage within
    /// `tolerance` of the largest capacity's (threshold bisection).
    MinShiftHistory {
        /// History-capacity axis, ascending entries.
        entries: Vec<usize>,
        /// Allowed coverage drop from the peak, as a fraction.
        tolerance: f64,
    },
    /// Minimize conventional-BTB capacity holding BTB MPKI within
    /// `tolerance_mpki` of the largest capacity's (threshold bisection).
    MinBtbCapacity {
        /// BTB-capacity axis, ascending entries.
        entries: Vec<usize>,
        /// Allowed MPKI rise above the floor.
        tolerance_mpki: f64,
    },
    /// Maximize BTB miss coverage per frontend mm² over the AirBTB
    /// bundle geometry (coordinate descent over entries/bundle ×
    /// overflow capacity).
    BundlePerArea {
        /// Branch entries per bundle axis.
        bundle_entries: Vec<usize>,
        /// Overflow-buffer capacity axis.
        overflow: Vec<usize>,
    },
}

/// A named, registered design-space search.
#[derive(Clone, Debug)]
pub struct Study {
    /// Registry name (`search --study <name>`).
    pub name: &'static str,
    /// Report caption.
    pub caption: &'static str,
    /// Search space, metric and strategy binding.
    pub kind: StudyKind,
}

/// `32768 -> "32K"`, like the sweep axis labels.
fn kilo(n: usize) -> String {
    if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}K", n / 1024)
    } else {
        format!("{n}")
    }
}

impl Study {
    /// The lengths of the study's axes (one entry per axis).
    pub fn axis_lens(&self) -> Vec<usize> {
        match &self.kind {
            StudyKind::IpcPerMm2 { cores, .. } => vec![cores.len()],
            StudyKind::MinShiftHistory { entries, .. } => vec![entries.len()],
            StudyKind::MinBtbCapacity { entries, .. } => vec![entries.len()],
            StudyKind::BundlePerArea {
                bundle_entries,
                overflow,
            } => vec![bundle_entries.len(), overflow.len()],
        }
    }

    /// The strategy this study searches with, seeded.
    pub fn strategy(&self, seed: u64) -> Box<dyn SearchStrategy> {
        let lens = self.axis_lens();
        match &self.kind {
            StudyKind::IpcPerMm2 { .. } => Box::new(GoldenSection::new(lens[0], seed)),
            StudyKind::MinShiftHistory { tolerance, .. } => Box::new(ThresholdBisection::new(
                lens[0],
                ThresholdSense::AtLeastPeakMinus(*tolerance),
            )),
            StudyKind::MinBtbCapacity { tolerance_mpki, .. } => Box::new(ThresholdBisection::new(
                lens[0],
                ThresholdSense::AtMostFloorPlus(*tolerance_mpki),
            )),
            StudyKind::BundlePerArea { .. } => Box::new(CoordinateDescent::new(&lens, seed)),
        }
    }

    /// The strategy's registry name, for the answer report.
    pub fn strategy_name(&self) -> &'static str {
        match &self.kind {
            StudyKind::IpcPerMm2 { .. } => "golden-section",
            StudyKind::MinShiftHistory { .. } | StudyKind::MinBtbCapacity { .. } => "bisection",
            StudyKind::BundlePerArea { .. } => "coordinate-descent",
        }
    }

    /// Human-readable label of a point, matching the sweep axis labels
    /// where the spaces coincide.
    pub fn point_label(&self, point: &Point) -> String {
        match &self.kind {
            StudyKind::IpcPerMm2 { cores, .. } => format!("{}c", cores[point[0]]),
            StudyKind::MinShiftHistory { entries, .. } => kilo(entries[point[0]]),
            StudyKind::MinBtbCapacity { entries, .. } => kilo(entries[point[0]]),
            StudyKind::BundlePerArea {
                bundle_entries,
                overflow,
            } => format!(
                "{DEFAULT_BUNDLES}x{}+{}",
                bundle_entries[point[0]], overflow[point[1]]
            ),
        }
    }

    /// Jobs every iteration of this study depends on regardless of the
    /// proposed points (the shared coverage baseline for coverage-vs
    /// metrics). The driver batches these with the first iteration so a
    /// connected run never simulates locally.
    pub fn prereq_jobs(&self, workloads: &[Workload], cfg: &ExperimentConfig) -> Vec<Job> {
        match &self.kind {
            StudyKind::MinShiftHistory { .. } | StudyKind::BundlePerArea { .. } => workloads
                .iter()
                .map(|&w| sweeps::baseline_job(w, cfg).into())
                .collect(),
            StudyKind::IpcPerMm2 { .. } | StudyKind::MinBtbCapacity { .. } => Vec::new(),
        }
    }

    /// The content-keyed jobs one point expands to (one per workload),
    /// built by the sweep subsystem's public constructors so coinciding
    /// points are cache hits.
    pub fn point_jobs(
        &self,
        point: &Point,
        workloads: &[Workload],
        cfg: &ExperimentConfig,
    ) -> Vec<Job> {
        workloads
            .iter()
            .map(|&w| match &self.kind {
                StudyKind::IpcPerMm2 { cores, .. } => {
                    sweeps::scaling_job(w, DesignPoint::Confluence, cores[point[0]], cfg).into()
                }
                StudyKind::MinShiftHistory { entries, .. } => {
                    sweeps::history_job(w, entries[point[0]], cfg).into()
                }
                StudyKind::MinBtbCapacity { entries, .. } => {
                    sweeps::capacity_job(w, entries[point[0]], cfg).into()
                }
                StudyKind::BundlePerArea {
                    bundle_entries,
                    overflow,
                } => sweeps::geometry_job(
                    w,
                    (
                        DEFAULT_BUNDLES,
                        bundle_entries[point[0]],
                        overflow[point[1]],
                    ),
                    cfg,
                )
                .into(),
            })
            .collect()
    }

    /// Evaluates one point from the engine's warm cache: the metric is
    /// the arithmetic mean over the engine's workloads (the full paper
    /// set in the binaries, a single one in the golden harness), the
    /// area comes from the structure constructors' storage profiles
    /// through the paper's area model. Every job this reads must already
    /// be in the cache (the driver guarantees it), so evaluation never
    /// simulates.
    pub fn evaluate(&self, point: &Point, engine: &SimEngine, cfg: &ExperimentConfig) -> PointEval {
        let workloads: Vec<Workload> = engine.workloads().iter().map(|(w, _)| *w).collect();
        let mean = |vals: Vec<f64>| vals.iter().sum::<f64>() / vals.len() as f64;
        let (metric, area_mm2) = match &self.kind {
            StudyKind::IpcPerMm2 { cores, .. } => {
                let c = cores[point[0]];
                let per_core = mean(
                    workloads
                        .iter()
                        .map(|&w| {
                            engine
                                .timing(&sweeps::scaling_job(w, DesignPoint::Confluence, c, cfg))
                                .ipc()
                        })
                        .collect(),
                );
                let chip = AreaModel::new(CORE_MM2, c)
                    .chip_mm2(&DesignPoint::Confluence.storage_profile());
                (per_core * c as f64, chip)
            }
            StudyKind::MinShiftHistory { entries, .. } => {
                let e = entries[point[0]];
                let cov = mean(
                    workloads
                        .iter()
                        .map(|&w| {
                            let base = engine.coverage(&sweeps::baseline_job(w, cfg));
                            engine
                                .coverage(&sweeps::history_job(w, e, cfg))
                                .l1i_miss_coverage_vs(&base)
                        })
                        .collect(),
                );
                let area =
                    AreaModel::paper().frontend_mm2(&ShiftHistory::with_capacity(e).storage());
                (cov, area)
            }
            StudyKind::MinBtbCapacity { entries, .. } => {
                let e = entries[point[0]];
                let mpki = mean(
                    workloads
                        .iter()
                        .map(|&w| engine.coverage(&sweeps::capacity_job(w, e, cfg)).btb_mpki())
                        .collect(),
                );
                let storage = ConventionalBtb::new("BTB", e, 4, 64)
                    .expect("registry capacities are valid geometries")
                    .storage();
                (mpki, AreaModel::paper().frontend_mm2(&storage))
            }
            StudyKind::BundlePerArea {
                bundle_entries,
                overflow,
            } => {
                let geom = (
                    DEFAULT_BUNDLES,
                    bundle_entries[point[0]],
                    overflow[point[1]],
                );
                let cov = mean(
                    workloads
                        .iter()
                        .map(|&w| {
                            let base = engine.coverage(&sweeps::baseline_job(w, cfg));
                            engine
                                .coverage(&sweeps::geometry_job(w, geom, cfg))
                                .btb_miss_coverage_vs(&base)
                        })
                        .collect(),
                );
                let storage = AirBtb::new(AirBtbMode::Full, geom.0, geom.1, geom.2).storage();
                (cov, AreaModel::paper().frontend_mm2(&storage))
            }
        };
        PointEval {
            label: self.point_label(point),
            metric,
            area_mm2,
        }
    }

    /// The scalar handed back to the strategy. The hill-climbing
    /// strategies read it as higher-is-better (area-infeasible points
    /// score `-inf` so the climb routes around them); the bisection
    /// strategies read the raw metric and compare it against their
    /// anchor-derived threshold.
    pub fn fitness(&self, eval: &PointEval) -> f64 {
        match &self.kind {
            StudyKind::IpcPerMm2 { budget_mm2, .. } => {
                if eval.area_mm2 > *budget_mm2 {
                    f64::NEG_INFINITY
                } else {
                    eval.metric / eval.area_mm2
                }
            }
            StudyKind::MinShiftHistory { .. } | StudyKind::MinBtbCapacity { .. } => eval.metric,
            StudyKind::BundlePerArea { .. } => eval.metric / eval.area_mm2,
        }
    }

    /// The study's comparable figure of merit (what the answer
    /// maximizes for [`AnswerRule::MaxScore`] studies): metric per mm².
    pub fn score(&self, eval: &PointEval) -> f64 {
        match &self.kind {
            StudyKind::IpcPerMm2 { .. } | StudyKind::BundlePerArea { .. } => {
                eval.metric / eval.area_mm2
            }
            StudyKind::MinShiftHistory { .. } | StudyKind::MinBtbCapacity { .. } => eval.metric,
        }
    }

    /// The feasibility threshold on the metric, derived from the
    /// *anchor* evaluation (the largest capacity) for the
    /// capacity-minimization studies; `None` when feasibility is not
    /// metric-thresholded (the area budget gates [`StudyKind::IpcPerMm2`]
    /// instead, and every geometry point is feasible).
    pub fn feasibility_threshold(&self, anchor: Option<&PointEval>) -> Option<f64> {
        match &self.kind {
            StudyKind::MinShiftHistory { tolerance, .. } => anchor.map(|a| a.metric - tolerance),
            StudyKind::MinBtbCapacity { tolerance_mpki, .. } => {
                anchor.map(|a| a.metric + tolerance_mpki)
            }
            StudyKind::IpcPerMm2 { .. } | StudyKind::BundlePerArea { .. } => None,
        }
    }

    /// Whether a point satisfies the study's constraint, given the
    /// threshold from [`Study::feasibility_threshold`].
    pub fn is_feasible(&self, eval: &PointEval, threshold: Option<f64>) -> bool {
        match &self.kind {
            StudyKind::IpcPerMm2 { budget_mm2, .. } => eval.area_mm2 <= *budget_mm2,
            StudyKind::MinShiftHistory { .. } => threshold.is_none_or(|t| eval.metric >= t),
            StudyKind::MinBtbCapacity { .. } => threshold.is_none_or(|t| eval.metric <= t),
            StudyKind::BundlePerArea { .. } => true,
        }
    }

    /// The anchor point the feasibility threshold derives from, if the
    /// study has one (the largest capacity on the axis).
    pub fn anchor_point(&self) -> Option<Point> {
        match &self.kind {
            StudyKind::MinShiftHistory { entries, .. }
            | StudyKind::MinBtbCapacity { entries, .. } => Some(vec![entries.len() - 1]),
            StudyKind::IpcPerMm2 { .. } | StudyKind::BundlePerArea { .. } => None,
        }
    }

    /// How the final answer is picked from the feasible evaluations.
    pub fn answer_rule(&self) -> AnswerRule {
        match &self.kind {
            StudyKind::IpcPerMm2 { .. } | StudyKind::BundlePerArea { .. } => AnswerRule::MaxScore,
            StudyKind::MinShiftHistory { .. } | StudyKind::MinBtbCapacity { .. } => {
                AnswerRule::SmallestFeasible
            }
        }
    }

    /// Whether a larger metric is better (drives the Pareto dominance
    /// direction; MPKI minimizes).
    pub fn higher_better(&self) -> bool {
        !matches!(self.kind, StudyKind::MinBtbCapacity { .. })
    }

    /// The metric's column name.
    pub fn metric_name(&self) -> &'static str {
        match &self.kind {
            StudyKind::IpcPerMm2 { .. } => "aggregate IPC",
            StudyKind::MinShiftHistory { .. } => "L1-I miss coverage",
            StudyKind::MinBtbCapacity { .. } => "BTB MPKI",
            StudyKind::BundlePerArea { .. } => "BTB miss coverage",
        }
    }

    /// Formats a metric value for the reports.
    pub fn format_metric(&self, v: f64) -> String {
        match &self.kind {
            StudyKind::IpcPerMm2 { .. } | StudyKind::MinBtbCapacity { .. } => {
                confluence_sim::report::f(v, 3)
            }
            StudyKind::MinShiftHistory { .. } | StudyKind::BundlePerArea { .. } => {
                confluence_sim::report::pct(v)
            }
        }
    }
}

/// Every registered study, in presentation order.
pub fn registry() -> Vec<Study> {
    vec![
        Study {
            name: "ipc-per-mm2",
            caption: "Search: core count maximizing aggregate IPC per chip mm² \
                      (Confluence frontend, 40 mm² budget; golden-section)",
            kind: StudyKind::IpcPerMm2 {
                cores: vec![1, 2, 3, 4, 6, 8],
                budget_mm2: 40.0,
            },
        },
        Study {
            name: "min-shift-history",
            caption: "Search: smallest SHIFT history within 1% of peak L1-I miss \
                      coverage (baseline BTB + SHIFT; bisection)",
            kind: StudyKind::MinShiftHistory {
                entries: vec![
                    1024,
                    2 * 1024,
                    4 * 1024,
                    8 * 1024,
                    16 * 1024,
                    32 * 1024,
                    64 * 1024,
                    128 * 1024,
                ],
                tolerance: 0.01,
            },
        },
        Study {
            name: "min-btb-capacity",
            caption: "Search: smallest conventional BTB within 0.5 MPKI of the \
                      64K-entry floor (Figure 1 geometry; bisection)",
            kind: StudyKind::MinBtbCapacity {
                entries: vec![
                    512,
                    1024,
                    2 * 1024,
                    4 * 1024,
                    8 * 1024,
                    16 * 1024,
                    32 * 1024,
                    64 * 1024,
                ],
                tolerance_mpki: 0.5,
            },
        },
        Study {
            name: "bundle-per-area",
            caption: "Search: AirBTB bundle geometry maximizing BTB miss coverage \
                      per frontend mm² (Full mode + SHIFT; coordinate descent)",
            kind: StudyKind::BundlePerArea {
                bundle_entries: vec![1, 2, 3, 4, 5, 6],
                overflow: vec![0, 8, 16, 32, 64],
            },
        },
    ]
}

/// Looks up a registered study by name.
pub fn find(name: &str) -> Option<Study> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let studies = registry();
        assert!(studies.len() >= 3, "the issue requires three objectives");
        for s in &studies {
            assert_eq!(find(s.name).map(|f| f.caption), Some(s.caption));
        }
        let mut names: Vec<_> = studies.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), studies.len(), "duplicate study name");
        assert!(find("no-such-study").is_none());
    }

    #[test]
    fn point_jobs_alias_the_sweep_jobs_at_coinciding_points() {
        // The search's 32K history point must be byte-for-byte the
        // sweep's 32K point, so the caches collapse them.
        let cfg = ExperimentConfig::quick();
        let study = find("min-shift-history").unwrap();
        let StudyKind::MinShiftHistory { ref entries, .. } = study.kind else {
            unreachable!()
        };
        let idx = entries.iter().position(|&e| e == 32 * 1024).unwrap();
        let jobs = study.point_jobs(&vec![idx], &Workload::ALL, &cfg);
        let expect: Vec<Job> = Workload::ALL
            .into_iter()
            .map(|w| sweeps::history_job(w, 32 * 1024, &cfg).into())
            .collect();
        assert_eq!(jobs, expect);
    }

    #[test]
    fn labels_match_the_sweep_axis_style() {
        let study = find("min-btb-capacity").unwrap();
        assert_eq!(study.point_label(&vec![0]), "512");
        assert_eq!(study.point_label(&vec![7]), "64K");
        let study = find("ipc-per-mm2").unwrap();
        assert_eq!(study.point_label(&vec![5]), "8c");
        let study = find("bundle-per-area").unwrap();
        assert_eq!(study.point_label(&vec![2, 3]), "512x3+32");
    }

    #[test]
    fn area_budget_gates_feasibility() {
        let study = find("ipc-per-mm2").unwrap();
        let cheap = PointEval {
            label: "2c".into(),
            metric: 1.0,
            area_mm2: 15.0,
        };
        let big = PointEval {
            label: "8c".into(),
            metric: 4.0,
            area_mm2: 59.0,
        };
        assert!(study.is_feasible(&cheap, None));
        assert!(!study.is_feasible(&big, None));
        assert_eq!(study.fitness(&big), f64::NEG_INFINITY);
        assert!(study.fitness(&cheap) > 0.0);
    }

    #[test]
    fn capacity_thresholds_derive_from_the_anchor() {
        let anchor = PointEval {
            label: "128K".into(),
            metric: 0.90,
            area_mm2: 1.0,
        };
        let study = find("min-shift-history").unwrap();
        let t = study.feasibility_threshold(Some(&anchor)).unwrap();
        assert!((t - 0.89).abs() < 1e-12);
        let near = PointEval {
            label: "8K".into(),
            metric: 0.895,
            area_mm2: 0.2,
        };
        let far = PointEval {
            label: "1K".into(),
            metric: 0.5,
            area_mm2: 0.05,
        };
        assert!(study.is_feasible(&near, Some(t)));
        assert!(!study.is_feasible(&far, Some(t)));

        let study = find("min-btb-capacity").unwrap();
        let floor = PointEval {
            label: "64K".into(),
            metric: 2.0,
            area_mm2: 2.0,
        };
        let t = study.feasibility_threshold(Some(&floor)).unwrap();
        assert!((t - 2.5).abs() < 1e-12);
        assert!(!study.higher_better());
    }

    #[test]
    fn every_study_exposes_a_consistent_search_space() {
        for study in registry() {
            let lens = study.axis_lens();
            assert!(!lens.is_empty() && lens.iter().all(|&l| l >= 2));
            // The strategy accepts the advertised space.
            let mut s = study.strategy(42);
            let batch = s.propose();
            assert!(!batch.is_empty(), "{}: empty first proposal", study.name);
            for p in &batch {
                assert_eq!(p.len(), lens.len());
                for (axis, &v) in p.iter().enumerate() {
                    assert!(v < lens[axis], "{}: out-of-range proposal", study.name);
                }
            }
            if let Some(anchor) = study.anchor_point() {
                assert_eq!(batch, vec![anchor], "bisection probes its anchor first");
            }
        }
    }
}
