//! Content-keyed job descriptions for the experiment engine.
//!
//! A [`Job`] is a self-contained, hashable description of one simulation:
//! the workload, the structure under test, and every option that affects
//! the result. Two jobs with equal keys produce byte-identical results, so
//! the engine can run each unique key exactly once across *all* figures and
//! hand the cached result to every consumer (the 1K-baseline coverage run
//! shared by Figures 8/9/10 and the L1-I table, or the design points shared
//! by Figures 2/6/7).
//!
//! The BTB under test is described by a [`BtbSpec`] — a factory, not live
//! `&mut` state — which is what makes jobs safe to execute on any engine
//! worker thread.

use std::sync::Arc;

use confluence_btb::{BtbDesign, ConventionalBtb, IdealBtb, PerfectBtb, PhantomBtb, TwoLevelBtb};
use confluence_core::{AirBtb, AirBtbMode};
use confluence_trace::{Program, Workload};
use confluence_types::PredecodeSource;

use crate::cmp::{TimingConfig, TimingResult};
use crate::coverage::{CoverageOptions, CoverageResult};
use crate::designs::DesignPoint;

/// Self-contained description of a BTB to construct: the factory half of a
/// coverage job. Building from a spec (rather than borrowing caller-owned
/// `&mut dyn BtbDesign` state) keeps every job independent of every other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BtbSpec {
    /// `ConventionalBtb::new` with explicit geometry (Figure 1 sweeps).
    Conventional {
        /// Total entries.
        entries: usize,
        /// Associativity.
        ways: usize,
        /// Victim-buffer entries.
        victim_entries: usize,
    },
    /// The paper's 1K-entry baseline (`ConventionalBtb::baseline_1k`).
    Baseline1k,
    /// The 16K-entry comparison point (`ConventionalBtb::large_16k`).
    Large16k,
    /// PhantomBTB with its virtualized second level at the given latency.
    Phantom {
        /// LLC round-trip latency seen by group fetches.
        llc_latency: u64,
    },
    /// The dedicated two-level BTB (`TwoLevelBtb::paper_config`).
    TwoLevelPaper,
    /// An AirBTB ablation point (Figures 8 and 10).
    AirBtb {
        /// Which AirBTB ingredients are enabled.
        mode: AirBtbMode,
        /// Bundle count.
        bundles: usize,
        /// Branch entries per bundle.
        bundle_entries: usize,
        /// Overflow-buffer entries.
        overflow_entries: usize,
    },
    /// 16K-entry single-cycle BTB (`IdealBtb::new_16k`).
    Ideal16k,
    /// Always-hit BTB (`PerfectBtb`).
    Perfect,
}

impl BtbSpec {
    /// The paper's full AirBTB configuration.
    pub fn airbtb_paper() -> Self {
        BtbSpec::AirBtb {
            mode: AirBtbMode::Full,
            bundles: confluence_core::DEFAULT_BUNDLES,
            bundle_entries: confluence_core::DEFAULT_BUNDLE_ENTRIES,
            overflow_entries: confluence_core::DEFAULT_OVERFLOW_ENTRIES,
        }
    }

    /// Builds a fresh BTB for one job execution. `program` provides the
    /// predecode oracle for the `SpatialLocality` AirBTB ablation (shared
    /// by `Arc`, never cloned).
    pub fn build(self, program: &Arc<Program>) -> Box<dyn BtbDesign> {
        match self {
            BtbSpec::Conventional {
                entries,
                ways,
                victim_entries,
            } => Box::new(
                ConventionalBtb::new("sweep", entries, ways, victim_entries)
                    .expect("valid geometry"),
            ),
            BtbSpec::Baseline1k => {
                Box::new(ConventionalBtb::baseline_1k().expect("valid geometry"))
            }
            BtbSpec::Large16k => Box::new(ConventionalBtb::large_16k().expect("valid geometry")),
            BtbSpec::Phantom { llc_latency } => {
                Box::new(PhantomBtb::paper_config(llc_latency).expect("valid geometry"))
            }
            BtbSpec::TwoLevelPaper => {
                Box::new(TwoLevelBtb::paper_config().expect("valid geometry"))
            }
            BtbSpec::AirBtb {
                mode,
                bundles,
                bundle_entries,
                overflow_entries,
            } => {
                let mut btb = AirBtb::new(mode, bundles, bundle_entries, overflow_entries);
                if mode == AirBtbMode::SpatialLocality {
                    let oracle: Arc<dyn PredecodeSource + Send + Sync> = Arc::clone(program) as _;
                    btb = btb.with_oracle(oracle);
                }
                Box::new(btb)
            }
            BtbSpec::Ideal16k => Box::new(IdealBtb::new_16k().expect("valid geometry")),
            BtbSpec::Perfect => Box::new(PerfectBtb::new()),
        }
    }
}

/// Key of one functional coverage run (Figures 1, 8, 9, 10, L1-I table).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoverageJob {
    /// Workload whose program the harness walks.
    pub workload: Workload,
    /// The BTB under test.
    pub btb: BtbSpec,
    /// Harness options (window sizes, SHIFT, seed).
    pub opts: CoverageOptions,
}

/// Key of one CMP timing run (Figures 2, 6, 7).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimingJob {
    /// Workload whose program every core executes.
    pub workload: Workload,
    /// The frontend design point.
    pub design: DesignPoint,
    /// Timing configuration.
    pub cfg: TimingConfig,
}

/// Key of one branch-density characterization run (Table 2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DensityJob {
    /// Workload to characterize.
    pub workload: Workload,
    /// Instructions walked.
    pub instrs: u64,
    /// Executor seed.
    pub seed: u64,
}

/// One unit of simulation work, keyed by content.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Job {
    /// Functional coverage run.
    Coverage(CoverageJob),
    /// CMP timing run.
    Timing(TimingJob),
    /// Branch-density characterization.
    Density(DensityJob),
}

impl Job {
    /// The workload this job simulates.
    pub fn workload(&self) -> Workload {
        match self {
            Job::Coverage(j) => j.workload,
            Job::Timing(j) => j.workload,
            Job::Density(j) => j.workload,
        }
    }

    /// Relative execution-cost hint for the engine's scheduler. Timing
    /// jobs step every core every cycle, so they cost roughly
    /// `cores × instructions`; coverage and density runs walk one trace
    /// functionally and are orders of magnitude cheaper — a flat `1`
    /// keeps them behind every timing job without pretending the model
    /// can rank them finely. Only the *ordering* matters: the engine
    /// starts expensive jobs first so the batch never ends with one long
    /// timing run hogging a single worker.
    pub fn cost_hint(&self) -> u64 {
        match self {
            Job::Timing(t) => {
                let instrs = t.cfg.warmup_instrs.saturating_add(t.cfg.measure_instrs);
                (t.cfg.cores as u64).saturating_mul(instrs).max(2)
            }
            Job::Coverage(_) | Job::Density(_) => 1,
        }
    }
}

impl From<CoverageJob> for Job {
    fn from(j: CoverageJob) -> Job {
        Job::Coverage(j)
    }
}

impl From<TimingJob> for Job {
    fn from(j: TimingJob) -> Job {
        Job::Timing(j)
    }
}

impl From<DensityJob> for Job {
    fn from(j: DensityJob) -> Job {
        Job::Density(j)
    }
}

/// Result of one executed [`Job`], cached by the engine. `PartialEq`
/// compares timing results structurally and densities bit-for-bit, which
/// is exactly what the persistent store's round-trip tests need.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Counters from a coverage run.
    Coverage(CoverageResult),
    /// Aggregated timing-run result (`Arc` so every consumer shares the
    /// cached per-core statistics).
    Timing(Arc<TimingResult>),
    /// `(static, dynamic)` branch densities per 64-byte block.
    Density(f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(job: &Job) -> u64 {
        let mut h = DefaultHasher::new();
        job.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_jobs_share_a_key() {
        let mk = || {
            Job::Coverage(CoverageJob {
                workload: Workload::WebFrontend,
                btb: BtbSpec::Baseline1k,
                opts: CoverageOptions::quick(),
            })
        };
        assert_eq!(mk(), mk());
        assert_eq!(hash_of(&mk()), hash_of(&mk()));
    }

    #[test]
    fn option_changes_change_the_key() {
        let base = CoverageJob {
            workload: Workload::WebFrontend,
            btb: BtbSpec::Baseline1k,
            opts: CoverageOptions::quick(),
        };
        let shifted = CoverageJob {
            opts: base.opts.clone().with_shift(),
            ..base.clone()
        };
        assert_ne!(Job::Coverage(base), Job::Coverage(shifted));
    }

    #[test]
    fn every_spec_builds() {
        let program = Arc::new(Program::generate(&confluence_trace::WorkloadSpec::tiny()).unwrap());
        let specs = [
            BtbSpec::Conventional {
                entries: 1024,
                ways: 4,
                victim_entries: 64,
            },
            BtbSpec::Baseline1k,
            BtbSpec::Large16k,
            BtbSpec::Phantom { llc_latency: 26 },
            BtbSpec::TwoLevelPaper,
            BtbSpec::airbtb_paper(),
            BtbSpec::AirBtb {
                mode: AirBtbMode::SpatialLocality,
                bundles: 512,
                bundle_entries: 3,
                overflow_entries: 32,
            },
            BtbSpec::Ideal16k,
            BtbSpec::Perfect,
        ];
        for spec in specs {
            let btb = spec.build(&program);
            assert!(!btb.name().is_empty());
        }
    }
}
