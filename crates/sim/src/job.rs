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

    /// Checks every table-sizing field against a fixed limit.
    ///
    /// Running a job allocates its tables from these fields, and a failed
    /// allocation aborts the process instead of unwinding, so the daemon
    /// refuses an oversized job before the engine sees it. Each limit sits
    /// far above what the suite, the sweeps and the search studies plan
    /// (at most 16 cores, 128K history entries, a 64K-entry BTB, 512
    /// bundles, a 128 KB L1-I and 128K LLC lines).
    ///
    /// # Errors
    ///
    /// Names the first field above its limit.
    pub fn check_sizes(&self) -> Result<(), String> {
        /// Core counts.
        const CORES: usize = 256;
        /// Entry and line counts of the large tables.
        const ENTRIES: usize = 1 << 22;
        /// Ways, MSHRs, queue and buffer slots, widths, lookahead and
        /// entries per bundle.
        const SMALL: usize = 1 << 12;
        /// Cache capacities in bytes.
        const BYTES: usize = 1 << 26;
        /// AirBTB bundles: each one reserves its entry vector up front.
        const BUNDLES: usize = 1 << 16;

        let at_most = |name: &str, value: usize, limit: usize| {
            if value > limit {
                Err(format!("{name} = {value} exceeds {limit}"))
            } else {
                Ok(())
            }
        };
        match self {
            Job::Coverage(j) => {
                let o = &j.opts;
                at_most("history_entries", o.history_entries, ENTRIES)?;
                at_most("l1i_kb", o.l1i_kb, BYTES >> 10)?;
                at_most("shift_lookahead", o.shift_lookahead, SMALL)?;
                match j.btb {
                    BtbSpec::Conventional {
                        entries,
                        ways,
                        victim_entries,
                    } => {
                        at_most("btb entries", entries, ENTRIES)?;
                        at_most("btb ways", ways, SMALL)?;
                        at_most("btb victim_entries", victim_entries, ENTRIES)
                    }
                    BtbSpec::AirBtb {
                        bundles,
                        bundle_entries,
                        overflow_entries,
                        ..
                    } => {
                        at_most("airbtb bundles", bundles, BUNDLES)?;
                        at_most("airbtb bundle_entries", bundle_entries, SMALL)?;
                        at_most("airbtb overflow_entries", overflow_entries, ENTRIES)
                    }
                    _ => Ok(()),
                }
            }
            Job::Timing(j) => {
                let (c, m) = (&j.cfg.core, &j.cfg.mem);
                at_most("cores", j.cfg.cores, CORES)?;
                at_most("history_entries", j.cfg.history_entries, ENTRIES)?;
                at_most("fetch_queue_regions", c.fetch_queue_regions, SMALL)?;
                at_most("instr_buffer", c.instr_buffer, SMALL)?;
                at_most("retire_width", c.retire_width, SMALL)?;
                at_most("fetch_width", c.fetch_width, SMALL)?;
                at_most("mem.cores", m.cores, CORES)?;
                at_most("l1i_bytes", m.l1i_bytes, BYTES)?;
                at_most("l1i_ways", m.l1i_ways, SMALL)?;
                at_most("l1i_mshrs", m.l1i_mshrs, SMALL)?;
                at_most("llc_slice_bytes", m.llc_slice_bytes, BYTES)?;
                at_most("llc_ways", m.llc_ways, SMALL)?;
                at_most("block_bytes", m.block_bytes, SMALL)?;
                // The LLC's line count is the product of three fields; a
                // zero block size reads as unbounded.
                let llc_lines = m
                    .llc_slice_bytes
                    .saturating_mul(m.cores)
                    .checked_div(m.block_bytes)
                    .unwrap_or(usize::MAX);
                at_most("LLC lines", llc_lines, ENTRIES)
            }
            Job::Density(_) => Ok(()),
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

    #[test]
    fn every_planned_job_is_within_the_size_limits() {
        use crate::experiments::{all_jobs, ExperimentConfig};
        use crate::SimEngine;
        let program = Arc::new(Program::generate(&confluence_trace::WorkloadSpec::tiny()).unwrap());
        let engine = SimEngine::new(Workload::ALL.map(|w| (w, Arc::clone(&program))).to_vec());
        for cfg in [ExperimentConfig::quick(), ExperimentConfig::full()] {
            let jobs = all_jobs(&engine, &cfg);
            assert!(jobs.len() > 300, "the suite plans its sweeps too");
            for job in &jobs {
                job.check_sizes()
                    .unwrap_or_else(|e| panic!("planned job refused: {e}: {job:?}"));
            }
        }
    }

    #[test]
    fn oversized_fields_are_refused() {
        let timing = |edit: fn(&mut TimingConfig)| {
            let mut cfg = TimingConfig::quick();
            edit(&mut cfg);
            Job::Timing(TimingJob {
                workload: Workload::WebFrontend,
                design: DesignPoint::Baseline,
                cfg,
            })
            .check_sizes()
        };
        assert_eq!(timing(|_| {}), Ok(()));
        let err = timing(|c| c.history_entries = 1 << 44).unwrap_err();
        assert!(err.starts_with("history_entries"), "{err}");
        assert!(timing(|c| c.cores = 1 << 20).is_err());
        assert!(timing(|c| c.core.instr_buffer = usize::MAX).is_err());
        // Fields that are each in range can still multiply into a huge
        // LLC, and a zero block size divides into an unbounded one.
        let err = timing(|c| {
            c.mem.cores = 256;
            c.mem.llc_slice_bytes = 1 << 26;
        })
        .unwrap_err();
        assert!(err.starts_with("LLC lines"), "{err}");
        assert!(timing(|c| c.mem.block_bytes = 0).is_err());

        let coverage = |btb, opts| {
            Job::Coverage(CoverageJob {
                workload: Workload::WebFrontend,
                btb,
                opts,
            })
            .check_sizes()
        };
        let big = CoverageOptions {
            l1i_kb: 1 << 30,
            ..CoverageOptions::quick()
        };
        assert!(coverage(BtbSpec::Baseline1k, big).is_err());
        let huge_btb = BtbSpec::Conventional {
            entries: 1 << 40,
            ways: 4,
            victim_entries: 0,
        };
        assert!(coverage(huge_btb, CoverageOptions::quick()).is_err());
        let huge_airbtb = BtbSpec::AirBtb {
            mode: AirBtbMode::Full,
            bundles: 1 << 30,
            bundle_entries: 3,
            overflow_entries: 32,
        };
        assert!(coverage(huge_airbtb, CoverageOptions::quick()).is_err());
    }
}
