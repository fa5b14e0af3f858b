//! Cycle-level frontend CMP simulator, design points, and experiment
//! runners for the Confluence reproduction.

#![warn(missing_docs)]

pub mod cli;
mod cmp;
pub mod codec;
mod coverage;
pub mod daemon;
mod designs;
mod engine;
pub mod experiments;
mod job;
pub mod peers;
pub mod report;
pub mod sweeps;
mod timing;

pub use cmp::{
    simulate_cmp, simulate_cmp_with_shards, simulate_cmp_with_shards_mode, TimingConfig,
    TimingResult,
};
pub use codec::SCHEMA_VERSION;
pub use confluence_serve::EngineStats;
pub use confluence_trace::{ExecMode, NO_FASTPATH_ENV};
pub use coverage::{
    branch_density_mode, run_coverage, run_coverage_mode, run_coverage_with_mode, CoverageOptions,
    CoverageResult, DEFAULT_L1I_KB,
};
pub use designs::{DesignPoint, PrefetchScheme};
pub use engine::{Results, SimEngine};
pub use job::{BtbSpec, CoverageJob, DensityJob, Job, JobOutput, TimingJob};
pub use peers::{PeerSet, DEFAULT_PEER_TIMEOUT};
pub use sweeps::{SweepAxis, SweepSpec};
pub use timing::{CoreFrontend, CoreStats};
