//! Synthetic scale-out server workload generator and trace model.
//!
//! The paper evaluates Confluence on commercial server workloads (TPC-C on
//! DB2 and Oracle, TPC-H, Darwin streaming, SPECweb99 on Apache) traced
//! under Flexus/Simics. Those traces are not redistributable, so this crate
//! generates *synthetic server programs* whose statistical properties match
//! the paper's workload characterization:
//!
//! - multi-megabyte instruction working sets laid out over a deep stack of
//!   service layers (paper §1: "over a dozen layers of services");
//! - request-level recurring control flow producing long temporal
//!   instruction streams (paper §2.2);
//! - ~3.5 static / ~1.5 dynamic branches per 64-byte block (Table 2);
//! - BTB footprints that saturate 16K entries (32K for OLTP/Oracle, Fig. 1).
//!
//! # Quickstart
//!
//! ```
//! use confluence_trace::{Program, Workload, TraceStats};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Use the calibrated preset scaled down for a quick run.
//! let spec = Workload::WebFrontend.spec().with_code_kb(128);
//! let program = Program::generate(&spec)?;
//! let stats = TraceStats::collect(program.executor(0).take(100_000), &program);
//! assert!(stats.branch_fraction() > 0.1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod compile;
mod exec;
mod program;
mod serialize;
mod spec;
mod stats;

pub use compile::{
    CompiledExecutor, CompiledProgram, ExecMode, MemoStats, RecordStream, NO_FASTPATH_ENV,
};
pub use exec::Executor;
pub use program::{Program, ProgramStats};
pub use serialize::{decode_records, encode_records, DecodeTraceError};
pub use spec::{TermMix, Workload, WorkloadSpec};
pub use stats::{StreamStats, TraceStats};
