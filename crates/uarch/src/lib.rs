//! Microarchitectural substrates for the Confluence reproduction.
//!
//! This crate provides the structures every frontend design in the paper is
//! built from: a generic set-associative cache, the L1 instruction cache,
//! the shared NUCA LLC with predictor-virtualization reservations, the
//! 2D-mesh NoC latency model, MSHRs, the hybrid branch direction predictor,
//! the indirect target cache, the return-address stack, the deferred fill
//! requests of the two-phase tick (with the predecoder's fill latency), and
//! the Table 1 parameter sets.
//!
//! # Example
//!
//! ```
//! use confluence_uarch::{L1ICache, MemParams};
//! use confluence_types::BlockAddr;
//!
//! let mut l1i = L1ICache::new_32k();
//! let block = BlockAddr::from_raw(100);
//! assert!(!l1i.access(block)); // cold miss
//! l1i.fill(block);
//! assert!(l1i.access(block)); // hit
//! assert_eq!(MemParams::default().l1i_blocks(), 512);
//! ```

#![warn(missing_docs)]

mod cache;
mod direction;
mod fill;
mod indirect;
mod l1i;
mod llc;
mod mshr;
mod noc;
mod params;
mod ras;

pub use cache::SetAssocCache;
pub use direction::HybridDirectionPredictor;
pub use fill::{FillKind, FillRequest, DEFAULT_PREDECODE_LATENCY, PENDING_FILL};
pub use indirect::IndirectTargetCache;
pub use l1i::L1ICache;
pub use llc::SharedLlc;
pub use mshr::MshrFile;
pub use noc::MeshNoc;
pub use params::{CoreParams, MemParams};
pub use ras::ReturnAddressStack;
