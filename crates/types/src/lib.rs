//! Shared type vocabulary for the Confluence (MICRO 2015) reproduction.
//!
//! This crate defines the address newtypes, branch classification, trace
//! record format, and deterministic RNG used by every other crate in the
//! workspace. It is intentionally dependency-light so that substrate crates
//! (caches, BTBs, prefetchers) can share types without pulling in the
//! simulator.
//!
//! # Instruction model
//!
//! The reproduction models a fixed-width RISC ISA, matching the paper's
//! UltraSPARC III setup: 4-byte instructions, 64-byte instruction blocks,
//! hence [`INSTRS_PER_BLOCK`] = 16 instructions per block. Virtual addresses
//! are 48 bits, as assumed by the paper's CACTI area estimates.
//!
//! # Example
//!
//! ```
//! use confluence_types::{VAddr, BlockAddr, INSTR_BYTES};
//!
//! let pc = VAddr::new(0x4000_0000);
//! let next = pc.next_instr();
//! assert_eq!(next.raw(), 0x4000_0000 + INSTR_BYTES as u64);
//! assert_eq!(pc.block(), BlockAddr::containing(pc));
//! ```

#![warn(missing_docs)]

mod addr;
mod branch;
mod error;
mod fetch;
mod hash;
mod record;
mod rng;
mod storage;

pub use addr::{BlockAddr, VAddr, BLOCK_BYTES, INSTRS_PER_BLOCK, INSTR_BYTES, VADDR_BITS};
pub use branch::{BranchClass, BranchKind, PredecodedBranch};
pub use error::ConfigError;
pub use fetch::FetchRegion;
pub use hash::{BuildFoldHasher, FoldHasher};
pub use record::{BranchOutcome, TraceRecord};
pub use rng::{DetRng, SplitMix64};
pub use storage::{SramArray, StorageProfile};

/// Oracle access to the static branch contents of instruction blocks.
///
/// The hardware predecoder in the paper scans the raw bytes of a fetched
/// cache block for branch instructions and extracts their type and
/// PC-relative displacement. Our synthetic programs do not have raw bytes,
/// so the trace generator exposes the equivalent information through this
/// trait: given a block address, return the statically known branches inside
/// it, in ascending offset order.
///
/// Implementations must be deterministic: repeated calls for the same block
/// return the same slice contents.
pub trait PredecodeSource {
    /// Returns the statically known branches inside `block`, ordered by
    /// instruction offset. Blocks with no branches return an empty slice.
    fn branches_in_block(&self, block: BlockAddr) -> &[PredecodedBranch];
}

impl<T: PredecodeSource + ?Sized> PredecodeSource for &T {
    fn branches_in_block(&self, block: BlockAddr) -> &[PredecodedBranch] {
        (**self).branches_in_block(block)
    }
}
