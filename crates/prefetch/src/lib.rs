//! Instruction prefetchers: FDP and SHIFT.
//!
//! Two prefetching philosophies from the paper:
//!
//! - [`Fdp`] (fetch-directed prefetching) lets the branch predictor run
//!   ahead of the fetch unit and prefetches the blocks of enqueued fetch
//!   regions. Free in storage, but limited in lookahead and accuracy.
//! - [`ShiftHistory`] + [`ShiftEngine`] (SHIFT) replay recorded temporal
//!   instruction streams from a shared, LLC-virtualized history; lookahead
//!   is bounded only by the stream length, and one history serves all
//!   cores running the workload. Confluence uses SHIFT to fill the L1-I
//!   *and* AirBTB.
//!
//! # Example
//!
//! ```
//! use confluence_prefetch::{ShiftHistory, ShiftEngine};
//! use confluence_types::BlockAddr;
//!
//! let mut history = ShiftHistory::with_capacity(1024);
//! for b in 0..100u64 {
//!     history.record(BlockAddr::from_raw(b)); // generator core
//! }
//! let mut engine = ShiftEngine::new(); // consumer core
//! let mut prefetches = Vec::new();
//! engine.on_access(&history, BlockAddr::from_raw(50), true, &mut prefetches);
//! assert_eq!(prefetches.first(), Some(&BlockAddr::from_raw(51)));
//! ```

#![warn(missing_docs)]

mod fdp;
mod shift;

pub use fdp::Fdp;
pub use shift::{
    HistoryView, ShiftEngine, ShiftHistory, StreamCursor, DEFAULT_HISTORY_ENTRIES,
    DEFAULT_LOOKAHEAD,
};
