//! The paper's primary contribution: **AirBTB**, the block-grain BTB of
//! the **Confluence** unified instruction-supply frontend.
//!
//! Confluence's observation: the L1-I prefetcher and the BTB both need the
//! same control-flow history, differing only in granularity (blocks vs
//! individual branches). [`AirBtb`] bridges the gap with a block-grain BTB
//! whose contents mirror the L1-I: its
//! [`on_l1i_fill`](confluence_btb::BtbDesign::on_l1i_fill) and
//! [`on_l1i_evict`](confluence_btb::BtbDesign::on_l1i_evict) hooks follow
//! every L1-I fill and eviction, so the SHIFT prefetcher that fills the
//! L1-I ahead of the fetch stream fills AirBTB too, from one
//! LLC-virtualized history. `confluence-sim`'s coverage harness and timing
//! core wire the two together through those hooks.
//!
//! # Example
//!
//! ```
//! use confluence_core::{AirBtb, AirBtbMode};
//! use confluence_btb::BtbDesign;
//!
//! // The paper's final design point: B:3, OB:32, 10.2 KB.
//! let btb = AirBtb::paper_config();
//! assert_eq!(btb.mode(), AirBtbMode::Full);
//! let kib = btb.storage().dedicated_kib();
//! assert!((9.8..10.8).contains(&kib));
//! ```

#![warn(missing_docs)]

mod airbtb;

pub use airbtb::{
    AirBtb, AirBtbMode, DEFAULT_BUNDLES, DEFAULT_BUNDLE_ENTRIES, DEFAULT_OVERFLOW_ENTRIES,
};
