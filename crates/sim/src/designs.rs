//! Named frontend design points: the configurations compared throughout the
//! paper's evaluation.

use confluence_btb::{BtbDesign, ConventionalBtb, IdealBtb, PerfectBtb, PhantomBtb, TwoLevelBtb};
use confluence_core::AirBtb;
use confluence_prefetch::ShiftHistory;
use confluence_types::StorageProfile;

/// Instruction-prefetch scheme attached to a design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchScheme {
    /// No instruction prefetching.
    None,
    /// Fetch-directed prefetching from the BPU's fetch queue.
    Fdp,
    /// SHIFT stream prefetching from the shared LLC-virtualized history.
    Shift,
}

/// The frontend configurations evaluated in Figures 2, 6, and 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// 1K-entry conventional BTB + victim buffer, no prefetching (the
    /// normalization point of Figures 2 and 6).
    Baseline,
    /// Baseline BTB + SHIFT (the normalization point of Figure 7).
    BaselineShift,
    /// Baseline BTB + fetch-directed prefetching.
    Fdp,
    /// PhantomBTB + FDP.
    PhantomFdp,
    /// Two-level BTB (1K + 16K dedicated) + FDP.
    TwoLevelFdp,
    /// PhantomBTB + SHIFT (Figure 7).
    PhantomShift,
    /// Two-level BTB + SHIFT (best prior-art point of Figure 6).
    TwoLevelShift,
    /// Confluence: AirBTB filled by SHIFT (the paper's contribution).
    Confluence,
    /// 16K-entry single-cycle BTB + SHIFT (Figure 7 upper bound).
    IdealBtbShift,
    /// Perfect BTB and perfect L1-I (Figures 2/6 upper bound).
    Ideal,
}

impl DesignPoint {
    /// All design points, in presentation order.
    pub const ALL: [DesignPoint; 10] = [
        DesignPoint::Baseline,
        DesignPoint::BaselineShift,
        DesignPoint::Fdp,
        DesignPoint::PhantomFdp,
        DesignPoint::TwoLevelFdp,
        DesignPoint::PhantomShift,
        DesignPoint::TwoLevelShift,
        DesignPoint::Confluence,
        DesignPoint::IdealBtbShift,
        DesignPoint::Ideal,
    ];

    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            DesignPoint::Baseline => "Baseline(1K BTB)",
            DesignPoint::BaselineShift => "1K BTB+SHIFT",
            DesignPoint::Fdp => "FDP",
            DesignPoint::PhantomFdp => "PhantomBTB+FDP",
            DesignPoint::TwoLevelFdp => "2LevelBTB+FDP",
            DesignPoint::PhantomShift => "PhantomBTB+SHIFT",
            DesignPoint::TwoLevelShift => "2LevelBTB+SHIFT",
            DesignPoint::Confluence => "Confluence",
            DesignPoint::IdealBtbShift => "IdealBTB+SHIFT",
            DesignPoint::Ideal => "Ideal",
        }
    }

    /// The prefetch scheme this design uses.
    pub fn prefetch(self) -> PrefetchScheme {
        match self {
            DesignPoint::Baseline => PrefetchScheme::None,
            DesignPoint::Fdp | DesignPoint::PhantomFdp | DesignPoint::TwoLevelFdp => {
                PrefetchScheme::Fdp
            }
            DesignPoint::BaselineShift
            | DesignPoint::PhantomShift
            | DesignPoint::TwoLevelShift
            | DesignPoint::Confluence
            | DesignPoint::IdealBtbShift => PrefetchScheme::Shift,
            // The ideal frontend needs no prefetcher: the L1-I is perfect.
            DesignPoint::Ideal => PrefetchScheme::None,
        }
    }

    /// True if the design models a perfect (always-hit) L1-I.
    pub fn perfect_l1i(self) -> bool {
        matches!(self, DesignPoint::Ideal)
    }

    /// True if the design runs the predecoder on L1-I fills (Confluence).
    pub fn predecodes_fills(self) -> bool {
        matches!(self, DesignPoint::Confluence)
    }

    /// Builds the design's BTB. `llc_latency` parameterizes PhantomBTB's
    /// virtualized second level.
    pub fn build_btb(self, llc_latency: u64) -> Box<dyn BtbDesign> {
        match self {
            DesignPoint::Baseline | DesignPoint::BaselineShift | DesignPoint::Fdp => {
                Box::new(ConventionalBtb::baseline_1k().expect("valid geometry"))
            }
            DesignPoint::PhantomFdp | DesignPoint::PhantomShift => {
                Box::new(PhantomBtb::paper_config(llc_latency).expect("valid geometry"))
            }
            DesignPoint::TwoLevelFdp | DesignPoint::TwoLevelShift => {
                Box::new(TwoLevelBtb::paper_config().expect("valid geometry"))
            }
            DesignPoint::Confluence => Box::new(AirBtb::paper_config()),
            DesignPoint::IdealBtbShift => Box::new(IdealBtb::new_16k().expect("valid geometry")),
            DesignPoint::Ideal => Box::new(PerfectBtb::new()),
        }
    }

    /// Storage profile used for the relative-area axis of Figures 2 and 6.
    pub fn storage_profile(self) -> StorageProfile {
        let btb = self.build_btb(30).storage();
        match self.prefetch() {
            PrefetchScheme::Shift => btb.merge(ShiftHistory::new_32k().storage()),
            // FDP reuses branch-predictor metadata; the ideal frontend is
            // plotted at the baseline's area (paper Figure 2).
            PrefetchScheme::Fdp | PrefetchScheme::None => {
                if self == DesignPoint::Ideal {
                    DesignPoint::Baseline.storage_profile()
                } else {
                    btb
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_builds_a_btb() {
        for d in DesignPoint::ALL {
            let btb = d.build_btb(30);
            assert!(!btb.name().is_empty());
        }
    }

    #[test]
    fn prefetch_wiring_matches_paper() {
        assert_eq!(DesignPoint::Baseline.prefetch(), PrefetchScheme::None);
        assert_eq!(DesignPoint::Fdp.prefetch(), PrefetchScheme::Fdp);
        assert_eq!(DesignPoint::Confluence.prefetch(), PrefetchScheme::Shift);
        assert!(DesignPoint::Ideal.perfect_l1i());
        assert!(DesignPoint::Confluence.predecodes_fills());
    }

    #[test]
    fn timing_and_coverage_build_the_same_btb() {
        // A timing job builds its BTB through `build_btb`, a coverage job
        // through `BtbSpec::build`; comparing a design across the two
        // harnesses assumes both factories agree. The match is exhaustive,
        // so a new design point must be mapped here before this compiles.
        use crate::job::BtbSpec;
        use confluence_trace::{Program, WorkloadSpec};
        let llc_latency = 30;
        let program = std::sync::Arc::new(Program::generate(&WorkloadSpec::tiny()).unwrap());
        for d in DesignPoint::ALL {
            let spec = match d {
                DesignPoint::Baseline | DesignPoint::BaselineShift | DesignPoint::Fdp => {
                    BtbSpec::Baseline1k
                }
                DesignPoint::PhantomFdp | DesignPoint::PhantomShift => {
                    BtbSpec::Phantom { llc_latency }
                }
                DesignPoint::TwoLevelFdp | DesignPoint::TwoLevelShift => BtbSpec::TwoLevelPaper,
                DesignPoint::Confluence => BtbSpec::airbtb_paper(),
                DesignPoint::IdealBtbShift => BtbSpec::Ideal16k,
                DesignPoint::Ideal => BtbSpec::Perfect,
            };
            let timing = d.build_btb(llc_latency);
            let coverage = spec.build(&program);
            assert_eq!(timing.name(), coverage.name(), "{d:?}");
            assert_eq!(timing.storage(), coverage.storage(), "{d:?}");
        }
    }

    #[test]
    fn area_ordering_matches_figure_6() {
        use confluence_area::AreaModel;
        let model = AreaModel::paper();
        let base = DesignPoint::Baseline.storage_profile();
        let rel = |d: DesignPoint| model.relative_area(&d.storage_profile(), &base);
        // Paper x-axis: Baseline = Phantom ≈ 1.0 < Confluence ≈ 1.01
        // < 2LevelBTB+FDP ≈ 1.08 <= 2LevelBTB+SHIFT.
        assert!((rel(DesignPoint::PhantomFdp) - 1.0).abs() < 0.005);
        let conf = rel(DesignPoint::Confluence);
        assert!((1.002..1.02).contains(&conf), "Confluence at {conf}");
        let two = rel(DesignPoint::TwoLevelFdp);
        assert!((1.06..1.11).contains(&two), "2Level at {two}");
        assert!(rel(DesignPoint::TwoLevelShift) > two);
    }
}
