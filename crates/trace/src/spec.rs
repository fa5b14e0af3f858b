//! Workload specifications: the tunable knobs of the synthetic server
//! workload generator, plus presets for the paper's five workload classes.

use serde::{Deserialize, Serialize};

/// Largest `target_code_kb` a spec may ask for: 1 GiB of code. The
/// compiled translation stores code addresses in 32 bits, and code is
/// laid out from 1 GiB up, so even a program three times its target size
/// stays below 2^32. The presets ask for 3,400–8,500 KB.
const MAX_CODE_KB: usize = 1 << 20;

/// The five server workload classes evaluated in the paper (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// TPC-C on IBM DB2 (OLTP).
    OltpDb2,
    /// TPC-C on Oracle (OLTP); the largest instruction working set — the
    /// only workload that benefits from a 32K-entry BTB (paper Section 2.1).
    OltpOracle,
    /// TPC-H decision-support queries on DB2 (Qry 2/8/17/20 mix).
    DssQueries,
    /// Darwin media streaming server.
    MediaStreaming,
    /// SPECweb99 on Apache (web frontend).
    WebFrontend,
}

impl Workload {
    /// All five workloads, in the paper's presentation order.
    pub const ALL: [Workload; 5] = [
        Workload::OltpDb2,
        Workload::OltpOracle,
        Workload::DssQueries,
        Workload::MediaStreaming,
        Workload::WebFrontend,
    ];

    /// Short display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpDb2 => "OLTP DB2",
            Workload::OltpOracle => "OLTP Oracle",
            Workload::DssQueries => "DSS Qrys",
            Workload::MediaStreaming => "Media Streaming",
            Workload::WebFrontend => "Web Frontend",
        }
    }

    /// The calibrated generator specification for this workload class.
    ///
    /// The parameters are chosen so the generated programs reproduce the
    /// paper's measured workload properties: instruction working sets of
    /// several MB, BTB footprints saturating at 16K entries (32K for
    /// OLTP/Oracle, Figure 1), and the branch densities of Table 2.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Workload::OltpDb2 => WorkloadSpec {
                name: "OLTP DB2",
                structure_seed: 0xD0B2,
                target_code_kb: 5200,
                layers: 13,
                request_types: 10,
                shared_frac: 0.30,
                bb_per_func: (5, 22),
                plain_len_mean: 4.6,
                term_mix: TermMix {
                    cond: 0.56,
                    call: 0.13,
                    jump: 0.08,
                    indirect_call: 0.035,
                    indirect_jump: 0.015,
                    ret: 0.06,
                    fallthrough: 0.12,
                },
                cold_call_prob: 0.10,
                loop_prob: 0.25,
                loop_continue: 0.85,
                strong_bias: 0.90,
                mixed_frac: 0.03,
                indirect_fanout: (2, 6),
                os_interleave: 0.18,
                request_zipf: 0.5,
                flavors_per_request: 96,
                call_scale: 1.0,
                backend_stall_prob: 0.50,
                ..WorkloadSpec::base()
            },
            Workload::OltpOracle => WorkloadSpec {
                name: "OLTP Oracle",
                structure_seed: 0x0AC1E,
                target_code_kb: 8500,
                layers: 14,
                request_types: 20,
                shared_frac: 0.25,
                bb_per_func: (5, 24),
                plain_len_mean: 6.8,
                term_mix: TermMix {
                    cond: 0.52,
                    call: 0.14,
                    jump: 0.08,
                    indirect_call: 0.045,
                    indirect_jump: 0.015,
                    ret: 0.06,
                    fallthrough: 0.14,
                },
                cold_call_prob: 0.28,
                loop_prob: 0.22,
                loop_continue: 0.85,
                strong_bias: 0.90,
                mixed_frac: 0.03,
                indirect_fanout: (2, 8),
                os_interleave: 0.20,
                request_zipf: 0.2,
                flavors_per_request: 96,
                call_scale: 0.62,
                backend_stall_prob: 0.50,
                ..WorkloadSpec::base()
            },
            Workload::DssQueries => WorkloadSpec {
                name: "DSS Qrys",
                structure_seed: 0xD55,
                target_code_kb: 4600,
                layers: 12,
                request_types: 4, // the four TPC-H queries
                shared_frac: 0.42,
                bb_per_func: (5, 20),
                plain_len_mean: 4.8,
                term_mix: TermMix {
                    cond: 0.57,
                    call: 0.12,
                    jump: 0.07,
                    indirect_call: 0.030,
                    indirect_jump: 0.012,
                    ret: 0.06,
                    fallthrough: 0.138,
                },
                cold_call_prob: 0.20,
                loop_prob: 0.38,
                loop_continue: 0.85,
                strong_bias: 0.90,
                mixed_frac: 0.03,
                indirect_fanout: (2, 5),
                os_interleave: 0.10,
                request_zipf: 0.3,
                flavors_per_request: 64,
                call_scale: 1.0,
                backend_stall_prob: 0.50,
                ..WorkloadSpec::base()
            },
            Workload::MediaStreaming => WorkloadSpec {
                name: "Media Streaming",
                structure_seed: 0x3D1A,
                target_code_kb: 4200,
                layers: 12,
                request_types: 8,
                shared_frac: 0.35,
                bb_per_func: (5, 20),
                plain_len_mean: 4.7,
                term_mix: TermMix {
                    cond: 0.55,
                    call: 0.13,
                    jump: 0.08,
                    indirect_call: 0.035,
                    indirect_jump: 0.015,
                    ret: 0.06,
                    fallthrough: 0.13,
                },
                cold_call_prob: 0.20,
                loop_prob: 0.30,
                loop_continue: 0.85,
                strong_bias: 0.90,
                mixed_frac: 0.03,
                indirect_fanout: (2, 6),
                os_interleave: 0.22,
                request_zipf: 0.7,
                flavors_per_request: 72,
                call_scale: 1.0,
                backend_stall_prob: 0.50,
                ..WorkloadSpec::base()
            },
            Workload::WebFrontend => WorkloadSpec {
                name: "Web Frontend",
                structure_seed: 0x3EB,
                target_code_kb: 3400,
                layers: 13,
                request_types: 14,
                shared_frac: 0.32,
                bb_per_func: (4, 16),
                plain_len_mean: 4.2,
                term_mix: TermMix {
                    cond: 0.58,
                    call: 0.14,
                    jump: 0.08,
                    indirect_call: 0.040,
                    indirect_jump: 0.015,
                    ret: 0.065,
                    fallthrough: 0.08,
                },
                cold_call_prob: 0.32,
                loop_prob: 0.22,
                loop_continue: 0.85,
                strong_bias: 0.90,
                mixed_frac: 0.03,
                indirect_fanout: (2, 7),
                os_interleave: 0.28,
                request_zipf: 1.1,
                flavors_per_request: 96,
                call_scale: 1.0,
                backend_stall_prob: 0.50,
                ..WorkloadSpec::base()
            },
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Probability mix over basic-block terminator kinds.
///
/// The seven fields should sum to 1.0 (validated by
/// [`WorkloadSpec::validate`]); `fallthrough` means the block has no
/// terminating branch and control continues into the next block.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TermMix {
    /// Conditional direct branch.
    pub cond: f64,
    /// Direct call.
    pub call: f64,
    /// Unconditional direct jump.
    pub jump: f64,
    /// Indirect call (virtual dispatch).
    pub indirect_call: f64,
    /// Indirect jump (switch table).
    pub indirect_jump: f64,
    /// Early return.
    pub ret: f64,
    /// No terminator: fall through into the next block.
    pub fallthrough: f64,
}

impl TermMix {
    fn total(&self) -> f64 {
        self.cond
            + self.call
            + self.jump
            + self.indirect_call
            + self.indirect_jump
            + self.ret
            + self.fallthrough
    }
}

/// Full parameter set for generating one synthetic server workload.
///
/// A `WorkloadSpec` describes the *static program* (code size, call-graph
/// shape, branch mix) and the *dynamic behaviour* (request popularity,
/// branch biases, OS interleaving). Programs are generated deterministically
/// from (`spec`, `structure_seed`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable workload name.
    pub name: &'static str,
    /// Seed for the static program structure (layout, call graph, biases).
    pub structure_seed: u64,
    /// Approximate instruction footprint to generate, in KiB.
    pub target_code_kb: usize,
    /// Depth of the service-layer stack ("over a dozen layers", paper §1).
    pub layers: usize,
    /// Number of distinct request types served.
    pub request_types: usize,
    /// Fraction of each layer's functions shared across request types
    /// (common libraries, allocator, OS).
    pub shared_frac: f64,
    /// Min/max basic blocks per function.
    pub bb_per_func: (usize, usize),
    /// Mean number of non-branch instructions per basic block in *hot*
    /// (request-path, shared, OS) functions. Hot code has longer
    /// straight-line runs, keeping most hot blocks at or below the 3-entry
    /// AirBTB bundle capacity.
    pub plain_len_mean: f64,
    /// Mean non-branch instructions per basic block in *cold* functions
    /// (error/slow paths). Cold code is branch-dense, which inflates the
    /// static branch density of demand-fetched blocks (Table 2) without
    /// adding dynamically hot branches.
    pub plain_len_cold: f64,
    /// Fraction of strongly-biased conditionals that are biased *taken*
    /// (the rest are biased not-taken). Forward conditionals in real code
    /// predominantly fall through.
    pub taken_bias_frac: f64,
    /// Terminator kind probabilities.
    pub term_mix: TermMix,
    /// Probability that a call site targets a cold (error/slow-path)
    /// function guarded by a rarely-taken conditional.
    pub cold_call_prob: f64,
    /// Probability a function contains a loop back-edge.
    pub loop_prob: f64,
    /// Loop back-edge taken probability (mean trip count ≈ 1/(1-p)).
    pub loop_continue: f64,
    /// Typical taken (or not-taken) probability of biased conditionals.
    pub strong_bias: f64,
    /// Fraction of conditionals that are weakly biased (hard to predict).
    pub mixed_frac: f64,
    /// Min/max distinct targets of indirect call/jump sites.
    pub indirect_fanout: (usize, usize),
    /// Probability that an OS service routine runs between two requests.
    pub os_interleave: f64,
    /// Zipf skew of request-type popularity (0 = uniform).
    pub request_zipf: f64,
    /// Size of each request type's *flavor pool*. A flavor pins every
    /// data-dependent outcome of one request instance (branch directions,
    /// dispatch targets, trip counts), so control flow is deterministic
    /// per flavor and recurs as flavors repeat — the request-level
    /// recurrence that temporal streaming exploits (paper Section 2.2).
    /// More flavors = larger dynamic code footprint.
    pub flavors_per_request: usize,
    /// Multiplier on call-site density (controls request size: the mean
    /// number of functions a request touches). 1.0 = default profile.
    pub call_scale: f64,
    /// Timing-model calibration: probability that a retire slot stalls on
    /// backend (data-side) work. Models the OoO backend's data misses which
    /// the frontend simulator does not replay.
    pub backend_stall_prob: f64,
}

impl WorkloadSpec {
    /// A small, fast default spec used by tests and the quickstart example.
    pub fn base() -> Self {
        WorkloadSpec {
            name: "base",
            structure_seed: 0xBA5E,
            target_code_kb: 256,
            layers: 6,
            request_types: 4,
            shared_frac: 0.3,
            bb_per_func: (4, 16),
            plain_len_mean: 4.6,
            plain_len_cold: 0.7,
            taken_bias_frac: 0.35,
            term_mix: TermMix {
                cond: 0.56,
                call: 0.13,
                jump: 0.08,
                indirect_call: 0.035,
                indirect_jump: 0.015,
                ret: 0.06,
                fallthrough: 0.12,
            },
            cold_call_prob: 0.10,
            loop_prob: 0.25,
            loop_continue: 0.85,
            strong_bias: 0.90,
            mixed_frac: 0.03,
            indirect_fanout: (2, 6),
            os_interleave: 0.15,
            request_zipf: 0.8,
            flavors_per_request: 24,
            call_scale: 1.0,
            backend_stall_prob: 0.50,
        }
    }

    /// A tiny spec for unit tests that need to run in milliseconds.
    pub fn tiny() -> Self {
        WorkloadSpec {
            name: "tiny",
            target_code_kb: 48,
            layers: 4,
            request_types: 2,
            ..WorkloadSpec::base()
        }
    }

    /// Returns a copy scaled to roughly `kb` KiB of code, for capacity
    /// sweeps and sensitivity studies.
    pub fn with_code_kb(mut self, kb: usize) -> Self {
        self.target_code_kb = kb;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`confluence_types::ConfigError`] if probabilities are out of
    /// range, the terminator mix does not sum to ~1, structural sizes are
    /// zero, or the code size exceeds 1 GiB.
    pub fn validate(&self) -> Result<(), confluence_types::ConfigError> {
        use confluence_types::ConfigError;
        let probs = [
            ("shared_frac", self.shared_frac),
            ("cold_call_prob", self.cold_call_prob),
            ("loop_prob", self.loop_prob),
            ("loop_continue", self.loop_continue),
            ("strong_bias", self.strong_bias),
            ("mixed_frac", self.mixed_frac),
            ("os_interleave", self.os_interleave),
            ("backend_stall_prob", self.backend_stall_prob),
            ("taken_bias_frac", self.taken_bias_frac),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::new(format!(
                    "{name} = {p} is not a probability"
                )));
            }
        }
        if (self.term_mix.total() - 1.0).abs() > 1e-6 {
            return Err(ConfigError::new(format!(
                "terminator mix sums to {}, expected 1.0",
                self.term_mix.total()
            )));
        }
        if self.layers < 2 {
            return Err(ConfigError::new("need at least 2 service layers"));
        }
        if self.request_types == 0 {
            return Err(ConfigError::new("need at least one request type"));
        }
        if self.flavors_per_request == 0 {
            return Err(ConfigError::new(
                "need at least one flavor per request type",
            ));
        }
        if self.bb_per_func.0 < 2 || self.bb_per_func.0 > self.bb_per_func.1 {
            return Err(ConfigError::new("bb_per_func range invalid (min 2)"));
        }
        if self.target_code_kb < 16 {
            return Err(ConfigError::new("target_code_kb must be at least 16"));
        }
        if self.target_code_kb > MAX_CODE_KB {
            return Err(ConfigError::new(format!(
                "target_code_kb = {} exceeds {MAX_CODE_KB} (1 GiB of code)",
                self.target_code_kb
            )));
        }
        if self.indirect_fanout.0 < 1 || self.indirect_fanout.0 > self.indirect_fanout.1 {
            return Err(ConfigError::new("indirect_fanout range invalid"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for w in Workload::ALL {
            w.spec().validate().unwrap_or_else(|e| panic!("{w}: {e}"));
        }
        WorkloadSpec::base().validate().unwrap();
        WorkloadSpec::tiny().validate().unwrap();
    }

    #[test]
    fn oracle_has_largest_working_set() {
        let sizes: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.spec().target_code_kb)
            .collect();
        let oracle = Workload::OltpOracle.spec().target_code_kb;
        assert!(sizes.iter().all(|&s| s <= oracle));
    }

    #[test]
    fn validate_rejects_bad_mix() {
        let mut s = WorkloadSpec::base();
        s.term_mix.cond += 0.5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut s = WorkloadSpec::base();
        s.strong_bias = 1.5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_structure() {
        let mut s = WorkloadSpec::base();
        s.layers = 1;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::base();
        s.bb_per_func = (1, 4);
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::base();
        s.target_code_kb = 4;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_caps_code_below_32_bit_addresses() {
        let mut s = WorkloadSpec::base();
        s.target_code_kb = MAX_CODE_KB;
        s.validate().expect("1 GiB of code is allowed");
        s.target_code_kb = MAX_CODE_KB + 1;
        let err = s
            .validate()
            .expect_err("more than 1 GiB of code is refused");
        assert!(err.to_string().contains("target_code_kb"), "{err}");
        // Code that would reach 2^32 is refused before any generation.
        s.target_code_kb = 4 << 20;
        assert!(s.validate().is_err());
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Workload::OltpDb2.name(), "OLTP DB2");
        assert_eq!(Workload::DssQueries.name(), "DSS Qrys");
        assert_eq!(format!("{}", Workload::WebFrontend), "Web Frontend");
    }
}
