//! The versioned binary schema for persisting engine results: how a
//! [`Job`] key and a [`JobOutput`] value are laid out on the wire.
//!
//! Built on `confluence_store`'s [`Encode`]/[`Decode`] traits and wire
//! conventions (varint integers, bit-exact `f64`, 1-byte enum tags).
//! Domain types owned by other crates (`Workload`, `CoreParams`,
//! `MemParams`, `AirBtbMode`) are encoded through free functions here so
//! the whole schema lives in one reviewable file.
//!
//! **Versioning contract:** any change to these encodings — or to the
//! simulators, such that an old stored result would no longer equal a
//! fresh run — must bump [`SCHEMA_VERSION`]. The store segregates entries
//! by version, so a bump silently orphans old entries rather than
//! serving stale results. Tag values and field orders below are pinned
//! by the golden-bytes tests at the bottom of this file.

use std::sync::Arc;

use confluence_core::AirBtbMode;
use confluence_store::{Decode, Encode, Reader, WireError};
use confluence_trace::{Program, Workload, WorkloadSpec};
use confluence_uarch::{CoreParams, MemParams};

use crate::cmp::{TimingConfig, TimingResult};
use crate::coverage::{CoverageOptions, CoverageResult};
use crate::designs::DesignPoint;
use crate::job::{BtbSpec, CoverageJob, DensityJob, Job, JobOutput, TimingJob};
use crate::timing::CoreStats;

/// Version of the persisted schema: job keys, output values, and the
/// simulator behavior they summarize. Bump on any change that would make
/// a stored result differ from a fresh simulation.
pub const SCHEMA_VERSION: u32 = 1;

/// The on-disk lookup key: the job *and* the workload spec its program
/// was generated from. `Job` alone names the workload by enum variant,
/// which aliases across configurations that tune the generator (quick
/// mode quarters `target_code_kb`); folding the full spec into the key
/// keeps such runs from ever sharing an entry.
#[derive(Clone, Copy, Debug)]
pub struct StoreKey<'a> {
    /// Spec of the program the job executes against.
    pub spec: &'a WorkloadSpec,
    /// The content-keyed job itself.
    pub job: &'a Job,
}

impl Encode for StoreKey<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_spec(self.spec, out);
        self.job.encode(out);
    }
}

fn tag_error(offset: usize, reason: &'static str) -> WireError {
    WireError { offset, reason }
}

// ---------------------------------------------------------------------------
// Foreign leaf types (encoded via free functions; tags are schema-pinned).

fn encode_workload(w: Workload, out: &mut Vec<u8>) {
    out.push(match w {
        Workload::OltpDb2 => 0,
        Workload::OltpOracle => 1,
        Workload::DssQueries => 2,
        Workload::MediaStreaming => 3,
        Workload::WebFrontend => 4,
    });
}

fn decode_workload(r: &mut Reader<'_>) -> Result<Workload, WireError> {
    let offset = r.offset();
    Ok(match r.u8()? {
        0 => Workload::OltpDb2,
        1 => Workload::OltpOracle,
        2 => Workload::DssQueries,
        3 => Workload::MediaStreaming,
        4 => Workload::WebFrontend,
        _ => return Err(tag_error(offset, "unknown workload tag")),
    })
}

fn encode_airbtb_mode(m: AirBtbMode, out: &mut Vec<u8>) {
    out.push(match m {
        AirBtbMode::CapacityOnly => 0,
        AirBtbMode::SpatialLocality => 1,
        AirBtbMode::Prefetching => 2,
        AirBtbMode::Full => 3,
    });
}

fn decode_airbtb_mode(r: &mut Reader<'_>) -> Result<AirBtbMode, WireError> {
    let offset = r.offset();
    Ok(match r.u8()? {
        0 => AirBtbMode::CapacityOnly,
        1 => AirBtbMode::SpatialLocality,
        2 => AirBtbMode::Prefetching,
        3 => AirBtbMode::Full,
        _ => return Err(tag_error(offset, "unknown AirBTB mode tag")),
    })
}

fn encode_core_params(p: &CoreParams, out: &mut Vec<u8>) {
    p.fetch_queue_regions.encode(out);
    p.btb_miss_seq_instrs.encode(out);
    p.misfetch_penalty.encode(out);
    p.mispredict_penalty.encode(out);
    p.retire_width.encode(out);
    p.instr_buffer.encode(out);
    p.predictions_per_cycle.encode(out);
    p.fetch_width.encode(out);
}

fn decode_core_params(r: &mut Reader<'_>) -> Result<CoreParams, WireError> {
    Ok(CoreParams {
        fetch_queue_regions: Decode::decode(r)?,
        btb_miss_seq_instrs: Decode::decode(r)?,
        misfetch_penalty: Decode::decode(r)?,
        mispredict_penalty: Decode::decode(r)?,
        retire_width: Decode::decode(r)?,
        instr_buffer: Decode::decode(r)?,
        predictions_per_cycle: Decode::decode(r)?,
        fetch_width: Decode::decode(r)?,
    })
}

fn encode_mem_params(p: &MemParams, out: &mut Vec<u8>) {
    p.l1i_bytes.encode(out);
    p.l1i_ways.encode(out);
    p.l1i_latency.encode(out);
    p.l1i_mshrs.encode(out);
    p.cores.encode(out);
    p.llc_slice_bytes.encode(out);
    p.llc_ways.encode(out);
    p.llc_bank_latency.encode(out);
    p.noc_hop_latency.encode(out);
    p.mem_latency.encode(out);
    p.block_bytes.encode(out);
}

fn decode_mem_params(r: &mut Reader<'_>) -> Result<MemParams, WireError> {
    Ok(MemParams {
        l1i_bytes: Decode::decode(r)?,
        l1i_ways: Decode::decode(r)?,
        l1i_latency: Decode::decode(r)?,
        l1i_mshrs: Decode::decode(r)?,
        cores: Decode::decode(r)?,
        llc_slice_bytes: Decode::decode(r)?,
        llc_ways: Decode::decode(r)?,
        llc_bank_latency: Decode::decode(r)?,
        noc_hop_latency: Decode::decode(r)?,
        mem_latency: Decode::decode(r)?,
        block_bytes: Decode::decode(r)?,
    })
}

/// Encodes the full workload-generator spec (key-side only — specs are
/// never decoded back, just compared as bytes). The exhaustive
/// destructuring (no `..`) makes a newly added `WorkloadSpec` or
/// `TermMix` field a compile error here, instead of a silently aliasing
/// store key; when that fires, append the field below and bump
/// [`SCHEMA_VERSION`].
fn encode_spec(s: &WorkloadSpec, out: &mut Vec<u8>) {
    let WorkloadSpec {
        name,
        structure_seed,
        target_code_kb,
        layers,
        request_types,
        shared_frac,
        bb_per_func,
        plain_len_mean,
        plain_len_cold,
        taken_bias_frac,
        term_mix,
        cold_call_prob,
        loop_prob,
        loop_continue,
        strong_bias,
        mixed_frac,
        indirect_fanout,
        os_interleave,
        request_zipf,
        flavors_per_request,
        call_scale,
        backend_stall_prob,
    } = s;
    let confluence_trace::TermMix {
        cond,
        call,
        jump,
        indirect_call,
        indirect_jump,
        ret,
        fallthrough,
    } = term_mix;
    name.encode(out);
    structure_seed.encode(out);
    target_code_kb.encode(out);
    layers.encode(out);
    request_types.encode(out);
    shared_frac.encode(out);
    bb_per_func.encode(out);
    plain_len_mean.encode(out);
    plain_len_cold.encode(out);
    taken_bias_frac.encode(out);
    cond.encode(out);
    call.encode(out);
    jump.encode(out);
    indirect_call.encode(out);
    indirect_jump.encode(out);
    ret.encode(out);
    fallthrough.encode(out);
    cold_call_prob.encode(out);
    loop_prob.encode(out);
    loop_continue.encode(out);
    strong_bias.encode(out);
    mixed_frac.encode(out);
    indirect_fanout.encode(out);
    os_interleave.encode(out);
    request_zipf.encode(out);
    flavors_per_request.encode(out);
    call_scale.encode(out);
    backend_stall_prob.encode(out);
}

// ---------------------------------------------------------------------------
// Sim-owned key types.

impl Encode for DesignPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DesignPoint::Baseline => 0,
            DesignPoint::BaselineShift => 1,
            DesignPoint::Fdp => 2,
            DesignPoint::PhantomFdp => 3,
            DesignPoint::TwoLevelFdp => 4,
            DesignPoint::PhantomShift => 5,
            DesignPoint::TwoLevelShift => 6,
            DesignPoint::Confluence => 7,
            DesignPoint::IdealBtbShift => 8,
            DesignPoint::Ideal => 9,
        });
    }
}

impl Decode for DesignPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            0 => DesignPoint::Baseline,
            1 => DesignPoint::BaselineShift,
            2 => DesignPoint::Fdp,
            3 => DesignPoint::PhantomFdp,
            4 => DesignPoint::TwoLevelFdp,
            5 => DesignPoint::PhantomShift,
            6 => DesignPoint::TwoLevelShift,
            7 => DesignPoint::Confluence,
            8 => DesignPoint::IdealBtbShift,
            9 => DesignPoint::Ideal,
            _ => return Err(tag_error(offset, "unknown design-point tag")),
        })
    }
}

impl Encode for BtbSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            BtbSpec::Conventional {
                entries,
                ways,
                victim_entries,
            } => {
                out.push(0);
                entries.encode(out);
                ways.encode(out);
                victim_entries.encode(out);
            }
            BtbSpec::Baseline1k => out.push(1),
            BtbSpec::Large16k => out.push(2),
            BtbSpec::Phantom { llc_latency } => {
                out.push(3);
                llc_latency.encode(out);
            }
            BtbSpec::TwoLevelPaper => out.push(4),
            BtbSpec::AirBtb {
                mode,
                bundles,
                bundle_entries,
                overflow_entries,
            } => {
                out.push(5);
                encode_airbtb_mode(mode, out);
                bundles.encode(out);
                bundle_entries.encode(out);
                overflow_entries.encode(out);
            }
            BtbSpec::Ideal16k => out.push(6),
            BtbSpec::Perfect => out.push(7),
        }
    }
}

impl Decode for BtbSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            0 => BtbSpec::Conventional {
                entries: Decode::decode(r)?,
                ways: Decode::decode(r)?,
                victim_entries: Decode::decode(r)?,
            },
            1 => BtbSpec::Baseline1k,
            2 => BtbSpec::Large16k,
            3 => BtbSpec::Phantom {
                llc_latency: Decode::decode(r)?,
            },
            4 => BtbSpec::TwoLevelPaper,
            5 => BtbSpec::AirBtb {
                mode: decode_airbtb_mode(r)?,
                bundles: Decode::decode(r)?,
                bundle_entries: Decode::decode(r)?,
                overflow_entries: Decode::decode(r)?,
            },
            6 => BtbSpec::Ideal16k,
            7 => BtbSpec::Perfect,
            _ => return Err(tag_error(offset, "unknown BTB-spec tag")),
        })
    }
}

impl Encode for CoverageOptions {
    fn encode(&self, out: &mut Vec<u8>) {
        self.warmup_instrs.encode(out);
        self.measure_instrs.encode(out);
        self.seed.encode(out);
        self.use_shift.encode(out);
        self.history_entries.encode(out);
        // Schema v1 **tail extension** (L1-I capacity + SHIFT lookahead
        // sweeps): both fields are appended together, and only when at
        // least one is non-default. Default-valued options keep the
        // original five-field byte layout, so every pre-extension content
        // key — and every stored entry — is unchanged; non-default
        // options get strictly longer (hence distinct) keys. Sound
        // because `CoverageOptions` sits in tail position of every
        // encoding that contains it (`CoverageJob`, `Job`, `StoreKey`),
        // which is what lets the decoder treat "no bytes left" as "both
        // defaults".
        if self.l1i_kb != crate::coverage::DEFAULT_L1I_KB
            || self.shift_lookahead != confluence_prefetch::DEFAULT_LOOKAHEAD
        {
            self.l1i_kb.encode(out);
            self.shift_lookahead.encode(out);
        }
    }
}

impl Decode for CoverageOptions {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut opts = CoverageOptions {
            warmup_instrs: Decode::decode(r)?,
            measure_instrs: Decode::decode(r)?,
            seed: Decode::decode(r)?,
            use_shift: Decode::decode(r)?,
            history_entries: Decode::decode(r)?,
            ..CoverageOptions::default()
        };
        if !r.is_empty() {
            opts.l1i_kb = Decode::decode(r)?;
            opts.shift_lookahead = Decode::decode(r)?;
        }
        Ok(opts)
    }
}

impl Encode for TimingConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cores.encode(out);
        self.warmup_instrs.encode(out);
        self.measure_instrs.encode(out);
        self.history_entries.encode(out);
        self.seed.encode(out);
        encode_core_params(&self.core, out);
        encode_mem_params(&self.mem, out);
    }
}

impl Decode for TimingConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TimingConfig {
            cores: Decode::decode(r)?,
            warmup_instrs: Decode::decode(r)?,
            measure_instrs: Decode::decode(r)?,
            history_entries: Decode::decode(r)?,
            seed: Decode::decode(r)?,
            core: decode_core_params(r)?,
            mem: decode_mem_params(r)?,
        })
    }
}

impl Encode for CoverageJob {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_workload(self.workload, out);
        self.btb.encode(out);
        self.opts.encode(out);
    }
}

impl Decode for CoverageJob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CoverageJob {
            workload: decode_workload(r)?,
            btb: Decode::decode(r)?,
            opts: Decode::decode(r)?,
        })
    }
}

impl Encode for TimingJob {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_workload(self.workload, out);
        self.design.encode(out);
        self.cfg.encode(out);
    }
}

impl Decode for TimingJob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TimingJob {
            workload: decode_workload(r)?,
            design: Decode::decode(r)?,
            cfg: Decode::decode(r)?,
        })
    }
}

impl Encode for DensityJob {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_workload(self.workload, out);
        self.instrs.encode(out);
        self.seed.encode(out);
    }
}

impl Decode for DensityJob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DensityJob {
            workload: decode_workload(r)?,
            instrs: Decode::decode(r)?,
            seed: Decode::decode(r)?,
        })
    }
}

impl Encode for Job {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Job::Coverage(j) => {
                out.push(0);
                j.encode(out);
            }
            Job::Timing(j) => {
                out.push(1);
                j.encode(out);
            }
            Job::Density(j) => {
                out.push(2);
                j.encode(out);
            }
        }
    }
}

impl Decode for Job {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            0 => Job::Coverage(Decode::decode(r)?),
            1 => Job::Timing(Decode::decode(r)?),
            2 => Job::Density(Decode::decode(r)?),
            _ => return Err(tag_error(offset, "unknown job tag")),
        })
    }
}

// ---------------------------------------------------------------------------
// Output values.

impl Encode for CoverageResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.instrs.encode(out);
        self.branches.encode(out);
        self.taken_branches.encode(out);
        self.btb_misses.encode(out);
        self.l1i_accesses.encode(out);
        self.l1i_misses.encode(out);
        self.prefetch_fills.encode(out);
    }
}

impl Decode for CoverageResult {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CoverageResult {
            instrs: Decode::decode(r)?,
            branches: Decode::decode(r)?,
            taken_branches: Decode::decode(r)?,
            btb_misses: Decode::decode(r)?,
            l1i_accesses: Decode::decode(r)?,
            l1i_misses: Decode::decode(r)?,
            prefetch_fills: Decode::decode(r)?,
        })
    }
}

impl Encode for CoreStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cycles.encode(out);
        self.retired.encode(out);
        self.branches.encode(out);
        self.taken_branches.encode(out);
        self.btb_misses.encode(out);
        self.misfetches.encode(out);
        self.l2_bubble_cycles.encode(out);
        self.mispredicts.encode(out);
        self.l1i_accesses.encode(out);
        self.l1i_misses.encode(out);
        self.prefetch_fills.encode(out);
        self.fetch_stall_cycles.encode(out);
    }
}

impl Decode for CoreStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CoreStats {
            cycles: Decode::decode(r)?,
            retired: Decode::decode(r)?,
            branches: Decode::decode(r)?,
            taken_branches: Decode::decode(r)?,
            btb_misses: Decode::decode(r)?,
            misfetches: Decode::decode(r)?,
            l2_bubble_cycles: Decode::decode(r)?,
            mispredicts: Decode::decode(r)?,
            l1i_accesses: Decode::decode(r)?,
            l1i_misses: Decode::decode(r)?,
            prefetch_fills: Decode::decode(r)?,
            fetch_stall_cycles: Decode::decode(r)?,
        })
    }
}

impl Encode for TimingResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.design.encode(out);
        self.per_core.encode(out);
        self.total_cycles.encode(out);
    }
}

impl Decode for TimingResult {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TimingResult {
            design: Decode::decode(r)?,
            per_core: Decode::decode(r)?,
            total_cycles: Decode::decode(r)?,
        })
    }
}

impl Encode for JobOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JobOutput::Coverage(res) => {
                out.push(0);
                res.encode(out);
            }
            JobOutput::Timing(res) => {
                out.push(1);
                res.encode(out);
            }
            JobOutput::Density(stat, dynamic) => {
                out.push(2);
                stat.encode(out);
                dynamic.encode(out);
            }
        }
    }
}

impl Decode for JobOutput {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            0 => JobOutput::Coverage(Decode::decode(r)?),
            1 => JobOutput::Timing(Arc::new(Decode::decode(r)?)),
            2 => JobOutput::Density(Decode::decode(r)?, Decode::decode(r)?),
            _ => return Err(tag_error(offset, "unknown job-output tag")),
        })
    }
}

/// FNV-1a fingerprint of an engine's workload configuration: every
/// workload tag plus its full generating spec, in declaration order.
/// The daemon handshake compares fingerprints so a quick-mode client
/// talking to a full-mode daemon (or any other spec divergence — the
/// `Job` bytes alone do not carry the spec) is a typed refusal up
/// front instead of silently different results.
pub fn workloads_fingerprint(workloads: &[(Workload, Arc<Program>)]) -> u64 {
    let mut bytes = Vec::new();
    for (w, program) in workloads {
        encode_workload(*w, &mut bytes);
        encode_spec(program.spec(), &mut bytes);
    }
    confluence_store::wire::fnv1a(&bytes)
}

/// True when a decoded output is the kind `job` produces. A store entry
/// that parses but answers a different question (only possible through
/// corruption that survives every other check) must be treated as a miss.
pub fn output_matches(job: &Job, output: &JobOutput) -> bool {
    matches!(
        (job, output),
        (Job::Coverage(_), JobOutput::Coverage(_))
            | (Job::Timing(_), JobOutput::Timing(_))
            | (Job::Density(_), JobOutput::Density(..))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn roundtrip_job(job: Job) {
        let bytes = job.to_bytes();
        assert_eq!(Job::from_bytes(&bytes).unwrap(), job, "{job:?}");
    }

    fn roundtrip_output(out: JobOutput) {
        let bytes = out.to_bytes();
        assert_eq!(JobOutput::from_bytes(&bytes).unwrap(), out, "{out:?}");
    }

    #[test]
    fn every_btb_spec_variant_roundtrips() {
        let specs = [
            BtbSpec::Conventional {
                entries: 2048,
                ways: 4,
                victim_entries: 64,
            },
            BtbSpec::Baseline1k,
            BtbSpec::Large16k,
            BtbSpec::Phantom { llc_latency: 26 },
            BtbSpec::TwoLevelPaper,
            BtbSpec::airbtb_paper(),
            BtbSpec::Ideal16k,
            BtbSpec::Perfect,
        ];
        for spec in specs {
            let bytes = spec.to_bytes();
            assert_eq!(BtbSpec::from_bytes(&bytes).unwrap(), spec, "{spec:?}");
        }
    }

    #[test]
    fn every_job_kind_roundtrips() {
        roundtrip_job(Job::Coverage(CoverageJob {
            workload: Workload::OltpOracle,
            btb: BtbSpec::airbtb_paper(),
            opts: CoverageOptions::quick().with_shift(),
        }));
        roundtrip_job(Job::Timing(TimingJob {
            workload: Workload::MediaStreaming,
            design: DesignPoint::Confluence,
            cfg: TimingConfig::quick(),
        }));
        roundtrip_job(Job::Density(DensityJob {
            workload: Workload::WebFrontend,
            instrs: 600_000,
            seed: 3,
        }));
    }

    #[test]
    fn every_output_kind_roundtrips() {
        roundtrip_output(JobOutput::Coverage(CoverageResult {
            instrs: 1,
            branches: 2,
            taken_branches: 3,
            btb_misses: 4,
            l1i_accesses: 5,
            l1i_misses: 6,
            prefetch_fills: 7,
        }));
        roundtrip_output(JobOutput::Timing(Arc::new(TimingResult {
            design: DesignPoint::Ideal,
            per_core: vec![
                CoreStats {
                    cycles: 100,
                    retired: 90,
                    ..Default::default()
                },
                CoreStats::default(),
            ],
            total_cycles: 100,
        })));
        roundtrip_output(JobOutput::Density(3.25, -0.0));
    }

    #[test]
    fn unknown_tags_error_with_offsets() {
        assert_eq!(Job::from_bytes(&[9]).unwrap_err().offset, 0);
        assert_eq!(JobOutput::from_bytes(&[9]).unwrap_err().offset, 0);
        assert_eq!(BtbSpec::from_bytes(&[99]).unwrap_err().offset, 0);
        assert_eq!(DesignPoint::from_bytes(&[10]).unwrap_err().offset, 0);
    }

    #[test]
    fn store_keys_differ_when_only_the_spec_differs() {
        let job = Job::Density(DensityJob {
            workload: Workload::WebFrontend,
            instrs: 1000,
            seed: 1,
        });
        let full = Workload::WebFrontend.spec();
        let mut quick = Workload::WebFrontend.spec();
        quick.target_code_kb /= 4;
        let a = StoreKey {
            spec: &full,
            job: &job,
        }
        .to_bytes();
        let b = StoreKey {
            spec: &quick,
            job: &job,
        }
        .to_bytes();
        assert_ne!(a, b, "spec must be part of the persisted key");
    }

    /// Golden bytes: pins tag values, field order, and integer encodings
    /// of schema v1. If this test fails, the wire format changed — bump
    /// [`SCHEMA_VERSION`] and update the expectation.
    #[test]
    fn golden_bytes_pin_schema_v1() {
        assert_eq!(SCHEMA_VERSION, 1);
        let job = Job::Coverage(CoverageJob {
            workload: Workload::DssQueries,
            btb: BtbSpec::AirBtb {
                mode: AirBtbMode::Full,
                bundles: 512,
                bundle_entries: 3,
                overflow_entries: 32,
            },
            opts: CoverageOptions {
                warmup_instrs: 300_000,
                measure_instrs: 500_000,
                seed: 1,
                use_shift: true,
                history_entries: 8192,
                ..CoverageOptions::default()
            },
        });
        assert_eq!(hex(&job.to_bytes()), "0002050380040320e0a712a0c21e01018040");

        let output = JobOutput::Density(1.5, 2.0);
        assert_eq!(
            hex(&output.to_bytes()),
            "02000000000000f83f0000000000000040"
        );
    }

    /// The v1 tail extension: default L1-I capacity and SHIFT lookahead
    /// encode to *nothing* (the original five-field layout — pinned by
    /// `golden_bytes_pin_schema_v1` staying green without a regold), and
    /// a non-default value of either appends both fields.
    #[test]
    fn coverage_options_tail_extension_is_default_invisible() {
        let default_form = CoverageOptions::quick().to_bytes();
        let spelled_out = CoverageOptions {
            l1i_kb: crate::coverage::DEFAULT_L1I_KB,
            shift_lookahead: confluence_prefetch::DEFAULT_LOOKAHEAD,
            ..CoverageOptions::quick()
        }
        .to_bytes();
        assert_eq!(
            default_form, spelled_out,
            "default tail values must not change the encoding"
        );

        for opts in [
            CoverageOptions {
                l1i_kb: 64,
                ..CoverageOptions::quick()
            },
            CoverageOptions {
                shift_lookahead: 8,
                ..CoverageOptions::quick()
            },
        ] {
            let bytes = opts.to_bytes();
            assert_eq!(
                bytes.len(),
                default_form.len() + 2,
                "a non-default tail appends both varint fields"
            );
            assert_eq!(CoverageOptions::from_bytes(&bytes).unwrap(), opts);
        }

        // Golden bytes for the extended form: five quick-mode fields plus
        // the (l1i_kb, shift_lookahead) tail.
        let extended = CoverageOptions {
            l1i_kb: 128,
            shift_lookahead: 48,
            ..CoverageOptions::quick()
        };
        assert_eq!(hex(&extended.to_bytes()), "c09a0c80b5180100808002800130");
    }

    /// Dropping the whole tail of an extended encoding yields the
    /// default-tail options (the price of a default-invisible extension,
    /// harmless because the store compares full key bytes); any *partial*
    /// tail is an error.
    #[test]
    fn truncated_tail_extension_never_half_decodes() {
        let extended = CoverageOptions {
            l1i_kb: 64,
            shift_lookahead: 8,
            ..CoverageOptions::quick()
        };
        let bytes = extended.to_bytes();
        let without_tail = CoverageOptions::from_bytes(&bytes[..bytes.len() - 2]).unwrap();
        assert_eq!(without_tail, CoverageOptions::quick());
        assert!(CoverageOptions::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
