//! The three workloads: which jobs each runs, how `--seed` remaps them,
//! and the set-up, execution and correctness helpers they share.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use confluence_sim::experiments::{self, ExperimentConfig};
use confluence_sim::{
    branch_density_mode, run_coverage_with_mode, simulate_cmp_with_shards_mode, ExecMode, Job,
    JobOutput, SimEngine,
};
use confluence_store::Encode;
use confluence_trace::{Program, Workload};
use confluence_types::DetRng;

/// The five quick workload programs, as an engine holds them.
pub type Programs = Vec<(Workload, Arc<Program>)>;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// The quick suite's whole job list on a fresh 2-thread engine.
    SuiteCold,
    /// Only the suite's coverage and density jobs, on a fresh 1-thread
    /// engine.
    CoverageCold,
    /// The coverage-cold list served by a warm in-process daemon, one
    /// closed-loop client.
    ServedWarm,
}

impl Bench {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Bench; 3] = [Bench::SuiteCold, Bench::CoverageCold, Bench::ServedWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SuiteCold => "suite-cold",
            Bench::CoverageCold => "coverage-cold",
            Bench::ServedWarm => "served-warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Worker threads of the engine that executes (or serves) the list.
    pub fn threads(self) -> usize {
        match self {
            Bench::SuiteCold | Bench::ServedWarm => 2,
            Bench::CoverageCold => 1,
        }
    }

    /// Host seconds of one batch (a cold engine run of the whole list,
    /// or one served request) at the benchmark's first commit, on the
    /// machine README.md describes.
    fn nominal_batch_s(self) -> f64 {
        match self {
            Bench::SuiteCold => 10.0,
            Bench::CoverageCold => 3.0,
            Bench::ServedWarm => 0.005,
        }
    }

    /// Batches a run of `seconds` measures: `seconds` over the nominal
    /// batch time, at least one. The count depends on nothing measured,
    /// so every commit runs the same batch seeds and the same number of
    /// requests, and a faster change finishes sooner rather than doing
    /// more work.
    pub fn batches(self, seconds: f64) -> u64 {
        ((seconds / self.nominal_batch_s()).round() as u64).max(1)
    }

    /// The workload's requested job list, duplicates included, with
    /// `seed` folded into every executor seed.
    pub fn jobs(self, programs: &Programs, seed: u64) -> Vec<Job> {
        // `all_jobs` only reads the engine's workload list; an engine over
        // shared programs costs a few `Arc` clones.
        let engine = SimEngine::new(programs.clone());
        let all = experiments::all_jobs(&engine, &ExperimentConfig::quick());
        all.iter()
            .filter(|j| self == Bench::SuiteCold || !matches!(j, Job::Timing(_)))
            .map(|j| remap(j, seed))
            .collect()
    }
}

/// Folds the benchmark seed into a job's executor seed
/// (`TimingConfig.seed`, `CoverageOptions.seed`, `DensityJob.seed`).
/// XOR is a bijection, so distinct jobs stay distinct, and seed 0 is the
/// identity: it reproduces `experiments::all_jobs` key for key. The
/// calibrated workload programs are left as they are.
pub fn remap(job: &Job, seed: u64) -> Job {
    let mut job = job.clone();
    match &mut job {
        Job::Timing(t) => t.cfg.seed ^= seed,
        Job::Coverage(c) => c.opts.seed ^= seed,
        Job::Density(d) => d.seed ^= seed,
    }
    job
}

/// The job seed of batch `batch` of a run: `seed` itself for the first
/// batch, then distinct XOR offsets. Executor seeds pick the request
/// sequence, and at quick scale one sequence moves the simulated work by
/// tens of percent (every coverage job of a workload shares it), so a run
/// averages its batches over several sequences instead of resting on one.
pub fn batch_seed(seed: u64, batch: u64) -> u64 {
    seed ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The distinct jobs of a list, in first-request order.
pub fn unique(jobs: &[Job]) -> Vec<Job> {
    let mut seen = HashSet::with_capacity(jobs.len());
    jobs.iter().filter(|j| seen.insert(*j)).cloned().collect()
}

/// Job indices in the order `SimEngine::run` starts them: most
/// expensive first, ties in list order.
pub fn engine_order(jobs: &[Job]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cost_hint()));
    order
}

/// Generates the five quick workload programs and forces their
/// translation, as every run's set-up does. Returns the programs with
/// the generation and translation seconds.
pub fn generate_programs() -> (Programs, f64, f64) {
    let t = Instant::now();
    let programs = ExperimentConfig::quick().workloads();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (_, program) in &programs {
        std::hint::black_box(program.compiled());
    }
    (programs, generate_s, t.elapsed().as_secs_f64())
}

/// The program of `workload` in `programs`.
pub fn program_of(programs: &[(Workload, Arc<Program>)], workload: Workload) -> &Arc<Program> {
    &programs
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("the quick configuration generates every workload")
        .1
}

/// Runs one job serially on the calling thread (one core shard), through
/// the same public entry points the engine calls.
pub fn execute(program: &Arc<Program>, job: &Job, mode: ExecMode) -> JobOutput {
    match job {
        Job::Timing(t) => JobOutput::Timing(Arc::new(simulate_cmp_with_shards_mode(
            program, t.design, &t.cfg, 1, mode,
        ))),
        Job::Coverage(c) => JobOutput::Coverage(run_coverage_with_mode(
            program,
            || c.btb.build(program),
            &c.opts,
            mode,
        )),
        Job::Density(d) => {
            let (stat, dynamic) = branch_density_mode(program, d.instrs, d.seed, mode);
            JobOutput::Density(stat, dynamic)
        }
    }
}

/// FNV-1a over the encoded outputs, in order: equal digests mean
/// bit-identical physics.
pub fn digest(encoded_outputs: &[Vec<u8>]) -> u64 {
    confluence_store::wire::fnv1a(&encoded_outputs.concat())
}

/// Seed-chosen indices of the correctness sample: one timing job and one
/// density job when the list has them, and three coverage jobs.
pub fn sample(jobs: &[Job], rng: &mut DetRng) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut pick = |kind: fn(&Job) -> bool, count: usize| {
        let mut pool: Vec<usize> = (0..jobs.len()).filter(|&i| kind(&jobs[i])).collect();
        for _ in 0..count.min(pool.len()) {
            picked.push(pool.swap_remove(rng.index(pool.len())));
        }
    };
    pick(|j| matches!(j, Job::Timing(_)), 1);
    pick(|j| matches!(j, Job::Coverage(_)), 3);
    pick(|j| matches!(j, Job::Density(_)), 1);
    picked
}

/// Re-runs the sampled jobs through the reference executor at one shard
/// and returns the indices whose output differs bit for bit from
/// `outputs` (encoded, index-aligned with `jobs`).
pub fn reference_mismatches(
    programs: &[(Workload, Arc<Program>)],
    jobs: &[Job],
    outputs: &[Vec<u8>],
    rng: &mut DetRng,
) -> Vec<usize> {
    sample(jobs, rng)
        .into_iter()
        .filter(|&i| {
            let program = program_of(programs, jobs[i].workload());
            execute(program, &jobs[i], ExecMode::Reference).to_bytes() != outputs[i]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(job: &Job) -> u8 {
        match job {
            Job::Timing(_) => 0,
            Job::Coverage(_) => 1,
            Job::Density(_) => 2,
        }
    }

    #[test]
    fn default_seed_reproduces_all_jobs_key_for_key() {
        let programs = ExperimentConfig::quick().workloads();
        let engine = SimEngine::new(programs.clone());
        let all = experiments::all_jobs(&engine, &ExperimentConfig::quick());
        assert_eq!(Bench::SuiteCold.jobs(&programs, 0), all);
        let coverage: Vec<Job> = all
            .into_iter()
            .filter(|j| !matches!(j, Job::Timing(_)))
            .collect();
        assert_eq!(Bench::CoverageCold.jobs(&programs, 0), coverage);
        assert_eq!(Bench::ServedWarm.jobs(&programs, 0), coverage);
    }

    #[test]
    fn seed_remapping_preserves_job_count_and_kind() {
        let programs = ExperimentConfig::quick().workloads();
        let base = Bench::SuiteCold.jobs(&programs, 0);
        for seed in [1, 7, 0xDEAD_BEEF] {
            let remapped = Bench::SuiteCold.jobs(&programs, seed);
            assert_eq!(remapped.len(), base.len());
            assert_eq!(unique(&remapped).len(), unique(&base).len());
            for (a, b) in base.iter().zip(&remapped) {
                assert_eq!(kind(a), kind(b));
                assert_eq!(a.workload(), b.workload());
                assert_ne!(a, b, "seed {seed} must change every executor seed");
                assert_eq!(&remap(b, seed), a, "remapping twice is the identity");
            }
        }
    }

    #[test]
    fn batch_seeds_start_at_the_run_seed_and_never_repeat() {
        for seed in [0, 1, 42] {
            assert_eq!(batch_seed(seed, 0), seed);
            let seeds: HashSet<u64> = (0..1000).map(|b| batch_seed(seed, b)).collect();
            assert_eq!(seeds.len(), 1000);
        }
    }

    #[test]
    fn batch_counts_follow_seconds_only() {
        let counts = |seconds| Bench::ALL.map(|b| b.batches(seconds));
        assert_eq!(counts(40.0), [4, 13, 8000]);
        assert_eq!(counts(10.0), [1, 3, 2000]);
        // Never zero, however short the run.
        assert_eq!(counts(0.001), [1, 1, 1]);
    }

    #[test]
    fn suite_lists_have_the_documented_shape() {
        let programs = ExperimentConfig::quick().workloads();
        let suite = Bench::SuiteCold.jobs(&programs, 3);
        let distinct = unique(&suite);
        let count = |k| distinct.iter().filter(|j| kind(j) == k).count();
        assert_eq!((suite.len(), distinct.len()), (390, 230));
        assert_eq!((count(0), count(1), count(2)), (75, 150, 5));
        let coverage = Bench::CoverageCold.jobs(&programs, 3);
        assert_eq!((coverage.len(), unique(&coverage).len()), (245, 155));
    }

    #[test]
    fn sample_picks_each_kind_without_repeats() {
        let programs = ExperimentConfig::quick().workloads();
        let jobs = unique(&Bench::SuiteCold.jobs(&programs, 0));
        let picked = sample(&jobs, &mut DetRng::seed_from(5));
        assert_eq!(picked.len(), 5);
        let mut kinds: Vec<u8> = picked.iter().map(|&i| kind(&jobs[i])).collect();
        kinds.sort_unstable();
        assert_eq!(kinds, vec![0, 1, 1, 1, 2]);
        assert_eq!(picked.iter().collect::<HashSet<_>>().len(), 5);
        let coverage = unique(&Bench::CoverageCold.jobs(&programs, 0));
        assert_eq!(sample(&coverage, &mut DetRng::seed_from(5)).len(), 4);
    }
}
