//! Test-first golden harness for the sensitivity-sweep subsystem.
//!
//! Every registered study is pinned three ways:
//!
//! 1. **Goldens** — the quick-mode, single-workload CSV of each study is
//!    byte-compared against `tests/goldens/<study>.csv`. The simulators
//!    are pure functions of their job keys, so these are stable across
//!    hosts; a mismatch means the physics (or the report layout)
//!    changed. Regenerate deliberately with
//!    `CONFLUENCE_REGOLD=1 cargo test` and review the diff — and bump
//!    `SCHEMA_VERSION` if stored results changed meaning.
//! 2. **Warm-store re-run** — a fresh engine over the same store must
//!    execute zero simulations and render byte-identical reports.
//! 3. **Properties** — monotonicity/ordering along every axis: more
//!    SHIFT history never reduces L1-I coverage, bigger bundles/overflow
//!    never reduce BTB coverage, Ideal >= Confluence >= Baseline IPC at
//!    every core count, and BTB MPKI never rises with capacity.
//!
//! The engine-contention stress test at the bottom closes PR 1's open
//! item: the original container was single-core, so the exactly-once
//! cache had never been hammered from genuinely concurrent requesters.

use std::path::PathBuf;

use confluence::sim::experiments::{plan, unique_jobs, ExperimentConfig};
use confluence::sim::report::Report;
use confluence::sim::sweeps::{self, SweepAxis, SweepSpec};
use confluence::sim::{Results, SimEngine};
use confluence::store::ResultStore;
use confluence::trace::Workload;

/// The workload the goldens pin (the first in presentation order).
const GOLDEN_WORKLOAD: Workload = Workload::OltpDb2;

/// One workload keeps the harness fast; jobs are per-workload pure, so
/// this pins exactly the rows a full run would produce for it.
fn golden_engine(cfg: &ExperimentConfig) -> SimEngine {
    SimEngine::new(vec![(
        GOLDEN_WORKLOAD,
        cfg.workload_program(GOLDEN_WORKLOAD),
    )])
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Compares `actual` against the committed golden, or rewrites it when
/// `CONFLUENCE_REGOLD` is set.
fn check_golden(name: &str, actual: &str) {
    let path = goldens_dir().join(format!("{name}.csv"));
    if std::env::var_os("CONFLUENCE_REGOLD").is_some() {
        std::fs::create_dir_all(goldens_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "golden mismatch for study '{name}' — if the change is intentional, \
         regenerate with CONFLUENCE_REGOLD=1 cargo test and review the diff"
    );
}

/// Percentage cell (`"93.4%"`) back to a float.
fn pct_cell(cell: &str) -> f64 {
    cell.trim_end_matches('%')
        .parse()
        .unwrap_or_else(|e| panic!("bad percentage cell {cell:?}: {e}"))
}

fn num_cell(cell: &str) -> f64 {
    cell.parse()
        .unwrap_or_else(|e| panic!("bad numeric cell {cell:?}: {e}"))
}

/// The per-axis property checks, applied to one rendered study report.
fn check_properties(spec: &SweepSpec, report: &Report) {
    let rows = report.rows();
    assert!(!rows.is_empty(), "{}: no rows", spec.name);
    match &spec.axis {
        SweepAxis::HistoryEntries(points) => {
            for row in rows {
                let cov: Vec<f64> = row[1..].iter().map(|c| pct_cell(c)).collect();
                assert_eq!(cov.len(), points.len());
                for w in cov.windows(2) {
                    assert!(
                        w[1] >= w[0],
                        "{}: more history reduced coverage ({row:?})",
                        spec.name
                    );
                }
            }
        }
        SweepAxis::BundleGeometry(points) => {
            for row in rows {
                let cov: Vec<f64> = row[1..].iter().map(|c| pct_cell(c)).collect();
                // Coverage must not drop when one geometry dominates
                // another (>= in every dimension of the triple).
                for (i, a) in points.iter().enumerate() {
                    for (j, b) in points.iter().enumerate() {
                        if a.0 >= b.0 && a.1 >= b.1 && a.2 >= b.2 {
                            assert!(
                                cov[i] >= cov[j],
                                "{}: geometry {a:?} covers less than dominated {b:?} ({row:?})",
                                spec.name
                            );
                        }
                    }
                }
            }
        }
        SweepAxis::Cores(points) => {
            // Rows come in SCALING_DESIGNS order per workload:
            // Baseline, Confluence, Ideal.
            for rows3 in rows.chunks(sweeps::SCALING_DESIGNS.len()) {
                let [base, conf, ideal] = rows3 else {
                    panic!("{}: ragged design group {rows3:?}", spec.name)
                };
                for col in 2..2 + points.len() {
                    let (b, c, i) = (
                        num_cell(&base[col]),
                        num_cell(&conf[col]),
                        num_cell(&ideal[col]),
                    );
                    assert!(
                        i >= c && c >= b,
                        "{}: IPC ordering Ideal {i} >= Confluence {c} >= Baseline {b} \
                         violated at {}",
                        spec.name,
                        report.headers()[col]
                    );
                }
            }
        }
        SweepAxis::BtbCapacity(points) => {
            for row in rows {
                let mpki: Vec<f64> = row[1..].iter().map(|c| num_cell(c)).collect();
                assert_eq!(mpki.len(), points.len());
                for w in mpki.windows(2) {
                    assert!(
                        w[1] <= w[0],
                        "{}: larger BTB raised MPKI ({row:?})",
                        spec.name
                    );
                }
            }
        }
        SweepAxis::L1iSizeKb(points) => {
            for row in rows {
                let mpki: Vec<f64> = row[1..].iter().map(|c| num_cell(c)).collect();
                assert_eq!(mpki.len(), points.len());
                for w in mpki.windows(2) {
                    assert!(
                        w[1] <= w[0],
                        "{}: a larger L1-I raised demand MPKI ({row:?})",
                        spec.name
                    );
                }
            }
        }
        SweepAxis::ShiftLookahead(points) => {
            // Coverage grows with depth until the stream runs usefully
            // ahead of fetch; past that, deeper speculation can pollute
            // the L1-I. So: monotone non-decreasing up to the engine's
            // default depth, and points beyond it may regress only within
            // a small pollution band of the peak.
            for row in rows {
                let cov: Vec<f64> = row[1..].iter().map(|c| pct_cell(c)).collect();
                assert_eq!(cov.len(), points.len());
                let mut peak = f64::MIN;
                for (i, (&depth, &c)) in points.iter().zip(&cov).enumerate() {
                    if depth <= confluence::prefetch::DEFAULT_LOOKAHEAD && i > 0 {
                        assert!(
                            c >= cov[i - 1],
                            "{}: coverage fell below-default-depth ({row:?})",
                            spec.name
                        );
                    }
                    assert!(
                        c >= peak - 2.0,
                        "{}: depth {depth} regressed more than the 2pp \
                         pollution band below the peak ({row:?})",
                        spec.name
                    );
                    peak = peak.max(c);
                }
            }
        }
    }
}

/// A disposable store directory under the system temp dir.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let path =
            std::env::temp_dir().join(format!("confluence-sweeps-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        StoreDir(path)
    }

    fn open(&self) -> ResultStore {
        ResultStore::open(&self.0, confluence::sim::SCHEMA_VERSION).expect("temp dir writable")
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The whole harness in one pass so every study's simulations run once:
/// cold run → goldens + properties + CSV re-parse; warm run (fresh
/// engine, same store) → zero executions, byte-identical reports.
#[test]
fn sweep_studies_match_goldens_hold_properties_and_rerun_warm() {
    let cfg = ExperimentConfig::quick();
    let dir = StoreDir::new("golden");
    let studies = sweeps::registry();
    assert!(studies.len() >= 3, "registry must name at least 3 studies");

    let cold = golden_engine(&cfg).with_store(dir.open());
    let jobs = plan(&cold.workload_list(), |results| {
        for s in &studies {
            s.report(results, &cfg);
        }
    });
    let unique = unique_jobs(&jobs) as u64;
    cold.run(&jobs);
    assert_eq!(cold.stats().executed, unique, "cold run simulates all");

    let mut cold_csv = Vec::new();
    for spec in &studies {
        let report = spec.report(&cold, &cfg);
        let csv = report.to_csv();
        check_golden(spec.name, &csv);
        check_properties(spec, &report);
        // Goldens are pinned by the byte comparison above; separately,
        // the rendering must survive the `from_csv` round trip so CSV
        // output stays machine-consumable.
        assert_eq!(
            Report::from_csv(&csv).as_ref(),
            Some(&report),
            "{}: CSV does not round-trip",
            spec.name
        );
        cold_csv.push(csv);
    }
    assert_eq!(
        cold.stats().executed,
        unique,
        "formatting must not re-simulate"
    );

    // Warm re-run: a fresh engine (fresh process, in spirit) over the
    // same store serves every point from disk, byte-identically.
    let warm = golden_engine(&cfg).with_store(dir.open());
    let warm_csv: Vec<String> = studies
        .iter()
        .map(|s| s.report(&warm, &cfg).to_csv())
        .collect();
    let stats = warm.stats();
    assert_eq!(stats.executed, 0, "warm sweep must execute nothing");
    assert_eq!(stats.disk_hits, unique, "every unique point from disk");
    assert_eq!(warm_csv, cold_csv, "warm reports must be byte-identical");
}

/// Overlapping sweep-shaped job lists hammered at one engine from many
/// OS threads (each `run` also spawns its own worker pool): the
/// content-keyed cache must hold the exactly-once guarantee under real
/// contention, not just on PR 1's single-core container.
#[test]
fn engine_contention_stress_executes_each_sweep_job_exactly_once() {
    let cfg = ExperimentConfig::quick();
    // Two studies that overlap on the baseline coverage job.
    let history = SweepSpec {
        name: "stress-history",
        caption: "stress",
        axis: SweepAxis::HistoryEntries(vec![4 * 1024, 32 * 1024]),
    };
    let geometry = SweepSpec {
        name: "stress-geometry",
        caption: "stress",
        axis: SweepAxis::BundleGeometry(vec![(512, 3, 32), (512, 4, 32)]),
    };
    let workloads = [Workload::WebFrontend];
    let a = plan(&workloads, |results| history.report(results, &cfg));
    let b = plan(&workloads, |results| geometry.report(results, &cfg));
    let all: Vec<_> = a.iter().chain(b.iter()).cloned().collect();
    let unique = unique_jobs(&all) as u64;
    assert!(
        unique < all.len() as u64,
        "the studies must overlap for the stress to exercise sharing"
    );

    let program = cfg.workload_program(Workload::WebFrontend);
    let engine = SimEngine::new(vec![(Workload::WebFrontend, program)]).with_threads(4);

    let hammers = 8;
    std::thread::scope(|scope| {
        for t in 0..hammers {
            let engine = &engine;
            let (a, b, all) = (&a, &b, &all);
            scope.spawn(move || {
                // Different threads lead with different (overlapping)
                // batches so claims collide from every direction.
                match t % 3 {
                    0 => engine.run(a),
                    1 => engine.run(b),
                    _ => engine.run(all),
                }
                engine.run(all);
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.executed, unique,
        "every unique sweep job must execute exactly once under contention"
    );
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(
        stats.hits,
        stats.requests - stats.executed,
        "all surplus requests must be served as cache hits"
    );
}
