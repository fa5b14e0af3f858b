//! The search loop: propose → batch-simulate → evaluate → observe,
//! repeated to convergence, then folded into reports.
//!
//! The driver owns the evaluation cache. Strategies may re-propose
//! points; only *fresh* points are evaluated. Each round's batch is
//! planned from [`Study::evaluate`] over the fresh points
//! ([`confluence_sim::experiments::plan`]), so the jobs a point needs
//! are named once, by the evaluation that reads them. Every batch goes
//! through the caller-supplied `run_jobs` hook — `engine.run` in
//! process, or a daemon submission in `--connect` mode (which seeds the
//! local cache, so evaluation stays a pure local read either way). A
//! re-run over a warm store therefore executes zero simulations while
//! producing byte-identical reports: every job the loop derives is
//! content-keyed and already persisted.

use std::collections::BTreeMap;

use confluence_sim::experiments::{plan, ExperimentConfig};
use confluence_sim::report::{f, Report};
use confluence_sim::{Job, Results};

use crate::objective::{AnswerRule, PointEval, Study};
use crate::strategy::Point;

/// Hard iteration cap: every registered strategy converges in far fewer
/// rounds, so hitting this means a strategy bug, not a big space.
pub const MAX_ITERATIONS: usize = 64;

/// Everything one search produces.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Per-iteration evaluation log, in evaluation order.
    pub trajectory: Report,
    /// Non-dominated feasible points (metric vs area), area-ascending.
    pub frontier: Report,
    /// The single-row answer: best point, metric, area, effort.
    pub answer: Report,
    /// Propose/observe rounds run.
    pub iterations: usize,
    /// Distinct points evaluated.
    pub evaluated: usize,
}

/// Runs one study to convergence against `results` (the engine's
/// cache).
///
/// `run_jobs` executes a batch of content-keyed jobs and must leave
/// their results readable from `results` (in process that is
/// `engine.run`; over `--connect` it is a daemon submission, which
/// seeds the local cache). Determinism: with a fixed `seed` the visited
/// point sequence, the trajectory, and the answer are identical on
/// every run — the goldens pin exactly that.
pub fn run_search(
    results: &dyn Results,
    cfg: &ExperimentConfig,
    study: &Study,
    seed: u64,
    mut run_jobs: impl FnMut(&[Job]),
) -> SearchOutcome {
    let workloads = results.workload_list();
    let mut strategy = study.strategy(seed);
    let mut evals: BTreeMap<Point, PointEval> = BTreeMap::new();
    let mut trajectory = Report::new(
        format!("{} — trajectory (seed {seed})", study.caption),
        &["iter", "point", study.metric_name(), "area mm2"],
    );
    let mut iterations = 0;
    loop {
        let proposals = strategy.propose();
        if proposals.is_empty() || iterations >= MAX_ITERATIONS {
            break;
        }
        iterations += 1;
        let mut fresh: Vec<Point> = Vec::new();
        for p in &proposals {
            if !evals.contains_key(p) && !fresh.contains(p) {
                fresh.push(p.clone());
            }
        }
        let jobs = plan(&workloads, |planner| {
            for p in &fresh {
                study.evaluate(p, planner, cfg);
            }
        });
        if !jobs.is_empty() {
            run_jobs(&jobs);
        }
        for p in &fresh {
            let eval = study.evaluate(p, results, cfg);
            trajectory.row(vec![
                iterations.to_string(),
                eval.label.clone(),
                study.format_metric(eval.metric),
                f(eval.area_mm2, 3),
            ]);
            evals.insert(p.clone(), eval);
        }
        let scored: Vec<(Point, f64)> = proposals
            .iter()
            .map(|p| (p.clone(), study.fitness(&evals[p])))
            .collect();
        strategy.observe(&scored);
    }

    let threshold = study.feasibility_threshold(study.anchor_point().and_then(|p| evals.get(&p)));
    let feasible: Vec<(&Point, &PointEval)> = evals
        .iter()
        .filter(|(_, e)| study.is_feasible(e, threshold))
        .collect();

    let frontier = frontier_report(study, &feasible);

    let best = match study.answer_rule() {
        AnswerRule::SmallestFeasible => feasible.first().copied(),
        AnswerRule::MaxScore => feasible
            .iter()
            .copied()
            .fold(None, |best, cand| match best {
                Some((_, b)) if study.score(b) >= study.score(cand.1) => best,
                _ => Some(cand),
            }),
    };
    let mut answer = Report::new(
        format!("{} — answer (seed {seed})", study.caption),
        &[
            "study",
            "strategy",
            "best",
            study.metric_name(),
            "area mm2",
            "score",
            "iters",
            "evaluated",
        ],
    );
    match best {
        Some((_, e)) => answer.row(vec![
            study.name.to_string(),
            study.strategy_name().to_string(),
            e.label.clone(),
            study.format_metric(e.metric),
            f(e.area_mm2, 3),
            f(study.score(e), 4),
            iterations.to_string(),
            evals.len().to_string(),
        ]),
        None => answer.row(vec![
            study.name.to_string(),
            study.strategy_name().to_string(),
            "none feasible".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            iterations.to_string(),
            evals.len().to_string(),
        ]),
    };

    SearchOutcome {
        trajectory,
        frontier,
        answer,
        iterations,
        evaluated: evals.len(),
    }
}

/// The non-dominated feasible points: no other feasible point has
/// less-or-equal area *and* a better-or-equal metric (strictly better in
/// at least one). Sorted area-ascending, so the table reads as "what
/// each extra mm² buys".
fn frontier_report(study: &Study, feasible: &[(&Point, &PointEval)]) -> Report {
    let better = |a: f64, b: f64| {
        if study.higher_better() {
            a > b
        } else {
            a < b
        }
    };
    let no_worse = |a: f64, b: f64| a == b || better(a, b);
    let mut front: Vec<&PointEval> = feasible
        .iter()
        .filter(|(_, e)| {
            !feasible.iter().any(|(_, other)| {
                other.area_mm2 <= e.area_mm2
                    && no_worse(other.metric, e.metric)
                    && (other.area_mm2 < e.area_mm2 || better(other.metric, e.metric))
            })
        })
        .map(|(_, e)| *e)
        .collect();
    front.sort_by(|a, b| {
        a.area_mm2
            .partial_cmp(&b.area_mm2)
            .expect("areas are finite")
            .then_with(|| a.label.cmp(&b.label))
    });
    let mut report = Report::new(
        format!(
            "{} — Pareto frontier ({} vs area)",
            study.caption,
            study.metric_name()
        ),
        &["point", study.metric_name(), "area mm2", "score"],
    );
    for e in front {
        report.row(vec![
            e.label.clone(),
            study.format_metric(e.metric),
            f(e.area_mm2, 3),
            f(study.score(e), 4),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::StudyKind;

    fn toy_study() -> Study {
        Study {
            name: "toy",
            caption: "toy",
            kind: StudyKind::IpcPerMm2 {
                cores: vec![1, 2, 3, 4],
                budget_mm2: 40.0,
            },
        }
    }

    #[test]
    fn frontier_keeps_only_nondominated_points() {
        let study = toy_study();
        let evals: Vec<PointEval> = [
            ("a", 1.0, 10.0), // dominated by b (same area, worse metric)
            ("b", 2.0, 10.0),
            ("c", 3.0, 20.0), // on the frontier: more metric for more area
            ("d", 2.5, 30.0), // dominated by c (more area, less metric)
        ]
        .iter()
        .map(|&(label, metric, area)| PointEval {
            label: label.into(),
            metric,
            area_mm2: area,
        })
        .collect();
        let points: Vec<Point> = (0..evals.len()).map(|i| vec![i]).collect();
        let feasible: Vec<(&Point, &PointEval)> = points.iter().zip(evals.iter()).collect();
        let report = frontier_report(&study, &feasible);
        let labels: Vec<&str> = report.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(labels, vec!["b", "c"]);
    }

    #[test]
    fn frontier_minimizing_direction_flips_dominance() {
        let study = Study {
            name: "toy-min",
            caption: "toy-min",
            kind: StudyKind::MinBtbCapacity {
                entries: vec![512, 1024],
                tolerance_mpki: 0.5,
            },
        };
        let evals: Vec<PointEval> = [
            ("small", 5.0, 0.1), // frontier: cheapest
            ("mid", 5.5, 0.2),   // dominated: more area, worse MPKI
            ("big", 2.0, 0.6),   // frontier: best MPKI
        ]
        .iter()
        .map(|&(label, metric, area)| PointEval {
            label: label.into(),
            metric,
            area_mm2: area,
        })
        .collect();
        let points: Vec<Point> = (0..evals.len()).map(|i| vec![i]).collect();
        let feasible: Vec<(&Point, &PointEval)> = points.iter().zip(evals.iter()).collect();
        let report = frontier_report(&study, &feasible);
        let labels: Vec<&str> = report.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(labels, vec!["small", "big"]);
    }
}
