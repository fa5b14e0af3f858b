//! Search strategies: deterministic batch-oriented optimizers over a
//! small discrete grid.
//!
//! A strategy never simulates anything. It proposes batches of grid
//! *points* (index vectors into the study's axes), the driver maps them
//! to content-keyed jobs, runs them through the engine — where the memo
//! hierarchy deduplicates and persists them — and feeds the resulting
//! fitness values back through [`SearchStrategy::observe`]. Strategies
//! are free to re-propose points they have already seen; the driver
//! answers those from its evaluation cache without touching the engine,
//! so a strategy's bookkeeping stays simple and the engine's
//! exactly-once contract does the deduplication.
//!
//! Every strategy is seeded and fully deterministic: a fixed seed
//! yields an identical visited-point sequence on every run, which is
//! what lets the search goldens assert byte-identical trajectories and
//! the warm-store re-run execute zero simulations.

use std::collections::BTreeMap;

use confluence_types::SplitMix64;

/// A point in the search space: one index per axis, each in
/// `0..axis_len`.
pub type Point = Vec<usize>;

/// A batch-proposing optimizer over a discrete grid.
///
/// The protocol is propose → evaluate → observe, repeated until
/// [`propose`](SearchStrategy::propose) returns an empty batch
/// (convergence). `observe` receives a fitness for *every* proposed
/// point of the round, in proposal order — higher is always better
/// (objectives that minimize negate their metric before handing it to
/// the strategy).
pub trait SearchStrategy {
    /// The next batch of points to evaluate; empty means converged.
    fn propose(&mut self) -> Vec<Point>;
    /// Feedback for the last proposed batch, in proposal order.
    fn observe(&mut self, scored: &[(Point, f64)]);
}

/// Golden-section search for the maximum of a unimodal function over a
/// single axis, on grid indices instead of reals: the probe offsets are
/// rounded to whole indices and the bracket shrinks until at most three
/// candidates remain, which are then evaluated exhaustively. Converges
/// in O(log len) batches of two probes each.
#[derive(Debug)]
pub struct GoldenSection {
    lo: usize,
    hi: usize,
    scores: BTreeMap<usize, f64>,
    done: bool,
}

impl GoldenSection {
    /// A search over indices `0..len`.
    ///
    /// The `seed` is accepted for signature uniformity with the other
    /// strategies; golden-section has no random choices.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize, _seed: u64) -> Self {
        assert!(len > 0, "cannot search an empty axis");
        GoldenSection {
            lo: 0,
            hi: len - 1,
            scores: BTreeMap::new(),
            done: false,
        }
    }

    /// The two interior probes of the current bracket.
    fn probes(&self) -> (usize, usize) {
        let span = self.hi - self.lo;
        // 0.382 ≈ 1 - 1/φ, clamped so both probes stay interior.
        let g = ((span as f64 * 0.382).round() as usize).clamp(1, span - 1);
        let mut x1 = self.lo + g;
        let x2 = self.hi - g;
        if x1 >= x2 {
            x1 = x2 - 1;
        }
        (x1, x2)
    }
}

impl SearchStrategy for GoldenSection {
    fn propose(&mut self) -> Vec<Point> {
        if self.done {
            return Vec::new();
        }
        // Shrink as far as recorded scores allow before proposing.
        while self.hi - self.lo > 2 {
            let (x1, x2) = self.probes();
            match (self.scores.get(&x1), self.scores.get(&x2)) {
                (Some(f1), Some(f2)) => {
                    if f1 >= f2 {
                        self.hi = x2;
                    } else {
                        self.lo = x1;
                    }
                }
                _ => return vec![vec![x1], vec![x2]],
            }
        }
        let tail: Vec<Point> = (self.lo..=self.hi)
            .filter(|i| !self.scores.contains_key(i))
            .map(|i| vec![i])
            .collect();
        if tail.is_empty() {
            self.done = true;
        }
        tail
    }

    fn observe(&mut self, scored: &[(Point, f64)]) {
        for (point, fit) in scored {
            self.scores.insert(point[0], *fit);
        }
    }
}

/// Which side of the anchor's score counts as satisfying the threshold
/// in a [`ThresholdBisection`].
#[derive(Clone, Copy, Debug)]
pub enum ThresholdSense {
    /// Satisfied when `score >= anchor - tolerance`: "within `tol` of
    /// the peak", for metrics that improve upward (coverage).
    AtLeastPeakMinus(f64),
    /// Satisfied when `score <= anchor + tolerance`: "within `tol` of
    /// the floor", for metrics that improve downward (MPKI).
    AtMostFloorPlus(f64),
}

/// Lower-bound bisection for the smallest index that satisfies a
/// threshold derived from the largest index's score.
///
/// The axes it searches are capacity-like (bigger is monotonically no
/// worse), so the last index is the peak/floor *anchor*: it is
/// evaluated first, the threshold is derived from its score, and then
/// classic bisection finds the boundary in O(log len) single-point
/// batches. The invariant keeps `hi` satisfied at all times, so the
/// final `lo == hi` answer was always actually evaluated.
#[derive(Debug)]
pub struct ThresholdBisection {
    len: usize,
    sense: ThresholdSense,
    anchor: Option<f64>,
    lo: usize,
    hi: usize,
    pending: Option<usize>,
}

impl ThresholdBisection {
    /// A search over indices `0..len` with the given sense.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize, sense: ThresholdSense) -> Self {
        assert!(len > 0, "cannot search an empty axis");
        ThresholdBisection {
            len,
            sense,
            anchor: None,
            lo: 0,
            hi: len - 1,
            pending: None,
        }
    }

    fn satisfied(&self, score: f64) -> bool {
        let anchor = self.anchor.expect("anchor scored before bisection");
        match self.sense {
            ThresholdSense::AtLeastPeakMinus(tol) => score >= anchor - tol,
            ThresholdSense::AtMostFloorPlus(tol) => score <= anchor + tol,
        }
    }
}

impl SearchStrategy for ThresholdBisection {
    fn propose(&mut self) -> Vec<Point> {
        if self.anchor.is_none() {
            self.pending = Some(self.len - 1);
            return vec![vec![self.len - 1]];
        }
        if self.lo >= self.hi {
            return Vec::new();
        }
        let mid = (self.lo + self.hi) / 2;
        self.pending = Some(mid);
        vec![vec![mid]]
    }

    fn observe(&mut self, scored: &[(Point, f64)]) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        let Some((_, score)) = scored.iter().find(|(p, _)| p[0] == pending) else {
            return;
        };
        if self.anchor.is_none() {
            self.anchor = Some(*score);
            return;
        }
        if self.satisfied(*score) {
            self.hi = pending;
        } else {
            self.lo = pending + 1;
        }
    }
}

/// Coordinate-descent hill climbing over two or more axes: sweep one
/// full axis line at a time (all values of the active axis, the others
/// held at the current point), move to the line's best point, and
/// rotate to the next axis. Converges when a full cycle of axes brings
/// no strict improvement. The starting point is drawn from the seed, so
/// different seeds explore from different corners while any fixed seed
/// retraces an identical path.
#[derive(Debug)]
pub struct CoordinateDescent {
    lens: Vec<usize>,
    current: Point,
    axis: usize,
    best: f64,
    stale: usize,
    done: bool,
}

impl CoordinateDescent {
    /// A search over the grid `0..lens[0] × 0..lens[1] × ...`, starting
    /// from a seed-drawn point.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two axes are given or any axis is empty.
    pub fn new(lens: &[usize], seed: u64) -> Self {
        assert!(lens.len() >= 2, "coordinate descent needs at least 2 axes");
        assert!(lens.iter().all(|&l| l > 0), "cannot search an empty axis");
        let mut rng = SplitMix64::new(seed);
        let current: Point = lens
            .iter()
            .map(|&l| (rng.next_u64() % l as u64) as usize)
            .collect();
        CoordinateDescent {
            lens: lens.to_vec(),
            current,
            axis: 0,
            best: f64::NEG_INFINITY,
            stale: 0,
            done: false,
        }
    }
}

impl SearchStrategy for CoordinateDescent {
    fn propose(&mut self) -> Vec<Point> {
        if self.done {
            return Vec::new();
        }
        (0..self.lens[self.axis])
            .map(|v| {
                let mut p = self.current.clone();
                p[self.axis] = v;
                p
            })
            .collect()
    }

    fn observe(&mut self, scored: &[(Point, f64)]) {
        let Some(max) = scored
            .iter()
            .map(|(_, f)| *f)
            .fold(None::<f64>, |m, f| Some(m.map_or(f, |m| m.max(f))))
        else {
            return;
        };
        // Move to the line's best point; on ties prefer staying put,
        // then the lowest index — both for determinism.
        let winner = scored
            .iter()
            .find(|(p, f)| *f == max && *p == self.current)
            .or_else(|| scored.iter().find(|(_, f)| *f == max))
            .expect("a maximum exists");
        self.current = winner.0.clone();
        if max > self.best {
            self.best = max;
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        self.axis = (self.axis + 1) % self.lens.len();
        if self.stale >= self.lens.len() {
            self.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a strategy against a synthetic fitness function, returning
    /// the visited-point sequence (evaluation order, deduplicated) and
    /// the best point seen.
    fn drive(
        strategy: &mut dyn SearchStrategy,
        fitness: impl Fn(&Point) -> f64,
    ) -> (Vec<Point>, Point) {
        let mut visited: Vec<Point> = Vec::new();
        let mut best: Option<(Point, f64)> = None;
        for _ in 0..100 {
            let batch = strategy.propose();
            if batch.is_empty() {
                break;
            }
            let scored: Vec<(Point, f64)> = batch
                .into_iter()
                .map(|p| {
                    let f = fitness(&p);
                    (p, f)
                })
                .collect();
            for (p, f) in &scored {
                if !visited.contains(p) {
                    visited.push(p.clone());
                }
                if best.as_ref().is_none_or(|(_, bf)| f > bf) {
                    best = Some((p.clone(), *f));
                }
            }
            strategy.observe(&scored);
        }
        (visited, best.expect("at least one evaluation").0)
    }

    #[test]
    fn golden_section_finds_a_unimodal_maximum() {
        for peak in [0usize, 3, 7, 18, 31] {
            let mut gs = GoldenSection::new(32, 42);
            let (visited, best) = drive(&mut gs, |p| -((p[0] as f64 - peak as f64).powi(2)));
            assert_eq!(best, vec![peak], "missed the peak at {peak}");
            // Log-ish probe count, not an exhaustive sweep.
            assert!(visited.len() <= 14, "visited {} points", visited.len());
        }
    }

    #[test]
    fn golden_section_is_deterministic() {
        let run = || {
            let mut gs = GoldenSection::new(24, 7);
            drive(&mut gs, |p| (p[0] as f64 * 0.3).sin())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bisection_finds_the_smallest_index_within_peak_tolerance() {
        // Saturating coverage curve: f(i) = 1 - 1/(i+1).
        let f = |p: &Point| 1.0 - 1.0 / (p[0] as f64 + 1.0);
        let mut bi = ThresholdBisection::new(10, ThresholdSense::AtLeastPeakMinus(0.05));
        let (visited, _) = drive(&mut bi, f);
        // Anchor f(9) = 0.9; threshold 0.85; smallest i with f(i) >= 0.85
        // is i = 6 (f(6) ≈ 0.857).
        assert_eq!(visited[0], vec![9], "anchor must be probed first");
        assert_eq!((bi.lo, bi.hi), (6, 6));
        // O(log n) probes: anchor + ~log2(9).
        assert!(visited.len() <= 6, "visited {} points", visited.len());
    }

    #[test]
    fn bisection_finds_the_smallest_index_within_floor_tolerance() {
        // Decaying MPKI curve: f(i) = 12 / (i+1).
        let f = |p: &Point| 12.0 / (p[0] as f64 + 1.0);
        let mut bi = ThresholdBisection::new(8, ThresholdSense::AtMostFloorPlus(0.5));
        drive(&mut bi, f);
        // Anchor f(7) = 1.5; threshold 2.0; smallest i with f(i) <= 2.0
        // is i = 5 (f(5) = 2.0).
        assert_eq!((bi.lo, bi.hi), (5, 5));
    }

    #[test]
    fn coordinate_descent_climbs_to_a_separable_optimum() {
        let f = |p: &Point| -((p[0] as f64 - 3.0).powi(2)) - (p[1] as f64 - 1.0).powi(2);
        let mut cd = CoordinateDescent::new(&[6, 5], 42);
        let (_, best) = drive(&mut cd, f);
        assert_eq!(best, vec![3, 1]);
    }

    #[test]
    fn coordinate_descent_is_seed_deterministic() {
        let run = |seed| {
            let mut cd = CoordinateDescent::new(&[5, 4, 3], seed);
            drive(&mut cd, |p| p.iter().map(|&v| v as f64).sum())
        };
        assert_eq!(run(9), run(9));
        // The climb always tops out at the all-max corner.
        assert_eq!(run(1).1, vec![4, 3, 2]);
        assert_eq!(run(2).1, vec![4, 3, 2]);
    }
}
