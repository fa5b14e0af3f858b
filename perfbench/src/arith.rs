//! The benchmark's own arithmetic: medians, the tail-percentile chooser,
//! pool efficiency and differential structure attribution. Pure
//! functions, pinned by the unit tests at the bottom.

/// Percentiles the tail chooser considers, in basis points (1/100 of a
/// percent), lowest first. Integer basis points keep the rank arithmetic
/// exact.
const LADDER_BP: [u64; 9] = [5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999];

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `samples`; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload never exercises reports 0 rather than NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail latency: which percentile it is, its value, and the sample
/// count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. 99.5).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, by nearest rank. With too few samples for any percentile
/// to qualify (fewer than 20), the tail is the [`median`], so it never
/// rests on a single extreme sample and never reads below the median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    let at = |bp: u64| {
        // Nearest rank, 1-based: ceil(bp/10000 * n), at least 1.
        let rank = ((bp * n as u64).div_ceil(10_000) as usize).clamp(1, n);
        Tail {
            percentile: bp as f64 / 100.0,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        }
    };
    LADDER_BP
        .iter()
        .rev()
        .map(|&bp| at(bp))
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| Tail {
            value: median(&sorted),
            ..at(LADDER_BP[0])
        })
}

/// Parallel efficiency of a worker pool: serial busy seconds of the jobs
/// it executed over the capacity it had (`threads × wall`). 1.0 means
/// every thread was busy with job work for the whole batch.
pub fn pool_efficiency(serial_busy_s: f64, threads: usize, wall_s: f64) -> f64 {
    ratio(serial_busy_s, threads as f64 * wall_s)
}

/// Differential attribution of one job's time to the parts of a chain
/// of cumulative measurements.
///
/// `cumulative[i]` is the time of the job with only the first `i + 1`
/// parts present (the stream alone, then + the L1-I, then + SHIFT, ...)
/// and `total` the time of the whole job. Part `i` is the step from
/// `cumulative[i - 1]` to `cumulative[i]`; the last part is the step to
/// `total`. Host-time noise can make a measured chain non-monotone, so
/// each cumulative point is first clamped between its predecessor and
/// `total`: every part is then non-negative and the parts sum to `total`
/// (negative totals count as 0).
pub fn attribute(cumulative: &[f64], total: f64) -> Vec<f64> {
    let total = total.max(0.0);
    let mut parts = Vec::with_capacity(cumulative.len() + 1);
    let mut prev = 0.0;
    for &c in cumulative {
        let c = c.max(prev).min(total);
        parts.push(c - prev);
        prev = c;
    }
    parts.push(total - prev);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=1000: p99 has rank 990 and exactly 10 samples beyond it;
        // p99.5 would leave only 5.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);

        // 4000 samples: p99.5 leaves 20 beyond, p99.9 only 4.
        let samples: Vec<f64> = (1..=4000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 99.5);
        assert_eq!(t.beyond, 20);

        // One fewer sample than p99 needs: falls to p95.
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 95.0);
        assert!(t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        let t = tail(&samples);
        // 200 samples: p95 has rank 190 and 10 beyond.
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tail_with_too_few_samples_is_the_median() {
        let t = tail(&[5.0, 1.0, 9.0]);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.beyond, 1);
        let t = tail(&[4.0, 2.0]);
        assert_eq!((t.percentile, t.value), (50.0, 3.0));
        // 20 samples: p50 (rank 10) is the first with 10 beyond.
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn pool_efficiency_is_busy_over_capacity() {
        assert_eq!(pool_efficiency(16.0, 2, 10.0), 0.8);
        assert_eq!(pool_efficiency(3.0, 1, 3.0), 1.0);
        // Nothing executed, or no batch: 0, never NaN.
        assert_eq!(pool_efficiency(0.0, 2, 0.005), 0.0);
        assert_eq!(pool_efficiency(1.0, 2, 0.0), 0.0);
    }

    fn assert_partition(parts: &[f64], total: f64) {
        assert!(
            parts.iter().all(|&p| p >= 0.0),
            "negative part in {parts:?}"
        );
        let sum: f64 = parts.iter().sum();
        assert!(
            (sum - total.max(0.0)).abs() < 1e-12,
            "{parts:?} sum {sum} != {total}"
        );
    }

    #[test]
    fn attribution_parts_are_non_negative_and_sum_to_the_job() {
        // Monotone chain: plain differences.
        let parts = attribute(&[2.0, 5.0, 6.0], 9.0);
        assert_eq!(parts, vec![2.0, 3.0, 1.0, 3.0]);
        assert_partition(&parts, 9.0);

        // Noise made a later point dip below an earlier one: the dip
        // becomes a zero part, never a negative one.
        let parts = attribute(&[2.0, 1.5, 6.0], 9.0);
        assert_eq!(parts, vec![2.0, 0.0, 4.0, 3.0]);
        assert_partition(&parts, 9.0);

        // A partial run measured slower than the whole job.
        let parts = attribute(&[2.0, 10.0], 9.0);
        assert_eq!(parts, vec![2.0, 7.0, 0.0]);
        assert_partition(&parts, 9.0);

        // Degenerate inputs.
        assert_partition(&attribute(&[], 4.0), 4.0);
        assert_partition(&attribute(&[3.0], -1.0), -1.0);
        for (chain, total) in [
            (vec![0.3, 0.1, 0.7, 0.2], 0.5),
            (vec![1e-3, 2e-3, 3e-3], 2.5e-3),
        ] {
            assert_partition(&attribute(&chain, total), total);
        }
    }
}
