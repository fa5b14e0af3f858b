//! Deterministic pseudo-random number generation.
//!
//! Workload generation and the timing model's stochastic backend drain both
//! need randomness that is reproducible across runs, platforms, and library
//! versions. `DetRng` is a xoshiro256** generator seeded through
//! [`SplitMix64`], both implemented locally so that trace content can never
//! silently change when a dependency is upgraded.

/// SplitMix64 — the standard 64-bit mixing PRNG. Tiny, seedable, and
/// identical on every platform: it expands a [`DetRng`] seed, and the
/// design-space search draws its starting points from it.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic xoshiro256** PRNG.
///
/// # Example
///
/// ```
/// use confluence_types::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed, expanded via [`SplitMix64`].
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        DetRng { s }
    }

    /// Derives an independent child generator; useful for giving each core
    /// or each function its own stream without correlation.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let mix = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from(mix)
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// The integer form of [`DetRng::chance`]: `chance(p)` is true exactly
    /// when the draw's top 53 bits fall below `ceil(p * 2^53)`, clamped to
    /// `[0, 2^53]`.
    ///
    /// `p * 2^53` is exact (a power-of-two scaling), and an integer lies
    /// below a real number exactly when it lies below that number's
    /// ceiling. `clamp` passes NaN through and the cast maps it to 0,
    /// matching `chance`, which never fires for a NaN `p`.
    pub fn chance_threshold(p: f64) -> u64 {
        const SCALE: f64 = (1u64 << 53) as f64;
        (p * SCALE).ceil().clamp(0.0, SCALE) as u64
    }

    /// Draws `n` coins and counts those on which `chance(p)` would have
    /// been false, given `threshold = chance_threshold(p)`. The draws and
    /// their order are exactly those of `n` calls to `chance(p)`; only
    /// the per-draw branch is gone.
    #[inline]
    pub fn count_misses(&mut self, n: usize, threshold: u64) -> usize {
        (0..n)
            .map(|_| usize::from(self.next_u64() >> 11 >= threshold))
            .sum()
    }

    /// Picks an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut draw = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            draw -= w;
            if draw < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// A geometric-ish draw: the number of successes before a failure with
    /// continue-probability `p`, capped at `cap`. Used for run lengths.
    pub fn geometric(&mut self, p: f64, cap: usize) -> usize {
        let mut n = 0;
        while n < cap && self.chance(p) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values pin the stream so goldens cannot drift.
        let mut rng = SplitMix64::new(42);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                13679457532755275413,
                2949826092126892291,
                5139283748462763858
            ]
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_is_in_range() {
        let mut r = DetRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = DetRng::seed_from(4);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range(2, 5);
            assert!((2..=5).contains(&v));
            saw_lo |= v == 2;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from(5);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut r = DetRng::seed_from(6);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    const THRESHOLD_PROBS: [f64; 9] = [
        -0.5,
        0.0,
        1.0 / (1u64 << 53) as f64,
        0.25,
        0.5,
        0.72,
        1.0 - 1.0 / (1u64 << 53) as f64,
        1.0,
        1.5,
    ];

    #[test]
    fn chance_threshold_agrees_with_chance_draw_for_draw() {
        for p in THRESHOLD_PROBS {
            let threshold = DetRng::chance_threshold(p);
            let mut by_chance = DetRng::seed_from(11);
            let mut by_threshold = by_chance.clone();
            for _ in 0..20_000 {
                let fired = by_chance.chance(p);
                let missed = by_threshold.count_misses(1, threshold) == 1;
                assert_eq!(fired, !missed, "p = {p}");
            }
            // Draws near the threshold decide the ceiling; the RNG never
            // lands there by chance, so test `f64`'s arithmetic directly.
            let top = 1u64 << 53;
            for bits in [
                0,
                1,
                threshold.saturating_sub(1),
                threshold,
                threshold + 1,
                top - 1,
            ] {
                let bits = bits.min(top - 1);
                let fired = (bits as f64) * (1.0 / top as f64) < p;
                assert_eq!(fired, bits < threshold, "p = {p}, draw bits {bits}");
            }
        }
        assert_eq!(DetRng::chance_threshold(f64::NAN), 0);
    }

    #[test]
    fn count_misses_consumes_one_draw_per_coin() {
        let threshold = DetRng::chance_threshold(0.5);
        let mut rows = DetRng::seed_from(12);
        let mut coins = rows.clone();
        for _ in 0..1_000 {
            let missed = rows.count_misses(3, threshold);
            let expected = (0..3).filter(|_| !coins.chance(0.5)).count();
            assert_eq!(missed, expected);
        }
        assert_eq!(rows, coins, "both sides must have drawn the same count");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = DetRng::seed_from(8);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[r.weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 100_000.0;
        assert!((frac2 - 0.7).abs() < 0.02);
    }

    #[test]
    fn fork_produces_uncorrelated_streams() {
        let mut parent = DetRng::seed_from(9);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn geometric_capped() {
        let mut r = DetRng::seed_from(10);
        for _ in 0..1000 {
            assert!(r.geometric(0.9, 5) <= 5);
        }
    }
}
