//! Hybrid conditional-branch direction predictor (paper Table 1: 16K-entry
//! gShare + bimodal + meta selector).

use confluence_types::VAddr;

/// Two-bit saturating counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    /// Weakly not-taken: the reset state. Unseen conditionals predict
    /// not-taken, which matches the guard-dominated branch mix of server
    /// code (and lets sequential speculation be right on cold branches).
    const WEAK_NOT_TAKEN: Counter2 = Counter2(1);

    #[inline]
    fn taken(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Hybrid direction predictor: a bimodal table and a gShare table arbitrated
/// by a meta selector, all with 2-bit counters.
///
/// # Example
///
/// ```
/// use confluence_uarch::HybridDirectionPredictor;
/// use confluence_types::VAddr;
///
/// let mut bp = HybridDirectionPredictor::new_16k();
/// let pc = VAddr::new(0x1000);
/// for _ in 0..8 {
///     let _ = bp.predict(pc);
///     bp.update(pc, true);
/// }
/// assert!(bp.predict(pc)); // learned always-taken
/// ```
#[derive(Clone, Debug)]
pub struct HybridDirectionPredictor {
    bimodal: Vec<Counter2>,
    gshare: Vec<Counter2>,
    meta: Vec<Counter2>,
    mask: u64,
    history: u64,
    history_bits: u32,
}

impl HybridDirectionPredictor {
    /// Creates the paper's configuration: 16K entries per table.
    pub fn new_16k() -> Self {
        Self::with_entries(16 * 1024)
    }

    /// Creates a predictor with `entries` entries per table (rounded up to
    /// a power of two).
    pub fn with_entries(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(2);
        HybridDirectionPredictor {
            bimodal: vec![Counter2::WEAK_NOT_TAKEN; n],
            gshare: vec![Counter2::WEAK_NOT_TAKEN; n],
            meta: vec![Counter2::WEAK_NOT_TAKEN; n],
            mask: (n - 1) as u64,
            history: 0,
            history_bits: n.trailing_zeros(),
        }
    }

    #[inline]
    fn pc_index(&self, pc: VAddr) -> usize {
        ((pc.raw() >> 2) & self.mask) as usize
    }

    #[inline]
    fn gshare_index(&self, pc: VAddr) -> usize {
        (((pc.raw() >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: VAddr) -> bool {
        let b = self.bimodal[self.pc_index(pc)];
        let g = self.gshare[self.gshare_index(pc)];
        if self.meta[self.pc_index(pc)].taken() {
            g.taken()
        } else {
            b.taken()
        }
    }

    /// Updates tables and global history with the resolved outcome.
    #[inline]
    pub fn update(&mut self, pc: VAddr, taken: bool) {
        let pi = self.pc_index(pc);
        let gi = self.gshare_index(pc);
        let b_correct = self.bimodal[pi].taken() == taken;
        let g_correct = self.gshare[gi].taken() == taken;
        // The meta counter learns which component to trust per branch.
        if b_correct != g_correct {
            self.meta[pi].update(g_correct);
        }
        self.bimodal[pi].update(taken);
        self.gshare[gi].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_types::DetRng;

    #[test]
    fn learns_strongly_biased_branch() {
        let mut bp = HybridDirectionPredictor::with_entries(1024);
        let pc = VAddr::new(0x4000);
        for _ in 0..16 {
            bp.update(pc, true);
        }
        assert!(bp.predict(pc));
        for _ in 0..16 {
            bp.update(pc, false);
        }
        assert!(!bp.predict(pc));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // Pattern T,N,T,N correlates perfectly with 1 bit of history; the
        // hybrid must converge well above bimodal's 50%.
        let mut bp = HybridDirectionPredictor::with_entries(4096);
        let pc = VAddr::new(0x8000);
        let mut correct = 0;
        let mut total = 0;
        let mut taken = false;
        for i in 0..2000 {
            taken = !taken;
            let pred = bp.predict(pc);
            if i >= 1000 {
                total += 1;
                correct += usize::from(pred == taken);
            }
            bp.update(pc, taken);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn accuracy_on_biased_random_mix() {
        // 90%-biased branches should be predicted with ~90%+ accuracy.
        let mut bp = HybridDirectionPredictor::new_16k();
        let mut rng = DetRng::seed_from(1);
        let pcs: Vec<VAddr> = (0..64).map(|i| VAddr::new(0x1000 + i * 8)).collect();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..50_000 {
            let pc = pcs[rng.index(pcs.len())];
            let taken = rng.chance(0.9);
            let pred = bp.predict(pc);
            if i > 10_000 {
                total += 1;
                correct += usize::from(pred == taken);
            }
            bp.update(pc, taken);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }
}
