use crate::{DirectionPredictor, SatCounter};

/// A classic bimodal predictor: a direct-mapped table of 2-bit saturating
/// counters indexed by the branch pc.
///
/// Serves as the base component of [`crate::Tage`] and as a standalone
/// baseline.
///
/// # Example
///
/// ```
/// use crisp_uarch::{Bimodal, DirectionPredictor};
/// let mut p = Bimodal::new(1 << 12);
/// let pred = p.predict(0x40);
/// p.update(0x40, true, pred);
/// p.update(0x40, true, true);
/// assert!(p.predict(0x40));
/// ```
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<SatCounter>,
    mask: u64,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Bimodal {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Bimodal {
            table: vec![SatCounter::new(2, 0); entries],
            mask: entries as u64 - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Low bits above the (assumed) 1-byte granularity.
        (pc & self.mask) as usize
    }

    /// Direct read of the counter state for a pc (diagnostics).
    pub fn counter(&self, pc: u64) -> i8 {
        self.table[self.index(pc)].get()
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> bool {
        let idx = self.index(pc);
        self.table[idx].is_taken()
    }

    fn update(&mut self, pc: u64, taken: bool, _pred: bool) {
        let idx = self.index(pc);
        self.table[idx].train(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_bias_quickly() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            let pr = p.predict(10);
            p.update(10, false, pr);
        }
        assert!(!p.predict(10));
    }

    #[test]
    fn distinct_pcs_do_not_interfere_without_aliasing() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            p.update(1, true, true);
            p.update(2, false, false);
        }
        assert!(p.predict(1));
        assert!(!p.predict(2));
    }

    #[test]
    fn aliased_pcs_share_a_counter() {
        let mut p = Bimodal::new(16);
        for _ in 0..4 {
            p.update(0, true, true);
        }
        assert!(p.predict(16)); // 16 & 15 == 0
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bimodal::new(100);
    }

    #[test]
    fn alternating_pattern_defeats_bimodal() {
        // Sanity: bimodal cannot learn period-2 patterns; it stays near the
        // weak states and mispredicts about half the time.
        let mut p = Bimodal::new(64);
        let mut wrong = 0;
        let mut taken = false;
        for _ in 0..100 {
            taken = !taken;
            let pred = p.predict(5);
            if pred != taken {
                wrong += 1;
            }
            p.update(5, taken, pred);
        }
        assert!(wrong >= 40, "bimodal should not learn alternation: {wrong}");
    }
}
