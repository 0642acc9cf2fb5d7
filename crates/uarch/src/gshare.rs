use crate::{DirectionPredictor, SatCounter};

/// A gshare predictor: 2-bit counters indexed by `pc XOR global history`.
///
/// Provided as an intermediate baseline between [`crate::Bimodal`] and
/// [`crate::Tage`]; it learns short correlated patterns that bimodal
/// cannot.
///
/// # Example
///
/// ```
/// use crisp_uarch::{Gshare, DirectionPredictor};
/// let mut p = Gshare::new(1 << 12, 12);
/// // Alternating branch becomes predictable through history correlation.
/// let mut taken = false;
/// for _ in 0..256 {
///     taken = !taken;
///     let pred = p.predict(0x88);
///     p.update(0x88, taken, pred);
/// }
/// let next = p.predict(0x88);
/// assert_eq!(next, !taken);
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<SatCounter>,
    mask: u64,
    history: u64,
    hist_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` counters and `hist_bits` bits of
    /// global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `hist_bits > 63`.
    pub fn new(entries: usize, hist_bits: u32) -> Gshare {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(hist_bits <= 63, "history too long");
        Gshare {
            table: vec![SatCounter::new(2, 0); entries],
            mask: entries as u64 - 1,
            history: 0,
            hist_mask: (1u64 << hist_bits) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    /// The current global-history register value.
    pub fn history(&self) -> u64 {
        self.history
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)].is_taken()
    }

    fn update(&mut self, pc: u64, taken: bool, _pred: bool) {
        let idx = self.index(pc);
        self.table[idx].train(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.hist_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_alternating_pattern() {
        let mut p = Gshare::new(1 << 10, 10);
        let mut taken = false;
        let mut wrong_late = 0;
        for i in 0..400 {
            taken = !taken;
            let pred = p.predict(0x33);
            if i >= 200 && pred != taken {
                wrong_late += 1;
            }
            p.update(0x33, taken, pred);
        }
        assert!(
            wrong_late < 5,
            "gshare failed to learn alternation: {wrong_late}"
        );
    }

    #[test]
    fn history_shifts_in_outcomes() {
        let mut p = Gshare::new(64, 8);
        p.update(0, true, true);
        p.update(0, false, false);
        p.update(0, true, true);
        assert_eq!(p.history() & 0b111, 0b101);
    }

    #[test]
    fn history_is_bounded() {
        let mut p = Gshare::new(64, 4);
        for _ in 0..100 {
            p.update(0, true, true);
        }
        assert!(p.history() <= 0xF);
    }
}
