/// A history-hashed indirect-target predictor (ITTAGE-lite): a
/// direct-mapped table of last targets indexed by `pc XOR target history`.
///
/// Indirect jumps (dispatch loops, virtual calls) with few targets per
/// history context become predictable; truly data-dependent targets miss,
/// which is exactly the behaviour the paper's branch-slice mechanism
/// exploits.
///
/// # Example
///
/// ```
/// use crisp_uarch::IndirectPredictor;
/// let mut p = IndirectPredictor::new(1 << 10, 8);
/// assert_eq!(p.predict(0x40), None);
/// p.update(0x40, 0x1000);
/// // Same history context predicts the recorded target.
/// assert_eq!(p.predict(0x40), Some(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct IndirectPredictor {
    table: Vec<Option<(u64, u64)>>, // (tag pc, target)
    mask: u64,
    history: u64,
    hist_bits: u32,
}

impl IndirectPredictor {
    /// Creates a predictor with `entries` slots and `hist_bits` bits of
    /// path history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, hist_bits: u32) -> IndirectPredictor {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        IndirectPredictor {
            table: vec![None; entries],
            mask: entries as u64 - 1,
            history: 0,
            hist_bits,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.history.wrapping_mul(0x9E37_79B9)) & self.mask) as usize
    }

    /// Predicts the target byte address for the indirect branch at `pc`,
    /// or `None` if no prediction is available.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        match self.table[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target and folds it into the path history.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.table[idx] = Some((pc, target));
        let mask = (1u64 << self.hist_bits) - 1;
        self.history = ((self.history << 2) ^ (target >> 2)) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomorphic_target_is_predicted() {
        let mut p = IndirectPredictor::new(256, 8);
        for _ in 0..4 {
            p.update(0x10, 0x5000);
        }
        // With a stable history the prediction holds.
        assert_eq!(p.predict(0x10), Some(0x5000));
    }

    #[test]
    fn history_disambiguates_polymorphic_targets() {
        // A dispatch branch alternating between two targets in a fixed
        // pattern: after warm-up, each history context maps to one target.
        let mut p = IndirectPredictor::new(1 << 10, 10);
        let targets = [0x100u64, 0x200, 0x100, 0x300];
        let mut correct = 0;
        let mut total = 0;
        for rep in 0..200 {
            for &t in &targets {
                let pred = p.predict(0x40);
                if rep >= 100 {
                    total += 1;
                    if pred == Some(t) {
                        correct += 1;
                    }
                }
                p.update(0x40, t);
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "patterned dispatch should be predictable: {correct}/{total}"
        );
    }

    #[test]
    fn tag_mismatch_yields_none() {
        let mut p = IndirectPredictor::new(2, 0);
        p.update(0x0, 0x111);
        // 0x2 aliases to the same slot (mask 1) but the tag differs.
        assert_eq!(p.predict(0x2), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = IndirectPredictor::new(3, 4);
    }
}
