use crisp_isa::CtrlKind;

/// One branch-target-buffer entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbEntry {
    /// Full tag (the branch byte address).
    pub pc: u64,
    /// Predicted target byte address.
    pub target: u64,
    /// Kind of control transfer, so the frontend knows whether to consult
    /// the direction predictor, the RAS or the indirect predictor.
    pub kind: CtrlKind,
}

/// A set-associative branch target buffer.
///
/// Table 1 of the paper specifies 8K entries; the default constructor
/// models that as 2048 sets × 4 ways with true-LRU replacement.
///
/// # Example
///
/// ```
/// use crisp_uarch::Btb;
/// use crisp_isa::CtrlKind;
/// let mut btb = Btb::new(8192, 4);
/// assert!(btb.lookup(0x400).is_none());
/// btb.insert(0x400, 0x800, CtrlKind::Jump);
/// assert_eq!(btb.lookup(0x400).unwrap().target, 0x800);
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    sets: Vec<Vec<(u64 /* lru stamp */, BtbEntry)>>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    lookups: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible into a power-of-two number of
    /// sets of `ways` entries.
    pub fn new(entries: usize, ways: usize) -> Btb {
        assert!(ways >= 1 && entries.is_multiple_of(ways));
        let num_sets = entries / ways;
        assert!(num_sets.is_power_of_two(), "sets must be a power of two");
        Btb {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            set_mask: num_sets as u64 - 1,
            stamp: 0,
            lookups: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_index(&self, pc: u64) -> usize {
        ((pc ^ (pc >> 12)) & self.set_mask) as usize
    }

    /// Looks up the control-flow metadata for the instruction at byte
    /// address `pc`. Returns `None` on a BTB miss (the frontend then treats
    /// the instruction as a fall-through until it decodes).
    pub fn lookup(&mut self, pc: u64) -> Option<BtbEntry> {
        self.lookups += 1;
        self.stamp += 1;
        let set = self.set_index(pc);
        for slot in &mut self.sets[set] {
            if slot.1.pc == pc {
                slot.0 = self.stamp;
                return Some(slot.1);
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts or updates the entry for `pc`.
    pub fn insert(&mut self, pc: u64, target: u64, kind: CtrlKind) {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.ways;
        let set_idx = self.set_index(pc);
        let set = &mut self.sets[set_idx];
        if let Some(slot) = set.iter_mut().find(|s| s.1.pc == pc) {
            slot.0 = stamp;
            slot.1.target = target;
            slot.1.kind = kind;
            return;
        }
        let entry = BtbEntry { pc, target, kind };
        if set.len() < ways {
            set.push((stamp, entry));
        } else {
            // Evict true-LRU.
            let victim = set.iter_mut().min_by_key(|s| s.0).expect("non-empty set");
            *victim = (stamp, entry);
        }
    }

    /// `(lookups, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_insert() {
        let mut btb = Btb::new(64, 4);
        assert!(btb.lookup(0x100).is_none());
        btb.insert(0x100, 0x200, CtrlKind::CondBranch);
        let e = btb.lookup(0x100).unwrap();
        assert_eq!(e.target, 0x200);
        assert_eq!(e.kind, CtrlKind::CondBranch);
        assert_eq!(btb.stats(), (2, 1));
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut btb = Btb::new(64, 4);
        btb.insert(0x100, 0x200, CtrlKind::IndirectJump);
        btb.insert(0x100, 0x300, CtrlKind::IndirectJump);
        assert_eq!(btb.lookup(0x100).unwrap().target, 0x300);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 4 sets x 2 ways: pcs that map to set 0 are multiples of 4
        // (set index uses pc ^ (pc>>12), small pcs => pc & 3).
        let mut btb = Btb::new(8, 2);
        btb.insert(0x0, 1, CtrlKind::Jump);
        btb.insert(0x4, 2, CtrlKind::Jump);
        // Touch 0x0 so 0x4 becomes LRU.
        assert!(btb.lookup(0x0).is_some());
        btb.insert(0x8, 3, CtrlKind::Jump);
        assert!(btb.lookup(0x4).is_none(), "LRU way should be evicted");
        assert!(btb.lookup(0x0).is_some());
        assert!(btb.lookup(0x8).is_some());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut btb = Btb::new(8, 2);
        for pc in [0u64, 1, 2, 3] {
            btb.insert(pc, pc + 100, CtrlKind::Jump);
        }
        for pc in [0u64, 1, 2, 3] {
            assert_eq!(btb.lookup(pc).unwrap().target, pc + 100);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Btb::new(12, 4);
    }
}
