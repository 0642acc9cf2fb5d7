//! The age-matrix instruction picker of paper Section 4.2 / Figure 6.
//!
//! Every issue-queue slot keeps an *age vector*: the set of slots currently
//! holding **older** instructions. Readiness is broadcast as a BID vector;
//! the slot whose `age ∧ BID` reduces to zero is the oldest ready
//! instruction. CRISP adds a PRIO vector (ready ∧ critical): when it is
//! non-empty the pick happens within it, otherwise the baseline pick
//! applies — exactly the multiplexer the paper adds in blue in Figure 6.

use crisp_words::{echo, section, Reader, Snapshot};

/// A fixed-capacity bitset over issue-queue slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bitset over `capacity` slots.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The number of addressable slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Overwrites every bit with `other`'s, reusing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacities differ");
        self.words.copy_from_slice(&other.words);
    }

    /// Clears all bits.
    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self ∧ other` is all-zero (the NOR-reduction test of
    /// Figure 6).
    #[inline]
    pub fn disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// The lowest set bit at or after `start`, else the lowest set bit:
    /// a rotating-priority pick.
    pub fn next_one_wrapping(&self, start: usize) -> Option<usize> {
        self.iter_ones()
            .find(|&i| i >= start)
            .or_else(|| self.iter_ones().next())
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// The capacity echo, then the bit words (no length word: the capacity
/// fixes it).
impl Snapshot for BitSet {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(self.capacity as u64);
        self.words.as_slice().put(out);
    }

    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        echo::take(&mut self.capacity, r).map_err(|e| format!("capacity {e}"))?;
        self.words.as_mut_slice().take(r)?;
        let tail = self.capacity % 64;
        if tail != 0 && self.words.last().copied().unwrap_or(0) >> tail != 0 {
            return Err("bits set beyond capacity".to_string());
        }
        Ok(())
    }
}

/// The age matrix: per-slot age vectors with the CRISP-extended pick logic.
///
/// # Example
///
/// ```
/// use crisp_sim::{AgeMatrix, BitSet};
/// let mut m = AgeMatrix::new(8);
/// m.insert(3); // oldest
/// m.insert(5);
/// m.insert(1); // youngest
/// let mut ready = BitSet::new(8);
/// ready.set(5);
/// ready.set(1);
/// // Slot 3 is not ready, so the oldest *ready* is slot 5.
/// assert_eq!(m.pick_oldest(&ready), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct AgeMatrix {
    /// `age[i]` = slots currently holding instructions older than slot i.
    age: Vec<BitSet>,
    valid: BitSet,
    capacity: usize,
}

/// The capacity echo, the valid vector, then every slot's age vector, each
/// as a section.
impl Snapshot for AgeMatrix {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(self.capacity as u64);
        section::put(&self.valid, out);
        self.age.iter().for_each(|a| section::put(a, out));
    }

    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        echo::take(&mut self.capacity, r).map_err(|e| format!("capacity {e}"))?;
        section::take(&mut self.valid, r)?;
        self.age.iter_mut().try_for_each(|a| section::take(a, r))
    }
}

impl AgeMatrix {
    /// Creates an age matrix over `capacity` slots.
    pub fn new(capacity: usize) -> AgeMatrix {
        AgeMatrix {
            age: (0..capacity).map(|_| BitSet::new(capacity)).collect(),
            valid: BitSet::new(capacity),
            capacity,
        }
    }

    /// The number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.valid.count()
    }

    /// Whether `slot` currently holds a valid (tracked) instruction. Used
    /// by the opt-in invariant checker to cross-check the matrix against
    /// the reservation-station slot array.
    pub fn is_valid(&self, slot: usize) -> bool {
        self.valid.get(slot)
    }

    /// Registers a newly-enqueued instruction in slot `slot`. All currently
    /// valid slots become "older" in its age vector.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied.
    pub fn insert(&mut self, slot: usize) {
        assert!(!self.valid.get(slot), "slot {slot} already occupied");
        self.age[slot].copy_from(&self.valid);
        self.valid.set(slot);
    }

    /// Removes the instruction in `slot` (issue or squash): it disappears
    /// from every other slot's age vector.
    pub fn remove(&mut self, slot: usize) {
        debug_assert!(self.valid.get(slot), "slot {slot} empty");
        self.valid.clear(slot);
        for a in &mut self.age {
            a.clear(slot);
        }
    }

    /// Picks the oldest instruction among `ready` (the BID-vector pick of
    /// the baseline scheduler). Returns `None` when no ready instruction
    /// exists.
    pub fn pick_oldest(&self, ready: &BitSet) -> Option<usize> {
        ready
            .iter_ones()
            .find(|&i| self.valid.get(i) && self.age[i].disjoint(ready))
    }

    /// The CRISP pick (Figure 6): the oldest instruction among
    /// `ready ∧ prio` when that set is non-empty, otherwise the oldest
    /// among `ready`.
    pub fn pick_crisp(&self, ready: &BitSet, prio: &BitSet) -> Option<usize> {
        // PRIO vector = ready ∧ critical, computed by the caller per slot;
        // here `prio` is already that intersection.
        match self.pick_oldest(prio) {
            Some(slot) => Some(slot),
            None => self.pick_oldest(ready),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(capacity: usize, ones: &[usize]) -> BitSet {
        let mut b = BitSet::new(capacity);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn bitset_basic_ops() {
        let mut b = BitSet::new(130);
        assert!(!b.any());
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.count(), 3);
        assert!(b.get(64));
        assert!(!b.get(63));
        b.clear(64);
        assert!(!b.get(64));
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 129]);
        b.clear_all();
        assert!(!b.any());
    }

    #[test]
    fn bitset_copy_and_wrapping_pick() {
        let src = bits(130, &[5, 70, 129]);
        let mut b = BitSet::new(130);
        b.set(1);
        b.copy_from(&src);
        assert_eq!(b, src);
        assert_eq!(b.next_one_wrapping(0), Some(5));
        assert_eq!(b.next_one_wrapping(6), Some(70));
        assert_eq!(b.next_one_wrapping(129), Some(129));
        assert_eq!(b.next_one_wrapping(130), Some(5));
        assert_eq!(BitSet::new(130).next_one_wrapping(3), None);
    }

    #[test]
    fn bitset_disjoint() {
        let a = bits(70, &[1, 65]);
        let b = bits(70, &[2, 66]);
        let c = bits(70, &[65]);
        assert!(a.disjoint(&b));
        assert!(!a.disjoint(&c));
    }

    #[test]
    fn pick_oldest_respects_insertion_order_not_slot_order() {
        let mut m = AgeMatrix::new(16);
        // RAND-style insertion: arbitrary slots, known age order.
        m.insert(9); // oldest
        m.insert(2);
        m.insert(14); // youngest
        let ready = bits(16, &[2, 9, 14]);
        assert_eq!(m.pick_oldest(&ready), Some(9));
        let ready2 = bits(16, &[2, 14]);
        assert_eq!(m.pick_oldest(&ready2), Some(2));
    }

    #[test]
    fn remove_frees_age_relations() {
        let mut m = AgeMatrix::new(8);
        m.insert(0);
        m.insert(1);
        m.remove(0);
        // Slot 1 is now the oldest overall.
        let ready = bits(8, &[1]);
        assert_eq!(m.pick_oldest(&ready), Some(1));
        // Reusing slot 0 makes it the *youngest*.
        m.insert(0);
        let both = bits(8, &[0, 1]);
        assert_eq!(m.pick_oldest(&both), Some(1));
    }

    #[test]
    fn crisp_pick_prefers_prio_then_falls_back() {
        let mut m = AgeMatrix::new(8);
        m.insert(3); // oldest
        m.insert(5);
        m.insert(6); // youngest, critical
        let ready = bits(8, &[3, 5, 6]);
        let prio = bits(8, &[6]);
        assert_eq!(m.pick_crisp(&ready, &prio), Some(6));
        // Without priority the oldest wins.
        let empty = BitSet::new(8);
        assert_eq!(m.pick_crisp(&ready, &empty), Some(3));
    }

    #[test]
    fn crisp_pick_orders_within_prio_by_age() {
        let mut m = AgeMatrix::new(8);
        m.insert(1); // oldest
        m.insert(2);
        m.insert(3); // youngest
        let ready = bits(8, &[1, 2, 3]);
        let prio = bits(8, &[2, 3]);
        assert_eq!(m.pick_crisp(&ready, &prio), Some(2));
    }

    #[test]
    fn pick_none_when_nothing_ready() {
        let mut m = AgeMatrix::new(4);
        m.insert(0);
        let ready = BitSet::new(4);
        assert_eq!(m.pick_oldest(&ready), None);
        assert_eq!(m.pick_crisp(&ready, &ready), None);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_insert_panics() {
        let mut m = AgeMatrix::new(4);
        m.insert(1);
        m.insert(1);
    }

    #[test]
    fn occupancy_tracking() {
        let mut m = AgeMatrix::new(4);
        assert_eq!(m.occupancy(), 0);
        m.insert(0);
        m.insert(3);
        assert_eq!(m.occupancy(), 2);
        m.remove(0);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn sequential_drain_yields_fifo_order() {
        let mut m = AgeMatrix::new(32);
        let order = [7usize, 3, 19, 0, 31, 12];
        for &s in &order {
            m.insert(s);
        }
        let mut ready = bits(32, &order);
        let mut drained = Vec::new();
        while let Some(s) = m.pick_oldest(&ready) {
            drained.push(s);
            ready.clear(s);
            m.remove(s);
        }
        assert_eq!(drained, order.to_vec());
    }
}
