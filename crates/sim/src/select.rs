//! Select's pick order: the age-matrix picker of paper Section 4.2 /
//! Figure 6, computed rather than emulated.
//!
//! The paper's age matrix finds the oldest ready instruction, and CRISP's
//! PRIO vector (ready ∧ critical) puts ready critical instructions ahead
//! of the rest. In this trace-driven model dispatch fills the ROB in
//! program order and nothing is ever squashed, so "older" is exactly
//! "nearer the ROB head". The wakeup logic keys its ready and PRIO vectors
//! by ROB position (sequence number mod ROB capacity), so age order is
//! ring order from the head. A ring scan from the ROB head over the
//! vectors' ⌈capacity/64⌉ words, PRIO ∧ ready first under CRISP and then
//! the rest of the ready vector, therefore lists the picks the matrix
//! would make, in the order it would make them, and stops once it has
//! the cycle's issue width.

use crate::bitset::BitSet;

/// Refills `picks` with the ROB positions select takes this cycle, at most
/// `width` of them: the ready positions in ring order from the ROB head
/// at position `head`, and with `prio` (CRISP's PRIO vector) every PRIO
/// position before any other.
pub(crate) fn select_ring(
    ready: &BitSet,
    prio: Option<&BitSet>,
    head: usize,
    width: usize,
    picks: &mut Vec<usize>,
) {
    picks.clear();
    let words = ready.as_words().len();
    match prio {
        Some(prio) => {
            let (ready, prio) = (ready.as_words(), prio.as_words());
            ring_scan(|w| ready[w] & prio[w], words, head, width, picks);
            ring_scan(|w| ready[w] & !prio[w], words, head, width, picks);
        }
        None => {
            let ready = ready.as_words();
            ring_scan(|w| ready[w], words, head, width, picks);
        }
    }
}

/// Appends to `picks`, until it holds `width`, the set bits of the ring
/// whose `words` 64-bit words `word` reads, in ring order from bit `head`.
fn ring_scan(
    word: impl Fn(usize) -> u64,
    words: usize,
    head: usize,
    width: usize,
    picks: &mut Vec<usize>,
) {
    let (first, bit) = (head / 64, head % 64);
    // The head's word comes first for its bits at and above the head, and
    // again last for those below it.
    for k in 0..=words {
        if picks.len() == width {
            return;
        }
        let w = if first + k < words {
            first + k
        } else {
            first + k - words
        };
        let mut bits = word(w);
        if k == 0 {
            bits &= !0 << bit;
        } else if k == words {
            bits &= (1 << bit) - 1;
        }
        while bits != 0 && picks.len() < width {
            picks.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Refills `slots` with the RS slots of the ready positions, `slot_of`
/// mapping a position to the slot its instruction holds, in slot order:
/// the random-pick ablation is blind to age and rotates through slot
/// numbers.
pub(crate) fn random_order(
    ready: &BitSet,
    slot_of: impl Fn(usize) -> usize,
    slots: &mut Vec<usize>,
) {
    slots.clear();
    slots.extend(ready.iter_ones().map(slot_of));
    slots.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use proptest::prelude::*;

    /// The sort the ring scan replaced, kept as its oracle: the ready
    /// positions by (not PRIO, sequence number) under CRISP, by sequence
    /// number under oldest-first, and in position order under RAND.
    /// `seq[pos]` is the sequence number of the instruction at `pos`.
    fn select_order(
        scheduler: SchedulerKind,
        ready: &BitSet,
        prio: &BitSet,
        seq: &[Option<u64>],
        order: &mut Vec<usize>,
    ) {
        order.clear();
        order.extend(ready.iter_ones());
        let seq = |pos: usize| seq[pos].expect("ready positions are occupied");
        match scheduler {
            SchedulerKind::OldestReadyFirst => order.sort_unstable_by_key(|&p| seq(p)),
            SchedulerKind::Crisp => order.sort_unstable_by_key(|&p| (!prio.get(p), seq(p))),
            SchedulerKind::RandomReady => {}
        }
    }

    const CAP: usize = 32;

    fn bits(ones: &[usize]) -> BitSet {
        let mut b = BitSet::new(CAP);
        for &i in ones {
            b.set(i);
        }
        b
    }

    /// An RS whose `slots` hold sequence numbers 0, 1, 2, … in that order.
    fn dispatched(slots: &[usize]) -> Vec<Option<u64>> {
        let mut rs = vec![None; CAP];
        for (seq, &slot) in slots.iter().enumerate() {
            rs[slot] = Some(seq as u64);
        }
        rs
    }

    fn order(s: SchedulerKind, ready: &[usize], prio: &[usize], rs: &[Option<u64>]) -> Vec<usize> {
        let mut out = vec![99]; // stale contents are discarded
        select_order(s, &bits(ready), &bits(prio), rs, &mut out);
        out
    }

    /// The ring scan's picks over a `CAP`-position ring headed at `head`.
    fn scan(ready: &[usize], prio: Option<&[usize]>, head: usize, width: usize) -> Vec<usize> {
        let mut out = vec![99]; // stale contents are discarded
        let prio = prio.map(bits);
        select_ring(&bits(ready), prio.as_ref(), head, width, &mut out);
        out
    }

    #[test]
    fn pick_oldest_respects_insertion_order_not_slot_order() {
        let rs = dispatched(&[9, 2, 14]);
        let oldest = SchedulerKind::OldestReadyFirst;
        assert_eq!(order(oldest, &[2, 9, 14], &[], &rs), [9, 2, 14]);
        assert_eq!(order(oldest, &[2, 14], &[], &rs), [2, 14]);
    }

    #[test]
    fn reused_slot_is_the_youngest() {
        let oldest = SchedulerKind::OldestReadyFirst;
        let mut rs = dispatched(&[0, 1]);
        // Issue frees slot 0: slot 1 is now the oldest overall.
        rs[0] = None;
        assert_eq!(order(oldest, &[1], &[], &rs), [1]);
        // Dispatch reuses slot 0 for a younger instruction.
        rs[0] = Some(2);
        assert_eq!(order(oldest, &[0, 1], &[], &rs), [1, 0]);
    }

    #[test]
    fn crisp_pick_prefers_prio_then_falls_back() {
        let rs = dispatched(&[3, 5, 6]);
        let crisp = SchedulerKind::Crisp;
        assert_eq!(order(crisp, &[3, 5, 6], &[6], &rs), [6, 3, 5]);
        // Without priority the oldest wins.
        assert_eq!(order(crisp, &[3, 5, 6], &[], &rs), [3, 5, 6]);
        // PRIO counts only under the CRISP scheduler.
        let oldest = SchedulerKind::OldestReadyFirst;
        assert_eq!(order(oldest, &[3, 5, 6], &[6], &rs), [3, 5, 6]);
        // The scan agrees, with the ROB head at position 0.
        assert_eq!(scan(&[3, 5, 6], Some(&[6]), 0, 6), [6, 3, 5]);
        assert_eq!(scan(&[3, 5, 6], Some(&[]), 0, 6), [3, 5, 6]);
        assert_eq!(scan(&[3, 5, 6], None, 0, 6), [3, 5, 6]);
    }

    #[test]
    fn crisp_pick_orders_within_prio_by_age() {
        let rs = dispatched(&[1, 2, 3]);
        assert_eq!(
            order(SchedulerKind::Crisp, &[1, 2, 3], &[2, 3], &rs),
            [2, 3, 1]
        );
        let rs = dispatched(&[3, 2, 1, 0]);
        assert_eq!(
            order(SchedulerKind::Crisp, &[0, 1, 2, 3], &[0, 2], &rs),
            [2, 0, 3, 1]
        );
        // On the ring headed at 3, the oldest is 3, then (wrapping past 31)
        // 0, 1 and 2.
        assert_eq!(scan(&[0, 1, 2, 3], Some(&[0, 2]), 3, 6), [0, 2, 3, 1]);
    }

    #[test]
    fn pick_none_when_nothing_ready() {
        let rs = dispatched(&[0]);
        for s in [
            SchedulerKind::OldestReadyFirst,
            SchedulerKind::Crisp,
            SchedulerKind::RandomReady,
        ] {
            assert_eq!(order(s, &[], &[], &rs), [] as [usize; 0]);
        }
        assert_eq!(scan(&[], Some(&[]), 17, 6), [] as [usize; 0]);
    }

    #[test]
    fn sequential_drain_yields_fifo_order() {
        let slots = [7usize, 3, 19, 0, 31, 12];
        let rs = dispatched(&slots);
        let fifo = order(SchedulerKind::OldestReadyFirst, &slots, &[], &rs);
        assert_eq!(fifo, slots);
        // RAND leaves them in slot order for its rotating scan.
        let rand = order(SchedulerKind::RandomReady, &slots, &[], &rs);
        assert_eq!(rand, [0, 3, 7, 12, 19, 31]);
    }

    #[test]
    fn scan_wraps_from_the_head_and_stops_at_the_width() {
        // Head at 30: 30 and 31 are the oldest, then 0, 1, 2 …, and 29 is
        // the youngest position of the ring.
        let ready = [0, 1, 2, 29, 30, 31];
        assert_eq!(scan(&ready, None, 30, 6), [30, 31, 0, 1, 2, 29]);
        assert_eq!(scan(&ready, None, 30, 4), [30, 31, 0, 1]);
        // A PRIO position behind the head still beats an older non-PRIO one.
        assert_eq!(scan(&ready, Some(&[29, 1]), 30, 3), [1, 29, 30]);
        // The head's own word is revisited last for the bits below it.
        assert_eq!(scan(&[5, 9], None, 7, 6), [9, 5]);
    }

    /// A ring of `cap` positions whose ready vector holds the `sparse`
    /// positions (mod `cap`) and, if given, the set bits of `dense`; the
    /// PRIO vector is the ready positions whose `prio` bit is set.
    fn masks(
        cap: usize,
        sparse: &[usize],
        dense: Option<&[u64]>,
        prio: &[u64],
    ) -> (BitSet, BitSet) {
        let bit = |words: &[u64], pos: usize| words[pos / 64] >> (pos % 64) & 1 == 1;
        let (mut r, mut p) = (BitSet::new(cap), BitSet::new(cap));
        for pos in 0..cap {
            if sparse.iter().any(|&s| s % cap == pos) || dense.is_some_and(|d| bit(d, pos)) {
                r.set(pos);
                if bit(prio, pos) {
                    p.set(pos);
                }
            }
        }
        (r, p)
    }

    proptest! {
        /// For a random slot assignment and ready/PRIO masks, the order is
        /// the matrix picker's, one pick at a time: the oldest ready slot
        /// (CRISP: the oldest PRIO-ready slot while there is one) first.
        #[test]
        fn each_pick_is_the_oldest_ready_slot_left(
            keys in proptest::collection::vec(any::<u32>(), CAP..CAP + 1),
            ready_mask in any::<u32>(),
            prio_mask in any::<u32>(),
        ) {
            // Distinct sequence numbers in a random slot order.
            let rs: Vec<Option<u64>> = (0..CAP)
                .map(|slot| Some(u64::from(keys[slot]) * CAP as u64 + slot as u64))
                .collect();
            let ready: Vec<usize> = (0..CAP).filter(|&s| ready_mask >> s & 1 == 1).collect();
            let prio: Vec<usize> = ready.iter().copied().filter(|&s| prio_mask >> s & 1 == 1).collect();
            for s in [SchedulerKind::OldestReadyFirst, SchedulerKind::Crisp] {
                let mut left = ready.clone();
                let mut expected = Vec::new();
                while !left.is_empty() {
                    let critical: Vec<usize> = left
                        .iter()
                        .copied()
                        .filter(|slot| s == SchedulerKind::Crisp && prio.contains(slot))
                        .collect();
                    let pool = if critical.is_empty() { &left } else { &critical };
                    let oldest = *pool.iter().min_by_key(|&&slot| rs[slot]).expect("non-empty");
                    expected.push(oldest);
                    left.retain(|&slot| slot != oldest);
                }
                prop_assert_eq!(order(s, &ready, &prio, &rs), expected);
            }
        }
    }

    proptest! {
        // Each case checks every head position of five rings.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The ring scan equals the sort's first `width` picks for every
        /// head position of Figure 9's ROB capacities and of one below a
        /// word, on sparse ready vectors (the scan wraps past the ring's end
        /// and back into the head's word) and crowded ones (it stops at the
        /// width), and the random-pick ablation gets its ready slots in
        /// slot order.
        #[test]
        fn ring_scan_matches_the_sort_at_every_head(
            sparse in proptest::collection::vec(0usize..448, 0..12),
            dense in proptest::collection::vec(any::<u64>(), 7..8),
            prio in proptest::collection::vec(any::<u64>(), 7..8),
            keys in proptest::collection::vec(any::<u64>(), 448..449),
            width in 1usize..9,
            crowded in any::<bool>(),
        ) {
            for cap in [40, 180, 224, 336, 448] {
                let dense = crowded.then_some(dense.as_slice());
                let (ready, prio) = masks(cap, &sparse, dense, &prio);
                let (mut picks, mut sorted) = (Vec::new(), Vec::new());
                for head in 0..cap {
                    // Position `head + i` (mod cap) holds sequence number i.
                    let seq: Vec<Option<u64>> =
                        (0..cap).map(|pos| Some(((pos + cap - head) % cap) as u64)).collect();
                    for s in [SchedulerKind::OldestReadyFirst, SchedulerKind::Crisp] {
                        select_order(s, &ready, &prio, &seq, &mut sorted);
                        sorted.truncate(width);
                        let prio = (s == SchedulerKind::Crisp).then_some(&prio);
                        select_ring(&ready, prio, head, width, &mut picks);
                        prop_assert_eq!(&picks, &sorted);
                    }
                }
                // Distinct RS slot numbers in a random position order.
                let slot_of = |pos: usize| keys[pos] as usize % cap * cap + pos;
                random_order(&ready, slot_of, &mut picks);
                let mut slots: Vec<usize> = (0..cap).map(slot_of).collect();
                slots.sort_unstable();
                slots.retain(|&slot| ready.get(slot % cap));
                prop_assert_eq!(picks, slots);
            }
        }
    }
}
