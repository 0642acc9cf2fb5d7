//! Select's pick order: the age-matrix picker of paper Section 4.2 /
//! Figure 6, computed rather than emulated.
//!
//! The paper's age matrix finds the oldest ready instruction, and CRISP's
//! PRIO vector (ready ∧ critical) puts ready critical instructions ahead
//! of the rest. In this trace-driven model dispatch fills the reservation
//! station in program order and nothing is ever squashed, so "older" is
//! exactly "smaller sequence number", and the RS already holds each slot's
//! sequence number. One sort of the cycle's ready slots by
//! (not PRIO, sequence number) therefore lists the picks the matrix would
//! make, in the order it would make them.

use crate::bitset::BitSet;
use crate::config::SchedulerKind;

/// Refills `order` with the ready slots in the order select takes them:
/// oldest first, and under [`SchedulerKind::Crisp`] every PRIO slot before
/// any other. [`SchedulerKind::RandomReady`] ignores age: its slots stay
/// in slot order for the caller's rotating scan.
///
/// `rs[slot]` is the sequence number of the instruction in `slot`.
///
/// # Panics
///
/// Panics if a ready slot holds no instruction.
pub(crate) fn select_order(
    scheduler: SchedulerKind,
    ready: &BitSet,
    prio: &BitSet,
    rs: &[Option<u64>],
    order: &mut Vec<usize>,
) {
    order.clear();
    order.extend(ready.iter_ones());
    let seq = |slot: usize| rs[slot].expect("ready slots are occupied");
    match scheduler {
        SchedulerKind::OldestReadyFirst => order.sort_unstable_by_key(|&s| seq(s)),
        SchedulerKind::Crisp => order.sort_unstable_by_key(|&s| (!prio.get(s), seq(s))),
        SchedulerKind::RandomReady => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
}
