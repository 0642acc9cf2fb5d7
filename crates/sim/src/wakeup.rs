//! The scheduler's wakeup logic (paper Section 4.2, Figure 6): the ready
//! (BID) and PRIO vectors are live state, set when an instruction's last
//! producer has issued. Only check mode rescans the ROB's unissued
//! entries, as the reference the live vectors must equal every cycle.
//!
//! At dispatch an entry counts its unissued producers and links itself
//! onto each one's consumer list. Issuing a producer walks its list; a
//! consumer whose count reaches zero becomes ready in the cycle its last
//! operand completes, directly or through a queue ordered by that cycle.
//! Everything here is indexed by ROB position, the sequence number mod the
//! ROB capacity (every in-flight instruction holds one, and dispatch is in
//! program order), so age order is ring order from the ROB head and select
//! can pick by a ring scan. The lists are intrusive, so nothing is
//! allocated after construction.
//!
//! All of this is derived from the ROB.

use crate::bitset::BitSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Producer edges per entry: three register sources and the memory
/// (older overlapping store) dependence.
pub(crate) const EDGES: usize = 4;

/// The end of a consumer list.
const END: u32 = u32::MAX;

/// One producer of an entering instruction, as the wakeup logic sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Operand {
    /// The producer has issued; its result is available from this cycle.
    Completes(u64),
    /// The producer still waits, unissued, at this ROB position.
    Waits(usize),
}

/// Live ready/PRIO vectors plus the producer→consumer lists that set them.
#[derive(Debug)]
pub(crate) struct Wakeup {
    /// Unissued producers each unissued position still waits on.
    pending: Vec<u8>,
    /// The cycle each position's operands are available, over the
    /// producers that have issued so far.
    ready_at: Vec<u64>,
    /// Positions holding a CRISP-critical instruction.
    critical: BitSet,
    /// First link of each position's consumer list. A link names one
    /// consumer edge: `consumer_position * EDGES + edge`.
    head: Vec<u32>,
    /// Per position and edge, the next link in that producer's consumer
    /// list.
    next: Vec<[u32; EDGES]>,
    /// Positions whose producers have all issued but whose operands
    /// complete in a later cycle, ordered by that cycle.
    timed: BinaryHeap<Reverse<(u64, usize)>>,
    /// The ready (BID) vector.
    pub(crate) ready: BitSet,
    /// The PRIO vector: ready and critical.
    pub(crate) prio: BitSet,
    /// Entries moved into the ready vector so far.
    woken: u64,
}

impl Wakeup {
    /// Empty wakeup state over a ROB of `positions` entries.
    pub(crate) fn new(positions: usize) -> Wakeup {
        Wakeup {
            pending: vec![0; positions],
            ready_at: vec![0; positions],
            critical: BitSet::new(positions),
            head: vec![END; positions],
            next: vec![[END; EDGES]; positions],
            timed: BinaryHeap::with_capacity(positions),
            ready: BitSet::new(positions),
            prio: BitSet::new(positions),
            woken: 0,
        }
    }

    /// Enters the instruction dispatched into ROB position `pos` at cycle
    /// `visible_at` with its producers `operands` (one per edge). It
    /// becomes pickable once every producer has issued and completed, and
    /// never before cycle `from`.
    pub(crate) fn insert(
        &mut self,
        pos: usize,
        critical: bool,
        visible_at: u64,
        operands: [Option<Operand>; EDGES],
        from: u64,
    ) {
        let mut pending = 0;
        let mut ready_at = visible_at;
        for (edge, operand) in operands.into_iter().enumerate() {
            match operand {
                None => {}
                Some(Operand::Completes(at)) => ready_at = ready_at.max(at),
                Some(Operand::Waits(producer)) => {
                    self.next[pos][edge] = self.head[producer];
                    self.head[producer] = (pos * EDGES + edge) as u32;
                    pending += 1;
                }
            }
        }
        self.pending[pos] = pending;
        self.ready_at[pos] = ready_at;
        if critical {
            self.critical.set(pos);
        } else {
            self.critical.clear(pos);
        }
        if pending == 0 {
            self.schedule(pos, from);
        }
    }

    /// The instruction at `pos` issued, its result available at
    /// `complete_at`: it leaves the ready and PRIO vectors, and every
    /// consumer it was the last unissued producer of is scheduled, never
    /// before cycle `from`.
    pub(crate) fn issue(&mut self, pos: usize, complete_at: u64, from: u64) {
        self.ready.clear(pos);
        self.prio.clear(pos);
        let mut link = std::mem::replace(&mut self.head[pos], END);
        while link != END {
            let (consumer, edge) = (link as usize / EDGES, link as usize % EDGES);
            link = self.next[consumer][edge];
            self.ready_at[consumer] = self.ready_at[consumer].max(complete_at);
            self.pending[consumer] -= 1;
            if self.pending[consumer] == 0 {
                self.schedule(consumer, from);
            }
        }
    }

    /// Moves every queued position whose operands complete by `now` into
    /// the ready vector.
    pub(crate) fn drain(&mut self, now: u64) {
        while let Some(&Reverse((at, pos))) = self.timed.peek() {
            if at > now {
                break;
            }
            self.timed.pop();
            self.make_ready(pos);
        }
    }

    /// The next cycle a queued position becomes ready.
    pub(crate) fn next_ready(&self) -> Option<u64> {
        self.timed.peek().map(|&Reverse((at, _))| at)
    }

    /// Entries moved into the ready vector so far: one per instruction
    /// over a complete run.
    pub(crate) fn woken(&self) -> u64 {
        self.woken
    }

    fn schedule(&mut self, pos: usize, from: u64) {
        let at = self.ready_at[pos];
        if at <= from {
            self.make_ready(pos);
        } else {
            self.timed.push(Reverse((at, pos)));
        }
    }

    fn make_ready(&mut self, pos: usize) {
        self.ready.set(pos);
        if self.critical.get(pos) {
            self.prio.set(pos);
        }
        self.woken += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(b: &BitSet) -> Vec<usize> {
        b.iter_ones().collect()
    }

    #[test]
    fn consumer_wakes_when_its_last_producer_completes() {
        let mut w = Wakeup::new(8);
        // Producers at positions 2 and 5, both unissued; the consumer at
        // position 7 reads both, the second one twice.
        w.insert(2, false, 0, [None; EDGES], 1);
        w.insert(5, false, 0, [None; EDGES], 1);
        let waits = [
            Some(Operand::Waits(2)),
            Some(Operand::Waits(5)),
            Some(Operand::Waits(5)),
            None,
        ];
        w.insert(7, true, 1, waits, 2);
        assert_eq!(ones(&w.ready), [2, 5]);
        w.issue(2, 10, 4);
        assert_eq!(ones(&w.ready), [5]);
        w.issue(5, 30, 5);
        // Both edges to position 5 were walked; the consumer waits for cycle 30.
        assert_eq!(w.next_ready(), Some(30));
        w.drain(29);
        assert!(!w.ready.get(7));
        w.drain(30);
        assert_eq!(ones(&w.ready), [7]);
        assert_eq!(ones(&w.prio), [7]);
        assert_eq!(w.next_ready(), None);
        assert_eq!(w.woken(), 3);
    }

    #[test]
    fn completed_producers_only_delay_readiness() {
        let mut w = Wakeup::new(4);
        // Both producers issued earlier: ready at the later completion.
        let done = [
            Some(Operand::Completes(12)),
            None,
            None,
            Some(Operand::Completes(9)),
        ];
        w.insert(1, false, 3, done, 4);
        assert_eq!(w.next_ready(), Some(12));
        // A completion no later than `from` sets the bit directly.
        w.insert(
            3,
            false,
            3,
            [Some(Operand::Completes(4)), None, None, None],
            4,
        );
        assert_eq!(ones(&w.ready), [3]);
    }
}
