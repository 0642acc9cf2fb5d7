//! The pipeline flight recorder: a fixed-capacity ring buffer of
//! per-instruction lifecycle events behind a zero-cost-when-off enum.

use crisp_words::{fields, Snapshot};
use std::collections::VecDeque;

/// Cache level that served a load's fill (annotated on
/// [`EventKind::Complete`] events and on ROB-head stall attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FillLevel {
    /// Served by the L1 data cache (or store-to-load forwarding).
    L1,
    /// Served by the last-level cache.
    Llc,
    /// Served by DRAM.
    Dram,
}

crisp_words::codes! { FillLevel { L1 = 0, Llc = 1, Dram = 2 } }

impl FillLevel {
    /// Human-readable level name.
    pub fn label(self) -> &'static str {
        match self {
            FillLevel::L1 => "L1",
            FillLevel::Llc => "LLC",
            FillLevel::Dram => "DRAM",
        }
    }
}

/// One pipeline lifecycle stage transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The instruction entered the fetch buffer.
    Fetch,
    /// The instruction was renamed and inserted into the ROB/RS
    /// (dispatch).
    Dispatch,
    /// The scheduler issued the instruction to a functional unit.
    Issue,
    /// Execution finished (for loads, annotated with the serving
    /// [`FillLevel`]). Recorded at issue time with the *future* completion
    /// cycle, so the event stream is not strictly cycle-sorted.
    Complete,
    /// The instruction retired from the ROB head.
    Retire,
    /// A mispredicted branch resolved and fetch was re-steered (the
    /// trace-driven engine never fetches wrong-path instructions, so this
    /// is the squash/flush annotation).
    Redirect,
}

crisp_words::codes! { EventKind {
    Fetch = 0, Dispatch = 1, Issue = 2, Complete = 3, Retire = 4, Redirect = 5
} }

impl EventKind {
    /// Short stage mnemonic (also the Kanata lane-0 stage name).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Fetch => "F",
            EventKind::Dispatch => "Ds",
            EventKind::Issue => "Is",
            EventKind::Complete => "Cm",
            EventKind::Retire => "R",
            EventKind::Redirect => "X",
        }
    }
}

/// One recorded pipeline event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Core cycle the transition happened (or, for
    /// [`EventKind::Complete`], will happen).
    pub cycle: u64,
    /// Program-order sequence number (equals the trace index).
    pub seq: u64,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Which transition this is.
    pub kind: EventKind,
    /// Serving cache level, for load completions.
    pub fill: Option<FillLevel>,
}

fields! { TraceEvent { cycle, seq, pc, kind, fill } }

/// Fixed-capacity ring buffer of [`TraceEvent`]s: once full, the oldest
/// event is dropped for each new one, so the buffer always holds the most
/// recent pipeline history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

fields! { FlightRecorder { capacity, dropped, events as list } }

impl FlightRecorder {
    /// Builds a recorder holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest once at capacity.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).copied().collect()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The tracer the engine records into: either disabled (the default — the
/// record call is a single discriminant test the optimiser can hoist) or
/// a live [`FlightRecorder`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Tracer {
    /// Tracing disabled; every record call is a no-op.
    #[default]
    Off,
    /// Tracing into a ring buffer.
    Ring(FlightRecorder),
}

/// An enable flag, then the ring inline.
impl Snapshot for Tracer {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.is_on()));
        if let Tracer::Ring(ring) = self {
            ring.put(out);
        }
    }
}

impl Tracer {
    /// A tracer recording into a fresh ring of `capacity` events.
    pub fn ring(capacity: usize) -> Tracer {
        Tracer::Ring(FlightRecorder::new(capacity))
    }

    /// Whether events are being kept.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Tracer::Ring(_))
    }

    /// Records one event; a no-op when off.
    #[inline]
    pub fn record(
        &mut self,
        cycle: u64,
        seq: u64,
        pc: u64,
        kind: EventKind,
        fill: Option<FillLevel>,
    ) {
        if let Tracer::Ring(ring) = self {
            ring.record(TraceEvent {
                cycle,
                seq,
                pc,
                kind,
                fill,
            });
        }
    }

    /// Events currently held, oldest first (empty when off).
    pub fn events(&self) -> Vec<TraceEvent> {
        match self {
            Tracer::Off => Vec::new(),
            Tracer::Ring(r) => r.events(),
        }
    }

    /// The most recent `n` events (empty when off).
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        match self {
            Tracer::Off => Vec::new(),
            Tracer::Ring(r) => r.tail(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            seq,
            pc: seq * 4,
            kind,
            fill: (kind == EventKind::Complete).then_some(FillLevel::Dram),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i, i, EventKind::Fetch));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(r.tail(2).iter().map(|e| e.seq).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn tracer_off_is_inert_and_writes_one_word() {
        let mut t = Tracer::Off;
        t.record(1, 2, 3, EventKind::Fetch, None);
        assert!(t.events().is_empty());
        assert_eq!(t.snapshot_words(), [0]);
        // On: the flag, then capacity, drops and the counted events.
        let mut on = Tracer::ring(1);
        on.record(1, 2, 3, EventKind::Fetch, None);
        on.record(4, 5, 6, EventKind::Complete, Some(FillLevel::Llc));
        assert_eq!(on.snapshot_words(), [1, 1, 1, 1, 4, 5, 6, 3, 1, 1]);
    }
}
