//! The pipeline flight recorder: a fixed-capacity ring buffer of
//! per-instruction lifecycle events behind a zero-cost-when-off enum.

use crisp_words::{fields, Reader, Snapshot};
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

// A snapshot from a differently configured run is rejected by the
// capacity echo, not silently truncated.
fields! { FlightRecorder { capacity as echo, dropped, events as list } check |f| {
    if f.events.len() <= f.capacity {
        Ok(())
    } else {
        Err(format!("{} events exceed capacity {}", f.events.len(), f.capacity))
    }
} }

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

/// An enable flag, then the ring inline; enablement is part of the
/// configuration a snapshot must match.
impl Snapshot for Tracer {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.is_on()));
        if let Tracer::Ring(ring) = self {
            ring.put(out);
        }
    }

    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        match (r.u64()?, self) {
            (0, Tracer::Off) => Ok(()),
            (1, Tracer::Ring(ring)) => ring.take(r),
            (0, Tracer::Ring(_)) => {
                Err("tracer snapshot: taken with tracing disabled, engine has it enabled".into())
            }
            (1, Tracer::Off) => {
                Err("tracer snapshot: taken with tracing enabled, engine has it disabled".into())
            }
            (v, _) => Err(format!("tracer snapshot: bad enable flag {v}")),
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
    fn recorder_snapshot_round_trips() {
        let mut r = FlightRecorder::new(4);
        for i in 0..6 {
            r.record(ev(
                i,
                i,
                if i % 2 == 0 {
                    EventKind::Issue
                } else {
                    EventKind::Complete
                },
            ));
        }
        let w = r.snapshot_words();
        let mut fresh = FlightRecorder::new(4);
        fresh.restore_words(&w).unwrap();
        assert_eq!(fresh, r);
        // Mismatched capacity is rejected.
        let mut other = FlightRecorder::new(8);
        assert!(other.restore_words(&w).unwrap_err().contains("capacity"));
        // Truncation is rejected.
        let mut fresh = FlightRecorder::new(4);
        assert!(fresh.restore_words(&w[..w.len() - 1]).is_err());
    }

    #[test]
    fn tracer_off_is_inert_and_round_trips() {
        let mut t = Tracer::Off;
        t.record(1, 2, 3, EventKind::Fetch, None);
        assert!(t.events().is_empty());
        let w = t.snapshot_words();
        let mut fresh = Tracer::Off;
        fresh.restore_words(&w).unwrap();
        assert_eq!(fresh, t);
        // Enablement mismatches are rejected both ways.
        let mut on = Tracer::ring(4);
        assert!(on.restore_words(&w).unwrap_err().contains("disabled"));
        let w_on = Tracer::ring(4).snapshot_words();
        let mut off = Tracer::Off;
        assert!(off.restore_words(&w_on).unwrap_err().contains("enabled"));
    }

    #[test]
    fn codes_round_trip() {
        for k in [
            EventKind::Fetch,
            EventKind::Dispatch,
            EventKind::Issue,
            EventKind::Complete,
            EventKind::Retire,
            EventKind::Redirect,
        ] {
            assert_eq!(EventKind::from_code(k.code()).unwrap(), k);
        }
        for l in [FillLevel::L1, FillLevel::Llc, FillLevel::Dram] {
            assert_eq!(FillLevel::from_code(l.code()).unwrap(), l);
        }
        assert!(EventKind::from_code(9).is_err());
        assert!(FillLevel::from_code(9).is_err());
    }
}
