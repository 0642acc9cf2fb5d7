//! Host-side engine self-profiler: where do *host* nanoseconds go while
//! the simulator runs?
//!
//! CRISP's methodology is profiling-first for the *simulated* machine;
//! this module applies the same discipline to the simulator itself so
//! ROADMAP's throughput work can attack measured hotspots instead of
//! guesses. The engine marks phase transitions with [`HostProf::enter`]
//! — a *mark-style* profiler: each mark takes one monotonic timestamp
//! and charges the elapsed time since the previous mark to the phase
//! that was current. By construction every measured nanosecond lands in
//! exactly one phase, so the report's attribution always sums to the
//! measured total (loop bookkeeping and anything unmarked accumulates
//! under [`Phase::Other`]).
//!
//! Alongside wall time the profiler tallies *structure-scan* counters —
//! RS entries the wakeup logic makes ready, select candidates examined
//! (the ready slots not yet picked, at each pick), LSQ disambiguation
//! probes, MSHR/cache-port probes — the work-per-cycle numbers that explain why a phase is hot.
//!
//! The disabled path is a single predicted branch per mark (the same
//! enum-dispatch pattern as [`crate::Tracer::Off`]) and is gated by the
//! `obs-overhead` micro-benchmark at ≤0.5 ns/call. Enabled runs pay one
//! `Instant::now()` per mark, so profiled simulations run slower;
//! relative attribution is the product, not absolute speed.

use std::time::Instant;

/// Engine phases that host time is attributed to. `Other` collects
/// everything between marked regions (poll points, per-cycle
/// accounting, loop control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Instruction fetch: line gating, branch prediction, fetch-buffer
    /// fill (and FDIP prefetch walking).
    Fetch,
    /// Register renaming: mapping sources through the producer table.
    Rename,
    /// Dispatch: ROB/RS allocation and entry construction.
    Dispatch,
    /// Wakeup: draining operands that complete this cycle into the ready
    /// vector, walking an issued instruction's consumer list, and
    /// fast-forwarding over idle cycles to the next wakeup event.
    Wakeup,
    /// Select: ordering the ready slots by priority and age, and port
    /// binding.
    Select,
    /// Execute: latency computation and completion bookkeeping.
    Execute,
    /// Load/store-queue disambiguation scans.
    Lsq,
    /// MSHR and instruction-cache probes.
    Mshr,
    /// Data-side memory-hierarchy access (loads/stores entering the
    /// cache/DRAM model).
    Dram,
    /// Retire: ROB-head completion checks and commit bookkeeping.
    Retire,
    /// Unmarked time: poll points, stall accounting, loop control.
    Other,
}

/// Number of phases (including `Other`).
pub const PHASE_COUNT: usize = 11;

/// Phase names, indexed by `Phase as usize` — stable identifiers used
/// in reports.
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "fetch", "rename", "dispatch", "wakeup", "select", "execute", "lsq", "mshr", "dram", "retire",
    "other",
];

/// Live profiling state (boxed so the disabled variant stays one word).
#[derive(Clone, Debug)]
pub struct HostProfState {
    last: Instant,
    current: Phase,
    phase_ns: [u64; PHASE_COUNT],
    rs_slots_scanned: u64,
    age_compares: u64,
    lsq_probes: u64,
    mshr_probes: u64,
}

/// The self-profiler handle the engine marks against. [`HostProf::Off`]
/// makes every mark a no-op behind one predicted branch.
#[derive(Clone, Debug)]
pub enum HostProf {
    /// Disabled: marks and tallies are no-ops.
    Off,
    /// Enabled: timestamps and counters accumulate.
    On(Box<HostProfState>),
}

impl HostProf {
    /// An enabled or disabled profiler.
    pub fn new(enabled: bool) -> HostProf {
        if enabled {
            HostProf::On(Box::new(HostProfState {
                last: Instant::now(),
                current: Phase::Other,
                phase_ns: [0; PHASE_COUNT],
                rs_slots_scanned: 0,
                age_compares: 0,
                lsq_probes: 0,
                mshr_probes: 0,
            }))
        } else {
            HostProf::Off
        }
    }

    /// Whether marks are live. Callers use this to skip computing tally
    /// arguments (e.g. popcounts) on the disabled path.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, HostProf::On(_))
    }

    /// Resets the mark clock without charging the elapsed gap anywhere
    /// — called once when measurement begins, so setup time (trace
    /// loading, layout building) is excluded.
    pub fn start(&mut self) {
        if let HostProf::On(s) = self {
            s.last = Instant::now();
            s.current = Phase::Other;
        }
    }

    /// Marks a phase transition: charges the time since the previous
    /// mark to the phase that was current, then makes `phase` current.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        match self {
            HostProf::Off => {}
            HostProf::On(s) => {
                let now = Instant::now();
                s.phase_ns[s.current as usize] += now.duration_since(s.last).as_nanos() as u64;
                s.last = now;
                s.current = phase;
            }
        }
    }

    /// Tallies reservation-station entries the wakeup logic touched. The
    /// engine counts each entry once, when it enters the ready vector, so
    /// a complete run tallies exactly its retired instructions.
    #[inline]
    pub fn rs_scanned(&mut self, n: u64) {
        if let HostProf::On(s) = self {
            s.rs_slots_scanned += n;
        }
    }

    /// Tallies select candidates examined by a pick: the ready slots not
    /// yet picked this cycle.
    #[inline]
    pub fn age_compared(&mut self, n: u64) {
        if let HostProf::On(s) = self {
            s.age_compares += n;
        }
    }

    /// Tallies load/store-queue disambiguation probes.
    #[inline]
    pub fn lsq_probed(&mut self, n: u64) {
        if let HostProf::On(s) = self {
            s.lsq_probes += n;
        }
    }

    /// Tallies MSHR / cache-port probes.
    #[inline]
    pub fn mshr_probed(&mut self, n: u64) {
        if let HostProf::On(s) = self {
            s.mshr_probes += n;
        }
    }

    /// Charges the tail since the last mark and produces the report.
    /// `cycles` and `retired` contextualize the per-cycle rates.
    pub fn finish(&mut self, cycles: u64, retired: u64) -> HostProfReport {
        match self {
            HostProf::Off => HostProfReport::default(),
            HostProf::On(s) => {
                let now = Instant::now();
                s.phase_ns[s.current as usize] += now.duration_since(s.last).as_nanos() as u64;
                s.last = now;
                HostProfReport {
                    enabled: true,
                    phase_ns: s.phase_ns,
                    cycles,
                    retired,
                    rs_slots_scanned: s.rs_slots_scanned,
                    age_compares: s.age_compares,
                    lsq_probes: s.lsq_probes,
                    mshr_probes: s.mshr_probes,
                }
            }
        }
    }
}

/// The finished self-profile: per-phase host nanoseconds plus
/// structure-scan counters. `Default` (all zeros, `enabled: false`) is
/// what un-profiled runs report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostProfReport {
    /// Whether the run was profiled at all.
    pub enabled: bool,
    /// Host nanoseconds charged to each phase, indexed like
    /// [`PHASE_NAMES`].
    pub phase_ns: [u64; PHASE_COUNT],
    /// Simulated cycles the profile covers.
    pub cycles: u64,
    /// Instructions retired over the profile.
    pub retired: u64,
    /// Reservation-station entries the wakeup logic made ready: one per
    /// instruction over a complete run.
    pub rs_slots_scanned: u64,
    /// Select candidates examined: at each pick, the ready slots not yet
    /// picked this cycle. The name predates the sequence-number select.
    pub age_compares: u64,
    /// Load/store-queue disambiguation probes.
    pub lsq_probes: u64,
    /// MSHR / cache-port probes.
    pub mshr_probes: u64,
}

impl HostProfReport {
    /// Total measured host nanoseconds (all phases, including `other`).
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Nanoseconds attributed to *named* phases (everything but
    /// `other`) — the acceptance metric is `named_ns / total_ns`.
    pub fn named_ns(&self) -> u64 {
        self.total_ns() - self.phase_ns[Phase::Other as usize]
    }

    /// `(name, ns)` for every phase, report order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        PHASE_NAMES.iter().zip(self.phase_ns).map(|(&n, v)| (n, v))
    }

    /// Renders the hotspot table: phases sorted by time, share of
    /// total, per-cycle cost, then the scan-rate counters.
    pub fn render(&self) -> String {
        if !self.enabled {
            return "hostprof: disabled (enable with SimConfig.hostprof)\n".to_string();
        }
        let total = self.total_ns().max(1);
        let mut rows: Vec<(&str, u64)> = self.phases().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let per_cycle = |ns: u64| ns as f64 / self.cycles.max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "host profile: {:.1} ms over {} cycles / {} instrs ({:.1} ns/cycle, {:.1}% in named phases)\n",
            total as f64 / 1e6,
            self.cycles,
            self.retired,
            per_cycle(total),
            self.named_ns() as f64 * 100.0 / total as f64,
        ));
        out.push_str(&format!(
            "{:<10} {:>12} {:>7} {:>10}\n",
            "phase", "ns", "share", "ns/cycle"
        ));
        for (name, ns) in rows {
            out.push_str(&format!(
                "{:<10} {:>12} {:>6.1}% {:>10.2}\n",
                name,
                ns,
                ns as f64 * 100.0 / total as f64,
                per_cycle(ns),
            ));
        }
        let rate = |n: u64| n as f64 / self.cycles.max(1) as f64;
        out.push_str(&format!(
            "scans/cycle: rs {:.2}, age {:.2}, lsq {:.2}, mshr {:.2}\n",
            rate(self.rs_slots_scanned),
            rate(self.age_compares),
            rate(self.lsq_probes),
            rate(self.mshr_probes),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_profiler_reports_nothing() {
        let mut p = HostProf::new(false);
        assert!(!p.is_on());
        p.enter(Phase::Fetch);
        p.rs_scanned(100);
        let r = p.finish(1000, 500);
        assert_eq!(r, HostProfReport::default());
        assert!(!r.enabled);
        assert_eq!(r.total_ns(), 0);
        assert!(r.render().contains("disabled"));
    }

    #[test]
    fn marks_attribute_all_time_to_phases() {
        let mut p = HostProf::new(true);
        assert!(p.is_on());
        p.start();
        p.enter(Phase::Retire);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.enter(Phase::Wakeup);
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.rs_scanned(97);
        p.age_compared(12);
        p.lsq_probed(3);
        p.mshr_probed(5);
        let r = p.finish(10, 7);
        assert!(r.enabled);
        // The sleeps landed where they should.
        assert!(r.phase_ns[Phase::Retire as usize] >= 1_000_000);
        assert!(r.phase_ns[Phase::Wakeup as usize] >= 500_000);
        // Attribution is exhaustive: named + other == total.
        assert_eq!(
            r.named_ns() + r.phase_ns[Phase::Other as usize],
            r.total_ns()
        );
        assert_eq!(
            (
                r.rs_slots_scanned,
                r.age_compares,
                r.lsq_probes,
                r.mshr_probes
            ),
            (97, 12, 3, 5)
        );
        // Report names are indexed by `Phase as usize` and distinct.
        let rows: Vec<(&str, u64)> = r.phases().collect();
        assert_eq!(rows.len(), PHASE_COUNT);
        assert_eq!(
            rows[Phase::Retire as usize],
            ("retire", r.phase_ns[Phase::Retire as usize])
        );
        assert_eq!(PHASE_NAMES[Phase::Dram as usize], "dram");
        assert_eq!(PHASE_NAMES[Phase::Other as usize], "other");
        let mut names = PHASE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
        let txt = r.render();
        assert!(txt.contains("retire"), "{txt}");
        assert!(txt.contains("scans/cycle"), "{txt}");
    }
}
