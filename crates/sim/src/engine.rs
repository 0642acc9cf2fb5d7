use crate::bitset::BitSet;
use crate::bpu::{BpuConfig, BranchPredictionUnit};
use crate::cancel::AbortReason;
use crate::config::{SchedulerKind, SimConfig};
use crate::error::{DeadlockReport, HeadState, SimError};
use crate::select::{random_order, select_ring};
use crate::stats::{SimResult, UpcTimeline};
use crate::wakeup::{Operand, Wakeup, EDGES};
use crisp_isa::{FuClass, Layout, Pc, Program, Trace};
use crisp_mem::{HitLevel, MemoryHierarchy};
use crisp_obs::{
    EventKind, FillLevel, HostProf, Phase as HostPhase, StallClass, TelemetryInputs, Tracer,
};
use std::collections::VecDeque;

/// One in-flight instruction (a ROB entry).
#[derive(Clone, Debug)]
struct Entry {
    pc: Pc,
    fu: FuClass,
    latency: u64,
    unpipelined: bool,
    critical: bool,
    is_load: bool,
    is_store: bool,
    mispredicted: bool,
    /// Producer instructions, as absolute dynamic sequence numbers.
    deps: [Option<u64>; 3],
    /// Older overlapping store (sequence number) this load must wait for.
    mem_dep: Option<u64>,
    addr: u64,
    fetched_at: u64,
    visible_at: u64,
    issued_at: Option<u64>,
    complete_at: Option<u64>,
    /// The RS slot this instruction holds until it issues. Slots count
    /// occupancy; only the random-pick ablation's order depends on which
    /// slot an entry holds.
    rs_slot: Option<usize>,
    /// Cache level that served this load (set at issue; `None` until then
    /// and for non-loads). Drives stall attribution and trace annotation.
    fill: Option<FillLevel>,
}

/// A fetched instruction waiting in the decoupled fetch buffer.
#[derive(Clone, Copy, Debug)]
struct Fetched {
    trace_idx: usize,
    fetched_at: u64,
    visible_at: u64,
    mispredicted: bool,
}

/// The cycle-level out-of-order core simulator. See the crate docs for an
/// overview and an example.
#[derive(Clone, Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid; use
    /// [`Simulator::try_new`] to handle rejection gracefully.
    pub fn new(config: SimConfig) -> Simulator {
        Simulator::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a simulator, rejecting invalid configurations.
    ///
    /// # Errors
    ///
    /// Returns the validation failure, naming the offending field.
    pub fn try_new(config: SimConfig) -> Result<Simulator, SimError> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates the execution of `trace` (the retired instruction stream
    /// of `program`) and returns the collected statistics.
    ///
    /// `critical` optionally marks instructions (indexed by [`Pc`]) as
    /// CRISP-critical; it also injects the one-byte instruction prefix into
    /// the code layout, so tagging affects the instruction cache exactly as
    /// in paper Section 5.7.
    ///
    /// # Panics
    ///
    /// Panics if `critical` is provided with a length different from
    /// `program.len()`, if the deadlock watchdog fires, or on internal
    /// invariant violations (bugs). Use [`Simulator::try_run`] to handle
    /// these as errors.
    pub fn run(&self, program: &Program, trace: &Trace, critical: Option<&[bool]>) -> SimResult {
        // Keep the historical panic message: tests and callers grep for it.
        if let Some(c) = critical {
            assert_eq!(c.len(), program.len(), "criticality map length mismatch");
        }
        self.try_run(program, trace, critical)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run`], but reporting failures as [`SimError`] instead
    /// of panicking: a wrong-length criticality map, a watchdog-detected
    /// deadlock (with a [`DeadlockReport`] dump), or — under
    /// [`SimConfig::check_invariants`] — a machine-state inconsistency.
    ///
    /// # Errors
    ///
    /// See above; the simulation is abandoned at the failing cycle.
    pub fn try_run(
        &self,
        program: &Program,
        trace: &Trace,
        critical: Option<&[bool]>,
    ) -> Result<SimResult, SimError> {
        if let Some(c) = critical {
            if c.len() != program.len() {
                return Err(SimError::CriticalityMapLength {
                    expected: program.len(),
                    actual: c.len(),
                });
            }
        }
        let layout = program.layout(|pc| critical.is_some_and(|c| c[pc as usize]));
        Engine::new(&self.config, program, &layout, trace, critical).run()
    }

    /// Fault-tolerant variant of [`Simulator::try_run`] for running with
    /// criticality maps of *unknown provenance* (stale profiles, corrupted
    /// annotation files): `critical` may have any length. Bits beyond the
    /// program are ignored; PCs beyond the map are treated as non-critical.
    /// This is the graceful-degradation contract of the paper's hint bits —
    /// a wrong hint can only mis-prioritise, never break execution.
    ///
    /// # Errors
    ///
    /// Same runtime failures as [`Simulator::try_run`]; a length mismatch
    /// is no longer one of them.
    pub fn run_tolerant(
        &self,
        program: &Program,
        trace: &Trace,
        critical: &[bool],
    ) -> Result<SimResult, SimError> {
        let mut normalized = critical.to_vec();
        normalized.resize(program.len(), false);
        self.try_run(program, trace, Some(&normalized))
    }
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    program: &'a Program,
    layout: &'a Layout,
    trace: &'a [crisp_isa::DynInst],
    critical: Option<&'a [bool]>,

    now: u64,
    mem: MemoryHierarchy,
    bpu: BranchPredictionUnit,

    // Frontend state.
    fetch_idx: usize,
    fetch_buffer: VecDeque<Fetched>,
    fetch_blocked_by: Option<u64>,
    fetch_blocked_until: u64,
    icache_wait: Option<(u64, u64)>, // (line, ready cycle)
    current_line: Option<u64>,
    ftq_cursor: usize,
    last_prefetched_line: Option<u64>,

    // Window state.
    rob: VecDeque<Entry>,
    rob_base: u64, // sequence number of rob[0]
    /// ROB position of rob[0]: `rob_base` mod `rob_entries`.
    rob_head: usize,
    next_seq: u64,
    reg_producer: [Option<u64>; crisp_isa::Reg::COUNT],
    store_queue: VecDeque<(u64, u64, u64)>, // (seq, addr, width)
    loads_in_flight: usize,
    stores_in_flight: usize,

    // Scheduler state.
    rs: Vec<Option<u64>>, // slot -> seq
    rs_free: Vec<usize>,
    rr_cursor: usize,
    /// Live ready/PRIO vectors and wakeup lists over ROB positions,
    /// derived from the ROB.
    wake: Wakeup,
    /// Select's per-cycle scratch: the cycle's picks as ROB positions, or
    /// under the random-pick ablation every ready RS slot in slot order.
    pick_order: Vec<usize>,
    /// The earliest cycle at which a stage that made no progress this
    /// cycle can act again; `now + 1` once any stage made progress.
    next_event: u64,

    // Execution resources.
    alu_busy: Vec<u64>,
    outstanding_dram: Vec<u64>,

    // Statistics.
    res: SimResult,

    // Host-side self-profiler (`HostProf::Off` unless `cfg.hostprof`).
    prof: HostProf,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a SimConfig,
        program: &'a Program,
        layout: &'a Layout,
        trace: &'a Trace,
        critical: Option<&'a [bool]>,
    ) -> Engine<'a> {
        Engine {
            cfg,
            program,
            layout,
            trace: trace.as_slice(),
            critical,
            now: 0,
            mem: MemoryHierarchy::new(cfg.memory),
            bpu: BranchPredictionUnit::new(BpuConfig::default()),
            fetch_idx: 0,
            fetch_buffer: VecDeque::with_capacity(cfg.fetch_queue_entries),
            fetch_blocked_by: None,
            fetch_blocked_until: 0,
            icache_wait: None,
            current_line: None,
            ftq_cursor: 0,
            last_prefetched_line: None,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_base: 0,
            rob_head: 0,
            next_seq: 0,
            reg_producer: [None; crisp_isa::Reg::COUNT],
            store_queue: VecDeque::new(),
            loads_in_flight: 0,
            stores_in_flight: 0,
            rs: vec![None; cfg.rs_entries],
            rs_free: (0..cfg.rs_entries).rev().collect(),
            rr_cursor: 0,
            wake: Wakeup::new(cfg.rob_entries),
            pick_order: Vec::with_capacity(cfg.rs_entries),
            next_event: u64::MAX,
            alu_busy: vec![0; cfg.alu_ports],
            outstanding_dram: Vec::new(),
            res: SimResult {
                upc: UpcTimeline::default(),
                tracer: match cfg.tracer_capacity {
                    Some(cap) => Tracer::ring(cap),
                    None => Tracer::Off,
                },
                ..SimResult::default()
            },
            prof: HostProf::new(cfg.hostprof),
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        let total = self.trace.len() as u64;
        // (retired, cycle) at the last retirement, for the watchdog.
        let mut last_progress = (self.res.retired, self.now);
        // The profiler clock starts here so construction time is excluded;
        // each stage marks its own phase, and everything between
        // `enter(Other)` below and the next stage mark (poll points, stall
        // accounting, loop control) lands in `other`.
        self.prof.start();
        while self.res.retired < total {
            // Cooperative abort points, checked before the cycle's work so
            // a cancelled run stops without touching machine state again.
            if self.now.is_multiple_of(self.cfg.cancel_check_interval) {
                if let Some(reason) = self.cfg.cancel.as_ref().and_then(|t| t.should_abort()) {
                    return Err(match reason {
                        AbortReason::Cancelled => SimError::Cancelled {
                            cycle: self.now,
                            retired: self.res.retired,
                            total,
                        },
                        AbortReason::DeadlineExceeded => SimError::DeadlineExceeded {
                            cycle: self.now,
                            retired: self.res.retired,
                            total,
                        },
                    });
                }
                if let Some(beacon) = &self.cfg.progress {
                    beacon.publish(self.now, self.res.retired);
                }
                // Telemetry rides the same poll.
                if let Some(k) = self.cfg.telemetry_interval {
                    if self.now >= self.res.telemetry.last_cycle().saturating_add(k) {
                        let inputs = self.telemetry_inputs();
                        self.res.telemetry.record(inputs);
                    }
                }
            }
            self.next_event = u64::MAX;
            let counters = self.stall_counters();
            let retired_now = self.commit();
            self.issue()?;
            self.dispatch();
            self.fetch();
            if self.cfg.fdip {
                self.fdip();
            }
            self.prof.enter(HostPhase::Other);
            // ROB-head stall accounting. Attribution charges the blocking
            // instruction's PC under exactly the same condition, so the
            // table's backend total equals `rob_head_stall_cycles` to the
            // cycle (the conservation invariant the tests assert).
            let mut charged = None;
            if let Some(head) = self.rob.front() {
                if head.complete_at.is_none_or(|c| c > self.now) {
                    self.res.rob_head_stall_cycles += 1;
                    if self.cfg.stall_attribution {
                        charged = Some((u64::from(head.pc), Engine::classify_head_stall(head)));
                    }
                }
            } else if self.cfg.stall_attribution {
                // ROB empty: the frontend is starving the backend. Charge
                // the instruction fetch is (or will be) working on; tallied
                // separately from the backend classes.
                let idx = self
                    .fetch_buffer
                    .front()
                    .map_or(self.fetch_idx, |f| f.trace_idx);
                if idx < self.trace.len() {
                    charged = Some((u64::from(self.trace[idx].pc), StallClass::Frontend));
                }
            }
            if let Some((pc, class)) = charged {
                self.res.stall_table.charge(pc, class);
            }
            if self.cfg.record_upc_timeline {
                self.res.upc.push(retired_now);
            }
            if self.cfg.check_invariants {
                // The reference path: every cycle is stepped and checked.
                self.check_invariants()?;
                self.now += 1;
            } else {
                self.advance_clock(counters, charged, last_progress.1);
            }
            // Watchdog against deadlock bugs.
            if self.res.retired > last_progress.0 {
                last_progress = (self.res.retired, self.now);
            } else if self.now - last_progress.1 >= self.cfg.watchdog_cycles {
                return Err(SimError::Deadlock(Box::new(
                    self.deadlock_report(self.now - last_progress.1, total),
                )));
            }
        }
        if self.cfg.check_invariants {
            self.check_drained()?;
        }
        self.res.cycles = self.now;
        let (cb, cm, im, rm) = self.bpu.stats();
        self.res.cond_branches = cb;
        self.res.cond_mispredicts = cm;
        self.res.indirect_mispredicts = im + rm;
        self.res.mem = self.mem.stats();
        self.prof.rs_scanned(self.wake.woken());
        self.res.hostprof = self.prof.finish(self.now, self.res.retired);
        Ok(self.res)
    }

    // ---- idle-cycle skip -------------------------------------------------

    /// Notes the earliest cycle at which a stage that could not act this
    /// cycle may act again; a stage that made progress passes `now + 1`.
    #[inline]
    fn event_at(&mut self, cycle: u64) {
        self.next_event = self.next_event.min(cycle);
    }

    /// The stall counters stages bump per cycle: ROB-head, fetch
    /// mispredict and fetch icache.
    fn stall_counters(&self) -> [u64; 3] {
        let r = &self.res;
        [
            r.rob_head_stall_cycles,
            r.fetch_stall_mispredict_cycles,
            r.fetch_stall_icache_cycles,
        ]
    }

    /// Ends the cycle just simulated, then fast-forwards over the idle
    /// cycles after it.
    ///
    /// When no stage made progress, each one waits either for an event at
    /// `next_event` or for another stage, so every cycle before that event
    /// repeats this one: it changes no machine state and only bumps the
    /// stall bookkeeping this cycle bumped (`counters` read before it,
    /// `charged` its stall-table charge). Those cycles are replayed in
    /// bulk. The skip stops at the next cancellation poll, so polls and
    /// telemetry samples keep their cycles, and at the watchdog horizon
    /// (`stalled_since` plus `watchdog_cycles`), so it fires exactly
    /// where stepping would.
    fn advance_clock(
        &mut self,
        counters: [u64; 3],
        charged: Option<(u64, StallClass)>,
        stalled_since: u64,
    ) {
        self.now += 1;
        let poll = self
            .now
            .checked_next_multiple_of(self.cfg.cancel_check_interval);
        let target = self
            .next_event
            .min(poll.unwrap_or(u64::MAX))
            .min(stalled_since.saturating_add(self.cfg.watchdog_cycles));
        if target <= self.now {
            return;
        }
        self.prof.enter(HostPhase::Wakeup);
        let idle = target - self.now;
        let [rob, mispredict, icache] = self.stall_counters();
        self.res.rob_head_stall_cycles += idle * (rob - counters[0]);
        self.res.fetch_stall_mispredict_cycles += idle * (mispredict - counters[1]);
        self.res.fetch_stall_icache_cycles += idle * (icache - counters[2]);
        if let Some((pc, class)) = charged {
            self.res.stall_table.charge_cycles(pc, class, idle);
        }
        if self.cfg.record_upc_timeline {
            self.res.upc.push_idle(idle);
        }
        self.now = target;
        self.prof.enter(HostPhase::Other);
    }

    // ---- observability ---------------------------------------------------

    /// Which stall class the blocking ROB-head instruction belongs to.
    fn classify_head_stall(head: &Entry) -> StallClass {
        if head.issued_at.is_none() {
            // Not yet picked by the scheduler: either fetch is re-steering
            // around it (mispredicted) or it is waiting on operands/ports.
            if head.mispredicted {
                StallClass::BranchMispredict
            } else {
                StallClass::Fu
            }
        } else if head.is_load {
            match head.fill {
                Some(FillLevel::Dram) => StallClass::LoadDram,
                Some(FillLevel::Llc) => StallClass::LoadLlc,
                // L1 hits and store-to-load forwards both count as L1.
                _ => StallClass::LoadL1,
            }
        } else if head.is_store {
            StallClass::Store
        } else if head.mispredicted {
            StallClass::BranchMispredict
        } else {
            StallClass::Fu
        }
    }

    /// One cumulative-counter reading for the interval-telemetry log (the
    /// log differences consecutive readings itself).
    fn telemetry_inputs(&self) -> TelemetryInputs {
        let (cb, cm, _, _) = self.bpu.stats();
        let mem = self.mem.stats();
        let pf = mem.prefetch_totals();
        TelemetryInputs {
            cycle: self.now,
            retired: self.res.retired,
            cond_branches: cb,
            mispredicts: cm,
            l1i_accesses: mem.l1i.accesses,
            l1i_misses: mem.l1i.misses,
            l1d_accesses: mem.l1d.accesses,
            l1d_misses: mem.l1d.misses,
            llc_accesses: mem.llc.accesses,
            llc_misses: mem.llc.misses,
            issued_critical: self.res.issued_critical,
            issued_noncritical: self.res.issued_noncritical,
            pf_issued: pf.issued,
            pf_useful: pf.useful,
            pf_late: pf.late,
            rob: self.rob.len() as u64,
            rs: self.rs_occupancy() as u64,
            loads: self.loads_in_flight as u64,
            stores: self.stores_in_flight as u64,
            mshr: self.mem.inflight_fills() as u64,
            dram_outstanding: self
                .outstanding_dram
                .iter()
                .filter(|&&c| c > self.now)
                .count() as u64,
        }
    }

    /// Occupied reservation-station slots.
    fn rs_occupancy(&self) -> usize {
        self.cfg.rs_entries - self.rs_free.len()
    }

    /// Snapshots the stuck machine for the watchdog's diagnostic dump.
    fn deadlock_report(&self, stalled_for: u64, total: u64) -> DeadlockReport {
        let rob_head = self.rob.front().map(|h| {
            let state = match (h.issued_at, h.complete_at) {
                (None, _) => HeadState::WaitingToIssue,
                (Some(_), Some(c)) if c <= self.now => HeadState::ReadyToRetire,
                _ => HeadState::Executing,
            };
            (h.pc, state)
        });
        let oldest_unissued = self
            .rob
            .iter()
            .enumerate()
            .find(|(_, e)| e.issued_at.is_none())
            .map(|(i, e)| (self.rob_base + i as u64, e.pc));
        DeadlockReport {
            cycle: self.now,
            stalled_for,
            retired: self.res.retired,
            total,
            rob_head,
            rob: (self.rob.len(), self.cfg.rob_entries),
            rs: (self.rs_occupancy(), self.cfg.rs_entries),
            loads: (self.loads_in_flight, self.cfg.load_buffer),
            stores: (self.stores_in_flight, self.cfg.store_buffer),
            oldest_unissued,
            recent_events: self.res.tracer.tail(256),
        }
    }

    /// The opt-in per-cycle invariant checker (`--check`): stage ordering,
    /// occupancy bounds and RS/free-list/ROB cross-consistency.
    fn check_invariants(&self) -> Result<(), SimError> {
        let fail = |message: String| {
            Err(SimError::InvariantViolation {
                cycle: self.now,
                message,
            })
        };
        // Occupancy bounds.
        if self.rob_head as u64 != self.rob_base % self.cfg.rob_entries as u64 {
            return fail(format!(
                "ROB head at position {} but seq {} maps to {}",
                self.rob_head,
                self.rob_base,
                self.rob_base % self.cfg.rob_entries as u64
            ));
        }
        if self.rob.len() > self.cfg.rob_entries {
            return fail(format!(
                "ROB over capacity: {} > {}",
                self.rob.len(),
                self.cfg.rob_entries
            ));
        }
        if self.loads_in_flight > self.cfg.load_buffer {
            return fail(format!(
                "load buffer over capacity: {} > {}",
                self.loads_in_flight, self.cfg.load_buffer
            ));
        }
        if self.stores_in_flight > self.cfg.store_buffer {
            return fail(format!(
                "store buffer over capacity: {} > {}",
                self.stores_in_flight, self.cfg.store_buffer
            ));
        }
        // RS slots and free list must agree: the free list names every
        // empty slot exactly once, so dispatch never takes an occupied one.
        let occupied = self.rs.iter().filter(|s| s.is_some()).count();
        if occupied + self.rs_free.len() != self.cfg.rs_entries {
            return fail(format!(
                "RS slot leak: {} occupied + {} free != {} entries",
                occupied,
                self.rs_free.len(),
                self.cfg.rs_entries
            ));
        }
        let mut free = BitSet::new(self.cfg.rs_entries);
        for &slot in &self.rs_free {
            if self.rs.get(slot) != Some(&None) || free.get(slot) {
                return fail(format!(
                    "RS free list names slot {slot} twice or while occupied"
                ));
            }
            free.set(slot);
        }
        for (slot, occ) in self.rs.iter().enumerate() {
            if let Some(seq) = *occ {
                match self.entry(seq) {
                    None => return fail(format!("RS slot {slot} references retired seq {seq}")),
                    Some(e) if e.rs_slot != Some(slot) => {
                        return fail(format!(
                            "seq {seq} thinks it is in slot {:?} but RS slot {slot} holds it",
                            e.rs_slot
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        // The load/store buffers hold exactly the window's loads and stores.
        let loads = self.rob.iter().filter(|e| e.is_load).count();
        let stores = self.rob.iter().filter(|e| e.is_store).count();
        if (loads, stores) != (self.loads_in_flight, self.stores_in_flight) {
            return fail(format!(
                "{} loads / {} stores in flight but the ROB holds {loads} / {stores}",
                self.loads_in_flight, self.stores_in_flight
            ));
        }
        // Per-instruction stage ordering: fetch <= dispatch <= issue <=
        // complete (retire is checked implicitly: commit only pops
        // completed heads in order). Each entry also mirrors its trace
        // record and static instruction.
        for (i, e) in self.rob.iter().enumerate() {
            let seq = self.rob_base + i as u64;
            let Some(rec) = self.trace.get(seq as usize) else {
                return fail(format!(
                    "seq {seq} beyond the {}-instruction trace",
                    self.trace.len()
                ));
            };
            let inst = self.program.inst(rec.pc);
            if (e.pc, e.addr) != (rec.pc, rec.addr)
                || (e.fu, e.latency) != (inst.fu_class(), u64::from(inst.op.latency()))
                || (e.is_load, e.is_store) != (inst.is_load(), inst.is_store())
            {
                return fail(format!(
                    "seq {seq} (pc {}): entry disagrees with its trace record",
                    e.pc
                ));
            }
            if e.fetched_at > e.visible_at {
                return fail(format!(
                    "seq {seq} (pc {}): fetched at {} after dispatch-visible at {}",
                    e.pc, e.fetched_at, e.visible_at
                ));
            }
            if let Some(iss) = e.issued_at {
                if iss < e.visible_at {
                    return fail(format!(
                        "seq {seq} (pc {}): issued at {iss} before dispatch-visible at {}",
                        e.pc, e.visible_at
                    ));
                }
                if let Some(c) = e.complete_at {
                    if c < iss {
                        return fail(format!(
                            "seq {seq} (pc {}): complete at {c} before issue at {iss}",
                            e.pc
                        ));
                    }
                }
            } else if e.complete_at.is_some() {
                return fail(format!("seq {seq} (pc {}): complete without issue", e.pc));
            }
            // Exactly the unissued entries wait in the RS, each in the slot
            // that names it. The RS holds occupancy only: the wakeup lists
            // are keyed by ROB position.
            let in_rs = e
                .rs_slot
                .is_some_and(|slot| self.rs.get(slot) == Some(&Some(seq)));
            if e.issued_at.is_some() != e.complete_at.is_some() || e.issued_at.is_none() != in_rs {
                return fail(format!(
                    "seq {seq} (pc {}): issue, completion and RS slot {:?} disagree",
                    e.pc, e.rs_slot
                ));
            }
        }
        Ok(())
    }

    /// Drain-time checks: once every instruction has retired, the window
    /// must be empty and the memory system must not have leaked MSHRs
    /// (in-flight fill tracking grows without bound only if cleanup broke).
    fn check_drained(&self) -> Result<(), SimError> {
        let fail = |message: String| {
            Err(SimError::InvariantViolation {
                cycle: self.now,
                message,
            })
        };
        if !self.rob.is_empty() {
            return fail(format!("{} ROB entries alive after drain", self.rob.len()));
        }
        if self.loads_in_flight != 0 || self.stores_in_flight != 0 {
            return fail(format!(
                "{} loads / {} stores in flight after drain",
                self.loads_in_flight, self.stores_in_flight
            ));
        }
        if self.rs_occupancy() != 0 {
            return fail(format!(
                "{} scheduler slots alive after drain",
                self.rs_occupancy()
            ));
        }
        // The hierarchy bounds its lazy in-flight table at 4096 entries;
        // more than that after drain means the cleanup path leaked.
        let mshrs = self.mem.inflight_fills();
        if mshrs > 4096 {
            return fail(format!("memory system leaked MSHRs: {mshrs} > 4096"));
        }
        Ok(())
    }

    // ---- commit ----------------------------------------------------------

    fn commit(&mut self) -> usize {
        self.prof.enter(HostPhase::Retire);
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            match head.complete_at {
                Some(c) if c <= self.now => {}
                Some(c) => {
                    self.event_at(c);
                    break;
                }
                None => break,
            }
            let head = self.rob.pop_front().expect("head exists");
            self.res.tracer.record(
                self.now,
                self.rob_base,
                u64::from(head.pc),
                EventKind::Retire,
                None,
            );
            if head.is_store {
                // In-order store-buffer drain.
                if let Some(&(seq, _, _)) = self.store_queue.front() {
                    if seq == self.rob_base {
                        self.store_queue.pop_front();
                    }
                }
                self.stores_in_flight -= 1;
            }
            if head.is_load {
                self.loads_in_flight -= 1;
            }
            self.rob_base += 1;
            self.rob_head = if self.rob_head + 1 == self.cfg.rob_entries {
                0
            } else {
                self.rob_head + 1
            };
            self.res.retired += 1;
            retired += 1;
        }
        if retired > 0 {
            self.event_at(self.now + 1);
        }
        retired
    }

    // ---- issue -----------------------------------------------------------

    fn entry(&self, seq: u64) -> Option<&Entry> {
        if seq < self.rob_base {
            return None; // retired => complete
        }
        self.rob.get((seq - self.rob_base) as usize)
    }

    /// The ROB position of the in-flight instruction `seq`.
    fn position(&self, seq: u64) -> usize {
        let pos = self.rob_head + (seq - self.rob_base) as usize;
        if pos < self.cfg.rob_entries {
            pos
        } else {
            pos - self.cfg.rob_entries
        }
    }

    /// The sequence number of the in-flight instruction at ROB position
    /// `pos`.
    fn seq_at(&self, pos: usize) -> u64 {
        self.rob_base + behind_head(self.rob_head, pos, self.cfg.rob_entries) as u64
    }

    /// What the wakeup logic needs of producer `seq`: its completion
    /// cycle once issued (0 once retired), else the ROB position it waits
    /// at.
    fn operand(&self, seq: u64) -> Operand {
        match self.entry(seq) {
            None => Operand::Completes(0),
            Some(e) => match e.complete_at {
                Some(c) => Operand::Completes(c),
                None => Operand::Waits(self.position(seq)),
            },
        }
    }

    /// Enters the instruction `seq` into the wakeup logic: it is pickable
    /// once its producers complete, and never before cycle `from`.
    fn wake_insert(&mut self, seq: u64, from: u64) {
        let e = self.entry(seq).expect("live entry");
        let (critical, visible_at) = (e.critical, e.visible_at);
        let [d0, d1, d2] = e.deps;
        let producers: [Option<u64>; EDGES] = [d0, d1, d2, e.mem_dep];
        let operands = producers.map(|p| p.map(|p| self.operand(p)));
        let pos = self.position(seq);
        self.wake.insert(pos, critical, visible_at, operands, from);
    }

    fn dep_ready(&self, seq: u64) -> bool {
        match self.entry(seq) {
            None => true,
            Some(e) => e.complete_at.is_some_and(|c| c <= self.now),
        }
    }

    /// The reference readiness test: every producer complete by `now`.
    /// Only check mode runs it, to audit the live vectors.
    fn operands_ready(&self, seq: u64) -> bool {
        let e = self.entry(seq).expect("live entry");
        if e.visible_at > self.now {
            return false;
        }
        for dep in e.deps.iter().flatten() {
            if !self.dep_ready(*dep) {
                return false;
            }
        }
        if let Some(st) = e.mem_dep {
            if !self.dep_ready(st) {
                return false;
            }
        }
        true
    }

    /// Check mode's per-cycle audit of the wakeup logic: the live ready and
    /// PRIO vectors must equal a full rescan of the ROB's unissued entries,
    /// built by ROB position.
    fn check_ready_vectors(&self) -> Result<(), SimError> {
        let cap = self.cfg.rob_entries;
        let (mut ready, mut prio) = (BitSet::new(cap), BitSet::new(cap));
        for (i, e) in self.rob.iter().enumerate() {
            let seq = self.rob_base + i as u64;
            if e.issued_at.is_none() && self.operands_ready(seq) {
                let pos = self.position(seq);
                ready.set(pos);
                if e.critical {
                    prio.set(pos);
                }
            }
        }
        if ready == self.wake.ready && prio == self.wake.prio {
            return Ok(());
        }
        let ones = |b: &BitSet| b.iter_ones().collect::<Vec<_>>();
        Err(SimError::InvariantViolation {
            cycle: self.now,
            message: format!(
                "wakeup vectors disagree with the ROB rescan: ready {:?} (rescan {:?}), \
                 PRIO {:?} (rescan {:?})",
                ones(&self.wake.ready),
                ones(&ready),
                ones(&self.wake.prio),
                ones(&prio)
            ),
        })
    }

    fn issue(&mut self) -> Result<(), SimError> {
        self.prof.enter(HostPhase::Wakeup);
        // Operands completing by this cycle set their consumers' ready
        // bits (Figure 6's tag broadcast, replayed from the timed queue).
        self.wake.drain(self.now);
        if self.cfg.check_invariants {
            self.check_ready_vectors()?;
        }
        if let Some(cycle) = self.wake.next_ready() {
            self.event_at(cycle);
        }
        // Fault-injection hook: freeze the scheduler so watchdog tests can
        // manufacture a deadlock on demand.
        if let Some(after) = self.cfg.freeze_scheduler_after {
            if self.res.retired >= after {
                return Ok(());
            }
        }
        if !self.wake.ready.any() {
            return Ok(());
        }
        self.event_at(self.now + 1);
        // Unified "N-oldest-ready-first" selection (Table 1 baseline): the
        // scheduler picks up to `issue_width` ready instructions by age
        // (CRISP: ready-and-critical by age first — the PRIO pick of
        // Figure 6), *then* binds them to functional-unit ports. A pick
        // whose port class is exhausted this cycle wastes its issue slot,
        // exactly like a real matrix scheduler's select-then-dispatch.
        // The picks are fixed before the first issue: instructions woken by
        // this cycle's issues become pickable next cycle.
        self.prof.enter(HostPhase::Select);
        let random = self.cfg.scheduler == SchedulerKind::RandomReady;
        if random {
            let (rob, head, cap) = (&self.rob, self.rob_head, self.cfg.rob_entries);
            let slot_of = |pos: usize| {
                rob[behind_head(head, pos, cap)]
                    .rs_slot
                    .expect("a ready entry holds an RS slot")
            };
            random_order(&self.wake.ready, slot_of, &mut self.pick_order);
        } else {
            let prio = (self.cfg.scheduler == SchedulerKind::Crisp).then_some(&self.wake.prio);
            select_ring(
                &self.wake.ready,
                prio,
                self.rob_head,
                self.cfg.issue_width,
                &mut self.pick_order,
            );
        }
        let picks = self.cfg.issue_width.min(self.pick_order.len());
        if self.prof.is_on() {
            // Select candidates examined: at each pick, the ready
            // instructions not yet picked.
            let ready = self.wake.ready.count();
            self.prof
                .age_compared((0..picks).map(|k| (ready - k) as u64).sum());
        }
        // ALU ports below the cursor are taken or busy this cycle.
        let mut alu_cursor = 0;
        let mut loads_left = self.cfg.load_ports;
        let mut stores_left = self.cfg.store_ports;

        for k in 0..picks {
            self.prof.enter(HostPhase::Select);
            let seq = if random {
                // Rotating-start slot scan, blind to age: the first unpicked
                // slot at or after the cursor, else the lowest. The unpicked
                // tail stays in slot order.
                let start = self.rr_cursor % self.cfg.rs_entries;
                let left = &mut self.pick_order[k..];
                let at = left.iter().position(|&s| s >= start).unwrap_or(0);
                left[..=at].rotate_right(1);
                self.rs[self.pick_order[k]].expect("occupied slot")
            } else {
                self.seq_at(self.pick_order[k])
            };
            self.rr_cursor = self.rr_cursor.wrapping_add(7);

            let fu = self.entry(seq).expect("live").fu;
            // Port binding: an unavailable port wastes this issue slot.
            let alu_port = match fu {
                FuClass::Alu => {
                    let now = self.now;
                    let free = (alu_cursor..self.cfg.alu_ports).find(|&p| self.alu_busy[p] <= now);
                    let Some(port) = free else { continue };
                    alu_cursor = port + 1;
                    Some(port)
                }
                FuClass::Load => {
                    if loads_left == 0 {
                        continue;
                    }
                    loads_left -= 1;
                    None
                }
                FuClass::Store => {
                    if stores_left == 0 {
                        continue;
                    }
                    stores_left -= 1;
                    None
                }
            };
            self.execute(seq, alu_port);
        }
        Ok(())
    }

    fn execute(&mut self, seq: u64, alu_port: Option<usize>) {
        self.prof.enter(HostPhase::Execute);
        let now = self.now;
        let idx = (seq - self.rob_base) as usize;

        // Compute completion time.
        let (complete_at, pc, is_load, addr, forwarded, mispredicted) = {
            let e = &self.rob[idx];
            if e.is_load {
                if e.mem_dep.is_some() {
                    (
                        now + self.cfg.forward_latency,
                        e.pc,
                        true,
                        e.addr,
                        true,
                        e.mispredicted,
                    )
                } else {
                    (0, e.pc, true, e.addr, false, e.mispredicted) // filled below
                }
            } else {
                (now + e.latency, e.pc, false, e.addr, false, e.mispredicted)
            }
        };

        let mut complete_at = complete_at;
        let mut fill = None;
        if is_load && forwarded {
            fill = Some(FillLevel::L1); // store-to-load forward counts as L1
        }
        if is_load && !forwarded {
            self.prof.enter(HostPhase::Dram);
            self.prof.mshr_probed(1);
            let res = self.mem.load(addr, u64::from(pc), now);
            self.prof.enter(HostPhase::Execute);
            complete_at = now + res.latency.max(1);
            fill = Some(match res.level {
                HitLevel::L1 => FillLevel::L1,
                HitLevel::Llc => FillLevel::Llc,
                HitLevel::Dram => FillLevel::Dram,
            });
            if self.cfg.collect_pc_stats {
                let s = self.res.load_pc_stats.entry(pc).or_default();
                s.execs += 1;
                s.total_latency += res.latency;
                match res.level {
                    HitLevel::L1 => s.l1_hits += 1,
                    HitLevel::Llc => s.llc_hits += 1,
                    HitLevel::Dram => {
                        s.llc_misses += 1;
                        self.outstanding_dram.retain(|&c| c > now);
                        s.mlp_sum += self.outstanding_dram.len() as u64 + 1;
                        self.outstanding_dram.push(complete_at);
                    }
                }
            } else if res.level == HitLevel::Dram {
                self.outstanding_dram.retain(|&c| c > now);
                self.outstanding_dram.push(complete_at);
            }
        } else if is_load && forwarded && self.cfg.collect_pc_stats {
            let s = self.res.load_pc_stats.entry(pc).or_default();
            s.execs += 1;
            s.l1_hits += 1;
            s.total_latency += self.cfg.forward_latency;
        }

        let slot = {
            let e = &mut self.rob[idx];
            if e.is_store {
                complete_at = now + 1;
            }
            e.issued_at = Some(now);
            e.complete_at = Some(complete_at);
            e.fill = fill;
            e.rs_slot
                .take()
                .expect("an unissued entry holds an RS slot")
        };
        let (is_store, unpipelined, latency, critical) = {
            let e = &self.rob[idx];
            (e.is_store, e.unpipelined, e.latency, e.critical)
        };
        if critical {
            self.res.issued_critical += 1;
        } else {
            self.res.issued_noncritical += 1;
        }
        self.res
            .tracer
            .record(now, seq, u64::from(pc), EventKind::Issue, None);
        self.res
            .tracer
            .record(complete_at, seq, u64::from(pc), EventKind::Complete, fill);
        if is_store {
            // Stores access the hierarchy at execute (allocation + prefetch
            // training); latency is absorbed by the store buffer.
            self.prof.enter(HostPhase::Dram);
            self.prof.mshr_probed(1);
            let _ = self.mem.store(addr, u64::from(pc), now);
            self.prof.enter(HostPhase::Execute);
        }
        if let Some(p) = alu_port {
            self.alu_busy[p] = if unpipelined { now + latency } else { now + 1 };
        }

        // Misprediction resolution: un-block fetch.
        if mispredicted && self.fetch_blocked_by == Some(seq) {
            self.fetch_blocked_by = None;
            self.fetch_blocked_until = complete_at + self.cfg.redirect_penalty;
            self.res
                .tracer
                .record(complete_at, seq, u64::from(pc), EventKind::Redirect, None);
        }

        // Free the RS slot.
        self.rs[slot] = None;
        self.rs_free.push(slot);

        // Broadcast the result tag down the consumer list: consumers it
        // was the last producer of become pickable from the next cycle on.
        self.prof.enter(HostPhase::Wakeup);
        let pos = self.position(seq);
        self.wake.issue(pos, complete_at, now + 1);
    }

    // ---- dispatch --------------------------------------------------------

    fn dispatch(&mut self) {
        self.prof.enter(HostPhase::Dispatch);
        for _ in 0..self.cfg.fetch_width {
            let Some(&f) = self.fetch_buffer.front() else {
                break;
            };
            if f.visible_at > self.now {
                self.event_at(f.visible_at);
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries || self.rs_free.is_empty() {
                break;
            }
            let rec = self.trace[f.trace_idx];
            let inst = self.program.inst(rec.pc);
            if inst.is_load() && self.loads_in_flight >= self.cfg.load_buffer {
                break;
            }
            if inst.is_store() && self.stores_in_flight >= self.cfg.store_buffer {
                break;
            }
            self.fetch_buffer.pop_front();
            self.event_at(self.now + 1);

            let seq = self.next_seq;
            self.next_seq += 1;
            debug_assert_eq!(seq, self.rob_base + self.rob.len() as u64);

            // Rename: map source registers to in-flight producers.
            self.prof.enter(HostPhase::Rename);
            let mut deps = [None; 3];
            for (i, src) in inst.srcs.iter().enumerate() {
                if let Some(r) = src {
                    if !r.is_zero() {
                        deps[i] = self.reg_producer[r.index()].filter(|&p| p >= self.rob_base);
                    }
                }
            }
            // Memory disambiguation: youngest older overlapping store.
            self.prof.enter(HostPhase::Lsq);
            let mut mem_dep = None;
            if inst.is_load() {
                let lo = rec.addr;
                let hi = rec.addr + inst.width.bytes();
                let mut probes = 0u64;
                for &(sseq, saddr, swidth) in self.store_queue.iter().rev() {
                    probes += 1;
                    if saddr < hi && lo < saddr + swidth {
                        mem_dep = Some(sseq);
                        break;
                    }
                }
                self.prof.lsq_probed(probes);
                self.loads_in_flight += 1;
            }
            if inst.is_store() {
                self.store_queue
                    .push_back((seq, rec.addr, inst.width.bytes()));
                self.stores_in_flight += 1;
            }
            self.prof.enter(HostPhase::Dispatch);
            if let Some(d) = inst.dep_dst() {
                self.reg_producer[d.index()] = Some(seq);
            }

            let critical = self.critical.is_some_and(|c| c[rec.pc as usize]);
            let entry = Entry {
                pc: rec.pc,
                fu: inst.fu_class(),
                latency: u64::from(inst.op.latency()),
                unpipelined: inst.op.unpipelined(),
                critical,
                is_load: inst.is_load(),
                is_store: inst.is_store(),
                mispredicted: f.mispredicted,
                deps,
                mem_dep,
                addr: rec.addr,
                fetched_at: f.fetched_at,
                visible_at: self.now,
                issued_at: None,
                complete_at: None,
                rs_slot: None,
                fill: None,
            };
            // Allocate an RS slot (RAND policy: any free slot).
            let slot = self.rs_free.pop().expect("checked non-empty");
            self.rs[slot] = Some(seq);
            let mut entry = entry;
            entry.rs_slot = Some(slot);
            self.rob.push_back(entry);
            // Dispatch follows issue in the cycle, so the earliest pick is
            // next cycle.
            self.wake_insert(seq, self.now + 1);
            self.res
                .tracer
                .record(self.now, seq, u64::from(rec.pc), EventKind::Dispatch, None);
        }
    }

    // ---- fetch -----------------------------------------------------------

    fn fetch(&mut self) {
        self.prof.enter(HostPhase::Fetch);
        // Mispredict recovery.
        if self.fetch_blocked_by.is_some() {
            self.res.fetch_stall_mispredict_cycles += 1;
            return;
        }
        if self.now < self.fetch_blocked_until {
            self.res.fetch_stall_mispredict_cycles += 1;
            self.event_at(self.fetch_blocked_until);
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width
            && self.fetch_idx < self.trace.len()
            && self.fetch_buffer.len() < self.cfg.fetch_queue_entries
        {
            let rec = self.trace[self.fetch_idx];
            let inst = self.program.inst(rec.pc);
            let pc_addr = self.layout.addr(rec.pc);

            // Instruction-cache gating, per line.
            let line = pc_addr / crisp_mem::LINE_BYTES;
            if let Some((wline, ready)) = self.icache_wait {
                if self.now < ready {
                    self.res.fetch_stall_icache_cycles += 1;
                    self.event_at(ready);
                    return;
                }
                self.current_line = Some(wline);
                self.icache_wait = None;
            }
            // Every path from here changes fetch state.
            self.event_at(self.now + 1);
            if self.current_line != Some(line) {
                self.prof.enter(HostPhase::Mshr);
                self.prof.mshr_probed(1);
                let res = self.mem.fetch(pc_addr, self.now);
                self.prof.enter(HostPhase::Fetch);
                if res.latency > self.cfg.memory.l1i_latency {
                    self.icache_wait = Some((line, self.now + res.latency));
                    self.res.fetch_stall_icache_cycles += 1;
                    return;
                }
                self.current_line = Some(line);
            }

            // Branch prediction.
            let mut mispredicted = false;
            let mut btb_bubble = false;
            if inst.op.is_ctrl() && !self.cfg.perfect_branch_prediction {
                let actual_next = self.layout.addr(rec.next_pc);
                let fallthrough = self.layout.addr(rec.pc + 1);
                let target_addr = match inst.target {
                    Some(t) => self.layout.addr(t),
                    None => actual_next,
                };
                let taken = rec.taken || !inst.op.is_cond_branch();
                let out = self
                    .bpu
                    .observe(inst, pc_addr, taken, target_addr, fallthrough);
                // For indirect/ret the "target" trained above is static;
                // fix up: those kinds pass the actual next address.
                mispredicted = out.mispredicted;
                btb_bubble = out.btb_miss_taken;
                if self.cfg.collect_pc_stats && inst.op.is_cond_branch() {
                    let s = self.res.branch_pc_stats.entry(rec.pc).or_default();
                    s.execs += 1;
                    if mispredicted {
                        s.mispredicts += 1;
                    }
                }
            } else if inst.op.is_ctrl() && self.cfg.collect_pc_stats && inst.op.is_cond_branch() {
                self.res.branch_pc_stats.entry(rec.pc).or_default().execs += 1;
            }

            self.fetch_buffer.push_back(Fetched {
                trace_idx: self.fetch_idx,
                fetched_at: self.now,
                visible_at: self.now + self.cfg.frontend_depth,
                mispredicted,
            });
            // Dispatch consumes the trace in order, so the sequence number
            // this instruction will get equals its trace index.
            self.res.tracer.record(
                self.now,
                self.fetch_idx as u64,
                u64::from(rec.pc),
                EventKind::Fetch,
                None,
            );
            if mispredicted {
                // Fetch must wait for resolution; remember by sequence
                // number the instruction will get at dispatch.
                let future_seq =
                    self.rob_base + self.rob.len() as u64 + self.fetch_buffer.len() as u64 - 1;
                self.fetch_blocked_by = Some(future_seq);
            }
            self.fetch_idx += 1;
            fetched += 1;

            if mispredicted {
                break;
            }
            if btb_bubble {
                self.fetch_blocked_until = self.now + self.cfg.btb_miss_penalty;
                break;
            }
            // At most one taken control transfer per fetch cycle.
            if inst.op.is_ctrl() && rec.next_pc != rec.pc + 1 {
                self.current_line = None; // redirected: new line next cycle
                break;
            }
        }
    }

    /// FDIP: prefetch instruction lines along the (predicted ≈ traced)
    /// path, up to `ftq_entries` instructions ahead of fetch.
    fn fdip(&mut self) {
        self.prof.enter(HostPhase::Fetch);
        if self.fetch_blocked_by.is_some() {
            return;
        }
        let limit = (self.fetch_idx + self.cfg.ftq_entries).min(self.trace.len());
        let cursor = self.ftq_cursor;
        if self.ftq_cursor < self.fetch_idx {
            self.ftq_cursor = self.fetch_idx;
        }
        let mut issued = 0;
        while self.ftq_cursor < limit && issued < 2 {
            let rec = self.trace[self.ftq_cursor];
            let addr = self.layout.addr(rec.pc);
            let line = addr / crisp_mem::LINE_BYTES;
            if self.last_prefetched_line != Some(line) {
                self.prof.enter(HostPhase::Mshr);
                self.prof.mshr_probed(1);
                self.mem.prefetch_inst(addr, self.now);
                self.prof.enter(HostPhase::Fetch);
                self.last_prefetched_line = Some(line);
                issued += 1;
            }
            self.ftq_cursor += 1;
        }
        if self.ftq_cursor != cursor {
            self.event_at(self.now + 1);
        }
    }
}

/// How many entries behind the head at position `head` of a `cap`-entry
/// ROB the position `pos` lies: its index in the ROB.
fn behind_head(head: usize, pos: usize, cap: usize) -> usize {
    if pos >= head {
        pos - head
    } else {
        pos + cap - head
    }
}

/// Resolution of the mispredict-block sequence number requires dispatch to
/// assign sequence numbers in fetch order; this is asserted in dispatch.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::config::SchedulerKind;
    use crisp_emu::{Emulator, Memory};
    use crisp_isa::{AluOp, Cond, ProgramBuilder, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A simple ALU loop: IPC should approach the ALU-port limit.
    fn alu_loop() -> (crisp_isa::Program, Trace) {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 2000);
        let top = b.label();
        b.bind(top);
        // 6 independent ALU ops + loop overhead.
        b.alu_ri(AluOp::Add, r(2), r(2), 1);
        b.alu_ri(AluOp::Add, r(3), r(3), 1);
        b.alu_ri(AluOp::Add, r(4), r(4), 1);
        b.alu_ri(AluOp::Add, r(5), r(5), 1);
        b.alu_ri(AluOp::Sub, r(1), r(1), 1);
        b.branch(Cond::Ne, r(1), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);
        (p, t)
    }

    #[test]
    fn alu_loop_reaches_high_ipc() {
        let (p, t) = alu_loop();
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert_eq!(res.retired, t.len() as u64);
        // 4 ALU ports; the loop is 6 instructions with a 1-cycle dep chain
        // on r1 every iteration. Expect IPC between 3 and 4.5.
        assert!(res.ipc() > 2.5, "ipc = {}", res.ipc());
        assert!(res.ipc() <= 6.0);
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 3000);
        b.li(r(2), 0);
        let top = b.label();
        b.bind(top);
        b.alu_ri(AluOp::Add, r(2), r(2), 1); // serial chain through r2
        b.alu_ri(AluOp::Sub, r(1), r(1), 1);
        b.branch(Cond::Ne, r(1), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        // The r2 chain is 1 op/cycle but r1's chain runs in parallel:
        // 3 instructions per iteration, iteration latency 1 cycle => ~3.
        assert!(res.ipc() > 1.5 && res.ipc() < 4.0, "ipc = {}", res.ipc());
    }

    #[test]
    fn cache_missing_loads_crater_ipc() {
        // Pointer chase over a large shuffled ring: every load misses.
        let n = 4096u64;
        let base = 0x100_0000u64;
        let mut mem = Memory::new();
        // Ring with stride large enough to defeat prefetchers: node i ->
        // (i*65) % n, step 4 KiB * small prime.
        for i in 0..n {
            let next = (i * 65 + 1) % n;
            mem.write_u64(base + i * 4096, base + next * 4096);
        }
        let mut b = ProgramBuilder::new();
        b.li(r(1), base as i64);
        b.li(r(2), 3000);
        let top = b.label();
        b.bind(top);
        b.load(r(1), r(1), 0, 8);
        b.alu_ri(AluOp::Sub, r(2), r(2), 1);
        b.branch(Cond::Ne, r(2), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, mem).run(100_000);
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert!(res.ipc() < 0.2, "pointer chase ipc = {}", res.ipc());
        assert!(res.rob_head_stall_cycles > res.cycles / 2);
        assert!(res.llc_load_mpki() > 100.0);
    }

    /// The pointer-chase workload of `cache_missing_loads_crater_ipc`,
    /// shared with the observability tests below.
    fn pointer_chase() -> (crisp_isa::Program, Trace, Pc) {
        let n = 4096u64;
        let base = 0x100_0000u64;
        let mut mem = Memory::new();
        for i in 0..n {
            let next = (i * 65 + 1) % n;
            mem.write_u64(base + i * 4096, base + next * 4096);
        }
        let mut b = ProgramBuilder::new();
        b.li(r(1), base as i64);
        b.li(r(2), 3000);
        let top = b.label();
        b.bind(top);
        let chase = b.load(r(1), r(1), 0, 8);
        b.alu_ri(AluOp::Sub, r(2), r(2), 1);
        b.branch(Cond::Ne, r(2), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, mem).run(100_000);
        (p, t, chase)
    }

    #[test]
    fn hostprof_attributes_host_time_to_named_phases() {
        let (p, t, _) = pointer_chase();
        let mut cfg = SimConfig::skylake();
        cfg.hostprof = true;
        let res = Simulator::new(cfg).run(&p, &t, None);
        let prof = &res.hostprof;
        assert!(prof.enabled);
        assert_eq!(prof.cycles, res.cycles);
        assert_eq!(prof.retired, res.retired);
        // The acceptance bar: ≥95% of measured host time lands in named
        // phases; only poll points and loop control may fall to `other`.
        let named = prof.named_ns() as f64 / prof.total_ns().max(1) as f64;
        assert!(named >= 0.95, "named share {named:.3}\n{}", prof.render());
        // The wakeup logic moves each instruction into the ready vector
        // exactly once.
        assert_eq!(prof.rs_slots_scanned, res.retired);
        // A load-bound workload exercises the memory-side phases.
        assert!(prof.mshr_probes > 0);
        assert!(prof.phase_ns[crisp_obs::Phase::Dram as usize] > 0);
        assert!(prof.phase_ns[crisp_obs::Phase::Retire as usize] > 0);
        let rendered = prof.render();
        assert!(rendered.contains("wakeup"), "{rendered}");

        // Default config: the profiler stays off and reports zeros.
        let off = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert_eq!(off.hostprof, crisp_obs::HostProfReport::default());
    }

    #[test]
    fn flight_recorder_captures_full_lifecycle() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.tracer_capacity = Some(1 << 18);
        let res = Simulator::new(cfg).run(&p, &t, None);
        // Every lifecycle transition of the last instruction is in the
        // ring, in recording order.
        let last = t.len() as u64 - 1;
        let kinds: Vec<EventKind> = res
            .tracer
            .events()
            .iter()
            .filter(|e| e.seq == last)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                EventKind::Fetch,
                EventKind::Dispatch,
                EventKind::Issue,
                EventKind::Complete,
                EventKind::Retire,
            ]
        );
        // Tracing is off by default and records nothing.
        let off = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert!(!off.tracer.is_on());
        assert!(off.tracer.events().is_empty());
    }

    #[test]
    fn load_completions_carry_the_serving_fill_level() {
        let (p, t, chase) = pointer_chase();
        let mut cfg = SimConfig::skylake();
        cfg.tracer_capacity = Some(1 << 16);
        let res = Simulator::new(cfg).run(&p, &t, None);
        let dram_fills = res
            .tracer
            .events()
            .iter()
            .filter(|e| {
                e.kind == EventKind::Complete
                    && e.pc == u64::from(chase)
                    && e.fill == Some(FillLevel::Dram)
            })
            .count();
        assert!(dram_fills > 100, "only {dram_fills} DRAM-fill completions");
    }

    #[test]
    fn stall_attribution_conserves_backend_cycles() {
        let (p, t, chase) = pointer_chase();
        let mut cfg = SimConfig::skylake();
        cfg.stall_attribution = true;
        let res = Simulator::new(cfg).run(&p, &t, None);
        // Conservation: every ROB-head stall cycle is charged to exactly
        // one (pc, class) cell.
        assert_eq!(
            res.stall_table.backend_cycles(),
            res.rob_head_stall_cycles,
            "stall attribution lost or double-counted cycles"
        );
        // The chasing load dominates, and its stalls are DRAM stalls.
        let top = res.stall_table.top_k(1);
        assert_eq!(top[0].pc, u64::from(chase));
        assert!(
            top[0].cycles[StallClass::LoadDram.index()] > top[0].backend / 2,
            "expected DRAM-dominated stalls: {:?}",
            top[0]
        );
        // Off by default: nothing charged.
        let off = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert_eq!(off.stall_table.backend_cycles(), 0);
        assert_eq!(off.stall_table.frontend_cycles(), 0);
    }

    #[test]
    fn telemetry_samples_ride_the_poll_path() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.cancel_check_interval = 256;
        cfg.telemetry_interval = Some(512);
        let res = Simulator::new(cfg).run(&p, &t, None);
        let samples = res.telemetry.samples();
        assert!(samples.len() >= 2, "only {} samples", samples.len());
        for pair in samples.windows(2) {
            assert!(pair[1].cycle > pair[0].cycle);
        }
        for s in samples {
            // Sampling is quantised to the poll cadence and never more
            // frequent than the configured interval.
            assert!(s.interval_cycles >= 512);
            assert_eq!(s.interval_cycles % 256, 0);
            assert!(s.ipc() > 0.0);
            assert!(s.rob <= 224);
        }
        let sampled_retired: u64 = samples.iter().map(|s| s.retired).sum();
        assert!(sampled_retired <= res.retired);
        // Off by default.
        let off = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert!(off.telemetry.samples().is_empty());
    }

    #[test]
    fn progress_beacon_is_published_on_the_poll_path() {
        let (p, t) = alu_loop();
        let beacon = crate::cancel::ProgressBeacon::new();
        let mut cfg = SimConfig::skylake();
        cfg.cancel_check_interval = 128;
        cfg.progress = Some(beacon.clone());
        let res = Simulator::new(cfg).run(&p, &t, None);
        let (cycle, retired) = beacon.read();
        assert!(cycle > 0 && cycle <= res.cycles);
        assert!(retired > 0 && retired <= res.retired);
    }

    #[test]
    fn deadlock_report_carries_flight_recorder_tail() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.freeze_scheduler_after = Some(50);
        cfg.watchdog_cycles = 20_000;
        cfg.tracer_capacity = Some(512);
        let err = Simulator::new(cfg).try_run(&p, &t, None).unwrap_err();
        let SimError::Deadlock(report) = err else {
            panic!("expected deadlock, got {err}");
        };
        assert!(!report.recent_events.is_empty());
        assert!(report.recent_events.len() <= 256);
        assert!(report.to_string().contains("flight recorder"));
    }

    #[test]
    fn store_load_forwarding_respects_order() {
        // A serial dependence chain *through memory*: each iteration loads
        // the value the previous iteration stored to the same address, adds
        // to it, and stores it back. Iteration latency is bounded below by
        // the forwarding latency, so IPC must stay low; without memory
        // ordering the iterations would overlap freely at ~4+ IPC.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x8000);
        b.li(r(3), 1000);
        let top = b.label();
        b.bind(top);
        b.load(r(4), r(1), 0, 8);
        b.alu_ri(AluOp::Add, r(4), r(4), 5);
        b.store(r(1), 0, r(4), 8);
        b.alu_ri(AluOp::Sub, r(3), r(3), 1);
        b.branch(Cond::Ne, r(3), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert_eq!(res.retired, t.len() as u64);
        // 5 insts / iteration; iteration >= forward(5) + add(1) + store(1)
        // cycles => IPC well under 1.5.
        assert!(
            res.ipc() < 1.5,
            "memory ordering violated? ipc = {}",
            res.ipc()
        );
        assert!(res.ipc() > 0.3, "unreasonably slow: ipc = {}", res.ipc());
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // Data-dependent unpredictable branch: xorshift parity decides.
        let mut mem = Memory::new();
        let base = 0x4000u64;
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..2048 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            mem.write_u64(base + i * 8, x & 1);
        }
        let mut b = ProgramBuilder::new();
        b.li(r(1), base as i64);
        b.li(r(2), 2048);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.load(r(3), r(1), 0, 8);
        b.branch(Cond::Eq, r(3), Reg::ZERO, skip);
        b.alu_ri(AluOp::Add, r(4), r(4), 1);
        b.bind(skip);
        b.alu_ri(AluOp::Add, r(1), r(1), 8);
        b.alu_ri(AluOp::Sub, r(2), r(2), 1);
        b.branch(Cond::Ne, r(2), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, mem).run(100_000);

        let noisy = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        let mut cfg = SimConfig::skylake();
        cfg.perfect_branch_prediction = true;
        let perfect = Simulator::new(cfg).run(&p, &t, None);
        assert!(noisy.branch_mpki() > 20.0, "mpki = {}", noisy.branch_mpki());
        assert!(
            perfect.ipc() > noisy.ipc() * 1.3,
            "perfect {} vs noisy {}",
            perfect.ipc(),
            noisy.ipc()
        );
        assert!(noisy.fetch_stall_mispredict_cycles > 0);
    }

    #[test]
    fn crisp_scheduler_prioritizes_critical_load_slice() {
        // The Figure 1/2 microbenchmark: a pointer chase whose delinquent
        // loads sit *behind* a dense dot-product body in program order.
        // Under oldest-ready-first the delinquent loads lose issue slots to
        // older ready ALU work; CRISP promotes them and hides part of the
        // miss latency.
        let n_nodes = 2048u64;
        let node_bytes = 4096u64;
        let base = 0x200_0000u64;
        let mut mem = Memory::new();
        for i in 0..n_nodes {
            let next = (i * 97 + 1) % n_nodes;
            mem.write_u64(base + i * node_bytes, base + next * node_bytes);
            mem.write_u64(base + i * node_bytes + 8, i + 1);
        }
        let a_base = 0x10_0000i64;
        let b_base = 0x11_0000i64;
        let mut b = ProgramBuilder::new();
        let (cur, val, t1, t2, iters) = (r(1), r(2), r(4), r(5), r(6));
        let accs = [r(10), r(11), r(12), r(13)];
        b.li(cur, base as i64);
        b.li(iters, 400);
        let outer = b.label();
        b.bind(outer);
        let val_load = b.load(val, cur, 8, 8); // val = cur->val
        for e in 0..30 {
            b.load(t1, Reg::ZERO, a_base + 8 * e, 8);
            b.load(t2, Reg::ZERO, b_base + 8 * e, 8);
            b.mul(t1, t1, val);
            b.alu_rr(AluOp::Xor, t2, t2, t1);
            let acc = accs[(e % 4) as usize];
            b.alu_rr(AluOp::Add, acc, acc, t2);
        }
        let chase = b.load(cur, cur, 0, 8); // cur = cur->next (loop bottom)
        b.alu_ri(AluOp::Sub, iters, iters, 1);
        b.branch(Cond::Ne, iters, Reg::ZERO, outer);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, mem).run(400_000);

        let base_res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);

        let mut critical = vec![false; p.len()];
        critical[val_load as usize] = true;
        critical[chase as usize] = true;
        let crisp_cfg = SimConfig::skylake().with_scheduler(SchedulerKind::Crisp);
        let crisp_res = Simulator::new(crisp_cfg).run(&p, &t, Some(&critical));

        assert!(
            crisp_res.ipc() > base_res.ipc() * 1.03,
            "CRISP {} should beat OOO {} on pointer-chase + dot-product",
            crisp_res.ipc(),
            base_res.ipc()
        );
        // CRISP reduces ROB-head stalls, the paper's confirmation metric.
        assert!(crisp_res.rob_head_stall_cycles < base_res.rob_head_stall_cycles);
    }

    #[test]
    fn upc_timeline_is_recorded_when_enabled() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.record_upc_timeline = true;
        let res = Simulator::new(cfg).run(&p, &t, None);
        assert_eq!(res.upc.as_slice().len() as u64, res.cycles);
        let avg = res.upc.average(0, res.cycles as usize);
        assert!((avg - res.ipc()).abs() < 0.01);
    }

    #[test]
    fn pc_stats_capture_load_behaviour() {
        let (p, t) = alu_loop();
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        // No loads in the ALU loop.
        assert!(res.load_pc_stats.is_empty());
        // The loop branch (pc 6: li + 5 ALU ops precede it) was tracked.
        let branch_pc = 6;
        let bs = res.branch_pc_stats.get(&branch_pc).expect("branch stats");
        assert_eq!(bs.execs, 2000);
        assert!(bs.mispredict_ratio() < 0.05);
    }

    #[test]
    fn random_scheduler_never_beats_oldest_first_badly() {
        let (p, t) = alu_loop();
        let oldest = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        let rand_cfg = SimConfig::skylake().with_scheduler(SchedulerKind::RandomReady);
        let rnd = Simulator::new(rand_cfg).run(&p, &t, None);
        assert_eq!(rnd.retired, oldest.retired);
        // RAND without age awareness should not exceed oldest-first by much
        // on a regular loop.
        assert!(rnd.ipc() <= oldest.ipc() * 1.1);
    }

    #[test]
    fn criticality_map_length_is_validated() {
        let (p, t) = alu_loop();
        let sim = Simulator::new(SimConfig::skylake());
        let bad = vec![false; p.len() + 1];
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(&p, &t, Some(&bad))));
        assert!(result.is_err());
    }

    #[test]
    fn unpipelined_divides_block_their_port() {
        // A stream of independent divides: 4 ALU ports, 20-cycle
        // unpipelined latency => at most one divide per port per 20
        // cycles (~0.2 IPC for a pure divide stream).
        let mut b = ProgramBuilder::new();
        b.li(r(1), 1000);
        b.li(r(2), 7);
        let top = b.label();
        b.bind(top);
        for k in 0..4 {
            b.div(r((10 + k) as u8), r(2), r(2));
        }
        b.alu_ri(AluOp::Sub, r(1), r(1), 1);
        b.branch(Cond::Ne, r(1), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        // 6 insts per iteration, iteration >= 20 cycles (4 divs on 4
        // ports, unpipelined) => IPC <= ~0.35.
        assert!(res.ipc() < 0.5, "divides must serialise: ipc {}", res.ipc());
    }

    #[test]
    fn a_pick_whose_port_class_is_full_wastes_its_issue_slot() {
        // A DRAM load feeds a divide, and the divide feeds nine consumers:
        // in age order three loads and three ALU ops, then three more ALU
        // ops. The miss keeps the divide waiting until all nine are in the
        // window, so all nine wake in cycle T, the divide's completion.
        let mut mem = Memory::new();
        mem.write_u64(0x10_0000, 0x8000);
        let mut b = ProgramBuilder::new();
        b.load(r(1), Reg::ZERO, 0x10_0000, 8); // seq 0
        b.li(r(2), 1); // seq 1
        b.div(r(3), r(1), r(2)); // seq 2
        for k in 0..3 {
            b.load(r(4 + k), r(3), 8 * i64::from(k), 8); // seqs 3-5
        }
        for k in 0..6 {
            b.alu_ri(AluOp::Add, r(7 + k), r(3), i64::from(k)); // seqs 6-11
        }
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, mem).run(100);
        let mut cfg = SimConfig::skylake();
        cfg.tracer_capacity = Some(1 << 10);
        let res = Simulator::new(cfg).run(&p, &t, None);
        let events = res.tracer.events();
        let issued = |cycle: u64| -> Vec<u64> {
            let mut seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == EventKind::Issue && e.cycle == cycle)
                .map(|e| e.seq)
                .collect();
            seqs.sort_unstable();
            seqs
        };
        let div_done = events
            .iter()
            .find(|e| e.kind == EventKind::Complete && e.seq == 2)
            .expect("the divide completes")
            .cycle;
        // Cycle T: select takes the six oldest ready, L3 L4 L5 A6 A7 A8,
        // then binds ports. Two load ports take L3 and L4; L5 finds its
        // class full and wastes its slot; A6-A8 take three of the four ALU
        // ports (the divide frees its port in cycle T). 2 + 3 = 5 issue,
        // and the fourth ALU port idles although A9 is ready: select
        // stopped after six picks, not after six issues.
        assert_eq!(issued(div_done), [3, 4, 6, 7, 8]);
        // Cycle T + 1: the wasted load and the three younger ALU ops.
        assert_eq!(issued(div_done + 1), [5, 9, 10, 11]);
    }

    #[test]
    fn store_buffer_backpressure_limits_store_floods() {
        // A long run of back-to-back stores: 1 store port drains 1/cycle,
        // so IPC of a pure store stream approaches 1 despite 6-wide fetch.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x9000);
        b.li(r(2), 2000);
        let top = b.label();
        b.bind(top);
        for k in 0..8 {
            b.store(r(1), 8 * k, r(2), 8);
        }
        b.alu_ri(AluOp::Sub, r(2), r(2), 1);
        b.branch(Cond::Ne, r(2), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        // 10 insts per iteration with 8 stores => bounded by the single
        // store port: IPC <= 10/8 = 1.25.
        assert!(res.ipc() < 1.35, "store port must bound IPC: {}", res.ipc());
    }

    #[test]
    fn fdip_reduces_icache_stalls_on_large_footprints() {
        // A program whose straight-line footprint exceeds L1I (32 KiB):
        // thousands of distinct instructions in sequence.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 200);
        let top = b.label();
        b.bind(top);
        for k in 0..3000i64 {
            b.alu_ri(AluOp::Add, r(2), r(2), k & 0xFF);
        }
        b.alu_ri(AluOp::Sub, r(1), r(1), 1);
        b.branch(Cond::Ne, r(1), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        assert!(p.static_bytes() > 8 * 1024);
        let t = Emulator::new(&p, Memory::new()).run(60_000);
        let mut with_fdip = SimConfig::skylake();
        with_fdip.fdip = true;
        let mut without = SimConfig::skylake();
        without.fdip = false;
        let a = Simulator::new(with_fdip).run(&p, &t, None);
        let bres = Simulator::new(without).run(&p, &t, None);
        assert!(
            a.fetch_stall_icache_cycles <= bres.fetch_stall_icache_cycles,
            "FDIP must not increase icache stalls: {} vs {}",
            a.fetch_stall_icache_cycles,
            bres.fetch_stall_icache_cycles
        );
        assert!(a.cycles <= bres.cycles);
    }

    #[test]
    fn smaller_windows_never_run_faster() {
        let (p, t) = alu_loop();
        let small = Simulator::new(SimConfig::with_window(32, 64)).run(&p, &t, None);
        let big = Simulator::new(SimConfig::with_window(192, 448)).run(&p, &t, None);
        assert!(big.cycles <= small.cycles);
    }

    #[test]
    fn critical_prefix_grows_fetch_footprint() {
        // Tagging everything adds a byte per instruction: the icache sees
        // more lines, never fewer.
        let (p, t) = alu_loop();
        let untagged = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        let all = vec![true; p.len()];
        let tagged = Simulator::new(SimConfig::skylake()).run(&p, &t, Some(&all));
        assert!(tagged.mem.l1i.accesses >= untagged.mem.l1i.accesses);
        assert_eq!(tagged.retired, untagged.retired);
    }

    #[test]
    fn pipeview_records_every_instruction_in_order() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.tracer_capacity = Some(6 * t.len() + 1);
        let res = Simulator::new(cfg).run(&p, &t, None);
        let events = res.tracer.events();
        // Per instruction, (stage, cycle) sorted by stage: fetch,
        // dispatch, issue, complete, retire.
        let mut stages = vec![Vec::new(); t.len()];
        for e in events.iter().filter(|e| e.kind != EventKind::Redirect) {
            stages[e.seq as usize].push((e.kind.code(), e.cycle));
        }
        for (seq, s) in stages.iter_mut().enumerate() {
            s.sort_unstable();
            let kinds: Vec<u64> = s.iter().map(|&(k, _)| k).collect();
            assert_eq!(kinds, [0, 1, 2, 3, 4], "seq {seq}: each stage once");
            assert!(s.windows(2).all(|w| w[0].1 <= w[1].1), "seq {seq}: {s:?}");
        }
        // Retirement is monotone in sequence order.
        for w in stages.windows(2) {
            assert!(w[0][4].1 <= w[1][4].1);
        }
        let txt = crisp_obs::render_pipeview(&events, 10, 14);
        assert_eq!(txt.lines().count(), 4);
    }

    #[test]
    fn empty_trace_completes_instantly() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build();
        let t = Trace::new();
        let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert_eq!(res.retired, 0);
        assert_eq!(res.cycles, 0);
    }

    #[test]
    fn try_run_reports_map_length_mismatch_without_panicking() {
        let (p, t) = alu_loop();
        let sim = Simulator::new(SimConfig::skylake());
        let bad = vec![false; p.len() + 1];
        let err = sim.try_run(&p, &t, Some(&bad)).unwrap_err();
        assert_eq!(
            err,
            SimError::CriticalityMapLength {
                expected: p.len(),
                actual: p.len() + 1,
            }
        );
    }

    #[test]
    fn run_tolerant_accepts_any_map_length() {
        let (p, t) = alu_loop();
        let sim = Simulator::new(SimConfig::skylake());
        let baseline = sim.run(&p, &t, None);
        // Too short, too long, empty: all must complete with full retire.
        for map in [vec![], vec![true; 2], vec![true; p.len() + 500]] {
            let res = sim.run_tolerant(&p, &t, &map).expect("degrades gracefully");
            assert_eq!(res.retired, baseline.retired);
        }
    }

    #[test]
    fn try_new_rejects_degenerate_config() {
        let mut cfg = SimConfig::skylake();
        cfg.rob_entries = 0;
        let err = Simulator::try_new(cfg).unwrap_err();
        assert!(matches!(err, SimError::Config(ref c) if c.field == "rob_entries"));
    }

    #[test]
    fn watchdog_catches_frozen_scheduler_with_diagnostics() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.freeze_scheduler_after = Some(100);
        cfg.watchdog_cycles = 10_000; // keep the test fast
        let err = Simulator::new(cfg).try_run(&p, &t, None).unwrap_err();
        let SimError::Deadlock(report) = err else {
            panic!("expected deadlock, got {err}");
        };
        assert!(report.retired >= 100);
        assert!(report.stalled_for >= 10_000);
        assert_eq!(report.rob.1, 224);
        let (_, state) = report.rob_head.expect("ROB head is stuck");
        assert_eq!(state, HeadState::WaitingToIssue);
        assert!(report.oldest_unissued.is_some());
        // The dump names the stall site.
        let dump = report.to_string();
        assert!(dump.contains("ROB head"), "dump: {dump}");
        assert!(dump.contains("oldest unissued"), "dump: {dump}");
    }

    #[test]
    fn pre_cancelled_token_aborts_at_cycle_zero() {
        let (p, t) = alu_loop();
        let token = CancelToken::new();
        token.cancel();
        let mut cfg = SimConfig::skylake();
        cfg.cancel = Some(token);
        let err = Simulator::new(cfg).try_run(&p, &t, None).unwrap_err();
        let SimError::Cancelled { cycle, retired, .. } = err else {
            panic!("expected cancellation, got {err}");
        };
        assert_eq!(cycle, 0);
        assert_eq!(retired, 0);
    }

    #[test]
    fn expired_deadline_aborts_as_deadline_exceeded() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.cancel = Some(CancelToken::with_deadline(std::time::Duration::ZERO));
        let err = Simulator::new(cfg).try_run(&p, &t, None).unwrap_err();
        assert!(
            matches!(err, SimError::DeadlineExceeded { .. }),
            "expected deadline abort, got {err}"
        );
    }

    #[test]
    fn unexpired_token_does_not_perturb_the_run() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.cancel = Some(CancelToken::with_deadline(std::time::Duration::from_secs(
            3600,
        )));
        let with_token = Simulator::new(cfg).try_run(&p, &t, None).expect("clean");
        let plain = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        assert_eq!(with_token.cycles, plain.cycles);
        assert_eq!(with_token.retired, plain.retired);
    }

    #[test]
    fn invariant_checker_passes_on_healthy_runs() {
        let (p, t) = alu_loop();
        let mut cfg = SimConfig::skylake();
        cfg.check_invariants = true;
        let checked = Simulator::new(cfg).try_run(&p, &t, None).expect("clean");
        let plain = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
        // Checking must not change behaviour.
        assert_eq!(checked.cycles, plain.cycles);
        assert_eq!(checked.retired, plain.retired);
    }

    #[test]
    fn invariant_checker_covers_memory_and_branch_workloads() {
        // Exercise loads, stores, forwarding and mispredictions under the
        // checker, not just the ALU path.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x8000);
        b.li(r(3), 500);
        let top = b.label();
        b.bind(top);
        b.load(r(4), r(1), 0, 8);
        b.alu_ri(AluOp::Add, r(4), r(4), 5);
        b.store(r(1), 0, r(4), 8);
        b.alu_ri(AluOp::Sub, r(3), r(3), 1);
        b.branch(Cond::Ne, r(3), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);
        let mut cfg = SimConfig::skylake();
        cfg.check_invariants = true;
        let res = Simulator::new(cfg).try_run(&p, &t, None).expect("clean");
        assert_eq!(res.retired, t.len() as u64);
    }

    #[test]
    fn invariant_checker_rejects_a_free_list_naming_a_taken_slot() {
        // Dispatch pops the free list without looking, so a free list that
        // names one slot twice, or an occupied slot, would hand one slot to
        // two instructions. Both shapes below keep the occupied and free
        // counts summing to the RS size, so only the per-slot rule sees them.
        let (p, t) = alu_loop();
        let cfg = SimConfig::skylake();
        let layout = p.layout(|_| false);
        let fresh = || Engine::new(&cfg, &p, &layout, &t, None);
        // One slot listed twice; the slot it displaced is missing.
        let mut twice = fresh();
        twice.rs_free[0] = twice.rs_free[1];
        // An occupied slot still listed, while another free slot is missing.
        let mut taken = fresh();
        let missing = taken.rs_free.pop().expect("a free slot");
        let occupied = *taken.rs_free.last().expect("another free slot");
        assert_ne!(missing, occupied);
        taken.rs[occupied] = Some(0);
        for (shape, engine) in [("twice", twice), ("taken", taken)] {
            let err = engine.check_invariants().unwrap_err();
            let SimError::InvariantViolation { message, .. } = &err else {
                panic!("{shape}: expected an invariant violation, got {err}");
            };
            assert!(
                message.contains("free list names slot"),
                "{shape}: {message}"
            );
        }
    }
}
