use crate::cancel::CancelToken;
use crisp_isa::ConfigError;
use crisp_mem::HierarchyConfig;

/// Which instruction-scheduler policy the reservation station uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Table 1 baseline: issue the N oldest ready instructions each cycle
    /// (age-matrix pick without priority).
    #[default]
    OldestReadyFirst,
    /// CRISP: oldest ready *critical* instructions first, falling back to
    /// oldest ready (Figure 6's PRIO extension).
    Crisp,
    /// Ablation: a pure RAND scheduler with no age matrix — picks ready
    /// instructions in slot order (effectively random w.r.t. age).
    RandomReady,
}

/// Full configuration of the simulated core (paper Table 1 defaults via
/// [`SimConfig::skylake`]).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Frontend fetch/decode width (instructions per cycle).
    pub fetch_width: usize,
    /// Retirement width (instructions per cycle).
    pub retire_width: usize,
    /// Maximum instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Unified reservation-station entries.
    pub rs_entries: usize,
    /// Load-buffer entries (in-flight loads).
    pub load_buffer: usize,
    /// Store-buffer entries (in-flight stores).
    pub store_buffer: usize,
    /// ALU ports (also execute branches, mul/div, FP).
    pub alu_ports: usize,
    /// Load ports.
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
    /// Scheduler policy.
    pub scheduler: SchedulerKind,
    /// Fetch-to-dispatch pipeline depth in cycles.
    pub frontend_depth: u64,
    /// Extra cycles to re-steer fetch after a resolved misprediction.
    pub redirect_penalty: u64,
    /// Fetch-bubble cycles when a taken control transfer misses the BTB.
    pub btb_miss_penalty: u64,
    /// Store-to-load forwarding latency in cycles.
    pub forward_latency: u64,
    /// Fetch-target-queue depth for FDIP instruction prefetching
    /// (instructions of lookahead; Table 1: 128 entries).
    pub ftq_entries: usize,
    /// Decoupled fetch-buffer (instruction queue) entries between fetch
    /// and dispatch.
    pub fetch_queue_entries: usize,
    /// Enable FDIP instruction prefetching.
    pub fdip: bool,
    /// Model every conditional branch as correctly predicted (the paper's
    /// perfect-BP analysis in Section 5.3).
    pub perfect_branch_prediction: bool,
    /// Memory-hierarchy configuration.
    pub memory: HierarchyConfig,
    /// Record the per-cycle retired-µop timeline (Figure 1). Costs memory
    /// proportional to cycles; off by default.
    pub record_upc_timeline: bool,
    /// Collect per-PC load/branch statistics (profiling runs).
    pub collect_pc_stats: bool,
    /// No-retire-progress watchdog: abort the run with a
    /// [`crate::DeadlockReport`] if no instruction retires for this many
    /// cycles. Must be nonzero.
    pub watchdog_cycles: u64,
    /// Opt-in invariant checker (`crisp --check`), the engine's reference
    /// path: step every cycle (no idle-cycle skip) and verify each one —
    /// the live ready/PRIO vectors equal a full `operands_ready` rescan of
    /// the ROB's unissued entries, per-instruction stage ordering,
    /// ROB/RS/LSQ occupancy bounds and RS/ROB consistency — then MSHR
    /// leak-freedom at drain. Results are identical with it off; it costs
    /// a full rescan and a window scan per simulated cycle. Off by default.
    pub check_invariants: bool,
    /// Fault-injection hook for testing the watchdog: the scheduler stops
    /// issuing once this many instructions have retired, freezing the
    /// machine. `None` (the default) disables the hook.
    pub freeze_scheduler_after: Option<u64>,
    /// Cooperative cancellation: when set, the engine polls the token
    /// every [`SimConfig::cancel_check_interval`] cycles and aborts with
    /// [`crate::SimError::Cancelled`] / [`crate::SimError::DeadlineExceeded`]
    /// instead of being killed from outside. `None` (the default) never
    /// aborts.
    pub cancel: Option<CancelToken>,
    /// How often (in cycles) the cancellation token is polled. Polling
    /// costs one `Instant::now()` per check; the default (8192) keeps that
    /// overhead unmeasurable while bounding cancellation latency to a few
    /// microseconds of simulated work. Must be nonzero.
    pub cancel_check_interval: u64,
    /// Hard cap on simulated cycles: the run aborts with
    /// [`crate::SimError::CycleBudgetExhausted`] when `now` reaches the
    /// budget. Unlike the no-progress watchdog this also bounds *slow but
    /// live* runs. `None` (the default) is unlimited; `Some(0)` is
    /// rejected by validation.
    pub cycle_budget: Option<u64>,
    /// Flight-recorder capacity in pipeline events: when set, the engine
    /// records per-instruction lifecycle events into a ring buffer of this
    /// many entries (exported via `SimResult::tracer`). `None` (the
    /// default) keeps the zero-overhead disabled path; `Some(0)` is
    /// rejected by validation.
    pub tracer_capacity: Option<usize>,
    /// Interval telemetry: when set, the engine samples IPC, occupancies,
    /// MSHR pressure, MLP, MPKI, miss rates and the critical-issue mix
    /// roughly every this many cycles. Sampling rides the cancellation
    /// poll path, so the actual cadence is rounded up to the next multiple
    /// of [`SimConfig::cancel_check_interval`]. Must be nonzero when set;
    /// `None` (the default) never samples.
    pub telemetry_interval: Option<u64>,
    /// Charge every ROB-head stall cycle to the blocking instruction's PC
    /// and stall class in `SimResult::stall_table` (and tally ROB-empty
    /// cycles as frontend stalls). Off by default: the table costs a hash
    /// update per stall cycle.
    pub stall_attribution: bool,
    /// Progress beacon: when set, the engine publishes (cycle, retired)
    /// through this shared handle on every cancellation poll, so an
    /// external supervisor can journal heartbeat records for a run it
    /// cannot otherwise observe.
    pub progress: Option<crate::cancel::ProgressBeacon>,
    /// Host-side self-profiling: attribute the simulator's *host* time
    /// to engine phases (fetch/rename/dispatch/wakeup/select/execute/
    /// lsq/mshr/dram/retire) and tally structure-scan counters, exported
    /// via `SimResult::hostprof`. Off by default: enabled runs pay one
    /// monotonic-clock read per phase transition, so absolute throughput
    /// of a profiled run is not meaningful — the attribution is.
    pub hostprof: bool,
}

impl SimConfig {
    /// The paper's Table 1 machine: 6-wide Skylake-like core, 224-entry
    /// ROB, 96-entry unified RS, 4 ALU / 2 load / 1 store ports, TAGE +
    /// 8K BTB, FDIP with a 128-entry FTQ, BOP + stream prefetching,
    /// DDR4-2400.
    pub fn skylake() -> SimConfig {
        SimConfig {
            fetch_width: 6,
            retire_width: 6,
            issue_width: 6,
            rob_entries: 224,
            rs_entries: 96,
            load_buffer: 64,
            store_buffer: 128,
            alu_ports: 4,
            load_ports: 2,
            store_ports: 1,
            scheduler: SchedulerKind::OldestReadyFirst,
            frontend_depth: 5,
            redirect_penalty: 10,
            btb_miss_penalty: 2,
            forward_latency: 5,
            ftq_entries: 128,
            fetch_queue_entries: 64,
            fdip: true,
            perfect_branch_prediction: false,
            memory: HierarchyConfig::skylake_like(),
            record_upc_timeline: false,
            collect_pc_stats: true,
            watchdog_cycles: 2_000_000,
            check_invariants: false,
            freeze_scheduler_after: None,
            cancel: None,
            cancel_check_interval: 8192,
            cycle_budget: None,
            tracer_capacity: None,
            telemetry_interval: None,
            stall_attribution: false,
            progress: None,
            hostprof: false,
        }
    }

    /// The Figure 9 sensitivity points: the Skylake core with RS/ROB set
    /// to `(rs, rob)` — e.g. (64, 180), (96, 224), (144, 336), (192, 448).
    pub fn with_window(rs: usize, rob: usize) -> SimConfig {
        SimConfig {
            rs_entries: rs,
            rob_entries: rob,
            ..SimConfig::skylake()
        }
    }

    /// Returns a copy with the scheduler replaced.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> SimConfig {
        self.scheduler = scheduler;
        self
    }

    /// Validates structural invariants: nonzero widths and window
    /// structures, a RS no larger than the ROB, an issue width the RS can
    /// feed, at least one port of every execution class (a machine with no
    /// load ports deadlocks on its first load), and a coherent memory
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 {
            return Err(ConfigError::new("fetch_width", "must be nonzero (got 0)"));
        }
        if self.retire_width == 0 {
            return Err(ConfigError::new("retire_width", "must be nonzero (got 0)"));
        }
        if self.issue_width == 0 {
            return Err(ConfigError::new("issue_width", "must be nonzero (got 0)"));
        }
        if self.rob_entries == 0 {
            return Err(ConfigError::new("rob_entries", "must be nonzero (got 0)"));
        }
        if self.rs_entries == 0 {
            return Err(ConfigError::new("rs_entries", "must be nonzero (got 0)"));
        }
        if self.rs_entries > self.rob_entries {
            return Err(ConfigError::new(
                "rs_entries",
                format!(
                    "RS cannot exceed ROB ({} > {})",
                    self.rs_entries, self.rob_entries
                ),
            ));
        }
        if self.issue_width > self.rs_entries {
            return Err(ConfigError::new(
                "issue_width",
                format!(
                    "cannot exceed rs_entries ({} > {}): the scheduler picks from the RS",
                    self.issue_width, self.rs_entries
                ),
            ));
        }
        if self.alu_ports == 0 {
            return Err(ConfigError::new(
                "alu_ports",
                "must be nonzero: ALU/branch instructions could never issue",
            ));
        }
        if self.load_ports == 0 {
            return Err(ConfigError::new(
                "load_ports",
                "must be nonzero: loads could never issue",
            ));
        }
        if self.store_ports == 0 {
            return Err(ConfigError::new(
                "store_ports",
                "must be nonzero: stores could never issue",
            ));
        }
        if self.load_buffer == 0 {
            return Err(ConfigError::new("load_buffer", "must be nonzero (got 0)"));
        }
        if self.store_buffer == 0 {
            return Err(ConfigError::new("store_buffer", "must be nonzero (got 0)"));
        }
        if self.fetch_queue_entries == 0 {
            return Err(ConfigError::new(
                "fetch_queue_entries",
                "must be nonzero (got 0)",
            ));
        }
        if self.watchdog_cycles == 0 {
            return Err(ConfigError::new(
                "watchdog_cycles",
                "must be nonzero (got 0): a zero watchdog aborts every run",
            ));
        }
        if self.cancel_check_interval == 0 {
            return Err(ConfigError::new(
                "cancel_check_interval",
                "must be nonzero (got 0): the poll cadence divides the cycle count",
            ));
        }
        if self.cycle_budget == Some(0) {
            return Err(ConfigError::new(
                "cycle_budget",
                "must be nonzero when set: a zero budget aborts every run at cycle 0",
            ));
        }
        if self.tracer_capacity == Some(0) {
            return Err(ConfigError::new(
                "tracer_capacity",
                "must be nonzero when set: a zero-entry ring records nothing",
            ));
        }
        if self.telemetry_interval == Some(0) {
            return Err(ConfigError::new(
                "telemetry_interval",
                "must be nonzero when set: a zero interval samples every poll",
            ));
        }
        self.memory
            .validate()
            .map_err(|m| ConfigError::new("memory", m))?;
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_matches_table1() {
        let c = SimConfig::skylake();
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.rs_entries, 96);
        assert_eq!(c.alu_ports, 4);
        assert_eq!(c.load_ports, 2);
        assert_eq!(c.store_ports, 1);
        assert_eq!(c.load_buffer, 64);
        assert_eq!(c.store_buffer, 128);
        assert_eq!(c.ftq_entries, 128);
        assert_eq!(c.scheduler, SchedulerKind::OldestReadyFirst);
        c.validate().expect("Table 1 machine is valid");
    }

    #[test]
    fn window_sweep_constructor() {
        let c = SimConfig::with_window(144, 336);
        assert_eq!(c.rs_entries, 144);
        assert_eq!(c.rob_entries, 336);
        c.validate().expect("sweep point is valid");
    }

    #[test]
    fn with_scheduler_swaps_policy() {
        let c = SimConfig::skylake().with_scheduler(SchedulerKind::Crisp);
        assert_eq!(c.scheduler, SchedulerKind::Crisp);
    }

    #[test]
    fn rs_larger_than_rob_rejected() {
        let err = SimConfig::with_window(300, 224).validate().unwrap_err();
        assert_eq!(err.field, "rs_entries");
        assert!(err.message.contains("RS cannot exceed ROB"));
    }

    #[test]
    fn degenerate_machines_name_the_offending_field() {
        type Mutate = fn(&mut SimConfig);
        let cases: [(&str, Mutate); 14] = [
            ("fetch_width", |c| c.fetch_width = 0),
            ("issue_width", |c| c.issue_width = 0),
            ("rob_entries", |c| c.rob_entries = 0),
            ("rs_entries", |c| c.rs_entries = 0),
            ("alu_ports", |c| c.alu_ports = 0),
            ("load_ports", |c| c.load_ports = 0),
            ("store_ports", |c| c.store_ports = 0),
            ("load_buffer", |c| c.load_buffer = 0),
            ("store_buffer", |c| c.store_buffer = 0),
            ("watchdog_cycles", |c| c.watchdog_cycles = 0),
            ("cancel_check_interval", |c| c.cancel_check_interval = 0),
            ("cycle_budget", |c| c.cycle_budget = Some(0)),
            ("tracer_capacity", |c| c.tracer_capacity = Some(0)),
            ("telemetry_interval", |c| c.telemetry_interval = Some(0)),
        ];
        for (field, mutate) in cases {
            let mut c = SimConfig::skylake();
            mutate(&mut c);
            let err = c.validate().unwrap_err();
            assert_eq!(err.field, field, "wrong field for {field}: {err}");
        }
    }

    #[test]
    fn issue_width_cannot_exceed_rs() {
        let mut c = SimConfig::skylake();
        c.issue_width = c.rs_entries + 1;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "issue_width");
    }

    #[test]
    fn nonzero_cycle_budget_and_cancel_token_are_valid() {
        let mut c = SimConfig::skylake();
        c.cycle_budget = Some(1_000_000);
        c.cancel = Some(CancelToken::new());
        c.validate()
            .expect("budgeted, cancellable machine is valid");
    }

    #[test]
    fn bad_memory_geometry_surfaces_as_memory_field() {
        let mut c = SimConfig::skylake();
        c.memory.l1d_latency = 0;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "memory");
    }
}
