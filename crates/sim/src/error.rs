//! Typed simulator errors: configuration rejection, watchdog deadlock
//! reports and invariant-checker violations.

use crisp_isa::Pc;
use std::fmt;

pub use crisp_isa::ConfigError;

/// The pipeline state of the ROB-head instruction in a deadlock dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeadState {
    /// Dispatched but not yet picked by the scheduler.
    WaitingToIssue,
    /// Issued and executing (completion cycle in the future).
    Executing,
    /// Complete and eligible to retire.
    ReadyToRetire,
}

impl fmt::Display for HeadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadState::WaitingToIssue => write!(f, "waiting to issue"),
            HeadState::Executing => write!(f, "executing"),
            HeadState::ReadyToRetire => write!(f, "ready to retire"),
        }
    }
}

/// Diagnostic snapshot taken when the no-retire-progress watchdog fires:
/// everything needed to see *why* the machine is stuck without re-running
/// under a debugger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Cycles since the last retirement.
    pub stalled_for: u64,
    /// Instructions retired before the hang.
    pub retired: u64,
    /// Total instructions in the trace.
    pub total: u64,
    /// PC and state of the ROB head, if the ROB is non-empty.
    pub rob_head: Option<(Pc, HeadState)>,
    /// ROB occupancy / capacity.
    pub rob: (usize, usize),
    /// Reservation-station occupancy / capacity.
    pub rs: (usize, usize),
    /// Load-buffer occupancy / capacity.
    pub loads: (usize, usize),
    /// Store-buffer occupancy / capacity.
    pub stores: (usize, usize),
    /// Sequence number and PC of the oldest instruction that never issued.
    pub oldest_unissued: Option<(u64, Pc)>,
    /// The flight recorder's most recent pipeline events (empty unless the
    /// run had `tracer_capacity` set): concrete pipeline history for the
    /// cycles leading into the hang.
    pub recent_events: Vec<crisp_obs::TraceEvent>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulator deadlock at cycle {}: no retirement for {} cycles (retired {}/{})",
            self.cycle, self.stalled_for, self.retired, self.total
        )?;
        match self.rob_head {
            Some((pc, state)) => writeln!(f, "  ROB head: pc {pc}, {state}")?,
            None => writeln!(f, "  ROB head: <empty>")?,
        }
        writeln!(
            f,
            "  occupancy: ROB {}/{}, RS {}/{}, LQ {}/{}, SQ {}/{}",
            self.rob.0,
            self.rob.1,
            self.rs.0,
            self.rs.1,
            self.loads.0,
            self.loads.1,
            self.stores.0,
            self.stores.1
        )?;
        match self.oldest_unissued {
            Some((seq, pc)) => write!(f, "  oldest unissued: seq {seq}, pc {pc}")?,
            None => write!(f, "  oldest unissued: <none>")?,
        }
        if !self.recent_events.is_empty() {
            write!(
                f,
                "\n  flight recorder ({} events):",
                self.recent_events.len()
            )?;
            for e in self.recent_events.iter().rev().take(8) {
                write!(
                    f,
                    "\n    cycle {} seq {} pc {:#x} {}",
                    e.cycle,
                    e.seq,
                    e.pc,
                    e.kind.label()
                )?;
            }
        }
        Ok(())
    }
}

/// Errors from constructing or running the cycle simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed [`crate::SimConfig::validate`].
    Config(ConfigError),
    /// The criticality map does not cover the program.
    CriticalityMapLength {
        /// `program.len()`.
        expected: usize,
        /// The map length actually supplied.
        actual: usize,
    },
    /// The no-retire-progress watchdog fired.
    Deadlock(Box<DeadlockReport>),
    /// The opt-in invariant checker found an inconsistency (a simulator
    /// bug, not a user error).
    InvariantViolation {
        /// Cycle of the violation.
        cycle: u64,
        /// Which invariant failed.
        message: String,
    },
    /// The run's [`crate::CancelToken`] was cancelled (cooperative abort
    /// at the next poll point; the machine state is abandoned cleanly).
    Cancelled {
        /// Cycle at which the poll observed the cancellation.
        cycle: u64,
        /// Instructions retired before the abort.
        retired: u64,
        /// Total instructions in the trace.
        total: u64,
    },
    /// The run's [`crate::CancelToken`] wall-clock deadline passed — the
    /// supervisor-facing timeout, distinct from [`SimError::Deadlock`]:
    /// the machine may still be making (slow) progress.
    DeadlineExceeded {
        /// Cycle at which the poll observed the expired deadline.
        cycle: u64,
        /// Instructions retired before the abort.
        retired: u64,
        /// Total instructions in the trace.
        total: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::CriticalityMapLength { expected, actual } => write!(
                f,
                "criticality map length mismatch: program has {expected} instructions, map has {actual} bits"
            ),
            SimError::Deadlock(report) => write!(f, "{report}"),
            SimError::InvariantViolation { cycle, message } => {
                write!(f, "invariant violation at cycle {cycle}: {message}")
            }
            SimError::Cancelled {
                cycle,
                retired,
                total,
            } => write!(
                f,
                "simulation cancelled at cycle {cycle} (retired {retired}/{total})"
            ),
            SimError::DeadlineExceeded {
                cycle,
                retired,
                total,
            } => write!(
                f,
                "wall-clock deadline exceeded at cycle {cycle} (retired {retired}/{total})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_report_renders_all_sections() {
        let r = DeadlockReport {
            cycle: 5_000_000,
            stalled_for: 2_000_000,
            retired: 1234,
            total: 9999,
            rob_head: Some((42, HeadState::WaitingToIssue)),
            rob: (224, 224),
            rs: (96, 96),
            loads: (10, 64),
            stores: (0, 128),
            oldest_unissued: Some((1234, 42)),
            recent_events: vec![crisp_obs::TraceEvent {
                cycle: 4_999_999,
                seq: 1234,
                pc: 0xa8,
                kind: crisp_obs::EventKind::Dispatch,
                fill: None,
            }],
        };
        let s = r.to_string();
        assert!(s.contains("cycle 5000000"));
        assert!(s.contains("pc 42, waiting to issue"));
        assert!(s.contains("ROB 224/224"));
        assert!(s.contains("oldest unissued: seq 1234"));
        assert!(s.contains("flight recorder (1 events)"));
        assert!(s.contains("cycle 4999999 seq 1234 pc 0xa8 Ds"));
    }

    #[test]
    fn abort_variants_report_progress() {
        let c = SimError::Cancelled {
            cycle: 10,
            retired: 3,
            total: 9,
        };
        assert!(c.to_string().contains("cancelled at cycle 10"));
        assert!(c.to_string().contains("3/9"));
        let d = SimError::DeadlineExceeded {
            cycle: 20,
            retired: 4,
            total: 9,
        };
        assert!(d.to_string().contains("deadline exceeded"));
    }

    #[test]
    fn map_length_error_is_actionable() {
        let e = SimError::CriticalityMapLength {
            expected: 100,
            actual: 7,
        };
        assert!(e.to_string().contains("program has 100"));
        assert!(e.to_string().contains("map has 7"));
    }
}
