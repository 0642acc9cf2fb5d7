//! Failure taxonomy: which job failures are worth retrying.
//!
//! The split follows the PR's robustness contract: *transient* failures
//! (wall-clock timeouts, watchdog deadlocks, panics — anything an injected
//! fault or scheduling hiccup can cause) earn bounded retries with
//! backoff; *deterministic* failures (rejected configs, unknown workloads,
//! cycle-budget overruns) would fail identically every time, so the
//! supervisor fails them fast and salvages the rest of the sweep.

use crisp_core::CrispError;
use crisp_sim::SimError;
use std::fmt;

/// The class of a failed job attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// The job's runner panicked (caught by the supervisor's isolation).
    Panic,
    /// The per-job wall-clock deadline expired
    /// ([`SimError::DeadlineExceeded`]).
    Timeout,
    /// The simulator's no-retire-progress watchdog fired
    /// ([`SimError::Deadlock`]).
    Deadlock,
    /// The job was cancelled from outside (sweep shutdown, not a fault).
    Cancelled,
    /// The deterministic cycle budget ran out
    /// ([`SimError::CycleBudgetExhausted`]).
    CycleBudget,
    /// A configuration was rejected by validation.
    Config,
    /// The workload name is not registered.
    UnknownWorkload,
    /// Any other pipeline error (emulation, annotation, invariant
    /// violation, map mismatch).
    Runtime,
}

impl FailureClass {
    /// Whether the supervisor should retry this class (with backoff)
    /// rather than fail the job permanently.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            FailureClass::Panic | FailureClass::Timeout | FailureClass::Deadlock
        )
    }

    /// Stable journal identifier.
    pub fn name(&self) -> &'static str {
        match self {
            FailureClass::Panic => "panic",
            FailureClass::Timeout => "timeout",
            FailureClass::Deadlock => "deadlock",
            FailureClass::Cancelled => "cancelled",
            FailureClass::CycleBudget => "cycle-budget",
            FailureClass::Config => "config",
            FailureClass::UnknownWorkload => "unknown-workload",
            FailureClass::Runtime => "runtime",
        }
    }

    /// Inverse of [`FailureClass::name`], for journal decoding.
    pub fn from_name(name: &str) -> Option<FailureClass> {
        Some(match name {
            "panic" => FailureClass::Panic,
            "timeout" => FailureClass::Timeout,
            "deadlock" => FailureClass::Deadlock,
            "cancelled" => FailureClass::Cancelled,
            "cycle-budget" => FailureClass::CycleBudget,
            "config" => FailureClass::Config,
            "unknown-workload" => FailureClass::UnknownWorkload,
            "runtime" => FailureClass::Runtime,
            _ => return None,
        })
    }

    /// Classifies a pipeline error.
    pub fn classify(e: &CrispError) -> FailureClass {
        match e {
            CrispError::UnknownWorkload(_) => FailureClass::UnknownWorkload,
            CrispError::Config(_) => FailureClass::Config,
            CrispError::Simulation(sim) => match sim {
                SimError::Deadlock(_) => FailureClass::Deadlock,
                SimError::DeadlineExceeded { .. } => FailureClass::Timeout,
                SimError::Cancelled { .. } => FailureClass::Cancelled,
                SimError::CycleBudgetExhausted { .. } => FailureClass::CycleBudget,
                SimError::Config(_) => FailureClass::Config,
                _ => FailureClass::Runtime,
            },
            CrispError::Emulation(_) | CrispError::Annotation(_) => FailureClass::Runtime,
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_core::ConfigError;

    #[test]
    fn retryability_follows_the_contract() {
        let retryable = [
            FailureClass::Panic,
            FailureClass::Timeout,
            FailureClass::Deadlock,
        ];
        let fatal = [
            FailureClass::Cancelled,
            FailureClass::CycleBudget,
            FailureClass::Config,
            FailureClass::UnknownWorkload,
            FailureClass::Runtime,
        ];
        for c in retryable {
            assert!(c.retryable(), "{c}");
        }
        for c in fatal {
            assert!(!c.retryable(), "{c}");
        }
    }

    #[test]
    fn names_round_trip() {
        for c in [
            FailureClass::Panic,
            FailureClass::Timeout,
            FailureClass::Deadlock,
            FailureClass::Cancelled,
            FailureClass::CycleBudget,
            FailureClass::Config,
            FailureClass::UnknownWorkload,
            FailureClass::Runtime,
        ] {
            assert_eq!(FailureClass::from_name(c.name()), Some(c));
        }
        assert_eq!(FailureClass::from_name("no-such-class"), None);
    }

    #[test]
    fn pipeline_errors_classify_by_variant() {
        assert_eq!(
            FailureClass::classify(&CrispError::UnknownWorkload("x".into())),
            FailureClass::UnknownWorkload
        );
        assert_eq!(
            FailureClass::classify(&CrispError::Config(ConfigError::new("f", "bad"))),
            FailureClass::Config
        );
        assert_eq!(
            FailureClass::classify(&CrispError::Simulation(SimError::DeadlineExceeded {
                cycle: 1,
                retired: 0,
                total: 10
            })),
            FailureClass::Timeout
        );
        assert_eq!(
            FailureClass::classify(&CrispError::Simulation(SimError::CycleBudgetExhausted {
                budget: 5,
                retired: 0,
                total: 10
            })),
            FailureClass::CycleBudget
        );
        assert_eq!(
            FailureClass::classify(&CrispError::Annotation("empty map".into())),
            FailureClass::Runtime
        );
    }
}
