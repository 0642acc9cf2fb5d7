//! The top-level error type of the CRISP pipeline: everything that can go
//! wrong between "workload name" and "speedup number", with enough context
//! for the CLI to print an actionable message and pick an exit code.

use crisp_emu::EmuError;
use crisp_isa::ConfigError;
use crisp_sim::{AbortReason, SimError};
use crisp_workloads::UnknownWorkload;
use std::fmt;

/// Any failure of the end-to-end pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrispError {
    /// The workload name is not registered.
    UnknownWorkload(String),
    /// A configuration was rejected by validation.
    Config(ConfigError),
    /// The functional emulator failed (wild jump, fuel exhaustion).
    Emulation(EmuError),
    /// The cycle simulator failed (deadlock, invariant violation).
    Simulation(SimError),
    /// The annotation stage produced an unusable criticality map.
    Annotation(String),
}

impl fmt::Display for CrispError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrispError::UnknownWorkload(n) => write!(f, "unknown workload: {n}"),
            CrispError::Config(e) => write!(f, "{e}"),
            CrispError::Emulation(e) => write!(f, "emulation failed: {e}"),
            CrispError::Simulation(e) => write!(f, "simulation failed: {e}"),
            CrispError::Annotation(m) => write!(f, "annotation failed: {m}"),
        }
    }
}

impl std::error::Error for CrispError {}

impl CrispError {
    /// The error of work abandoned, outside any simulation, because its
    /// cancel token fired: a cancellation, or an expired deadline.
    pub fn aborted(reason: AbortReason) -> CrispError {
        let (cycle, retired, total) = (0, 0, 0);
        CrispError::Simulation(match reason {
            AbortReason::Cancelled => SimError::Cancelled {
                cycle,
                retired,
                total,
            },
            AbortReason::DeadlineExceeded => SimError::DeadlineExceeded {
                cycle,
                retired,
                total,
            },
        })
    }
}

impl From<ConfigError> for CrispError {
    fn from(e: ConfigError) -> CrispError {
        CrispError::Config(e)
    }
}

impl From<UnknownWorkload> for CrispError {
    fn from(e: UnknownWorkload) -> CrispError {
        CrispError::UnknownWorkload(e.name)
    }
}

impl From<EmuError> for CrispError {
    fn from(e: EmuError) -> CrispError {
        CrispError::Emulation(e)
    }
}

impl From<SimError> for CrispError {
    fn from(e: SimError) -> CrispError {
        // A rejected SimConfig is a configuration problem, not a runtime
        // simulation failure; keep the distinction for exit codes.
        match e {
            SimError::Config(c) => CrispError::Config(c),
            other => CrispError::Simulation(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_config_errors_fold_into_config() {
        let e: CrispError = SimError::Config(ConfigError::new("rob_entries", "zero")).into();
        assert!(matches!(e, CrispError::Config(_)));
        let e: CrispError = SimError::CriticalityMapLength {
            expected: 3,
            actual: 5,
        }
        .into();
        assert!(matches!(e, CrispError::Simulation(_)));
    }

    #[test]
    fn registry_errors_fold_into_unknown_workload() {
        let e: CrispError = UnknownWorkload { name: "foo".into() }.into();
        assert_eq!(e, CrispError::UnknownWorkload("foo".into()));
    }

    #[test]
    fn display_is_prefixed_by_stage() {
        let e = CrispError::Emulation(EmuError::PcOutOfRange(7));
        assert!(e.to_string().starts_with("emulation failed:"));
        assert_eq!(
            CrispError::UnknownWorkload("foo".into()).to_string(),
            "unknown workload: foo"
        );
    }
}
