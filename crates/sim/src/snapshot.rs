//! Mid-run checkpoint/restore: the in-memory [`SimSnapshot`] container
//! the engine emits and the [`CheckpointSink`] callback that delivers
//! checkpoints while a simulation is running.
//!
//! Every stateful simulator structure — schedulers, predictors, caches,
//! DRAM, the emulator, statistics — implements the workspace's one
//! snapshot codec, [`crisp_words::Snapshot`] (re-exported as
//! [`crate::Snapshot`]). Durable on-disk framing (versioning, checksums,
//! fingerprints) lives in `crisp-harness`.

use crate::stats::SimResult;
use std::fmt;
use std::sync::Arc;

/// One full-machine checkpoint, taken at a cycle boundary on the engine's
/// cooperative poll path.
///
/// The snapshot covers everything the engine mutates — frontend, window,
/// scheduler, memory hierarchy, branch predictors and statistics — but not
/// the immutable inputs (program, trace, criticality map, configuration):
/// a resumed run must be given the same inputs, and restore validates the
/// structural echoes it carries (trace length, table geometries) against
/// them. On-disk integrity (format version, CRCs, config fingerprint) is
/// the harness checkpoint container's job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimSnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Named state sections: `engine`, `mem`, `bpu`, `stats`.
    pub sections: Vec<(String, Vec<u64>)>,
}

impl SimSnapshot {
    /// The words of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u64]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
    }

    /// Total payload size in words across all sections.
    pub fn words(&self) -> usize {
        self.sections.iter().map(|(_, w)| w.len()).sum()
    }
}

/// A checkpoint consumer invoked synchronously from the engine's poll
/// path; clones share the underlying callback.
///
/// The callback must only observe the snapshot (write it out, clone it
/// into a buffer) — it runs on the simulation thread and its latency adds
/// directly to the run.
#[derive(Clone)]
pub struct CheckpointSink {
    f: Arc<dyn Fn(&SimSnapshot) + Send + Sync>,
}

impl CheckpointSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&SimSnapshot) + Send + Sync + 'static) -> CheckpointSink {
        CheckpointSink { f: Arc::new(f) }
    }

    /// Delivers one checkpoint.
    pub fn emit(&self, snapshot: &SimSnapshot) {
        (self.f)(snapshot)
    }
}

impl fmt::Debug for CheckpointSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CheckpointSink(..)")
    }
}

/// Outcome of a successful [`crate::Simulator::audit_restore`] run.
#[derive(Clone, Debug)]
pub struct RestoreAudit {
    /// Straight-through run length in cycles.
    pub cycles: u64,
    /// Checkpoints captured and re-verified by resumption.
    pub checkpoints_verified: usize,
    /// The straight-through result (byte-identical to every resumed run's
    /// result — that is what the audit proved).
    pub result: SimResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_lookup_and_size() {
        let s = SimSnapshot {
            cycle: 42,
            sections: vec![
                ("engine".to_string(), vec![1, 2, 3]),
                ("mem".to_string(), vec![4]),
            ],
        };
        assert_eq!(s.section("engine"), Some(&[1u64, 2, 3][..]));
        assert_eq!(s.section("bpu"), None);
        assert_eq!(s.words(), 4);
    }

    #[test]
    fn sink_delivers_and_debug_is_opaque() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let store = Arc::clone(&seen);
        let sink = CheckpointSink::new(move |s| store.lock().expect("lock").push(s.cycle));
        let snap = SimSnapshot {
            cycle: 7,
            sections: Vec::new(),
        };
        sink.clone().emit(&snap);
        sink.emit(&snap);
        assert_eq!(*seen.lock().expect("lock"), vec![7, 7]);
        assert_eq!(format!("{sink:?}"), "CheckpointSink(..)");
    }
}
