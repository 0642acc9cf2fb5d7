//! Cooperative cancellation for long simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a
//! simulation and its supervisor. The engine polls it every
//! [`crate::SimConfig::cancel_check_interval`] cycles and aborts *itself*
//! into the [`crate::SimError`] taxonomy — the run is never killed from
//! outside, so statistics, journals and thread state stay consistent. Two
//! conditions can trip the token:
//!
//! * an explicit [`CancelToken::cancel`] call (user interrupt, sweep
//!   shutdown), surfacing as [`crate::SimError::Cancelled`];
//! * an optional wall-clock deadline fixed at construction, surfacing as
//!   [`crate::SimError::DeadlineExceeded`] — the per-job timeout of the
//!   experiment supervisor.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a polled [`CancelToken`] wants the simulation to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's wall-clock deadline passed.
    DeadlineExceeded,
}

/// A shared stop-request flag with an optional wall-clock deadline.
///
/// Cloning is cheap (an [`Arc`] bump); all clones observe the same
/// cancellation state. The default token never aborts anything.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; aborts only on [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token whose deadline is `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + timeout),
        }
    }

    /// A token *linked* to this one: both share the same cancellation
    /// flag (cancelling either aborts both), while the linked token
    /// carries its own wall-clock deadline. The experiment supervisor
    /// uses this to give every attempt a fresh deadline that still
    /// observes a sweep-wide stop request (graceful drain).
    pub fn linked(&self, timeout: Option<Duration>) -> CancelToken {
        CancelToken {
            cancelled: Arc::clone(&self.cancelled),
            deadline: timeout.map(|t| Instant::now() + t),
        }
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Polls the token: `None` means keep running. Explicit cancellation
    /// wins over an expired deadline when both hold.
    pub fn should_abort(&self) -> Option<AbortReason> {
        if self.is_cancelled() {
            return Some(AbortReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(AbortReason::DeadlineExceeded);
        }
        None
    }
}

/// A shared progress beacon: the engine publishes (cycle, retired) on its
/// cancellation-poll path, and an external supervisor samples it to
/// journal heartbeat records. Like [`CancelToken`], cloning is an [`Arc`]
/// bump and every clone observes the same values; the beacon never
/// influences simulation state.
#[derive(Clone, Debug, Default)]
pub struct ProgressBeacon {
    inner: Arc<(AtomicU64, AtomicU64)>,
}

impl ProgressBeacon {
    /// A fresh beacon reading `(0, 0)`.
    pub fn new() -> ProgressBeacon {
        ProgressBeacon::default()
    }

    /// Publishes the engine's current cycle and retired-instruction count.
    pub fn publish(&self, cycle: u64, retired: u64) {
        self.inner.0.store(cycle, Ordering::Relaxed);
        self.inner.1.store(retired, Ordering::Relaxed);
    }

    /// The most recently published `(cycle, retired)` pair.
    pub fn read(&self) -> (u64, u64) {
        (
            self.inner.0.load(Ordering::Relaxed),
            self.inner.1.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_is_shared_across_clones() {
        let b = ProgressBeacon::new();
        let clone = b.clone();
        assert_eq!(clone.read(), (0, 0));
        b.publish(8192, 4000);
        assert_eq!(clone.read(), (8192, 4000));
    }

    #[test]
    fn fresh_token_never_aborts() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.should_abort(), None);
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.should_abort(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn linked_tokens_share_the_flag_but_not_the_deadline() {
        let stop = CancelToken::new();
        let child = stop.linked(Some(Duration::from_secs(3600)));
        assert_eq!(child.should_abort(), None);
        stop.cancel();
        assert_eq!(child.should_abort(), Some(AbortReason::Cancelled));

        let stop = CancelToken::new();
        let expired = stop.linked(Some(Duration::ZERO));
        assert_eq!(expired.should_abort(), Some(AbortReason::DeadlineExceeded));
        assert_eq!(stop.should_abort(), None, "deadline stays on the child");
        expired.cancel();
        assert!(stop.is_cancelled(), "the flag is shared both ways");
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.should_abort(), Some(AbortReason::DeadlineExceeded));
        assert!(!t.is_cancelled(), "deadline expiry is not cancellation");
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        t.cancel();
        assert_eq!(t.should_abort(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn distant_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.should_abort(), None);
    }
}
