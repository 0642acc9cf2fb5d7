//! Keyed, single-flight memo tables: the sharing layer under the
//! pipeline stages ([`crate::stages`]).
//!
//! A [`Table`] maps a key string to a result. The first requester of a
//! key computes it; requesters that arrive while it computes wait for it
//! instead of computing it again, polling their own cancel token so a
//! deadline or SIGTERM still reaches them. Only successes are stored: a
//! failed or panicking computation leaves no entry, and the next
//! requester computes the key afresh.

use crate::error::CrispError;
use crisp_sim::CancelToken;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often a waiter wakes to poll its cancel token.
const POLL: Duration = Duration::from_millis(5);

enum Slot<T> {
    Running,
    Done(Arc<T>),
}

/// One stage's results, keyed by the `Debug` rendering of its inputs.
pub(crate) struct Table<T> {
    slots: Mutex<HashMap<String, Slot<T>>>,
    settled: Condvar,
    /// Polls made by waiting requesters, so tests can hold a computation
    /// until another requester is provably waiting for it.
    #[cfg(test)]
    waits: std::sync::atomic::AtomicUsize,
}

impl<T> Default for Table<T> {
    fn default() -> Table<T> {
        Table {
            slots: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
            #[cfg(test)]
            waits: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

/// Whether a request computed its result or was served another's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Served {
    Computed,
    Shared,
}

/// The claim on a key being computed. Dropping it without
/// [`Claim::settle`] — an error or a panic — frees the key and wakes the
/// waiters, so one of them computes it.
struct Claim<'a, T> {
    table: &'a Table<T>,
    key: Option<String>,
}

impl<T> Claim<'_, T> {
    fn settle(mut self, value: Arc<T>) {
        let key = self.key.take().expect("claim settles once");
        self.table.lock().insert(key, Slot::Done(value));
        self.table.settled.notify_all();
    }
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.table.lock().remove(&key);
            self.table.settled.notify_all();
        }
    }
}

impl<T> Table<T> {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Slot<T>>> {
        // A panic never happens under this lock (computations run outside
        // it), so a poisoned map is still consistent.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The result for `key`: stored, awaited from a concurrent
    /// requester, or computed by `compute` and stored on success.
    ///
    /// # Errors
    ///
    /// `compute`'s error, or the cancellation `cancel` reports while
    /// this request waits for another requester.
    pub(crate) fn get(
        &self,
        key: String,
        cancel: Option<&CancelToken>,
        compute: impl FnOnce() -> Result<T, CrispError>,
    ) -> Result<(Arc<T>, Served), CrispError> {
        let mut slots = self.lock();
        loop {
            match slots.get(&key) {
                Some(Slot::Done(v)) => return Ok((Arc::clone(v), Served::Shared)),
                Some(Slot::Running) => {
                    #[cfg(test)]
                    self.waits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if let Some(reason) = cancel.and_then(CancelToken::should_abort) {
                        return Err(CrispError::aborted(reason));
                    }
                    slots = self
                        .settled
                        .wait_timeout(slots, POLL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                None => break,
            }
        }
        slots.insert(key.clone(), Slot::Running);
        drop(slots);
        let claim = Claim {
            table: self,
            key: Some(key),
        };
        let value = Arc::new(compute()?);
        claim.settle(Arc::clone(&value));
        Ok((value, Served::Computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_sim::SimError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn concurrent_requesters_compute_once() {
        let table: Table<u64> = Table::default();
        let runs = AtomicUsize::new(0);
        // Whichever requester claims the key computes, and holds its claim
        // until the other is waiting for it.
        let request = || {
            table
                .get("k".into(), None, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    while table.waits.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    Ok(42)
                })
                .map(|(v, how)| (*v, how))
                .expect("computes")
        };
        let served: Vec<(u64, Served)> = std::thread::scope(|s| {
            let a = s.spawn(request);
            let b = s.spawn(request);
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let mut how: Vec<Served> = served
            .iter()
            .map(|&(v, h)| {
                assert_eq!(v, 42);
                h
            })
            .collect();
        how.sort_by_key(|h| *h == Served::Shared);
        assert_eq!(how, [Served::Computed, Served::Shared]);
    }

    #[test]
    fn failures_are_not_stored() {
        let table: Table<u64> = Table::default();
        let err = table
            .get("k".into(), None, || {
                Err(CrispError::Annotation("transient".into()))
            })
            .unwrap_err();
        assert_eq!(err, CrispError::Annotation("transient".into()));
        let (v, how) = table.get("k".into(), None, || Ok(7)).expect("recomputes");
        assert_eq!((*v, how), (7, Served::Computed));
        let (v, how) = table.get("k".into(), None, || Ok(8)).expect("stored");
        assert_eq!((*v, how), (7, Served::Shared));
    }

    #[test]
    fn panics_free_the_key() {
        let table: Table<u64> = Table::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.get("k".into(), None, || panic!("injected"))
        }));
        assert!(caught.is_err());
        let (v, how) = table.get("k".into(), None, || Ok(3)).expect("recomputes");
        assert_eq!((*v, how), (3, Served::Computed));
    }

    #[test]
    fn a_cancelled_waiter_returns_while_the_holder_computes() {
        let table: Table<u64> = Table::default();
        let started = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                table.get("k".into(), None, || {
                    started.wait();
                    release.wait();
                    Ok(1)
                })
            });
            started.wait();
            let token = CancelToken::new();
            token.cancel();
            let waited = table.get("k".into(), Some(&token), || Ok(2));
            assert!(
                matches!(
                    waited,
                    Err(CrispError::Simulation(SimError::Cancelled { .. }))
                ),
                "{waited:?}"
            );
            release.wait();
            let (v, how) = holder.join().unwrap().expect("holder finishes");
            assert_eq!((*v, how), (1, Served::Computed));
        });
    }
}
