//! Bounded exponential backoff with deterministic jitter.
//!
//! A network failure is transient where a simulation's is not: the job
//! API [`client`](crate::client) retries 429/503 answers and connect/IO
//! errors, and `crisp watch` reconnects across daemon restarts, each
//! after a delay that doubles per attempt up to a cap. The jitter is
//! *deterministic* — derived from a caller-chosen seed (the request
//! line, the job id) and the attempt number with SplitMix64 — so a
//! replayed run waits identically, and it is drawn from
//! `[nominal/2, nominal]` so the schedule stays monotone non-decreasing
//! while the nominal delay is still growing.

use std::time::Duration;

/// Backoff schedule for transient network failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// Nominal delay after the first failed attempt.
    pub base: Duration,
    /// Hard ceiling on the nominal delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// Total attempts a job may consume (first run + retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The un-jittered delay scheduled after failed attempt `attempt`
    /// (1-based): `min(cap, base * 2^(attempt-1))`, monotone in `attempt`.
    pub fn nominal_delay(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        self.base
            .checked_mul(1u32 << doublings)
            .map_or(self.cap, |d| d.min(self.cap))
    }

    /// The jittered delay after failed attempt `attempt`, in
    /// `[nominal/2, nominal]`. `seed` should identify the request so
    /// different callers desynchronise but a replayed run does not.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let nominal = self.nominal_delay(attempt);
        let half = nominal / 2;
        let span = nominal.saturating_sub(half).as_nanos() as u64;
        if span == 0 {
            return nominal;
        }
        let r = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        half + Duration::from_nanos(r % (span + 1))
    }
}

/// SplitMix64 — the same tiny deterministic mixer `crisp_core::faults`
/// uses for fault injection.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The backoff schedule is bounded by the cap and the nominal delay
        /// is monotone non-decreasing; the jittered delay stays in
        /// [nominal/2, nominal] and replays deterministically.
        #[test]
        fn backoff_schedule_is_bounded_and_monotone(
            base_ms in 1u64..500,
            cap_ms in 1u64..10_000,
            seed in any::<u64>(),
        ) {
            let policy = RetryPolicy {
                max_retries: 16,
                base: Duration::from_millis(base_ms),
                cap: Duration::from_millis(base_ms.max(cap_ms)),
            };
            let mut prev = Duration::ZERO;
            for attempt in 1..=16u32 {
                let nominal = policy.nominal_delay(attempt);
                prop_assert!(nominal <= policy.cap);
                prop_assert!(nominal >= prev, "nominal schedule must not shrink");
                prev = nominal;
                let jittered = policy.delay(attempt, seed);
                prop_assert!(jittered >= nominal / 2 && jittered <= nominal);
                prop_assert_eq!(jittered, policy.delay(attempt, seed));
            }
        }
    }

    #[test]
    fn nominal_schedule_doubles_until_the_cap() {
        let p = RetryPolicy {
            max_retries: 10,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(1),
        };
        assert_eq!(p.nominal_delay(1), Duration::from_millis(100));
        assert_eq!(p.nominal_delay(2), Duration::from_millis(200));
        assert_eq!(p.nominal_delay(3), Duration::from_millis(400));
        assert_eq!(p.nominal_delay(4), Duration::from_millis(800));
        assert_eq!(p.nominal_delay(5), Duration::from_secs(1));
        assert_eq!(p.nominal_delay(64), Duration::from_secs(1));
    }

    #[test]
    fn jittered_delay_stays_in_band_and_is_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 1..=8 {
            for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
                let d = p.delay(attempt, seed);
                let nominal = p.nominal_delay(attempt);
                assert!(d >= nominal / 2, "attempt {attempt} seed {seed}: {d:?}");
                assert!(d <= nominal, "attempt {attempt} seed {seed}: {d:?}");
                assert_eq!(d, p.delay(attempt, seed), "replay must match");
            }
        }
    }

    #[test]
    fn zero_base_never_panics() {
        let p = RetryPolicy {
            max_retries: 2,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        };
        assert_eq!(p.delay(1, 42), Duration::ZERO);
        assert_eq!(p.max_attempts(), 3);
    }
}
