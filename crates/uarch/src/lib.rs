//! # crisp-uarch
//!
//! Branch-prediction substrate for the CRISP reproduction: the
//! state-of-the-art [`Tage`] predictor used by the paper's simulated core
//! (Table 1), simpler [`Bimodal`] and [`Gshare`] baselines, an 8K-entry
//! [`Btb`], a return-address stack ([`Ras`]) and a last-target
//! [`IndirectPredictor`].
//!
//! All direction predictors implement [`DirectionPredictor`] so the
//! simulator's decoupled frontend (and the sensitivity studies) can swap
//! them freely.
//!
//! ## Example
//!
//! ```
//! use crisp_uarch::{Tage, DirectionPredictor};
//!
//! let mut tage = Tage::default_config();
//! // A strongly biased branch becomes predictable after a few outcomes.
//! for _ in 0..64 {
//!     let pred = tage.predict(0x400);
//!     tage.update(0x400, true, pred);
//! }
//! assert!(tage.predict(0x400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod btb;
mod gshare;
mod indirect;
mod ras;
mod tage;

pub use bimodal::Bimodal;
pub use btb::{Btb, BtbEntry};
pub use gshare::Gshare;
pub use indirect::IndirectPredictor;
pub use ras::Ras;
pub use tage::{Tage, TageConfig};

/// A conditional-branch direction predictor.
///
/// The trace-driven frontend calls [`DirectionPredictor::predict`] at fetch
/// and [`DirectionPredictor::update`] immediately after (outcomes are known
/// from the trace); the misprediction *penalty* is modelled by the pipeline,
/// not the predictor.
pub trait DirectionPredictor {
    /// Predicts the direction of the conditional branch at byte address
    /// `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains the predictor with the resolved outcome. `pred` must be the
    /// value returned by the matching [`DirectionPredictor::predict`] call
    /// (predictors use it for allocation decisions).
    fn update(&mut self, pc: u64, taken: bool, pred: bool);
}

/// An always-taken predictor, useful as a degenerate baseline in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysTaken;

impl DirectionPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }
    fn update(&mut self, _pc: u64, _taken: bool, _pred: bool) {}
}

/// A saturating n-bit counter helper shared by the predictors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SatCounter {
    value: i8,
    max: i8,
}

impl SatCounter {
    /// Creates a counter with `bits` width, initialised to `value`.
    pub(crate) fn new(bits: u32, value: i8) -> SatCounter {
        let max = ((1i16 << (bits - 1)) - 1) as i8;
        debug_assert!((-max - 1..=max).contains(&value));
        SatCounter { value, max }
    }

    #[inline]
    pub(crate) fn get(self) -> i8 {
        self.value
    }

    #[inline]
    pub(crate) fn is_taken(self) -> bool {
        self.value >= 0
    }

    #[inline]
    pub(crate) fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    #[inline]
    pub(crate) fn dec(&mut self) {
        if self.value > -self.max - 1 {
            self.value -= 1;
        }
    }

    #[inline]
    pub(crate) fn train(&mut self, taken: bool) {
        if taken {
            self.inc()
        } else {
            self.dec()
        }
    }

    /// Whether the counter is at neither extreme (weakly biased).
    #[inline]
    pub(crate) fn is_weak(self) -> bool {
        self.value == 0 || self.value == -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_counter_saturates_both_ways() {
        let mut c = SatCounter::new(3, 0);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.get(), 3);
        assert!(c.is_taken());
        for _ in 0..20 {
            c.dec();
        }
        assert_eq!(c.get(), -4);
        assert!(!c.is_taken());
    }

    #[test]
    fn sat_counter_weak_detection() {
        let mut c = SatCounter::new(2, 0);
        assert!(c.is_weak());
        c.dec();
        assert!(c.is_weak());
        c.dec();
        assert!(!c.is_weak());
    }

    #[test]
    fn train_moves_toward_outcome() {
        let mut c = SatCounter::new(2, -1);
        c.train(true);
        assert!(c.is_taken());
        c.train(false);
        c.train(false);
        assert!(!c.is_taken());
    }

    #[test]
    fn always_taken_is_constant() {
        let mut p = AlwaysTaken;
        assert!(p.predict(0));
        p.update(0, false, true);
        assert!(p.predict(0));
    }
}
