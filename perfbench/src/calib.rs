//! Machine-speed calibration for the CPU-bound workloads.
//!
//! On a shared virtual machine, CPU speed drifts by 20–40 % over minutes
//! as co-tenants come and go, and every host time drifts with it. A fixed
//! integer loop that belongs to the benchmark (so no change to the
//! program can speed it up or slow it down) is timed while the program is
//! idle, interleaved with the measured work. Host times are then reported
//! at a reference speed: measured × [`REF_MS`] ÷ the run's median chunk.

use crate::stats::median;
use std::time::Instant;

/// Chunk time, in ms, of the reference machine speed.
pub const REF_MS: f64 = 7.0;

/// Times one calibration chunk on `threads` threads at once; returns the
/// slowest thread's milliseconds.
pub fn chunk_ms(threads: usize) -> f64 {
    let one = || {
        let t = Instant::now();
        let (mut acc, mut b) = (1u64, 0u64);
        for k in 0..6_000_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            if acc >> 61 == 3 {
                b = b.wrapping_add(acc);
            } else {
                b ^= acc >> 3;
            }
        }
        std::hint::black_box((acc, b));
        t.elapsed().as_secs_f64() * 1e3
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .fold(0.0, f64::max)
    })
}

/// Calibration chunks collected over one run.
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Times `n` chunks on `threads` threads.
    pub fn sample(&mut self, threads: usize, n: usize) {
        self.0.extend((0..n).map(|_| chunk_ms(threads)));
    }

    /// Scales a host time measured in this run to the reference speed.
    pub fn scale(&self, measured: f64) -> f64 {
        measured * REF_MS / self.ms()
    }

    /// The run's median chunk time in ms.
    pub fn ms(&self) -> f64 {
        median(&self.0).unwrap_or(REF_MS)
    }

    /// Chunks timed.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}
