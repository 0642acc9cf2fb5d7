/// Timing and geometry of the DRAM model, in **core cycles**.
///
/// Defaults model one channel of DDR4-2400 behind a 3.0 GHz core (Table 1):
/// one memory cycle ≈ 2.5 core cycles, tRCD = tRP = tCL = 16.66 ns ≈ 40
/// core cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks across the channel (ranks × banks).
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Activate-to-column delay (core cycles).
    pub t_rcd: u64,
    /// Precharge delay (core cycles).
    pub t_rp: u64,
    /// Column-access (CAS) latency (core cycles).
    pub t_cl: u64,
    /// Data-burst occupancy of the channel per 64-byte line (core cycles).
    pub burst: u64,
    /// Fixed on-chip/controller overhead added to every request (core
    /// cycles) — models the LLC-to-controller hop and queueing minimum.
    pub controller_overhead: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            banks: 16,
            row_bytes: 8192,
            t_rcd: 40,
            t_rp: 40,
            t_cl: 40,
            burst: 10,
            controller_overhead: 20,
        }
    }
}

/// Counters of the DRAM model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total requests.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses to an idle (precharged) row.
    pub row_misses: u64,
    /// Row-buffer conflicts (different row open).
    pub row_conflicts: u64,
    /// Sum of request latencies (for average latency).
    pub total_latency: u64,
}

impl DramStats {
    /// Average request latency in core cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }

    /// Row-buffer hit ratio.
    pub fn row_hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    next_free: u64,
}

crisp_words::fields! { DramStats { requests, row_hits, row_misses, row_conflicts, total_latency } }

/// A banked, open-page DDR4 channel model (the Ramulator substitute).
///
/// The model keeps per-bank open-row state and next-free times plus a
/// channel-bus next-free time; a request's latency is determined by bank
/// queueing, row-buffer outcome (hit / miss / conflict) and bus occupancy.
/// Requests to one bank are served in arrival order (FCFS per bank), which
/// approximates FR-FCFS for the single-channel, moderate-MLP workloads the
/// paper evaluates.
///
/// # Example
///
/// ```
/// use crisp_mem::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig::default());
/// let first = dram.request(0x0, 0);      // row miss: activate + CAS
/// let second = dram.request(0x40, first); // same row: CAS only
/// assert!(second - first < first);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    bus_free: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates the channel model.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.
    pub fn new(config: DramConfig) -> Dram {
        assert!(
            config.banks.is_power_of_two(),
            "banks must be a power of two"
        );
        Dram {
            banks: vec![Bank::default(); config.banks],
            bus_free: 0,
            stats: DramStats::default(),
            config,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    #[inline]
    fn map(&self, addr: u64) -> (usize, u64) {
        // Row-interleaved bank mapping: consecutive rows rotate across
        // banks; lines within a row stay in one bank (row locality).
        let row_global = addr / self.config.row_bytes;
        let bank = (row_global as usize) & (self.config.banks - 1);
        let row = row_global / self.config.banks as u64;
        (bank, row)
    }

    /// Issues a 64-byte read/write at byte address `addr` arriving at core
    /// cycle `now`; returns the completion cycle.
    pub fn request(&mut self, addr: u64, now: u64) -> u64 {
        let (bank_idx, row) = self.map(addr);
        let cfg = self.config;
        let bank = &mut self.banks[bank_idx];
        let start = now
            .max(bank.next_free)
            .saturating_add(cfg.controller_overhead);
        let access = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                cfg.t_cl
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                cfg.t_rp + cfg.t_rcd + cfg.t_cl
            }
            None => {
                self.stats.row_misses += 1;
                cfg.t_rcd + cfg.t_cl
            }
        };
        bank.open_row = Some(row);
        // Data leaves on the shared bus after the column access.
        let data_start = (start + access).max(self.bus_free);
        let done = data_start + cfg.burst;
        self.bus_free = done;
        bank.next_free = start + access; // column pipeline frees the bank
        self.stats.requests += 1;
        self.stats.total_latency += done - now;
        done
    }

    /// The model's counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(dram: &mut Dram, addr: u64, now: u64) -> u64 {
        dram.request(addr, now) - now
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = Dram::new(DramConfig::default());
        let miss = lat(&mut d, 0, 0);
        let hit = lat(&mut d, 64, 1_000_000);
        assert!(hit < miss, "row hit {hit} should beat row miss {miss}");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn row_conflict_is_slowest() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let row_span = cfg.row_bytes * cfg.banks as u64;
        let miss = lat(&mut d, 0, 0);
        // Same bank, different row => conflict.
        let conflict = lat(&mut d, row_span, 1_000_000);
        assert!(conflict > miss);
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn bank_parallelism_overlaps_requests() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Two simultaneous requests to different banks finish close
        // together (bus-serialised only), far sooner than 2x serial.
        let done_a = d.request(0, 0);
        let done_b = d.request(cfg.row_bytes, 0); // next bank
        assert!(done_b < done_a + cfg.t_cl, "bank parallelism missing");

        let mut serial = Dram::new(cfg);
        let s1 = serial.request(0, 0);
        let row_span = cfg.row_bytes * cfg.banks as u64;
        let s2 = serial.request(row_span, 0); // same bank, other row
        assert!(
            s2 > done_b,
            "same-bank requests must serialise: {s2} vs {done_b}"
        );
        let _ = s1;
    }

    #[test]
    fn queueing_delay_accumulates_on_one_bank() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let row_span = cfg.row_bytes * cfg.banks as u64;
        let mut last = 0;
        for i in 0..4 {
            last = d.request(i * row_span, 0); // all bank 0, all conflicts
        }
        // Four serialized activates+CAS: latency far above a single one.
        assert!(last > 3 * (cfg.t_rp + cfg.t_rcd + cfg.t_cl));
    }

    #[test]
    fn stats_average_latency() {
        let mut d = Dram::new(DramConfig::default());
        d.request(0, 0);
        d.request(64, 0);
        let s = d.stats();
        assert_eq!(s.requests, 2);
        assert!(s.avg_latency() > 0.0);
        assert!(s.row_hit_ratio() > 0.0);
    }

    #[test]
    fn mapping_keeps_row_in_one_bank() {
        let d = Dram::new(DramConfig::default());
        let (b0, r0) = d.map(0);
        let (b1, r1) = d.map(d.config.row_bytes - 64);
        assert_eq!(b0, b1);
        assert_eq!(r0, r1);
        let (b2, _) = d.map(d.config.row_bytes);
        assert_ne!(b0, b2, "consecutive rows should rotate banks");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bank_count_rejected() {
        let _ = Dram::new(DramConfig {
            banks: 12,
            ..DramConfig::default()
        });
    }
}
