//! Interval telemetry: the engine samples a set of cumulative counters and
//! instantaneous occupancies every K cycles (on its cancellation-poll
//! path); the log differences consecutive samples into per-interval
//! deltas.

use crisp_words::{fields, Snapshot};

/// The number of numeric fields in a [`TelemetrySample`].
pub const SAMPLE_FIELDS: usize = 22;

/// JSONL field names, in [`TelemetrySample::values`] order. The bench
/// harness writes these names and `crisp obs summarize` reads them back.
pub const FIELD_NAMES: [&str; SAMPLE_FIELDS] = [
    "cycle",
    "interval_cycles",
    "retired",
    "rob",
    "rs",
    "loads",
    "stores",
    "mshr",
    "dram_outstanding",
    "cond_branches",
    "mispredicts",
    "l1i_accesses",
    "l1i_misses",
    "l1d_accesses",
    "l1d_misses",
    "llc_accesses",
    "llc_misses",
    "issued_critical",
    "issued_noncritical",
    "pf_issued",
    "pf_useful",
    "pf_late",
];

/// The counter set the engine hands to [`TelemetryLog::record`] at each
/// sample point: cumulative counters since cycle 0 plus instantaneous
/// occupancies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryInputs {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions retired so far (cumulative).
    pub retired: u64,
    /// Conditional branches executed so far (cumulative).
    pub cond_branches: u64,
    /// Branch mispredictions so far (cumulative).
    pub mispredicts: u64,
    /// L1I accesses so far (cumulative).
    pub l1i_accesses: u64,
    /// L1I misses so far (cumulative).
    pub l1i_misses: u64,
    /// L1D accesses so far (cumulative).
    pub l1d_accesses: u64,
    /// L1D misses so far (cumulative).
    pub l1d_misses: u64,
    /// LLC accesses so far (cumulative).
    pub llc_accesses: u64,
    /// LLC misses so far (cumulative).
    pub llc_misses: u64,
    /// Critical instructions issued so far (cumulative).
    pub issued_critical: u64,
    /// Non-critical instructions issued so far (cumulative).
    pub issued_noncritical: u64,
    /// Data prefetches issued so far, summed over units (cumulative).
    pub pf_issued: u64,
    /// Useful data prefetches so far, summed over units (cumulative).
    pub pf_useful: u64,
    /// Late data prefetches so far, summed over units (cumulative).
    pub pf_late: u64,
    /// ROB occupancy right now.
    pub rob: u64,
    /// Reservation-station occupancy right now.
    pub rs: u64,
    /// Loads in flight right now.
    pub loads: u64,
    /// Stores in flight right now.
    pub stores: u64,
    /// MSHR (in-flight fill) entries right now.
    pub mshr: u64,
    /// Outstanding DRAM loads right now (instantaneous MLP).
    pub dram_outstanding: u64,
}

/// One interval sample: counter fields are deltas over the interval,
/// occupancy fields are instantaneous values at the sample cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Cycle the sample was taken.
    pub cycle: u64,
    /// Interval length in cycles.
    pub interval_cycles: u64,
    /// Instructions retired in the interval.
    pub retired: u64,
    /// ROB occupancy at the sample cycle.
    pub rob: u64,
    /// RS occupancy at the sample cycle.
    pub rs: u64,
    /// Loads in flight at the sample cycle.
    pub loads: u64,
    /// Stores in flight at the sample cycle.
    pub stores: u64,
    /// MSHR entries at the sample cycle.
    pub mshr: u64,
    /// Outstanding DRAM loads at the sample cycle (instantaneous MLP).
    pub dram_outstanding: u64,
    /// Conditional branches executed in the interval.
    pub cond_branches: u64,
    /// Branch mispredictions in the interval.
    pub mispredicts: u64,
    /// L1I accesses in the interval.
    pub l1i_accesses: u64,
    /// L1I misses in the interval.
    pub l1i_misses: u64,
    /// L1D accesses in the interval.
    pub l1d_accesses: u64,
    /// L1D misses in the interval.
    pub l1d_misses: u64,
    /// LLC accesses in the interval.
    pub llc_accesses: u64,
    /// LLC misses in the interval.
    pub llc_misses: u64,
    /// Critical instructions issued in the interval.
    pub issued_critical: u64,
    /// Non-critical instructions issued in the interval.
    pub issued_noncritical: u64,
    /// Data prefetches issued in the interval (summed over units).
    pub pf_issued: u64,
    /// Useful data prefetches in the interval (summed over units).
    pub pf_useful: u64,
    /// Late data prefetches in the interval (summed over units).
    pub pf_late: u64,
}

impl TelemetrySample {
    /// Field values in [`FIELD_NAMES`] order.
    pub fn values(&self) -> [u64; SAMPLE_FIELDS] {
        [
            self.cycle,
            self.interval_cycles,
            self.retired,
            self.rob,
            self.rs,
            self.loads,
            self.stores,
            self.mshr,
            self.dram_outstanding,
            self.cond_branches,
            self.mispredicts,
            self.l1i_accesses,
            self.l1i_misses,
            self.l1d_accesses,
            self.l1d_misses,
            self.llc_accesses,
            self.llc_misses,
            self.issued_critical,
            self.issued_noncritical,
            self.pf_issued,
            self.pf_useful,
            self.pf_late,
        ]
    }

    /// Builds a sample from values in [`FIELD_NAMES`] order.
    pub fn from_values(v: [u64; SAMPLE_FIELDS]) -> TelemetrySample {
        TelemetrySample {
            cycle: v[0],
            interval_cycles: v[1],
            retired: v[2],
            rob: v[3],
            rs: v[4],
            loads: v[5],
            stores: v[6],
            mshr: v[7],
            dram_outstanding: v[8],
            cond_branches: v[9],
            mispredicts: v[10],
            l1i_accesses: v[11],
            l1i_misses: v[12],
            l1d_accesses: v[13],
            l1d_misses: v[14],
            llc_accesses: v[15],
            llc_misses: v[16],
            issued_critical: v[17],
            issued_noncritical: v[18],
            pf_issued: v[19],
            pf_useful: v[20],
            pf_late: v[21],
        }
    }

    /// Interval IPC.
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.interval_cycles.max(1) as f64
    }

    /// Interval branch mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        1000.0 * self.mispredicts as f64 / self.retired.max(1) as f64
    }

    /// Interval L1D miss ratio in `[0, 1]`.
    pub fn l1d_miss_ratio(&self) -> f64 {
        self.l1d_misses as f64 / self.l1d_accesses.max(1) as f64
    }

    /// Interval LLC miss ratio in `[0, 1]`.
    pub fn llc_miss_ratio(&self) -> f64 {
        self.llc_misses as f64 / self.llc_accesses.max(1) as f64
    }

    /// Share of interval issues that were critical, in `[0, 1]`.
    pub fn critical_issue_share(&self) -> f64 {
        let total = self.issued_critical + self.issued_noncritical;
        self.issued_critical as f64 / total.max(1) as f64
    }
}

/// The interval-telemetry log: the samples taken so far plus the previous
/// cumulative baseline the next sample will be differenced against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryLog {
    prev: TelemetryInputs,
    samples: Vec<TelemetrySample>,
}

// The baseline's occupancies are always zero (see `record`), so only its
// cumulative counters are captured.
fields! { TelemetryInputs {
    cycle, retired, cond_branches, mispredicts, l1i_accesses, l1i_misses, l1d_accesses, l1d_misses,
    llc_accesses, llc_misses, issued_critical, issued_noncritical, pf_issued, pf_useful, pf_late
} }
fields! { TelemetryLog { prev, samples as list } }

/// The sample's fields in [`TelemetrySample::values`] order.
impl Snapshot for TelemetrySample {
    fn put(&self, out: &mut Vec<u64>) {
        self.values().put(out);
    }
}

impl TelemetryLog {
    /// The cycle of the last sample (0 before any sample): the engine
    /// samples when `now >= last_cycle() + interval`.
    pub fn last_cycle(&self) -> u64 {
        self.prev.cycle
    }

    /// Differences `cum` against the stored baseline, appends the
    /// resulting interval sample, and advances the baseline.
    pub fn record(&mut self, cum: TelemetryInputs) {
        let p = &self.prev;
        self.samples.push(TelemetrySample {
            cycle: cum.cycle,
            interval_cycles: cum.cycle.saturating_sub(p.cycle),
            retired: cum.retired.saturating_sub(p.retired),
            rob: cum.rob,
            rs: cum.rs,
            loads: cum.loads,
            stores: cum.stores,
            mshr: cum.mshr,
            dram_outstanding: cum.dram_outstanding,
            cond_branches: cum.cond_branches.saturating_sub(p.cond_branches),
            mispredicts: cum.mispredicts.saturating_sub(p.mispredicts),
            l1i_accesses: cum.l1i_accesses.saturating_sub(p.l1i_accesses),
            l1i_misses: cum.l1i_misses.saturating_sub(p.l1i_misses),
            l1d_accesses: cum.l1d_accesses.saturating_sub(p.l1d_accesses),
            l1d_misses: cum.l1d_misses.saturating_sub(p.l1d_misses),
            llc_accesses: cum.llc_accesses.saturating_sub(p.llc_accesses),
            llc_misses: cum.llc_misses.saturating_sub(p.llc_misses),
            issued_critical: cum.issued_critical.saturating_sub(p.issued_critical),
            issued_noncritical: cum.issued_noncritical.saturating_sub(p.issued_noncritical),
            pf_issued: cum.pf_issued.saturating_sub(p.pf_issued),
            pf_useful: cum.pf_useful.saturating_sub(p.pf_useful),
            pf_late: cum.pf_late.saturating_sub(p.pf_late),
        });
        // Occupancies are instantaneous, never differenced: zero them in
        // the stored baseline so it matches its encoding exactly.
        self.prev = TelemetryInputs {
            rob: 0,
            rs: 0,
            loads: 0,
            stores: 0,
            mshr: 0,
            dram_outstanding: 0,
            ..cum
        };
    }

    /// The samples taken so far, oldest first.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Whether any sample has been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_differenced_against_the_baseline() {
        let mut log = TelemetryLog::default();
        log.record(TelemetryInputs {
            cycle: 100,
            retired: 50,
            l1d_accesses: 20,
            l1d_misses: 4,
            rob: 12,
            issued_critical: 3,
            issued_noncritical: 40,
            ..TelemetryInputs::default()
        });
        log.record(TelemetryInputs {
            cycle: 200,
            retired: 150,
            l1d_accesses: 60,
            l1d_misses: 5,
            rob: 7,
            issued_critical: 6,
            issued_noncritical: 130,
            ..TelemetryInputs::default()
        });
        let s = log.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].interval_cycles, 100);
        assert_eq!(s[0].retired, 50);
        assert_eq!(s[1].interval_cycles, 100);
        assert_eq!(s[1].retired, 100);
        assert_eq!(s[1].l1d_accesses, 40);
        assert_eq!(s[1].l1d_misses, 1);
        assert_eq!(s[1].rob, 7);
        assert_eq!(s[1].issued_critical, 3);
        assert!((s[1].ipc() - 1.0).abs() < 1e-12);
        assert_eq!(log.last_cycle(), 200);
    }

    #[test]
    fn values_round_trip_by_field_order() {
        let mut v = [0u64; SAMPLE_FIELDS];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as u64 + 1) * 3;
        }
        let s = TelemetrySample::from_values(v);
        assert_eq!(s.values(), v);
        assert_eq!(FIELD_NAMES.len(), SAMPLE_FIELDS);
    }
}
