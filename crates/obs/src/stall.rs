//! Per-PC stall attribution: every ROB-head stall cycle is charged to the
//! blocking instruction's PC and a stall class, PMU/PEBS-style — the
//! simulated analogue of the profiling evidence CRISP's Section 3.2
//! classifier consumes.

use std::collections::HashMap;

/// Why the ROB head could not retire this cycle (or, for
/// [`StallClass::Frontend`], why the ROB was empty).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallClass {
    /// Head is a load served by the L1 (includes store-forwarded loads).
    LoadL1,
    /// Head is a load served by the LLC.
    LoadLlc,
    /// Head is a load served by DRAM (an LLC miss).
    LoadDram,
    /// Head is a store draining.
    Store,
    /// Head is a mispredicted branch (unissued or resolving).
    BranchMispredict,
    /// Head is waiting for operands or a functional unit, or executing a
    /// non-memory operation.
    Fu,
    /// The ROB was empty: the frontend starved the backend. Charged to the
    /// next PC fetch will deliver; *not* part of the ROB-head stall total.
    Frontend,
}

/// Every class, in report-column order.
pub const STALL_CLASSES: [StallClass; 7] = [
    StallClass::LoadL1,
    StallClass::LoadLlc,
    StallClass::LoadDram,
    StallClass::Store,
    StallClass::BranchMispredict,
    StallClass::Fu,
    StallClass::Frontend,
];

impl StallClass {
    /// Column index in a per-PC row.
    pub fn index(self) -> usize {
        match self {
            StallClass::LoadL1 => 0,
            StallClass::LoadLlc => 1,
            StallClass::LoadDram => 2,
            StallClass::Store => 3,
            StallClass::BranchMispredict => 4,
            StallClass::Fu => 5,
            StallClass::Frontend => 6,
        }
    }

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            StallClass::LoadL1 => "load-l1",
            StallClass::LoadLlc => "load-llc",
            StallClass::LoadDram => "load-dram",
            StallClass::Store => "store",
            StallClass::BranchMispredict => "br-misp",
            StallClass::Fu => "fu",
            StallClass::Frontend => "frontend",
        }
    }
}

/// One PC's row in a top-K report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallRow {
    /// The charged program counter.
    pub pc: u64,
    /// Cycles per class, indexed by [`StallClass::index`].
    pub cycles: [u64; 7],
    /// Backend cycles (all classes except frontend).
    pub backend: u64,
}

/// The per-PC stall-attribution table.
///
/// Invariant (asserted by the engine's conservation test): the sum of all
/// backend-class cycles equals the engine's measured
/// `rob_head_stall_cycles` exactly — attribution never invents or loses a
/// cycle. Frontend (ROB-empty) cycles are tallied separately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallTable {
    rows: HashMap<u64, [u64; 7]>,
}

crisp_words::fields! { StallTable { rows as map } }

impl StallTable {
    /// Charges one stall cycle to `pc` under `class`.
    #[inline]
    pub fn charge(&mut self, pc: u64, class: StallClass) {
        self.charge_cycles(pc, class, 1);
    }

    /// Charges `cycles` stall cycles to `pc` under `class` at once.
    #[inline]
    pub fn charge_cycles(&mut self, pc: u64, class: StallClass, cycles: u64) {
        self.rows.entry(pc).or_default()[class.index()] += cycles;
    }

    /// Cycles charged to backend classes (everything except frontend):
    /// must equal the engine's ROB-head stall counter.
    pub fn backend_cycles(&self) -> u64 {
        self.rows.values().map(|r| r[..6].iter().sum::<u64>()).sum()
    }

    /// Cycles charged to the frontend (ROB-empty) class.
    pub fn frontend_cycles(&self) -> u64 {
        self.rows.values().map(|r| r[6]).sum()
    }

    /// Number of distinct charged PCs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cycles charged to one PC, per class.
    pub fn row(&self, pc: u64) -> Option<[u64; 7]> {
        self.rows.get(&pc).copied()
    }

    /// The `k` PCs with the most backend stall cycles, descending (ties
    /// broken by ascending PC so the report is deterministic).
    pub fn top_k(&self, k: usize) -> Vec<StallRow> {
        let mut rows: Vec<StallRow> = self
            .rows
            .iter()
            .map(|(&pc, &cycles)| StallRow {
                pc,
                cycles,
                backend: cycles[..6].iter().sum(),
            })
            .collect();
        rows.sort_by(|a, b| b.backend.cmp(&a.backend).then(a.pc.cmp(&b.pc)));
        rows.truncate(k);
        rows
    }

    /// Renders the top-K delinquent-PC report as an aligned text table.
    pub fn render_top_k(&self, k: usize) -> String {
        let rows = self.top_k(k);
        let backend_total = self.backend_cycles().max(1);
        let mut out = String::from("      pc    stall-cycles  share  ");
        for c in &STALL_CLASSES[..6] {
            out.push_str(&format!("{:>10}", c.label()));
        }
        out.push('\n');
        for r in &rows {
            out.push_str(&format!(
                "{:>8}  {:>14}  {:>4.1}%  ",
                format!("{:#x}", r.pc),
                r.backend,
                100.0 * r.backend as f64 / backend_total as f64
            ));
            for i in 0..6 {
                out.push_str(&format!("{:>10}", r.cycles[i]));
            }
            out.push('\n');
        }
        if self.frontend_cycles() > 0 {
            out.push_str(&format!(
                "frontend (ROB-empty) cycles: {}\n",
                self.frontend_cycles()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_words::Snapshot;

    #[test]
    fn charges_sum_and_rank() {
        let mut t = StallTable::default();
        for _ in 0..5 {
            t.charge(0x40, StallClass::LoadDram);
        }
        t.charge(0x40, StallClass::Fu);
        for _ in 0..3 {
            t.charge(0x44, StallClass::Store);
        }
        t.charge(0x48, StallClass::Frontend);
        assert_eq!(t.backend_cycles(), 9);
        assert_eq!(t.frontend_cycles(), 1);
        let top = t.top_k(2);
        assert_eq!(top[0].pc, 0x40);
        assert_eq!(top[0].backend, 6);
        assert_eq!(top[0].cycles[StallClass::LoadDram.index()], 5);
        assert_eq!(top[1].pc, 0x44);
        let report = t.render_top_k(2);
        assert!(report.contains("0x40"), "{report}");
        assert!(
            report.contains("frontend (ROB-empty) cycles: 1"),
            "{report}"
        );
    }

    #[test]
    fn snapshot_round_trips_and_rejects_garbage() {
        let mut t = StallTable::default();
        t.charge(0x10, StallClass::LoadLlc);
        t.charge(0x20, StallClass::BranchMispredict);
        t.charge(0x20, StallClass::BranchMispredict);
        let w = t.snapshot_words();
        let mut fresh = StallTable::default();
        fresh.restore_words(&w).unwrap();
        assert_eq!(fresh, t);
        assert!(fresh.restore_words(&w[..w.len() - 1]).is_err());
        let mut trailing = w.clone();
        trailing.push(0);
        assert!(fresh.restore_words(&trailing).is_err());
        // Duplicate PCs are rejected.
        let mut dup = vec![2u64];
        dup.push(7);
        dup.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0]);
        dup.push(7);
        dup.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0]);
        assert!(fresh.restore_words(&dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn ties_break_by_pc() {
        let mut t = StallTable::default();
        t.charge(0x30, StallClass::Fu);
        t.charge(0x20, StallClass::Fu);
        let top = t.top_k(2);
        assert_eq!(top[0].pc, 0x20);
        assert_eq!(top[1].pc, 0x30);
    }
}
