use crisp_isa::{CtrlKind, StaticInst};
use crisp_uarch::{Btb, DirectionPredictor, IndirectPredictor, Ras, Tage, TageConfig};

/// Branch-prediction-unit configuration.
#[derive(Clone, Copy, Debug)]
pub struct BpuConfig {
    /// TAGE configuration for conditional-branch direction.
    pub tage: TageConfig,
    /// BTB entries (Table 1: 8K).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Indirect-target-predictor entries.
    pub indirect_entries: usize,
}

impl Default for BpuConfig {
    fn default() -> BpuConfig {
        BpuConfig {
            tage: TageConfig::default(),
            btb_entries: 8192,
            btb_ways: 4,
            ras_depth: 32,
            indirect_entries: 8192,
        }
    }
}

/// The prediction outcome for one fetched control instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchOutcome {
    /// The fetched instruction redirects fetch and the frontend got the
    /// direction or target wrong — the pipeline must stall fetch until this
    /// instruction resolves.
    pub mispredicted: bool,
    /// The control transfer was taken but missed the BTB (a short fetch
    /// bubble while decode discovers the branch).
    pub btb_miss_taken: bool,
}

/// The decoupled frontend's branch prediction unit: TAGE + BTB + RAS +
/// indirect predictor, driven in fetch order.
///
/// The unit is fed the *actual* outcome with every prediction (the trace is
/// the correct path), so predictors train at fetch — the standard
/// trace-driven approximation of retire-time training.
#[derive(Clone, Debug)]
pub struct BranchPredictionUnit {
    tage: Tage,
    btb: Btb,
    ras: Ras,
    indirect: IndirectPredictor,
    cond_branches: u64,
    cond_mispredicts: u64,
    indirect_mispredicts: u64,
    ras_mispredicts: u64,
}

impl BranchPredictionUnit {
    /// Builds the BPU.
    pub fn new(config: BpuConfig) -> BranchPredictionUnit {
        BranchPredictionUnit {
            tage: Tage::new(config.tage),
            btb: Btb::new(config.btb_entries, config.btb_ways),
            ras: Ras::new(config.ras_depth),
            indirect: IndirectPredictor::new(config.indirect_entries, 16),
            cond_branches: 0,
            cond_mispredicts: 0,
            indirect_mispredicts: 0,
            ras_mispredicts: 0,
        }
    }

    /// Predicts the control instruction `inst` fetched at byte address
    /// `pc_addr`, with actual outcome `taken` and actual successor byte
    /// address `target_addr` (the fall-through address for not-taken
    /// branches is `fallthrough_addr`).
    pub fn observe(
        &mut self,
        inst: &StaticInst,
        pc_addr: u64,
        taken: bool,
        target_addr: u64,
        fallthrough_addr: u64,
    ) -> BranchOutcome {
        let kind = match inst.ctrl_kind() {
            Some(k) => k,
            None => return BranchOutcome::default(),
        };
        let mut out = BranchOutcome::default();
        let btb_hit = self.btb.lookup(pc_addr).is_some();
        match kind {
            CtrlKind::CondBranch => {
                self.cond_branches += 1;
                let pred = self.tage.predict(pc_addr);
                self.tage.update(pc_addr, taken, pred);
                if pred != taken {
                    out.mispredicted = true;
                    self.cond_mispredicts += 1;
                } else if taken && !btb_hit {
                    out.btb_miss_taken = true;
                }
                self.btb.insert(pc_addr, target_addr, kind);
            }
            CtrlKind::Jump => {
                // Direct jumps resolve at decode; a BTB miss costs a bubble.
                if !btb_hit {
                    out.btb_miss_taken = true;
                }
                self.btb.insert(pc_addr, target_addr, kind);
            }
            CtrlKind::Call => {
                if !btb_hit {
                    out.btb_miss_taken = true;
                }
                self.ras.push(fallthrough_addr);
                self.btb.insert(pc_addr, target_addr, kind);
            }
            CtrlKind::Ret => {
                match self.ras.pop() {
                    Some(pred_target) if pred_target == target_addr => {}
                    _ => {
                        out.mispredicted = true;
                        self.ras_mispredicts += 1;
                    }
                }
                self.btb.insert(pc_addr, target_addr, kind);
            }
            CtrlKind::IndirectJump => {
                let pred = self.indirect.predict(pc_addr);
                if pred != Some(target_addr) {
                    out.mispredicted = true;
                    self.indirect_mispredicts += 1;
                }
                self.indirect.update(pc_addr, target_addr);
                self.btb.insert(pc_addr, target_addr, kind);
            }
        }
        out
    }

    /// `(conditional branches, conditional mispredicts, indirect
    /// mispredicts, return mispredicts)`.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.cond_branches,
            self.cond_mispredicts,
            self.indirect_mispredicts,
            self.ras_mispredicts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_isa::{Cond, Opcode, StaticInst};

    fn branch_inst() -> StaticInst {
        StaticInst::nullary(Opcode::Branch(Cond::Eq))
    }

    fn call_inst() -> StaticInst {
        StaticInst::nullary(Opcode::Call)
    }

    fn ret_inst() -> StaticInst {
        StaticInst::nullary(Opcode::Ret)
    }

    #[test]
    fn biased_branch_stops_mispredicting() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let inst = branch_inst();
        let mut late_mispredicts = 0;
        for i in 0..200 {
            let out = bpu.observe(&inst, 0x100, true, 0x40, 0x103);
            if i >= 100 && out.mispredicted {
                late_mispredicts += 1;
            }
        }
        assert_eq!(late_mispredicts, 0);
    }

    #[test]
    fn call_ret_pairs_predict_via_ras() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let call = call_inst();
        let ret = ret_inst();
        // Matching call/ret: the return is predicted after warm-up.
        let mut mispredicts = 0;
        for i in 0..10 {
            bpu.observe(&call, 0x10, true, 0x100, 0x15);
            let out = bpu.observe(&ret, 0x110, true, 0x15, 0x111);
            if i > 0 && out.mispredicted {
                mispredicts += 1;
            }
        }
        assert_eq!(mispredicts, 0);
    }

    #[test]
    fn unbalanced_ret_mispredicts() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let out = bpu.observe(&ret_inst(), 0x100, true, 0x555, 0x101);
        assert!(out.mispredicted, "empty RAS must mispredict");
    }

    #[test]
    fn first_taken_branch_pays_btb_miss() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let inst = branch_inst();
        // Train direction first via a not-taken outcome at another pc so
        // the default prediction may match; check the first *taken*
        // correct prediction flags a BTB miss, not a mispredict.
        let mut saw_btb_miss = false;
        for _ in 0..50 {
            let out = bpu.observe(&inst, 0x200, true, 0x80, 0x203);
            if !out.mispredicted && out.btb_miss_taken {
                saw_btb_miss = true;
                break;
            }
        }
        assert!(saw_btb_miss);
        // After insertion, no more BTB misses.
        let out = bpu.observe(&inst, 0x200, true, 0x80, 0x203);
        assert!(!out.btb_miss_taken);
    }

    #[test]
    fn stable_indirect_target_learns() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let jmp = StaticInst::nullary(Opcode::JumpInd);
        let first = bpu.observe(&jmp, 0x300, true, 0x1000, 0x303);
        assert!(first.mispredicted, "cold indirect target unknown");
        let mut late = 0;
        for i in 0..50 {
            let out = bpu.observe(&jmp, 0x300, true, 0x1000, 0x303);
            if i > 5 && out.mispredicted {
                late += 1;
            }
        }
        assert_eq!(late, 0);
    }

    #[test]
    fn non_ctrl_instruction_is_ignored() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let nop = StaticInst::nullary(Opcode::Nop);
        let out = bpu.observe(&nop, 0x1, false, 0, 0x2);
        assert_eq!(out, BranchOutcome::default());
        assert_eq!(bpu.stats().0, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut bpu = BranchPredictionUnit::new(BpuConfig::default());
        let inst = branch_inst();
        for i in 0..10 {
            bpu.observe(&inst, 0x100, i % 2 == 0, 0x40, 0x103);
        }
        let (branches, mispredicts, _, _) = bpu.stats();
        assert_eq!(branches, 10);
        assert!(mispredicts > 0);
    }
}
