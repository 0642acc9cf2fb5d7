use crate::{Cond, FuClass, Opcode, Pc, Reg};
use std::fmt;

/// Access width of a memory operation, in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes (default).
    #[default]
    B8,
}

impl MemWidth {
    /// The width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Control-transfer kind, used by the branch-target buffer and the
/// return-address stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtrlKind {
    /// Conditional direct branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump.
    IndirectJump,
    /// Direct call (pushes the return-address stack).
    Call,
    /// Return (pops the return-address stack).
    Ret,
}

/// A static (decoded) instruction of the mini-ISA.
///
/// The instruction's program counter is its index in the owning
/// [`crate::Program`]; byte addresses are derived from the program
/// [`crate::Layout`], which accounts for the variable [`StaticInst::size`]
/// and for injected CRISP criticality prefixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticInst {
    /// The opcode.
    pub op: Opcode,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Up to three source registers. `None` slots and [`Reg::ZERO`] do not
    /// create data dependencies.
    pub srcs: [Option<Reg>; 3],
    /// Immediate operand (ALU immediate, memory displacement).
    pub imm: i64,
    /// Direct control-transfer target (instruction index), if any.
    pub target: Option<Pc>,
    /// Memory access width (meaningful for loads and stores only).
    pub width: MemWidth,
    /// Encoded size in bytes (x86-flavoured, 2..=8). The CRISP prefix adds
    /// one byte on top of this when the instruction is tagged critical.
    pub size: u8,
}

impl StaticInst {
    /// Creates an instruction with no operands (e.g. `nop`, `halt`).
    pub fn nullary(op: Opcode) -> StaticInst {
        StaticInst {
            op,
            dst: None,
            srcs: [None; 3],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(op),
        }
    }

    /// The functional-unit class of this instruction.
    #[inline]
    pub fn fu_class(&self) -> FuClass {
        self.op.fu_class()
    }

    /// Iterates over the source registers that create true data
    /// dependencies (skips empty slots and the zero register).
    pub fn dep_srcs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied().filter(|r| !r.is_zero())
    }

    /// The destination register if it creates a dependency (writes to the
    /// zero register are discarded).
    #[inline]
    pub fn dep_dst(&self) -> Option<Reg> {
        self.dst.filter(|r| !r.is_zero())
    }

    /// Control-transfer kind, or `None` for non-control instructions.
    pub fn ctrl_kind(&self) -> Option<CtrlKind> {
        match self.op {
            Opcode::Branch(_) => Some(CtrlKind::CondBranch),
            Opcode::Jump => Some(CtrlKind::Jump),
            Opcode::JumpInd => Some(CtrlKind::IndirectJump),
            Opcode::Call => Some(CtrlKind::Call),
            Opcode::Ret => Some(CtrlKind::Ret),
            _ => None,
        }
    }

    /// The branch condition, if this is a conditional branch.
    pub fn cond(&self) -> Option<Cond> {
        match self.op {
            Opcode::Branch(c) => Some(c),
            _ => None,
        }
    }

    /// Whether this instruction reads memory.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.op == Opcode::Load
    }

    /// Whether this instruction writes memory.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.op == Opcode::Store
    }
}

/// A plausible x86-flavoured encoded size for each opcode.
pub(crate) fn default_size(op: Opcode) -> u8 {
    match op {
        Opcode::Nop => 1,
        Opcode::Alu(_) => 3,
        Opcode::Mul | Opcode::Div => 4,
        Opcode::FAdd | Opcode::FMul | Opcode::FMa | Opcode::FDiv => 5,
        Opcode::Load | Opcode::Store => 4,
        Opcode::Branch(_) => 3,
        Opcode::Jump | Opcode::Call => 5,
        Opcode::JumpInd => 3,
        Opcode::Ret => 1,
        Opcode::Halt => 2,
    }
}

impl fmt::Display for StaticInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        for s in self.srcs.iter().flatten() {
            write!(f, " {s}")?;
        }
        if self.imm != 0 || self.op.is_mem() {
            write!(f, " #{}", self.imm)?;
        }
        if let Some(t) = self.target {
            write!(f, " @{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AluOp;

    fn add_inst() -> StaticInst {
        StaticInst {
            op: Opcode::Alu(AluOp::Add),
            dst: Some(Reg::new(1)),
            srcs: [Some(Reg::new(2)), Some(Reg::ZERO), None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: 3,
        }
    }

    #[test]
    fn dep_srcs_skips_zero_and_none() {
        let i = add_inst();
        let deps: Vec<Reg> = i.dep_srcs().collect();
        assert_eq!(deps, vec![Reg::new(2)]);
    }

    #[test]
    fn dep_dst_skips_zero() {
        let mut i = add_inst();
        assert_eq!(i.dep_dst(), Some(Reg::new(1)));
        i.dst = Some(Reg::ZERO);
        assert_eq!(i.dep_dst(), None);
    }

    #[test]
    fn ctrl_kind_mapping() {
        assert_eq!(
            StaticInst::nullary(Opcode::Jump).ctrl_kind(),
            Some(CtrlKind::Jump)
        );
        assert_eq!(
            StaticInst::nullary(Opcode::Ret).ctrl_kind(),
            Some(CtrlKind::Ret)
        );
        assert_eq!(
            StaticInst::nullary(Opcode::Branch(Cond::Eq)).ctrl_kind(),
            Some(CtrlKind::CondBranch)
        );
        assert_eq!(StaticInst::nullary(Opcode::Load).ctrl_kind(), None);
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
        assert_eq!(MemWidth::default(), MemWidth::B8);
    }

    #[test]
    fn default_sizes_in_encodable_range() {
        for op in [
            Opcode::Nop,
            Opcode::Alu(AluOp::Add),
            Opcode::Mul,
            Opcode::Load,
            Opcode::Store,
            Opcode::Branch(Cond::Eq),
            Opcode::Jump,
            Opcode::Ret,
            Opcode::Halt,
        ] {
            let s = default_size(op);
            assert!((1..=8).contains(&s), "{op}: size {s}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!add_inst().to_string().is_empty());
        assert!(StaticInst::nullary(Opcode::Halt)
            .to_string()
            .contains("halt"));
    }
}
