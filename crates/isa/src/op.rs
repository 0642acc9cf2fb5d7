use std::fmt;

/// The functional-unit class an instruction executes on.
///
/// Port counts come from Table 1 of the paper: 4 ALU, 2 load, 1 store.
/// Long-latency arithmetic (`Mul`, `Div`, floating point) shares the ALU
/// ports, as on Skylake, but with their own latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Simple and complex arithmetic, branches.
    Alu,
    /// Load-port operations (address generation + cache access).
    Load,
    /// Store-port operations.
    Store,
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Alu => "alu",
            FuClass::Load => "load",
            FuClass::Store => "store",
        };
        f.write_str(s)
    }
}

/// Integer ALU operation selector for [`Opcode::Alu`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Logical shift right (modulo 64).
    Shr,
    /// Set-if-less-than, unsigned: `dst = (a < b) as u64`.
    Sltu,
    /// Set-if-less-than, signed.
    Slt,
    /// Copy of the first source (plus immediate).
    Mov,
}

/// Branch condition, evaluated over two register sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`, signed.
    Lt,
    /// `a >= b`, signed.
    Ge,
    /// `a < b`, unsigned.
    Ltu,
    /// `a >= b`, unsigned.
    Geu,
}

impl Cond {
    /// Evaluates the condition on two operand values.
    ///
    /// # Example
    ///
    /// ```
    /// use crisp_isa::Cond;
    /// assert!(Cond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
    /// assert!(!Cond::Ltu.eval(u64::MAX, 0));
    /// ```
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// The condition with inverted truth value.
    #[inline]
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }
}

/// Instruction opcode.
///
/// Latencies are fixed per opcode following the paper's Section 3.5
/// ("we assign a fixed latency according to the processor implementation")
/// with values taken from Skylake instruction tables; load latency is
/// dynamic (cache hierarchy) and the value reported here is only the
/// address-generation component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Integer ALU operation; 1-cycle latency.
    Alu(AluOp),
    /// Integer multiply; 3-cycle latency.
    Mul,
    /// Integer divide; 20-cycle latency, unpipelined.
    Div,
    /// Floating-point add/sub; 4-cycle latency.
    FAdd,
    /// Floating-point multiply; 4-cycle latency.
    FMul,
    /// Fused multiply-add; 4-cycle latency.
    FMa,
    /// Floating-point divide; 14-cycle latency, unpipelined.
    FDiv,
    /// Memory load: `dst = mem[src0 + imm]`.
    Load,
    /// Memory store: `mem[src0 + imm] = src1`.
    Store,
    /// Conditional direct branch on two register operands.
    Branch(Cond),
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump through a register (e.g. dispatch tables).
    JumpInd,
    /// Direct call; writes the return address to [`crate::Reg::LINK`].
    Call,
    /// Return through the link register.
    Ret,
    /// No operation (used for padding / alignment studies).
    Nop,
    /// Terminates execution.
    Halt,
}

impl Opcode {
    /// The functional-unit class this opcode occupies.
    #[inline]
    pub fn fu_class(self) -> FuClass {
        match self {
            Opcode::Load => FuClass::Load,
            Opcode::Store => FuClass::Store,
            _ => FuClass::Alu,
        }
    }

    /// Fixed execution latency in cycles (for loads: address-generation
    /// only; the cache hierarchy adds the access latency dynamically).
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            Opcode::Alu(_) | Opcode::Nop | Opcode::Halt => 1,
            Opcode::Branch(_) | Opcode::Jump | Opcode::JumpInd | Opcode::Call | Opcode::Ret => 1,
            Opcode::Mul => 3,
            Opcode::Div => 20,
            Opcode::FAdd => 4,
            Opcode::FMul => 4,
            Opcode::FMa => 4,
            Opcode::FDiv => 14,
            Opcode::Load => 1,
            Opcode::Store => 1,
        }
    }

    /// Whether the FU is blocked for the whole latency (unpipelined).
    #[inline]
    pub fn unpipelined(self) -> bool {
        matches!(self, Opcode::Div | Opcode::FDiv)
    }

    /// Whether this opcode redirects control flow (conditionally or not).
    #[inline]
    pub fn is_ctrl(self) -> bool {
        matches!(
            self,
            Opcode::Branch(_) | Opcode::Jump | Opcode::JumpInd | Opcode::Call | Opcode::Ret
        )
    }

    /// Whether this is a conditional branch.
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Opcode::Branch(_))
    }

    /// Whether this opcode's target comes from a register (indirect).
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(self, Opcode::JumpInd | Opcode::Ret)
    }

    /// Whether this is a memory operation.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Short mnemonic for display.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Alu(AluOp::Add) => "add",
            Opcode::Alu(AluOp::Sub) => "sub",
            Opcode::Alu(AluOp::And) => "and",
            Opcode::Alu(AluOp::Or) => "or",
            Opcode::Alu(AluOp::Xor) => "xor",
            Opcode::Alu(AluOp::Shl) => "shl",
            Opcode::Alu(AluOp::Shr) => "shr",
            Opcode::Alu(AluOp::Sltu) => "sltu",
            Opcode::Alu(AluOp::Slt) => "slt",
            Opcode::Alu(AluOp::Mov) => "mov",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::FAdd => "fadd",
            Opcode::FMul => "fmul",
            Opcode::FMa => "fma",
            Opcode::FDiv => "fdiv",
            Opcode::Load => "ld",
            Opcode::Store => "st",
            Opcode::Branch(Cond::Eq) => "beq",
            Opcode::Branch(Cond::Ne) => "bne",
            Opcode::Branch(Cond::Lt) => "blt",
            Opcode::Branch(Cond::Ge) => "bge",
            Opcode::Branch(Cond::Ltu) => "bltu",
            Opcode::Branch(Cond::Geu) => "bgeu",
            Opcode::Jump => "jmp",
            Opcode::JumpInd => "jmpi",
            Opcode::Call => "call",
            Opcode::Ret => "ret",
            Opcode::Nop => "nop",
            Opcode::Halt => "halt",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        assert!(Cond::Lt.eval(u64::MAX, 0));
        assert!(!Cond::Ltu.eval(u64::MAX, 0));
        assert!(Cond::Geu.eval(u64::MAX, 0));
        assert!(!Cond::Ge.eval(u64::MAX, 0));
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
    }

    #[test]
    fn cond_negate_is_involution_and_inverts() {
        let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
        for c in conds {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0u64, 0u64), (1, 2), (u64::MAX, 1), (7, 7)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn fu_classes() {
        assert_eq!(Opcode::Load.fu_class(), FuClass::Load);
        assert_eq!(Opcode::Store.fu_class(), FuClass::Store);
        assert_eq!(Opcode::Mul.fu_class(), FuClass::Alu);
        assert_eq!(Opcode::Branch(Cond::Eq).fu_class(), FuClass::Alu);
    }

    #[test]
    fn latencies_are_positive_and_div_is_longest_int() {
        for op in [
            Opcode::Alu(AluOp::Add),
            Opcode::Mul,
            Opcode::Div,
            Opcode::FAdd,
            Opcode::FDiv,
            Opcode::Load,
            Opcode::Store,
            Opcode::Nop,
        ] {
            assert!(op.latency() >= 1);
        }
        assert!(Opcode::Div.latency() > Opcode::Mul.latency());
        assert!(Opcode::Mul.latency() > Opcode::Alu(AluOp::Add).latency());
    }

    #[test]
    fn ctrl_classification() {
        assert!(Opcode::Branch(Cond::Eq).is_ctrl());
        assert!(Opcode::Branch(Cond::Eq).is_cond_branch());
        assert!(Opcode::Jump.is_ctrl());
        assert!(!Opcode::Jump.is_cond_branch());
        assert!(Opcode::Ret.is_indirect());
        assert!(Opcode::JumpInd.is_indirect());
        assert!(!Opcode::Call.is_indirect());
        assert!(!Opcode::Load.is_ctrl());
        assert!(Opcode::Load.is_mem());
        assert!(Opcode::Store.is_mem());
        assert!(!Opcode::Mul.is_mem());
    }

    #[test]
    fn unpipelined_ops() {
        assert!(Opcode::Div.unpipelined());
        assert!(Opcode::FDiv.unpipelined());
        assert!(!Opcode::Mul.unpipelined());
    }

    #[test]
    fn mnemonics_unique_for_distinct_ops() {
        let ops = [
            Opcode::Alu(AluOp::Add),
            Opcode::Alu(AluOp::Sub),
            Opcode::Mul,
            Opcode::Div,
            Opcode::Load,
            Opcode::Store,
            Opcode::Jump,
            Opcode::Ret,
            Opcode::Halt,
        ];
        for (i, a) in ops.iter().enumerate() {
            for b in ops.iter().skip(i + 1) {
                assert_ne!(a.mnemonic(), b.mnemonic());
            }
        }
    }
}
