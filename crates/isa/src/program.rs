use crate::inst::default_size;
use crate::{AluOp, Cond, MemWidth, Opcode, Reg, StaticInst};
use std::collections::HashMap;
use std::fmt;

/// Program counter: the index of an instruction within its [`Program`].
///
/// Byte addresses (needed by the instruction cache and the footprint
/// analysis) are derived through [`Layout`].
pub type Pc = u32;

/// Errors produced while assembling a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was referenced but never bound to a location.
    UnboundLabel(u32),
    /// A label was bound more than once.
    RebindLabel(u32),
    /// The program contains no `halt` instruction.
    MissingHalt,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel(l) => write!(f, "label L{l} referenced but never bound"),
            ProgramError::RebindLabel(l) => write!(f, "label L{l} bound twice"),
            ProgramError::MissingHalt => write!(f, "program has no halt instruction"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A label handle returned by [`ProgramBuilder::label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// An immutable static program: a sequence of [`StaticInst`]s indexed by
/// [`Pc`].
///
/// Constructed through [`ProgramBuilder`]. A program always ends with at
/// least one reachable `halt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    insts: Vec<StaticInst>,
    entry: Pc,
}

impl Program {
    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn inst(&self, pc: Pc) -> &StaticInst {
        &self.insts[pc as usize]
    }

    /// The instruction at `pc`, or `None` if out of range.
    #[inline]
    pub fn get(&self, pc: Pc) -> Option<&StaticInst> {
        self.insts.get(pc as usize)
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (never true for built programs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry point.
    #[inline]
    pub fn entry(&self) -> Pc {
        self.entry
    }

    /// Iterates over `(pc, inst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &StaticInst)> {
        self.insts.iter().enumerate().map(|(i, x)| (i as Pc, x))
    }

    /// Total static code size in bytes, without criticality prefixes.
    pub fn static_bytes(&self) -> u64 {
        self.insts.iter().map(|i| i.size as u64).sum()
    }

    /// Computes the byte-address layout of the program, optionally with a
    /// one-byte CRISP prefix on the instructions for which
    /// `is_critical(pc)` returns true (paper Section 5.7).
    pub fn layout(&self, mut is_critical: impl FnMut(Pc) -> bool) -> Layout {
        let mut offsets = Vec::with_capacity(self.insts.len() + 1);
        let mut off = 0u64;
        for (pc, inst) in self.insts.iter().enumerate() {
            offsets.push(off);
            let prefix = u64::from(is_critical(pc as Pc));
            off += inst.size as u64 + prefix;
        }
        offsets.push(off);
        Layout { offsets }
    }
}

impl std::fmt::Display for Program {
    /// Renders a disassembly listing: one instruction per line with its
    /// pc, e.g. for debugging workload builders.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (pc, inst) in self.iter() {
            writeln!(f, "{pc:>6}: {inst}")?;
        }
        Ok(())
    }
}

/// Byte-address layout of a [`Program`]: maps each [`Pc`] to the byte
/// address of its first encoded byte.
///
/// Two layouts of the same program differ when criticality prefixes are
/// injected; comparing their [`Layout::code_bytes`] yields the static
/// footprint overhead of Figure 12.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    offsets: Vec<u64>,
}

impl Layout {
    /// Byte address of the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn addr(&self, pc: Pc) -> u64 {
        self.offsets[pc as usize]
    }

    /// Encoded size in bytes of the instruction at `pc` (including any
    /// criticality prefix).
    #[inline]
    pub fn size(&self, pc: Pc) -> u64 {
        self.offsets[pc as usize + 1] - self.offsets[pc as usize]
    }

    /// Total code bytes.
    #[inline]
    pub fn code_bytes(&self) -> u64 {
        *self.offsets.last().expect("layout is never empty")
    }
}

/// Incremental assembler for [`Program`]s.
///
/// Control flow uses forward-referencable labels:
///
/// ```
/// use crisp_isa::{ProgramBuilder, Reg, Cond, AluOp};
/// let mut b = ProgramBuilder::new();
/// let done = b.label();
/// b.branch(Cond::Eq, Reg::new(1), Reg::ZERO, done);
/// b.alu_ri(AluOp::Add, Reg::new(2), Reg::new(2), 1);
/// b.bind(done);
/// b.halt();
/// let p = b.build();
/// assert_eq!(p.inst(0).target, Some(2));
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<StaticInst>,
    labels: HashMap<u32, Pc>,
    fixups: Vec<(Pc, u32)>,
    next_label: u32,
    has_halt: bool,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Current instruction index (the pc the next emitted instruction will
    /// receive).
    #[inline]
    pub fn here(&self) -> Pc {
        self.insts.len() as Pc
    }

    /// Allocates a fresh, not-yet-bound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current location.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let prev = self.labels.insert(label.0, self.here());
        assert!(prev.is_none(), "label L{} bound twice", label.0);
    }

    /// Emits a raw instruction and returns its pc.
    pub fn push(&mut self, inst: StaticInst) -> Pc {
        let pc = self.here();
        if inst.op == Opcode::Halt {
            self.has_halt = true;
        }
        self.insts.push(inst);
        pc
    }

    fn push_ctrl(&mut self, op: Opcode, srcs: [Option<Reg>; 3], label: Label) -> Pc {
        let pc = self.push(StaticInst {
            op,
            dst: if op == Opcode::Call {
                Some(Reg::LINK)
            } else {
                None
            },
            srcs,
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(op),
        });
        self.fixups.push((pc, label.0));
        pc
    }

    /// Emits `dst = a <op> b`.
    pub fn alu_rr(&mut self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> Pc {
        self.push(StaticInst {
            op: Opcode::Alu(op),
            dst: Some(dst),
            srcs: [Some(a), Some(b), None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(Opcode::Alu(op)),
        })
    }

    /// Emits `dst = a <op> imm`.
    pub fn alu_ri(&mut self, op: AluOp, dst: Reg, a: Reg, imm: i64) -> Pc {
        self.push(StaticInst {
            op: Opcode::Alu(op),
            dst: Some(dst),
            srcs: [Some(a), None, None],
            imm,
            target: None,
            width: MemWidth::B8,
            size: default_size(Opcode::Alu(op)),
        })
    }

    /// Emits a load-immediate: `dst = imm`.
    pub fn li(&mut self, dst: Reg, imm: i64) -> Pc {
        self.alu_ri(AluOp::Mov, dst, Reg::ZERO, imm)
    }

    /// Emits `dst = a * b` (integer multiply).
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) -> Pc {
        self.push(StaticInst {
            op: Opcode::Mul,
            dst: Some(dst),
            srcs: [Some(a), Some(b), None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(Opcode::Mul),
        })
    }

    /// Emits `dst = a / b` (integer divide; division by zero yields zero in
    /// the emulator).
    pub fn div(&mut self, dst: Reg, a: Reg, b: Reg) -> Pc {
        self.push(StaticInst {
            op: Opcode::Div,
            dst: Some(dst),
            srcs: [Some(a), Some(b), None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(Opcode::Div),
        })
    }

    /// Emits a floating-point style operation (`FAdd`, `FMul`, `FMa`,
    /// `FDiv`); semantics are integer but latency is floating-point.
    pub fn fp(&mut self, op: Opcode, dst: Reg, a: Reg, b: Reg) -> Pc {
        debug_assert!(matches!(
            op,
            Opcode::FAdd | Opcode::FMul | Opcode::FMa | Opcode::FDiv
        ));
        self.push(StaticInst {
            op,
            dst: Some(dst),
            srcs: [Some(a), Some(b), None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(op),
        })
    }

    /// Emits `dst = mem[base + off]` with the given access width in bytes
    /// (1, 2, 4 or 8).
    pub fn load(&mut self, dst: Reg, base: Reg, off: i64, width_bytes: u8) -> Pc {
        self.push(StaticInst {
            op: Opcode::Load,
            dst: Some(dst),
            srcs: [Some(base), None, None],
            imm: off,
            target: None,
            width: width_from_bytes(width_bytes),
            size: default_size(Opcode::Load),
        })
    }

    /// Emits `dst = mem[base + index + off]` (two-register addressing).
    pub fn load_idx(&mut self, dst: Reg, base: Reg, index: Reg, off: i64, width_bytes: u8) -> Pc {
        self.push(StaticInst {
            op: Opcode::Load,
            dst: Some(dst),
            srcs: [Some(base), Some(index), None],
            imm: off,
            target: None,
            width: width_from_bytes(width_bytes),
            size: default_size(Opcode::Load),
        })
    }

    /// Emits `mem[base + off] = data`.
    pub fn store(&mut self, base: Reg, off: i64, data: Reg, width_bytes: u8) -> Pc {
        self.push(StaticInst {
            op: Opcode::Store,
            dst: None,
            srcs: [Some(base), None, Some(data)],
            imm: off,
            target: None,
            width: width_from_bytes(width_bytes),
            size: default_size(Opcode::Store),
        })
    }

    /// Emits a conditional branch to `label` taken when `cond(a, b)` holds.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: Label) -> Pc {
        self.push_ctrl(Opcode::Branch(cond), [Some(a), Some(b), None], label)
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> Pc {
        self.push_ctrl(Opcode::Jump, [None; 3], label)
    }

    /// Emits an indirect jump through `target_reg`. The register holds an
    /// *instruction index* (pc), not a byte address.
    pub fn jump_ind(&mut self, target_reg: Reg) -> Pc {
        self.push(StaticInst {
            op: Opcode::JumpInd,
            dst: None,
            srcs: [Some(target_reg), None, None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(Opcode::JumpInd),
        })
    }

    /// Emits a direct call to `label`; the return pc is written to
    /// [`Reg::LINK`].
    pub fn call(&mut self, label: Label) -> Pc {
        self.push_ctrl(Opcode::Call, [None; 3], label)
    }

    /// Emits a return through [`Reg::LINK`].
    pub fn ret(&mut self) -> Pc {
        self.push(StaticInst {
            op: Opcode::Ret,
            dst: None,
            srcs: [Some(Reg::LINK), None, None],
            imm: 0,
            target: None,
            width: MemWidth::B8,
            size: default_size(Opcode::Ret),
        })
    }

    /// Emits a `nop`.
    pub fn nop(&mut self) -> Pc {
        self.push(StaticInst::nullary(Opcode::Nop))
    }

    /// Emits a `halt`.
    pub fn halt(&mut self) -> Pc {
        self.push(StaticInst::nullary(Opcode::Halt))
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnboundLabel`] if a referenced label was
    /// never bound, or [`ProgramError::MissingHalt`] if no `halt` was
    /// emitted.
    pub fn try_build(mut self) -> Result<Program, ProgramError> {
        if !self.has_halt {
            return Err(ProgramError::MissingHalt);
        }
        for (pc, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or(ProgramError::UnboundLabel(*label))?;
            self.insts[*pc as usize].target = Some(target);
        }
        Ok(Program {
            insts: self.insts,
            entry: 0,
        })
    }

    /// Resolves labels and produces the program.
    ///
    /// # Panics
    ///
    /// Panics on the error conditions of [`ProgramBuilder::try_build`].
    pub fn build(self) -> Program {
        self.try_build().expect("program assembly failed")
    }
}

fn width_from_bytes(bytes: u8) -> MemWidth {
    match bytes {
        1 => MemWidth::B1,
        2 => MemWidth::B2,
        4 => MemWidth::B4,
        8 => MemWidth::B8,
        _ => panic!("unsupported memory width: {bytes} bytes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_loop() -> Program {
        let mut b = ProgramBuilder::new();
        let r1 = Reg::new(1);
        b.li(r1, 4);
        let top = b.label();
        b.bind(top);
        b.alu_ri(AluOp::Sub, r1, r1, 1);
        b.branch(Cond::Ne, r1, Reg::ZERO, top);
        b.halt();
        b.build()
    }

    #[test]
    fn backward_label_resolution() {
        let p = tiny_loop();
        assert_eq!(p.inst(2).target, Some(1));
    }

    #[test]
    fn forward_label_resolution() {
        let mut b = ProgramBuilder::new();
        let done = b.label();
        b.branch(Cond::Eq, Reg::ZERO, Reg::ZERO, done);
        b.nop();
        b.bind(done);
        b.halt();
        let p = b.build();
        assert_eq!(p.inst(0).target, Some(2));
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l);
        b.halt();
        assert!(matches!(b.try_build(), Err(ProgramError::UnboundLabel(_))));
    }

    #[test]
    fn missing_halt_is_error() {
        let mut b = ProgramBuilder::new();
        b.nop();
        assert_eq!(b.try_build().unwrap_err(), ProgramError::MissingHalt);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn layout_without_prefixes_matches_static_bytes() {
        let p = tiny_loop();
        let layout = p.layout(|_| false);
        assert_eq!(layout.code_bytes(), p.static_bytes());
        // Offsets are strictly increasing by instruction size.
        for (pc, inst) in p.iter() {
            assert_eq!(layout.size(pc), inst.size as u64);
        }
    }

    #[test]
    fn layout_with_prefixes_adds_one_byte_per_critical_inst() {
        let p = tiny_loop();
        let base = p.layout(|_| false);
        let tagged = p.layout(|pc| pc == 1 || pc == 2);
        assert_eq!(tagged.code_bytes(), base.code_bytes() + 2);
        assert_eq!(tagged.size(1), base.size(1) + 1);
        assert_eq!(tagged.addr(0), base.addr(0));
        assert_eq!(tagged.addr(2), base.addr(2) + 1);
    }

    #[test]
    fn call_writes_link_register() {
        let mut b = ProgramBuilder::new();
        let f = b.label();
        b.call(f);
        b.halt();
        b.bind(f);
        b.ret();
        let p = b.build();
        assert_eq!(p.inst(0).dst, Some(Reg::LINK));
        assert_eq!(p.inst(0).target, Some(2));
        assert_eq!(p.inst(2).srcs[0], Some(Reg::LINK));
    }

    #[test]
    fn entry_is_zero_and_iter_covers_all() {
        let p = tiny_loop();
        assert_eq!(p.entry(), 0);
        assert_eq!(p.iter().count(), p.len());
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "unsupported memory width")]
    fn bad_width_panics() {
        let mut b = ProgramBuilder::new();
        b.load(Reg::new(1), Reg::new(2), 0, 3);
    }

    #[test]
    fn display_lists_every_instruction() {
        let p = tiny_loop();
        let txt = p.to_string();
        assert_eq!(txt.lines().count(), p.len());
        assert!(txt.contains("halt"));
        assert!(txt.contains("0:"));
    }
}
