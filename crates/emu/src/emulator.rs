use crate::Memory;
use crisp_isa::{AluOp, DynInst, Opcode, Pc, Program, Reg, Trace};
use std::fmt;

/// Why the emulator stopped producing records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction retired.
    Halted,
    /// The per-run instruction budget was exhausted.
    BudgetExhausted,
}

/// Errors raised during emulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmuError {
    /// Control transferred outside the program text.
    PcOutOfRange(Pc),
    /// A [`Emulator::run_to_halt`] fuel watchdog fired: the program did
    /// not halt within its fuel, i.e. it hung or looped forever.
    FuelExhausted {
        /// The pc where emulation was cut off.
        pc: Pc,
        /// Instructions retired before the cutoff.
        retired: u64,
        /// The fuel the run was given.
        fuel: u64,
    },
    /// A store pushed the sparse memory image past the configured
    /// page budget ([`Emulator::with_page_budget`]): the workload is
    /// touching more memory than the harness is willing to host.
    PageBudgetExceeded {
        /// The pc of the offending store.
        pc: Pc,
        /// Pages allocated after the store.
        pages: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange(pc) => write!(f, "pc {pc} outside program text"),
            EmuError::FuelExhausted { pc, retired, fuel } => write!(
                f,
                "program did not halt within {fuel} instructions (stopped at pc {pc} after retiring {retired}): \
                 likely an infinite loop"
            ),
            EmuError::PageBudgetExceeded { pc, pages, budget } => write!(
                f,
                "store at pc {pc} grew the memory image to {pages} pages, over the {budget}-page budget"
            ),
        }
    }
}

impl std::error::Error for EmuError {}

/// The functional emulator.
///
/// Executes instructions architecturally (no timing) and yields one
/// [`DynInst`] per retired instruction. See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct Emulator<'p> {
    program: &'p Program,
    regs: [u64; Reg::COUNT],
    mem: Memory,
    pc: Pc,
    halted: bool,
    retired: u64,
    page_budget: Option<usize>,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator at the program entry with the given initial
    /// memory image and zeroed registers.
    pub fn new(program: &'p Program, mem: Memory) -> Emulator<'p> {
        Emulator {
            program,
            regs: [0; Reg::COUNT],
            mem,
            pc: program.entry(),
            halted: false,
            retired: 0,
            page_budget: None,
        }
    }

    /// Caps the sparse memory image at `pages` 4 KiB pages. A store that
    /// allocates past the cap fails with [`EmuError::PageBudgetExceeded`]
    /// instead of growing without bound — a runaway workload then degrades
    /// into a typed per-cell failure rather than taking down the whole
    /// sweep process. The initial image may already exceed the budget; only
    /// growth during emulation is policed.
    #[must_use]
    pub fn with_page_budget(mut self, pages: usize) -> Emulator<'p> {
        self.page_budget = Some(pages);
        self
    }

    /// The configured page budget, if any.
    pub fn page_budget(&self) -> Option<usize> {
        self.page_budget
    }

    /// The current architectural register file.
    pub fn regs(&self) -> &[u64; Reg::COUNT] {
        &self.regs
    }

    /// Reads one register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes one register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The memory image.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether a `halt` has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The next pc to execute.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Executes one instruction and returns its trace record, or `None`
    /// once halted.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfRange`] if control leaves the program
    /// text (e.g. a wild indirect jump).
    pub fn step(&mut self) -> Result<Option<DynInst>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *self.program.get(pc).ok_or(EmuError::PcOutOfRange(pc))?;
        let fallthrough = pc + 1;
        let mut rec = DynInst::simple(pc, fallthrough);

        let src = |slot: usize, this: &Emulator<'_>| -> u64 {
            inst.srcs[slot].map_or(0, |r| this.reg(r))
        };

        match inst.op {
            Opcode::Alu(op) => {
                let a = src(0, self);
                // Register second operand if present, immediate otherwise.
                let b = match inst.srcs[1] {
                    Some(r) => self.reg(r),
                    None => inst.imm as u64,
                };
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Shl => a.wrapping_shl((b & 63) as u32),
                    AluOp::Shr => a.wrapping_shr((b & 63) as u32),
                    AluOp::Sltu => u64::from(a < b),
                    AluOp::Slt => u64::from((a as i64) < (b as i64)),
                    AluOp::Mov => a.wrapping_add(b),
                };
                if let Some(d) = inst.dst {
                    self.set_reg(d, v);
                }
            }
            Opcode::Mul => {
                let v = src(0, self).wrapping_mul(src(1, self));
                self.set_reg(inst.dst.expect("mul has dst"), v);
            }
            Opcode::Div => {
                let v = src(0, self).checked_div(src(1, self)).unwrap_or(0);
                self.set_reg(inst.dst.expect("div has dst"), v);
            }
            Opcode::FAdd => {
                let v = src(0, self).wrapping_add(src(1, self));
                self.set_reg(inst.dst.expect("fadd has dst"), v);
            }
            Opcode::FMul => {
                let v = src(0, self).wrapping_mul(src(1, self));
                self.set_reg(inst.dst.expect("fmul has dst"), v);
            }
            Opcode::FMa => {
                let a = src(0, self);
                let b = src(1, self);
                let v = a.wrapping_mul(b).wrapping_add(b);
                self.set_reg(inst.dst.expect("fma has dst"), v);
            }
            Opcode::FDiv => {
                let v = src(0, self).checked_div(src(1, self)).unwrap_or(0);
                self.set_reg(inst.dst.expect("fdiv has dst"), v);
            }
            Opcode::Load => {
                let addr = self.effective_addr(&inst);
                rec.addr = addr;
                let v = self.mem.read(addr, inst.width.bytes());
                self.set_reg(inst.dst.expect("load has dst"), v);
            }
            Opcode::Store => {
                let addr = self.effective_addr(&inst);
                rec.addr = addr;
                let data = src(2, self);
                self.mem.write(addr, data, inst.width.bytes());
                if let Some(budget) = self.page_budget {
                    let pages = self.mem.page_count();
                    if pages > budget {
                        return Err(EmuError::PageBudgetExceeded { pc, pages, budget });
                    }
                }
            }
            Opcode::Branch(cond) => {
                let taken = cond.eval(src(0, self), src(1, self));
                rec.taken = taken;
                if taken {
                    rec.next_pc = inst.target.expect("branch has target");
                }
            }
            Opcode::Jump => {
                rec.next_pc = inst.target.expect("jump has target");
            }
            Opcode::JumpInd => {
                rec.next_pc = src(0, self) as Pc;
            }
            Opcode::Call => {
                self.set_reg(Reg::LINK, u64::from(fallthrough));
                rec.next_pc = inst.target.expect("call has target");
            }
            Opcode::Ret => {
                rec.next_pc = src(0, self) as Pc;
            }
            Opcode::Nop => {}
            Opcode::Halt => {
                self.halted = true;
                rec.next_pc = pc;
            }
        }

        self.pc = rec.next_pc;
        self.retired += 1;
        Ok(Some(rec))
    }

    /// Effective address of a memory instruction: `src0 + src1 + imm`
    /// where the index register slot (`src1` for loads, `src1` for
    /// stores — the data register lives in `src2`) is optional.
    fn effective_addr(&self, inst: &crisp_isa::StaticInst) -> u64 {
        let base = inst.srcs[0].map_or(0, |r| self.reg(r));
        let index = inst.srcs[1].map_or(0, |r| self.reg(r));
        base.wrapping_add(index).wrapping_add(inst.imm as u64)
    }

    /// Runs up to `budget` instructions, collecting the trace.
    ///
    /// # Panics
    ///
    /// Panics on [`EmuError`] — workload programs are trusted; use
    /// [`Emulator::try_run`] for untrusted programs.
    pub fn run(&mut self, budget: u64) -> Trace {
        self.try_run(budget).expect("emulation error").0
    }

    /// Runs up to `budget` instructions.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EmuError`].
    pub fn try_run(&mut self, budget: u64) -> Result<(Trace, StopReason), EmuError> {
        let mut trace = Trace::with_capacity(budget.min(1 << 22) as usize);
        for _ in 0..budget {
            match self.step()? {
                Some(rec) => trace.push(rec),
                None => return Ok((trace, StopReason::Halted)),
            }
        }
        Ok((
            trace,
            if self.halted {
                StopReason::Halted
            } else {
                StopReason::BudgetExhausted
            },
        ))
    }

    /// Runs until `halt` retires, treating fuel exhaustion as an *error*
    /// rather than a truncated-but-valid trace: the watchdog for workloads
    /// that are supposed to terminate (hung emulation shows up as a
    /// diagnostic instead of a silently short trace).
    ///
    /// # Errors
    ///
    /// [`EmuError::FuelExhausted`] if no `halt` retires within `fuel`
    /// instructions, or any error from [`Emulator::step`].
    pub fn run_to_halt(&mut self, fuel: u64) -> Result<Trace, EmuError> {
        let (trace, stop) = self.try_run(fuel)?;
        match stop {
            StopReason::Halted => Ok(trace),
            StopReason::BudgetExhausted => Err(EmuError::FuelExhausted {
                pc: self.pc,
                retired: self.retired,
                fuel,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_isa::{Cond, ProgramBuilder};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn arithmetic_loop_sums_array() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // ptr
        b.li(r(2), 0); // acc
        b.li(r(3), 8); // count
        let top = b.label();
        b.bind(top);
        b.load(r(4), r(1), 0, 8);
        b.alu_rr(AluOp::Add, r(2), r(2), r(4));
        b.alu_ri(AluOp::Add, r(1), r(1), 8);
        b.alu_ri(AluOp::Sub, r(3), r(3), 1);
        b.branch(Cond::Ne, r(3), Reg::ZERO, top);
        b.halt();
        let p = b.build();

        let mut mem = Memory::new();
        mem.write_u64_slice(0x1000, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut emu = Emulator::new(&p, mem);
        let (trace, stop) = emu.try_run(10_000).unwrap();
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(emu.reg(r(2)), 36);
        // 3 setup + 8*5 loop + 1 halt
        assert_eq!(trace.len(), 3 + 40 + 1);
    }

    #[test]
    fn pointer_chase_follows_links() {
        // Nodes: {next, val} at 0x1000, 0x2000, 0x3000, terminated by 0.
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 0x2000);
        mem.write_u64(0x1008, 10);
        mem.write_u64(0x2000, 0x3000);
        mem.write_u64(0x2008, 20);
        mem.write_u64(0x3000, 0);
        mem.write_u64(0x3008, 30);

        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // cur
        b.li(r(2), 0); // sum
        let top = b.label();
        let done = b.label();
        b.bind(top);
        b.branch(Cond::Eq, r(1), Reg::ZERO, done);
        b.load(r(3), r(1), 8, 8); // val
        b.alu_rr(AluOp::Add, r(2), r(2), r(3));
        b.load(r(1), r(1), 0, 8); // next
        b.jump(top);
        b.bind(done);
        b.halt();
        let p = b.build();

        let mut emu = Emulator::new(&p, mem);
        emu.run(1_000);
        assert_eq!(emu.reg(r(2)), 60);
        assert_eq!(emu.reg(r(1)), 0);
        assert!(emu.is_halted());
    }

    #[test]
    fn trace_records_addresses_and_branch_outcomes() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000);
        b.load(r(2), r(1), 0x10, 8);
        let skip = b.label();
        b.branch(Cond::Eq, r(2), Reg::ZERO, skip);
        b.nop();
        b.bind(skip);
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let trace = emu.run(100);
        assert_eq!(trace.record(1).addr, 0x1010);
        assert!(trace.record(2).taken); // loaded 0 == 0
        assert_eq!(trace.record(2).next_pc, 4);
        // The nop at pc 3 was skipped.
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn call_and_ret_round_trip() {
        let mut b = ProgramBuilder::new();
        let f = b.label();
        b.call(f); // 0
        b.halt(); // 1
        b.bind(f);
        b.li(r(5), 99); // 2
        b.ret(); // 3
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let trace = emu.run(100);
        assert_eq!(emu.reg(r(5)), 99);
        let pcs: Vec<u32> = trace.iter().map(|d| d.pc).collect();
        assert_eq!(pcs, vec![0, 2, 3, 1]);
    }

    #[test]
    fn indirect_jump_through_register() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 3);
        b.jump_ind(r(1)); // to pc 3
        b.nop(); // skipped
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let trace = emu.run(100);
        let pcs: Vec<u32> = trace.iter().map(|d| d.pc).collect();
        assert_eq!(pcs, vec![0, 1, 3]);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jump(top);
        b.halt(); // unreachable but satisfies the builder
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let (trace, stop) = emu.try_run(50).unwrap();
        assert_eq!(stop, StopReason::BudgetExhausted);
        assert_eq!(trace.len(), 50);
        assert!(!emu.is_halted());
    }

    #[test]
    fn run_to_halt_flags_infinite_loops() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jump(top);
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let err = emu.run_to_halt(1000).unwrap_err();
        let EmuError::FuelExhausted { retired, fuel, .. } = err else {
            panic!("expected fuel exhaustion, got {err}");
        };
        assert_eq!(retired, 1000);
        assert_eq!(fuel, 1000);
    }

    #[test]
    fn run_to_halt_returns_full_trace_of_terminating_programs() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 7);
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let trace = emu.run_to_halt(1000).expect("halts");
        assert_eq!(trace.len(), 2);
        assert!(emu.is_halted());
    }

    #[test]
    fn wild_indirect_jump_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 1_000_000);
        b.jump_ind(r(1));
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        assert_eq!(
            emu.try_run(10).unwrap_err(),
            EmuError::PcOutOfRange(1_000_000)
        );
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 10);
        b.div(r(2), r(1), Reg::ZERO);
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        emu.run(10);
        assert_eq!(emu.reg(r(2)), 0);
    }

    #[test]
    fn writes_to_zero_register_discarded() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::ZERO, 42);
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        emu.run(10);
        assert_eq!(emu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn page_budget_stops_runaway_stores() {
        // A loop storing to a new page every iteration.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1_0000); // ptr
        let top = b.label();
        b.bind(top);
        b.store(r(1), 0, r(1), 8);
        b.alu_ri(AluOp::Add, r(1), r(1), 4096);
        b.jump(top);
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new()).with_page_budget(4);
        let err = emu.try_run(1_000_000).unwrap_err();
        let EmuError::PageBudgetExceeded { pages, budget, .. } = err else {
            panic!("expected page-budget error, got {err}");
        };
        assert_eq!(budget, 4);
        assert_eq!(pages, 5);
        assert_eq!(emu.memory().page_count(), 5);
    }

    #[test]
    fn page_budget_allows_bounded_workloads() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000);
        b.store(r(1), 0, r(1), 8);
        b.store(r(1), 8, r(1), 8); // same page: no growth
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new()).with_page_budget(1);
        let (_, stop) = emu.try_run(100).unwrap();
        assert_eq!(stop, StopReason::Halted);
    }

    #[test]
    fn halt_record_self_loops_and_stops() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p, Memory::new());
        let rec = emu.step().unwrap().unwrap();
        assert_eq!(rec.next_pc, rec.pc);
        assert_eq!(emu.step().unwrap(), None);
        assert_eq!(emu.retired(), 1);
    }
}
