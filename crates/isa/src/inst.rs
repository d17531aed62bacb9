//! The VISA instruction set.
//!
//! Instructions are fixed-width (8 bytes, [`INST_SIZE`]) with a 32-bit
//! immediate/offset field. Control-transfer instructions carry a signed
//! 32-bit offset relative to the *end* of the instruction (IA-32 `rel32`
//! convention); [`OFFSET_BITS`] is the address-side bit width of the paper's
//! single-bit-flip error model.
//!
//! The set is deliberately x86-flavoured because the paper's techniques rely
//! on specific IA-32 traits:
//!
//! * flag-setting ALU ops plus `cmp`/`test` driving `jcc`/`cmovcc`;
//! * a flag-*preserving* address-arithmetic family ([`Inst::Lea`],
//!   [`Inst::Lea2`], [`Inst::LeaSub`]) used by the signature update code to
//!   avoid the EFLAGS side-effect problem (paper §5.1) — `LeaSub` computes
//!   `dst = base − index + disp`, exactly the `GEN_SIG(x, y, z) = x − y + z`
//!   form of §4.4;
//! * flag-free zero tests ([`Inst::JRz`]/[`Inst::JRnz`]), the analog of the
//!   `jcxz` instruction the paper uses to check signatures without touching
//!   EFLAGS;
//! * an implicit dynamic branch ([`Inst::Ret`]) popping its target from the
//!   stack (paper Figure 7).

use crate::{Cond, Reg};
use std::fmt;

/// Size in bytes of every VISA instruction.
pub const INST_SIZE: usize = 8;

/// Size of an instruction as a `u64`, for address arithmetic.
pub const INST_SIZE_U64: u64 = INST_SIZE as u64;

/// Number of bits in a branch address offset — the address-side bit count of
/// the paper's error model (§2: "1 bit change in the address offset of the
/// branch instruction").
pub const OFFSET_BITS: u32 = 32;

/// Two-operand ALU operations (IA-32 style: `dst = dst op src`, flags set).
///
/// `Cmp` and `Test` only update flags; `Div` is unsigned and raises a
/// divide-by-zero trap (the check mechanism of the ECCA technique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Shl = 5,
    Shr = 6,
    Sar = 7,
    Mul = 8,
    Div = 9,
    Cmp = 10,
    Test = 11,
}

impl AluOp {
    /// All ALU operations in encoding order.
    pub const ALL: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Cmp,
        AluOp::Test,
    ];

    /// Decodes an ALU opcode offset.
    pub fn from_encoding(bits: u8) -> Option<AluOp> {
        AluOp::ALL.get(bits as usize).copied()
    }

    /// Returns `true` for the flags-only operations (`cmp`, `test`) which do
    /// not write their destination register.
    pub fn is_compare(self) -> bool {
        matches!(self, AluOp::Cmp | AluOp::Test)
    }

    /// Mnemonic for disassembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Cmp => "cmp",
            AluOp::Test => "test",
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A decoded VISA instruction.
///
/// # Examples
///
/// ```
/// use cfed_isa::{Inst, Reg};
///
/// let i = Inst::MovRI { dst: Reg::R0, imm: 42 };
/// let bytes = i.encode();
/// assert_eq!(Inst::decode(&bytes).unwrap(), i);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stop the machine; the exit code is read from `r0`.
    Halt,
    /// Append the value of `src` to the program's output stream (the
    /// observable output used to detect silent data corruption).
    Out { src: Reg },
    /// Software trap carrying a code; used by instrumentation to report a
    /// detected control-flow error.
    Trap { code: u32 },

    /// `dst = src` (no flags).
    MovRR { dst: Reg, src: Reg },
    /// `dst = sign_extend(imm)` (no flags).
    MovRI { dst: Reg, imm: i32 },
    /// 64-bit load: `dst = mem[base + disp]`.
    Ld { dst: Reg, base: Reg, disp: i32 },
    /// 64-bit store: `mem[base + disp] = src`.
    St { base: Reg, src: Reg, disp: i32 },
    /// Byte load, zero-extended.
    Ld8 { dst: Reg, base: Reg, disp: i32 },
    /// Byte store (low byte of `src`).
    St8 { base: Reg, src: Reg, disp: i32 },
    /// `sp -= 8; mem[sp] = src`.
    Push { src: Reg },
    /// `dst = mem[sp]; sp += 8`.
    Pop { dst: Reg },
    /// Conditional move: `if cc { dst = src }` (flags read, not written).
    CMov { cc: Cond, dst: Reg, src: Reg },

    /// Two-operand ALU op: `dst = dst op src` (flags written).
    Alu { op: AluOp, dst: Reg, src: Reg },
    /// ALU op with immediate: `dst = dst op sign_extend(imm)`.
    AluI { op: AluOp, dst: Reg, imm: i32 },
    /// Two's-complement negate (flags written).
    Neg { dst: Reg },
    /// Bitwise not (flags written, IA-32 `not` actually preserves flags but
    /// we follow the logic-op convention for determinism).
    Not { dst: Reg },

    /// Flag-free add: `dst = base + disp` (the `lea` analog, paper §5.1).
    Lea { dst: Reg, base: Reg, disp: i32 },
    /// Flag-free three-operand add: `dst = base + index + disp`.
    Lea2 { dst: Reg, base: Reg, index: Reg, disp: i32 },
    /// Flag-free subtract form: `dst = base − index + disp`; this is the
    /// paper's `GEN_SIG(x, y, z) = x − y + z` in a single instruction.
    LeaSub { dst: Reg, base: Reg, index: Reg, disp: i32 },

    /// Unconditional direct jump (`rel32`).
    Jmp { offset: i32 },
    /// Conditional direct jump (`rel32`, flags read).
    Jcc { cc: Cond, offset: i32 },
    /// Jump if `src == 0` — flag-free (`jcxz` analog).
    JRz { src: Reg, offset: i32 },
    /// Jump if `src != 0` — flag-free.
    JRnz { src: Reg, offset: i32 },
    /// Direct call: pushes the return address, jumps `rel32`.
    Call { offset: i32 },
    /// Indirect call through a register.
    CallR { target: Reg },
    /// Indirect jump through a register.
    JmpR { target: Reg },
    /// Return: pops the target address from the stack (implicit dynamic
    /// branch, paper Figure 7).
    Ret,
}

impl Inst {
    /// Returns `true` for every control-transfer instruction (direct and
    /// indirect jumps, conditional branches, calls and returns) — the
    /// instructions subject to the paper's *branch-error* model.
    #[inline]
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. }
                | Inst::Jcc { .. }
                | Inst::JRz { .. }
                | Inst::JRnz { .. }
                | Inst::Call { .. }
                | Inst::CallR { .. }
                | Inst::JmpR { .. }
                | Inst::Ret
        )
    }

    /// Returns `true` for branches whose direction depends on machine state
    /// (condition flags or a tested register).
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. })
    }

    /// Returns `true` for branches whose direction depends on the condition
    /// *flags* — the flag-side fault targets of the error model. `JRz`/`JRnz`
    /// test a register, not the flags, so they are excluded.
    #[inline]
    pub fn reads_flags_for_direction(&self) -> bool {
        matches!(self, Inst::Jcc { .. })
    }

    /// Returns `true` for indirect control transfers (register targets and
    /// returns), whose targets are only known dynamically.
    pub fn is_indirect_branch(&self) -> bool {
        matches!(self, Inst::CallR { .. } | Inst::JmpR { .. } | Inst::Ret)
    }

    /// Returns `true` when the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        self.is_branch() | matches!(self, Inst::Halt | Inst::Trap { .. })
    }

    /// The encoded `rel32` offset of a direct branch, if any.
    pub fn branch_offset(&self) -> Option<i32> {
        match self {
            Inst::Jmp { offset }
            | Inst::Jcc { offset, .. }
            | Inst::JRz { offset, .. }
            | Inst::JRnz { offset, .. }
            | Inst::Call { offset } => Some(*offset),
            _ => None,
        }
    }

    /// Returns a copy of the instruction with its `rel32` offset replaced —
    /// the mechanism used to model address-offset bit flips.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a direct branch.
    pub fn with_branch_offset(&self, new_offset: i32) -> Inst {
        let mut copy = *self;
        match &mut copy {
            Inst::Jmp { offset }
            | Inst::Jcc { offset, .. }
            | Inst::JRz { offset, .. }
            | Inst::JRnz { offset, .. }
            | Inst::Call { offset } => *offset = new_offset,
            other => panic!("not a direct branch: {other:?}"),
        }
        copy
    }

    /// The absolute taken-target of a direct branch located at `addr`
    /// (`addr + 8 + offset`, wrapping).
    ///
    /// # Examples
    ///
    /// ```
    /// use cfed_isa::Inst;
    /// let j = Inst::Jmp { offset: 16 };
    /// assert_eq!(j.direct_target(0x1000), Some(0x1018));
    /// ```
    #[inline]
    pub fn direct_target(&self, addr: u64) -> Option<u64> {
        self.branch_offset()
            .map(|off| addr.wrapping_add(INST_SIZE_U64).wrapping_add(off as i64 as u64))
    }

    /// Returns `true` if control can continue to the next sequential
    /// instruction after executing this one (not-taken conditional branches,
    /// returns from calls, and all non-terminators).
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Inst::Jmp { .. } | Inst::JmpR { .. } | Inst::Ret | Inst::Halt | Inst::Trap { .. }
        )
    }

    /// Returns `true` if the instruction writes the condition flags.
    pub fn writes_flags(&self) -> bool {
        matches!(self, Inst::Alu { .. } | Inst::AluI { .. } | Inst::Neg { .. } | Inst::Not { .. })
    }

    /// Short mnemonic (without operands) for statistics and tracing.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Nop => "nop",
            Inst::Halt => "halt",
            Inst::Out { .. } => "out",
            Inst::Trap { .. } => "trap",
            Inst::MovRR { .. } | Inst::MovRI { .. } => "mov",
            Inst::Ld { .. } => "ld",
            Inst::St { .. } => "st",
            Inst::Ld8 { .. } => "ld8",
            Inst::St8 { .. } => "st8",
            Inst::Push { .. } => "push",
            Inst::Pop { .. } => "pop",
            Inst::CMov { .. } => "cmov",
            Inst::Alu { op, .. } | Inst::AluI { op, .. } => op.mnemonic(),
            Inst::Neg { .. } => "neg",
            Inst::Not { .. } => "not",
            Inst::Lea { .. } | Inst::Lea2 { .. } | Inst::LeaSub { .. } => "lea",
            Inst::Jmp { .. } => "jmp",
            Inst::Jcc { .. } => "jcc",
            Inst::JRz { .. } => "jrz",
            Inst::JRnz { .. } => "jrnz",
            Inst::Call { .. } => "call",
            Inst::CallR { .. } => "callr",
            Inst::JmpR { .. } => "jmpr",
            Inst::Ret => "ret",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_classification() {
        assert!(Inst::Jmp { offset: 0 }.is_branch());
        assert!(Inst::Ret.is_branch());
        assert!(Inst::Ret.is_indirect_branch());
        assert!(!Inst::Nop.is_branch());
        assert!(Inst::Jcc { cc: Cond::E, offset: 0 }.is_cond_branch());
        assert!(Inst::JRz { src: Reg::R0, offset: 0 }.is_cond_branch());
        assert!(!Inst::JRz { src: Reg::R0, offset: 0 }.reads_flags_for_direction());
        assert!(Inst::Jcc { cc: Cond::E, offset: 0 }.reads_flags_for_direction());
    }

    #[test]
    fn terminators_and_fallthrough() {
        assert!(Inst::Halt.is_terminator());
        assert!(!Inst::Halt.falls_through());
        assert!(Inst::Jcc { cc: Cond::L, offset: 8 }.falls_through());
        assert!(!Inst::Jmp { offset: 8 }.falls_through());
        assert!(Inst::Call { offset: 8 }.falls_through());
        assert!(!Inst::Ret.falls_through());
    }

    #[test]
    fn direct_target_arithmetic() {
        let j = Inst::Jcc { cc: Cond::Ne, offset: -16 };
        assert_eq!(j.direct_target(0x100), Some(0x100 + 8 - 16));
        assert_eq!(Inst::Ret.direct_target(0x100), None);
    }

    #[test]
    fn with_branch_offset_replaces() {
        let j = Inst::Call { offset: 100 };
        assert_eq!(j.with_branch_offset(-4).branch_offset(), Some(-4));
    }

    #[test]
    #[should_panic(expected = "not a direct branch")]
    fn with_branch_offset_on_non_branch_panics() {
        let _ = Inst::Nop.with_branch_offset(0);
    }

    #[test]
    fn flags_read_write_sets() {
        assert!(Inst::Alu { op: AluOp::Add, dst: Reg::R0, src: Reg::R1 }.writes_flags());
        assert!(!Inst::Lea { dst: Reg::R0, base: Reg::R1, disp: 4 }.writes_flags());
        assert!(
            !Inst::LeaSub { dst: Reg::R0, base: Reg::R1, index: Reg::R2, disp: 0 }.writes_flags()
        );
    }

    #[test]
    fn compare_ops_do_not_write_dst() {
        assert!(AluOp::Cmp.is_compare());
        assert!(AluOp::Test.is_compare());
        assert!(!AluOp::Xor.is_compare());
    }
}
