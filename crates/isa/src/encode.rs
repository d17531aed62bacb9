//! Binary encoding and decoding of VISA instructions.
//!
//! Every instruction occupies exactly [`INST_SIZE`] bytes:
//!
//! ```text
//! byte 0      opcode
//! byte 1      regA | regB << 4
//! byte 2      regC | cond << 4
//! byte 3      reserved (must be zero)
//! bytes 4..8  imm32 / rel32, little endian
//! ```
//!
//! Decoding is strict: unknown opcodes and non-zero unused fields are
//! rejected, so corrupted fetches fail loudly (on IA-32 a control-flow error
//! landing in garbage bytes usually raises an illegal-instruction trap; the
//! strict decoder plays that role here).

use crate::inst::{AluOp, Inst, INST_SIZE};
use crate::{Cond, Reg};
use std::error::Error;
use std::fmt;

// Opcode space layout. Opcode 0x00 is deliberately unassigned so that
// zero-filled memory does not decode as an instruction sled: a control-flow
// error landing in unused (zeroed) cache or data bytes raises an
// invalid-instruction trap, as garbage bytes on a real machine would.
const OP_NOP: u8 = 0x05;
const OP_HALT: u8 = 0x01;
const OP_OUT: u8 = 0x02;
const OP_TRAP: u8 = 0x03;
const OP_MOV_RR: u8 = 0x10;
const OP_MOV_RI: u8 = 0x11;
const OP_LD: u8 = 0x12;
const OP_ST: u8 = 0x13;
const OP_LD8: u8 = 0x14;
const OP_ST8: u8 = 0x15;
const OP_PUSH: u8 = 0x16;
const OP_POP: u8 = 0x17;
const OP_CMOV: u8 = 0x18;
const OP_ALU_BASE: u8 = 0x20; // 0x20..=0x2B
const OP_NEG: u8 = 0x30;
const OP_NOT: u8 = 0x31;
const OP_LEA: u8 = 0x32;
const OP_LEA2: u8 = 0x33;
const OP_LEASUB: u8 = 0x34;
const OP_ALUI_BASE: u8 = 0x40; // 0x40..=0x4B
const OP_JMP: u8 = 0x50;
const OP_JCC: u8 = 0x51;
const OP_JRZ: u8 = 0x52;
const OP_JRNZ: u8 = 0x53;
const OP_CALL: u8 = 0x54;
const OP_CALLR: u8 = 0x55;
const OP_JMPR: u8 = 0x56;
const OP_RET: u8 = 0x57;

/// Error returned when a byte sequence does not decode to a valid
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeError {
    /// The opcode byte is not assigned.
    InvalidOpcode(u8),
    /// A field that must be zero for this opcode is non-zero.
    ReservedBits { opcode: u8 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidOpcode(op) => write!(f, "invalid opcode {op:#04x}"),
            DecodeError::ReservedBits { opcode } => {
                write!(f, "non-zero reserved bits in instruction with opcode {opcode:#04x}")
            }
        }
    }
}

impl Error for DecodeError {}

#[derive(Default)]
struct Fields {
    a: u8,
    b: u8,
    c: u8,
    cc: u8,
    imm: i32,
}

impl Fields {
    fn pack(&self, opcode: u8) -> [u8; INST_SIZE] {
        let mut out = [0u8; INST_SIZE];
        out[0] = opcode;
        out[1] = self.a | (self.b << 4);
        out[2] = self.c | (self.cc << 4);
        out[3] = 0;
        out[4..8].copy_from_slice(&self.imm.to_le_bytes());
        out
    }
}

impl Inst {
    /// Encodes the instruction into its 8-byte binary form.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfed_isa::{Inst, Reg};
    /// let bytes = Inst::Push { src: Reg::R3 }.encode();
    /// assert_eq!(bytes.len(), 8);
    /// assert_eq!(Inst::decode(&bytes), Ok(Inst::Push { src: Reg::R3 }));
    /// ```
    pub fn encode(&self) -> [u8; INST_SIZE] {
        let mut f = Fields::default();
        let opcode = match *self {
            Inst::Nop => OP_NOP,
            Inst::Halt => OP_HALT,
            Inst::Out { src } => {
                f.a = src.encoding();
                OP_OUT
            }
            Inst::Trap { code } => {
                f.imm = code as i32;
                OP_TRAP
            }
            Inst::MovRR { dst, src } => {
                f.a = dst.encoding();
                f.b = src.encoding();
                OP_MOV_RR
            }
            Inst::MovRI { dst, imm } => {
                f.a = dst.encoding();
                f.imm = imm;
                OP_MOV_RI
            }
            Inst::Ld { dst, base, disp } => {
                f.a = dst.encoding();
                f.b = base.encoding();
                f.imm = disp;
                OP_LD
            }
            Inst::St { base, src, disp } => {
                f.a = base.encoding();
                f.b = src.encoding();
                f.imm = disp;
                OP_ST
            }
            Inst::Ld8 { dst, base, disp } => {
                f.a = dst.encoding();
                f.b = base.encoding();
                f.imm = disp;
                OP_LD8
            }
            Inst::St8 { base, src, disp } => {
                f.a = base.encoding();
                f.b = src.encoding();
                f.imm = disp;
                OP_ST8
            }
            Inst::Push { src } => {
                f.a = src.encoding();
                OP_PUSH
            }
            Inst::Pop { dst } => {
                f.a = dst.encoding();
                OP_POP
            }
            Inst::CMov { cc, dst, src } => {
                f.a = dst.encoding();
                f.b = src.encoding();
                f.cc = cc.encoding();
                OP_CMOV
            }
            Inst::Alu { op, dst, src } => {
                f.a = dst.encoding();
                f.b = src.encoding();
                OP_ALU_BASE + op as u8
            }
            Inst::AluI { op, dst, imm } => {
                f.a = dst.encoding();
                f.imm = imm;
                OP_ALUI_BASE + op as u8
            }
            Inst::Neg { dst } => {
                f.a = dst.encoding();
                OP_NEG
            }
            Inst::Not { dst } => {
                f.a = dst.encoding();
                OP_NOT
            }
            Inst::Lea { dst, base, disp } => {
                f.a = dst.encoding();
                f.b = base.encoding();
                f.imm = disp;
                OP_LEA
            }
            Inst::Lea2 { dst, base, index, disp } => {
                f.a = dst.encoding();
                f.b = base.encoding();
                f.c = index.encoding();
                f.imm = disp;
                OP_LEA2
            }
            Inst::LeaSub { dst, base, index, disp } => {
                f.a = dst.encoding();
                f.b = base.encoding();
                f.c = index.encoding();
                f.imm = disp;
                OP_LEASUB
            }
            Inst::Jmp { offset } => {
                f.imm = offset;
                OP_JMP
            }
            Inst::Jcc { cc, offset } => {
                f.cc = cc.encoding();
                f.imm = offset;
                OP_JCC
            }
            Inst::JRz { src, offset } => {
                f.a = src.encoding();
                f.imm = offset;
                OP_JRZ
            }
            Inst::JRnz { src, offset } => {
                f.a = src.encoding();
                f.imm = offset;
                OP_JRNZ
            }
            Inst::Call { offset } => {
                f.imm = offset;
                OP_CALL
            }
            Inst::CallR { target } => {
                f.a = target.encoding();
                OP_CALLR
            }
            Inst::JmpR { target } => {
                f.a = target.encoding();
                OP_JMPR
            }
            Inst::Ret => OP_RET,
        };
        f.pack(opcode)
    }

    /// Decodes an 8-byte sequence into an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidOpcode`] for unassigned opcode bytes and
    /// [`DecodeError::ReservedBits`] when fields unused by the opcode are
    /// non-zero.
    pub fn decode(bytes: &[u8; INST_SIZE]) -> Result<Inst, DecodeError> {
        let opcode = bytes[0];
        let a = bytes[1] & 0x0F;
        let b = bytes[1] >> 4;
        let c = bytes[2] & 0x0F;
        let cc_bits = bytes[2] >> 4;
        let imm = i32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let err = DecodeError::ReservedBits { opcode };
        if bytes[3] != 0 {
            return Err(err);
        }

        // Per-opcode field usage masks: (a, b, c, cc, imm).
        let check =
            |ua: bool, ub: bool, uc: bool, ucc: bool, uimm: bool| -> Result<(), DecodeError> {
                if (!ua && a != 0)
                    || (!ub && b != 0)
                    || (!uc && c != 0)
                    || (!ucc && cc_bits != 0)
                    || (!uimm && imm != 0)
                {
                    Err(err)
                } else {
                    Ok(())
                }
            };

        let ra = Reg::new(a);
        let rb = Reg::new(b);
        let rc = Reg::new(c);
        let cond = || Cond::from_encoding(cc_bits).expect("4-bit cond is always valid");

        let inst = match opcode {
            OP_NOP => {
                check(false, false, false, false, false)?;
                Inst::Nop
            }
            OP_HALT => {
                check(false, false, false, false, false)?;
                Inst::Halt
            }
            OP_OUT => {
                check(true, false, false, false, false)?;
                Inst::Out { src: ra }
            }
            OP_TRAP => {
                check(false, false, false, false, true)?;
                Inst::Trap { code: imm as u32 }
            }
            OP_MOV_RR => {
                check(true, true, false, false, false)?;
                Inst::MovRR { dst: ra, src: rb }
            }
            OP_MOV_RI => {
                check(true, false, false, false, true)?;
                Inst::MovRI { dst: ra, imm }
            }
            OP_LD => {
                check(true, true, false, false, true)?;
                Inst::Ld { dst: ra, base: rb, disp: imm }
            }
            OP_ST => {
                check(true, true, false, false, true)?;
                Inst::St { base: ra, src: rb, disp: imm }
            }
            OP_LD8 => {
                check(true, true, false, false, true)?;
                Inst::Ld8 { dst: ra, base: rb, disp: imm }
            }
            OP_ST8 => {
                check(true, true, false, false, true)?;
                Inst::St8 { base: ra, src: rb, disp: imm }
            }
            OP_PUSH => {
                check(true, false, false, false, false)?;
                Inst::Push { src: ra }
            }
            OP_POP => {
                check(true, false, false, false, false)?;
                Inst::Pop { dst: ra }
            }
            OP_CMOV => {
                check(true, true, false, true, false)?;
                Inst::CMov { cc: cond(), dst: ra, src: rb }
            }
            op if (OP_ALU_BASE..OP_ALU_BASE + 12).contains(&op) => {
                check(true, true, false, false, false)?;
                let alu = AluOp::from_encoding(op - OP_ALU_BASE).expect("range-checked");
                Inst::Alu { op: alu, dst: ra, src: rb }
            }
            OP_NEG => {
                check(true, false, false, false, false)?;
                Inst::Neg { dst: ra }
            }
            OP_NOT => {
                check(true, false, false, false, false)?;
                Inst::Not { dst: ra }
            }
            OP_LEA => {
                check(true, true, false, false, true)?;
                Inst::Lea { dst: ra, base: rb, disp: imm }
            }
            OP_LEA2 => {
                check(true, true, true, false, true)?;
                Inst::Lea2 { dst: ra, base: rb, index: rc, disp: imm }
            }
            OP_LEASUB => {
                check(true, true, true, false, true)?;
                Inst::LeaSub { dst: ra, base: rb, index: rc, disp: imm }
            }
            op if (OP_ALUI_BASE..OP_ALUI_BASE + 12).contains(&op) => {
                check(true, false, false, false, true)?;
                let alu = AluOp::from_encoding(op - OP_ALUI_BASE).expect("range-checked");
                Inst::AluI { op: alu, dst: ra, imm }
            }
            OP_JMP => {
                check(false, false, false, false, true)?;
                Inst::Jmp { offset: imm }
            }
            OP_JCC => {
                check(false, false, false, true, true)?;
                Inst::Jcc { cc: cond(), offset: imm }
            }
            OP_JRZ => {
                check(true, false, false, false, true)?;
                Inst::JRz { src: ra, offset: imm }
            }
            OP_JRNZ => {
                check(true, false, false, false, true)?;
                Inst::JRnz { src: ra, offset: imm }
            }
            OP_CALL => {
                check(false, false, false, false, true)?;
                Inst::Call { offset: imm }
            }
            OP_CALLR => {
                check(true, false, false, false, false)?;
                Inst::CallR { target: ra }
            }
            OP_JMPR => {
                check(true, false, false, false, false)?;
                Inst::JmpR { target: ra }
            }
            OP_RET => {
                check(false, false, false, false, false)?;
                Inst::Ret
            }
            other => return Err(DecodeError::InvalidOpcode(other)),
        };
        Ok(inst)
    }

    /// Decodes an instruction from an arbitrary byte slice, returning `None`
    /// if fewer than [`INST_SIZE`] bytes are available.
    ///
    /// # Errors
    ///
    /// Same as [`Inst::decode`].
    pub fn decode_from_slice(bytes: &[u8]) -> Option<Result<Inst, DecodeError>> {
        let arr: &[u8; INST_SIZE] = bytes.get(..INST_SIZE)?.try_into().ok()?;
        Some(Inst::decode(arr))
    }
}

/// Encodes a sequence of instructions into a flat byte buffer.
///
/// # Examples
///
/// ```
/// use cfed_isa::{encode_all, Inst, Reg};
/// let code = encode_all(&[Inst::Nop, Inst::Halt]);
/// assert_eq!(code.len(), 16);
/// ```
pub fn encode_all(insts: &[Inst]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insts.len() * INST_SIZE);
    for i in insts {
        out.extend_from_slice(&i.encode());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Inst> {
        let mut v = vec![
            Inst::Nop,
            Inst::Halt,
            Inst::Out { src: Reg::R2 },
            Inst::Trap { code: 0xDEAD },
            Inst::MovRR { dst: Reg::R1, src: Reg::R2 },
            Inst::MovRI { dst: Reg::R3, imm: -7 },
            Inst::Ld { dst: Reg::R0, base: Reg::SP, disp: 16 },
            Inst::St { base: Reg::SP, src: Reg::R4, disp: -8 },
            Inst::Ld8 { dst: Reg::R5, base: Reg::R6, disp: 3 },
            Inst::St8 { base: Reg::R6, src: Reg::R5, disp: 0 },
            Inst::Push { src: Reg::R7 },
            Inst::Pop { dst: Reg::R7 },
            Inst::CMov { cc: Cond::Le, dst: Reg::R8, src: Reg::R9 },
            Inst::Neg { dst: Reg::R1 },
            Inst::Not { dst: Reg::R1 },
            Inst::Lea { dst: Reg::R8, base: Reg::R9, disp: 1024 },
            Inst::Lea2 { dst: Reg::R8, base: Reg::R9, index: Reg::R10, disp: -1 },
            Inst::LeaSub { dst: Reg::R8, base: Reg::R9, index: Reg::R10, disp: 5 },
            Inst::Jmp { offset: 64 },
            Inst::JRz { src: Reg::R8, offset: 8 },
            Inst::JRnz { src: Reg::R8, offset: -8 },
            Inst::Call { offset: 512 },
            Inst::CallR { target: Reg::R3 },
            Inst::JmpR { target: Reg::R3 },
            Inst::Ret,
        ];
        for op in AluOp::ALL {
            v.push(Inst::Alu { op, dst: Reg::R1, src: Reg::R2 });
            v.push(Inst::AluI { op, dst: Reg::R1, imm: 42 });
        }
        for cc in Cond::ALL {
            v.push(Inst::Jcc { cc, offset: -64 });
            v.push(Inst::CMov { cc, dst: Reg::R0, src: Reg::R1 });
        }
        v
    }

    #[test]
    fn roundtrip_every_variant() {
        for inst in sample_instructions() {
            let bytes = inst.encode();
            assert_eq!(Inst::decode(&bytes), Ok(inst), "bytes {bytes:?}");
        }
    }

    #[test]
    fn reserved_byte_rejected() {
        let mut bytes = Inst::Nop.encode();
        bytes[3] = 1;
        assert!(matches!(Inst::decode(&bytes), Err(DecodeError::ReservedBits { .. })));
    }

    #[test]
    fn unused_field_rejected() {
        let mut bytes = Inst::Ret.encode();
        bytes[1] = 0x05; // Ret uses no register fields
        assert!(Inst::decode(&bytes).is_err());
        let mut bytes = Inst::Jmp { offset: 8 }.encode();
        bytes[2] = 0x30; // cc field unused by jmp
        assert!(Inst::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bytes = [0u8; INST_SIZE];
        bytes[0] = 0xEE;
        assert_eq!(Inst::decode(&bytes), Err(DecodeError::InvalidOpcode(0xEE)));
    }

    #[test]
    fn encode_decode_all() {
        let insts = sample_instructions();
        let bytes = encode_all(&insts);
        let back: Vec<Inst> = bytes
            .chunks_exact(INST_SIZE)
            .map(|c| Inst::decode_from_slice(c).unwrap().unwrap())
            .collect();
        assert_eq!(back, insts);
    }

    #[test]
    fn decode_from_slice_short_input() {
        assert!(Inst::decode_from_slice(&[0u8; 4]).is_none());
        assert!(Inst::decode_from_slice(&Inst::Halt.encode()).is_some());
    }

    #[test]
    fn offset_occupies_bytes_4_to_8() {
        // The error model flips bits in the rel32 field; make sure it lives
        // where the fault injector expects it.
        let bytes = Inst::Jmp { offset: 0x0102_0304 }.encode();
        assert_eq!(&bytes[4..8], &[0x04, 0x03, 0x02, 0x01]);
    }
}
