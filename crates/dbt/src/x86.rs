//! Minimal x86-64 encoder for the native backend.
//!
//! Emits exactly the instruction forms the translator in [`crate::native`]
//! needs: 64-bit moves and ALU ops against registers and `[base+disp]` /
//! `[base+index+disp]` memory, `lea`, shifts, `imul`/`div`, the
//! flag-capture idiom (`lahf`/`seto`/byte masks), conditional and
//! unconditional jumps in both rel8 and rel32 forms with label fixups,
//! indirect jumps/calls, and `push`/`pop`/`ret` for the trampoline.
//!
//! The builder is position-aware: it is constructed with the host address
//! its bytes will be copied to, so `jmp_abs`/`jcc_abs` can emit rel32
//! displacements to absolute targets (other blocks, shared stubs) and the
//! runtime chaining protocol can re-point already-emitted jumps with
//! [`jmp_rel32_bytes`].

/// A host general-purpose register (hardware encoding 0–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostReg(pub u8);

/// `rax`.
pub const RAX: HostReg = HostReg(0);
/// `rcx`.
pub const RCX: HostReg = HostReg(1);
/// `rdx`.
pub const RDX: HostReg = HostReg(2);
/// `rbx` (callee-saved; retired-instruction delta).
pub const RBX: HostReg = HostReg(3);
/// `rsp`.
pub const RSP: HostReg = HostReg(4);
/// `rbp` (callee-saved; the `NativeCtx` pointer).
pub const RBP: HostReg = HostReg(5);
/// `rsi`.
pub const RSI: HostReg = HostReg(6);
/// `rdi`.
pub const RDI: HostReg = HostReg(7);
/// `r8`.
pub const R8: HostReg = HostReg(8);
/// `r12` (callee-saved; session instruction limit).
pub const R12: HostReg = HostReg(12);
/// `r13` (callee-saved; taken-branch delta).
pub const R13: HostReg = HostReg(13);
/// `r14` (callee-saved; branch delta).
pub const R14: HostReg = HostReg(14);
/// `r15` (callee-saved; cycle delta).
pub const R15: HostReg = HostReg(15);

/// x86 condition codes for `Jcc`/`SETcc`/`CMOVcc` (the low nibble of the
/// second opcode byte).
pub mod cc {
    /// Overflow.
    pub const O: u8 = 0x0;
    /// Below (carry set).
    pub const B: u8 = 0x2;
    /// Above or equal (carry clear).
    pub const AE: u8 = 0x3;
    /// Equal (zero set).
    pub const E: u8 = 0x4;
    /// Not equal (zero clear).
    pub const NE: u8 = 0x5;
    /// Above (carry clear and zero clear).
    pub const A: u8 = 0x7;
}

/// ALU opcode selector for register-register forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    /// `add` — opcode `01 /r`, imm slot 0.
    Add,
    /// `or` — opcode `09 /r`, imm slot 1.
    Or,
    /// `and` — opcode `21 /r`, imm slot 4.
    And,
    /// `sub` — opcode `29 /r`, imm slot 5.
    Sub,
    /// `xor` — opcode `31 /r`, imm slot 6.
    Xor,
    /// `cmp` — opcode `39 /r`, imm slot 7.
    Cmp,
}

impl Alu {
    fn rr_opcode(self) -> u8 {
        match self {
            Alu::Add => 0x01,
            Alu::Or => 0x09,
            Alu::And => 0x21,
            Alu::Sub => 0x29,
            Alu::Xor => 0x31,
            Alu::Cmp => 0x39,
        }
    }

    fn imm_slot(self) -> u8 {
        match self {
            Alu::Add => 0,
            Alu::Or => 1,
            Alu::And => 4,
            Alu::Sub => 5,
            Alu::Xor => 6,
            Alu::Cmp => 7,
        }
    }
}

/// Shift opcode selector (`D3 /slot` with `cl`, `C1 /slot` with imm8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// Logical left (`/4`).
    Shl,
    /// Logical right (`/5`).
    Shr,
    /// Arithmetic right (`/7`).
    Sar,
}

impl Shift {
    fn slot(self) -> u8 {
        match self {
            Shift::Shl => 4,
            Shift::Shr => 5,
            Shift::Sar => 7,
        }
    }
}

/// A forward-reference label handle.
#[derive(Debug, Clone, Copy)]
pub struct Label(usize);

#[derive(Debug)]
enum LabelState {
    /// Unbound; holds fixups to patch at bind time.
    Pending(Vec<Fixup>),
    /// Bound at a buffer offset.
    Bound(usize),
}

/// One displacement field awaiting a label bind. `at` is the offset of the
/// displacement bytes; `end` is the offset the displacement is relative to
/// (the end of the branch instruction).
#[derive(Debug, Clone, Copy)]
struct Fixup {
    at: usize,
    end: usize,
    wide: bool,
}

/// Builds the little-endian bytes of `jmp rel32` from `site` to `target`
/// — the 5-byte sequence the chaining protocol patches over a translated
/// exit site at runtime.
///
/// # Panics
///
/// Panics if the displacement does not fit in `i32` (cannot happen for
/// two addresses inside one code buffer).
pub fn jmp_rel32_bytes(site: u64, target: u64) -> [u8; 5] {
    let rel = rel32(site, 5, target);
    let d = rel.to_le_bytes();
    [0xE9, d[0], d[1], d[2], d[3]]
}

/// Builds the bytes of `jcc rel32` from `site` to `target`.
///
/// # Panics
///
/// Panics if the displacement does not fit in `i32`.
pub fn jcc_rel32_bytes(cond: u8, site: u64, target: u64) -> [u8; 6] {
    let rel = rel32(site, 6, target);
    let d = rel.to_le_bytes();
    [0x0F, 0x80 | cond, d[0], d[1], d[2], d[3]]
}

fn rel32(site: u64, len: u64, target: u64) -> i32 {
    let rel = (target as i64) - (site as i64) - (len as i64);
    i32::try_from(rel).expect("rel32 displacement out of range")
}

/// A position-aware x86-64 instruction builder.
#[derive(Debug)]
pub struct Asm {
    base: u64,
    buf: Vec<u8>,
    labels: Vec<LabelState>,
}

impl Asm {
    /// A builder whose bytes will execute at host address `base`.
    pub fn new(base: u64) -> Asm {
        Asm { base, buf: Vec::with_capacity(256), labels: Vec::new() }
    }

    /// Current offset into the buffer.
    pub fn here(&self) -> usize {
        self.buf.len()
    }

    /// Absolute host address of the next emitted byte.
    pub fn here_abs(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// The emitted bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the builder, asserting every label was bound.
    pub fn finish(self) -> Vec<u8> {
        for state in &self.labels {
            assert!(matches!(state, LabelState::Bound(_)), "unbound label at finish");
        }
        self.buf
    }

    // ---- labels ------------------------------------------------------

    /// Allocates a fresh unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(LabelState::Pending(Vec::new()));
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position, patching pending branches.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound, or if a pending rel8 branch
    /// cannot reach the bind point.
    pub fn bind(&mut self, label: Label) {
        let here = self.buf.len();
        let state = std::mem::replace(&mut self.labels[label.0], LabelState::Bound(here));
        let LabelState::Pending(fixups) = state else { panic!("label bound twice") };
        for f in fixups {
            let rel = here as i64 - f.end as i64;
            if f.wide {
                let rel = i32::try_from(rel).expect("rel32 fixup out of range");
                self.buf[f.at..f.at + 4].copy_from_slice(&rel.to_le_bytes());
            } else {
                let rel = i8::try_from(rel).expect("rel8 fixup out of range");
                self.buf[f.at] = rel as u8;
            }
        }
    }

    fn branch_disp(&mut self, label: Label, wide: bool) {
        let at = self.buf.len();
        let end = at + if wide { 4 } else { 1 };
        match &mut self.labels[label.0] {
            LabelState::Pending(fixups) => {
                fixups.push(Fixup { at, end, wide });
                self.buf.extend_from_slice(if wide { &[0; 4][..] } else { &[0][..] });
            }
            LabelState::Bound(target) => {
                let rel = *target as i64 - end as i64;
                if wide {
                    let rel = i32::try_from(rel).expect("rel32 backward out of range");
                    self.buf.extend_from_slice(&rel.to_le_bytes());
                } else {
                    let rel = i8::try_from(rel).expect("rel8 backward out of range");
                    self.buf.push(rel as u8);
                }
            }
        }
    }

    /// `jcc rel32` to a label.
    pub fn jcc(&mut self, cond: u8, label: Label) {
        self.buf.extend_from_slice(&[0x0F, 0x80 | cond]);
        self.branch_disp(label, true);
    }

    /// `jcc rel8` to a label (must bind within ±127 bytes).
    pub fn jcc_short(&mut self, cond: u8, label: Label) {
        self.buf.push(0x70 | cond);
        self.branch_disp(label, false);
    }

    /// `jmp rel32` to a label.
    pub fn jmp(&mut self, label: Label) {
        self.buf.push(0xE9);
        self.branch_disp(label, true);
    }

    /// `jmp rel8` to a label (must bind within ±127 bytes).
    pub fn jmp_short(&mut self, label: Label) {
        self.buf.push(0xEB);
        self.branch_disp(label, false);
    }

    /// `jmp rel32` to an absolute host address.
    pub fn jmp_abs(&mut self, target: u64) {
        let bytes = jmp_rel32_bytes(self.here_abs(), target);
        self.buf.extend_from_slice(&bytes);
    }

    /// `jcc rel32` to an absolute host address.
    pub fn jcc_abs(&mut self, cond: u8, target: u64) {
        let bytes = jcc_rel32_bytes(cond, self.here_abs(), target);
        self.buf.extend_from_slice(&bytes);
    }

    // ---- encoding helpers -------------------------------------------

    fn rex(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let rex =
            0x40 | (u8::from(w) << 3) | ((reg >> 3) << 2) | (((index >> 3) & 1) << 1) | (base >> 3);
        if rex != 0x40 {
            self.buf.push(rex);
        }
    }

    fn modrm_reg(&mut self, reg: u8, rm: u8) {
        self.buf.push(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    /// ModRM (+SIB) (+disp) for `[base + disp]`.
    fn modrm_mem(&mut self, reg: u8, base: HostReg, disp: i32) {
        let b = base.0 & 7;
        let need_sib = b == 4; // rsp/r12 escape to SIB
        let rm = if need_sib { 4 } else { b };
        let (mode, d8) = if disp == 0 && b != 5 {
            (0x00u8, None)
        } else if let Ok(d) = i8::try_from(disp) {
            (0x40, Some(d))
        } else {
            (0x80, None)
        };
        self.buf.push(mode | ((reg & 7) << 3) | rm);
        if need_sib {
            self.buf.push(0x20 | b); // scale=1, index=none
        }
        match (mode, d8) {
            (0x40, Some(d)) => self.buf.push(d as u8),
            (0x80, _) => self.buf.extend_from_slice(&disp.to_le_bytes()),
            _ => {}
        }
    }

    /// ModRM + SIB (+disp) for `[base + index + disp]` (scale 1).
    fn modrm_mem2(&mut self, reg: u8, base: HostReg, index: HostReg, disp: i32) {
        assert!(index.0 & 7 != 4, "rsp cannot be an index");
        let b = base.0 & 7;
        let (mode, d8) = if disp == 0 && b != 5 {
            (0x00u8, None)
        } else if let Ok(d) = i8::try_from(disp) {
            (0x40, Some(d))
        } else {
            (0x80, None)
        };
        self.buf.push(mode | ((reg & 7) << 3) | 4);
        self.buf.push(((index.0 & 7) << 3) | b);
        match (mode, d8) {
            (0x40, Some(d)) => self.buf.push(d as u8),
            (0x80, _) => self.buf.extend_from_slice(&disp.to_le_bytes()),
            _ => {}
        }
    }

    // ---- moves -------------------------------------------------------

    /// `mov dst, src` (64-bit).
    pub fn mov_rr(&mut self, dst: HostReg, src: HostReg) {
        self.rex(true, src.0, 0, dst.0);
        self.buf.push(0x89);
        self.modrm_reg(src.0, dst.0);
    }

    /// `mov dst, imm64`.
    pub fn mov_ri64(&mut self, dst: HostReg, imm: u64) {
        self.rex(true, 0, 0, dst.0);
        self.buf.push(0xB8 | (dst.0 & 7));
        self.buf.extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov dst, imm32` sign-extended to 64 bits (`C7 /0`).
    pub fn mov_ri32(&mut self, dst: HostReg, imm: i32) {
        self.rex(true, 0, 0, dst.0);
        self.buf.push(0xC7);
        self.modrm_reg(0, dst.0);
        self.buf.extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov dst, [base + disp]` (64-bit load).
    pub fn load(&mut self, dst: HostReg, base: HostReg, disp: i32) {
        self.rex(true, dst.0, 0, base.0);
        self.buf.push(0x8B);
        self.modrm_mem(dst.0, base, disp);
    }

    /// `mov [base + disp], src` (64-bit store).
    pub fn store(&mut self, base: HostReg, disp: i32, src: HostReg) {
        self.rex(true, src.0, 0, base.0);
        self.buf.push(0x89);
        self.modrm_mem(src.0, base, disp);
    }

    /// `mov dst, [base + index + disp]` (64-bit load, scale 1).
    pub fn load2(&mut self, dst: HostReg, base: HostReg, index: HostReg, disp: i32) {
        self.rex(true, dst.0, index.0, base.0);
        self.buf.push(0x8B);
        self.modrm_mem2(dst.0, base, index, disp);
    }

    /// `mov [base + index + disp], src` (64-bit store, scale 1).
    pub fn store2(&mut self, base: HostReg, index: HostReg, disp: i32, src: HostReg) {
        self.rex(true, src.0, index.0, base.0);
        self.buf.push(0x89);
        self.modrm_mem2(src.0, base, index, disp);
    }

    /// `movzx dst, byte [base + index]` (zero-extending byte load, scale 1).
    pub fn load8_2(&mut self, dst: HostReg, base: HostReg, index: HostReg) {
        self.rex(true, dst.0, index.0, base.0);
        self.buf.extend_from_slice(&[0x0F, 0xB6]);
        self.modrm_mem2(dst.0, base, index, 0);
    }

    /// `mov byte [base + index], src8` — `src` must be rax/rcx/rdx/rbx so
    /// the low-byte register encodes without a REX prefix.
    pub fn store8_2(&mut self, base: HostReg, index: HostReg, src: HostReg) {
        assert!(src.0 < 4, "byte store source must be a/c/d/b");
        self.rex(false, src.0, index.0, base.0);
        self.buf.push(0x88);
        self.modrm_mem2(src.0, base, index, 0);
    }

    /// `mov qword [base + disp], imm32` sign-extended.
    pub fn store_imm32(&mut self, base: HostReg, disp: i32, imm: i32) {
        self.rex(true, 0, 0, base.0);
        self.buf.push(0xC7);
        self.modrm_mem(0, base, disp);
        self.buf.extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov [rbp + disp], ah` — spills the captured-flags byte.
    pub fn store_ah_rbp(&mut self, disp: i32) {
        self.buf.push(0x88);
        self.modrm_mem(4, RBP, disp); // reg field 100 = AH (no REX)
    }

    /// `movzx eax, byte [rbp + disp]` — reloads the flags byte.
    pub fn load_flags_al(&mut self, disp: i32) {
        self.buf.extend_from_slice(&[0x0F, 0xB6]);
        self.modrm_mem(0, RBP, disp);
    }

    /// `movzx ecx, cl`.
    pub fn movzx_ecx_cl(&mut self) {
        self.buf.extend_from_slice(&[0x0F, 0xB6, 0xC9]);
    }

    // ---- ALU ---------------------------------------------------------

    /// `op dst, src` (64-bit register-register ALU).
    pub fn alu_rr(&mut self, op: Alu, dst: HostReg, src: HostReg) {
        self.rex(true, src.0, 0, dst.0);
        self.buf.push(op.rr_opcode());
        self.modrm_reg(src.0, dst.0);
    }

    /// `op dst, imm` (64-bit; imm8 form when it fits).
    pub fn alu_ri(&mut self, op: Alu, dst: HostReg, imm: i32) {
        self.rex(true, 0, 0, dst.0);
        if let Ok(d) = i8::try_from(imm) {
            self.buf.push(0x83);
            self.modrm_reg(op.imm_slot(), dst.0);
            self.buf.push(d as u8);
        } else {
            self.buf.push(0x81);
            self.modrm_reg(op.imm_slot(), dst.0);
            self.buf.extend_from_slice(&imm.to_le_bytes());
        }
    }

    /// `test dst, src` (64-bit).
    pub fn test_rr(&mut self, dst: HostReg, src: HostReg) {
        self.rex(true, src.0, 0, dst.0);
        self.buf.push(0x85);
        self.modrm_reg(src.0, dst.0);
    }

    /// `cmp reg, [base + index + disp]`.
    pub fn cmp_r_mem2(&mut self, reg: HostReg, base: HostReg, index: HostReg, disp: i32) {
        self.rex(true, reg.0, index.0, base.0);
        self.buf.push(0x3B);
        self.modrm_mem2(reg.0, base, index, disp);
    }

    /// `cmp reg, [base + disp]` (64-bit).
    pub fn cmp_r_mem(&mut self, reg: HostReg, base: HostReg, disp: i32) {
        self.rex(true, reg.0, 0, base.0);
        self.buf.push(0x3B);
        self.modrm_mem(reg.0, base, disp);
    }

    /// `test byte [base + index], imm8`.
    pub fn test_mem8_imm2(&mut self, base: HostReg, index: HostReg, imm: u8) {
        self.rex(false, 0, index.0, base.0);
        self.buf.push(0xF6);
        self.modrm_mem2(0, base, index, 0);
        self.buf.push(imm);
    }

    /// `bts dst, bit` (64-bit register form: sets bit `bit mod 64`). The
    /// memory form with a register bit offset is microcoded, so bit-string
    /// updates compute their word's mask here and `or` it in.
    pub fn bts_rr(&mut self, dst: HostReg, bit: HostReg) {
        self.rex(true, bit.0, 0, dst.0);
        self.buf.extend_from_slice(&[0x0F, 0xAB]);
        self.modrm_reg(bit.0, dst.0);
    }

    /// `or qword [base + index], src` (scale 1).
    pub fn or_mem2_r(&mut self, base: HostReg, index: HostReg, src: HostReg) {
        self.rex(true, src.0, index.0, base.0);
        self.buf.push(0x09);
        self.modrm_mem2(src.0, base, index, 0);
    }

    /// `inc qword [base + index + disp]`.
    pub fn inc_mem2(&mut self, base: HostReg, index: HostReg, disp: i32) {
        self.rex(true, 0, index.0, base.0);
        self.buf.push(0xFF);
        self.modrm_mem2(0, base, index, disp);
    }

    /// `cmp qword [base + disp], imm8`.
    pub fn cmp_mem_imm8(&mut self, base: HostReg, disp: i32, imm: i8) {
        self.rex(true, 0, 0, base.0);
        self.buf.push(0x83);
        self.modrm_mem(7, base, disp);
        self.buf.push(imm as u8);
    }

    /// `inc qword [base + disp]`.
    pub fn inc_mem(&mut self, base: HostReg, disp: i32) {
        self.rex(true, 0, 0, base.0);
        self.buf.push(0xFF);
        self.modrm_mem(0, base, disp);
    }

    /// `lea dst, [base + disp]` — flag-free add.
    pub fn lea(&mut self, dst: HostReg, base: HostReg, disp: i32) {
        self.rex(true, dst.0, 0, base.0);
        self.buf.push(0x8D);
        self.modrm_mem(dst.0, base, disp);
    }

    /// `lea dst, [base + index + disp]` — flag-free three-operand add.
    pub fn lea2(&mut self, dst: HostReg, base: HostReg, index: HostReg, disp: i32) {
        self.rex(true, dst.0, index.0, base.0);
        self.buf.push(0x8D);
        self.modrm_mem2(dst.0, base, index, disp);
    }

    /// `neg dst` (64-bit; sets flags exactly as `sub 0, dst`).
    pub fn neg(&mut self, dst: HostReg) {
        self.rex(true, 0, 0, dst.0);
        self.buf.push(0xF7);
        self.modrm_reg(3, dst.0);
    }

    /// `not dst` (64-bit; leaves flags untouched).
    pub fn not(&mut self, dst: HostReg) {
        self.rex(true, 0, 0, dst.0);
        self.buf.push(0xF7);
        self.modrm_reg(2, dst.0);
    }

    /// `imul dst, src` (64-bit signed multiply, low half).
    pub fn imul_rr(&mut self, dst: HostReg, src: HostReg) {
        self.rex(true, dst.0, 0, src.0);
        self.buf.extend_from_slice(&[0x0F, 0xAF]);
        self.modrm_reg(dst.0, src.0);
    }

    /// `imul ecx, ecx, imm8` — scales the overflow bit into flag bits.
    pub fn imul_ecx_imm8(&mut self, imm: i8) {
        self.buf.extend_from_slice(&[0x6B, 0xC9, imm as u8]);
    }

    /// `div src` — unsigned `rdx:rax / src`, quotient in `rax`.
    pub fn div(&mut self, src: HostReg) {
        self.rex(true, 0, 0, src.0);
        self.buf.push(0xF7);
        self.modrm_reg(6, src.0);
    }

    /// `shift dst, cl` (64-bit).
    pub fn shift_cl(&mut self, op: Shift, dst: HostReg) {
        self.rex(true, 0, 0, dst.0);
        self.buf.push(0xD3);
        self.modrm_reg(op.slot(), dst.0);
    }

    /// `shift dst, imm8` (64-bit).
    pub fn shift_imm(&mut self, op: Shift, dst: HostReg, imm: u8) {
        self.rex(true, 0, 0, dst.0);
        self.buf.push(0xC1);
        self.modrm_reg(op.slot(), dst.0);
        self.buf.push(imm);
    }

    /// `xor dst32, dst32` — zero-extends, clears the full register.
    pub fn xor_r32(&mut self, dst: HostReg) {
        self.rex(false, dst.0, 0, dst.0);
        self.buf.push(0x31);
        self.modrm_reg(dst.0, dst.0);
    }

    /// `and ecx, imm8` (32-bit; masks a shift count or cache index).
    pub fn and_ecx_imm8(&mut self, imm: i8) {
        self.buf.extend_from_slice(&[0x83, 0xE1, imm as u8]);
    }

    // ---- flags capture ----------------------------------------------

    /// `lahf` — loads SF/ZF/AF/PF/CF into `ah`.
    pub fn lahf(&mut self) {
        self.buf.push(0x9F);
    }

    /// `seto al` / `seto cl`.
    pub fn seto(&mut self, dst: HostReg) {
        assert!(dst.0 < 8, "seto needs a REX-free register");
        self.buf.extend_from_slice(&[0x0F, 0x90, 0xC0 | dst.0]);
    }

    /// `shl al, imm8` — positions the overflow bit for merging.
    pub fn shl_al_imm(&mut self, imm: u8) {
        self.buf.extend_from_slice(&[0xC0, 0xE0, imm]);
    }

    /// `or ah, al` — merges overflow into the captured flag byte.
    pub fn or_ah_al(&mut self) {
        self.buf.extend_from_slice(&[0x08, 0xC4]);
    }

    /// `or ah, cl`.
    pub fn or_ah_cl(&mut self) {
        self.buf.extend_from_slice(&[0x08, 0xCC]);
    }

    /// `and ah, imm8` — masks undefined host flag bits.
    pub fn and_ah_imm(&mut self, imm: u8) {
        self.buf.extend_from_slice(&[0x80, 0xE4, imm]);
    }

    /// `cmp byte [base + index], imm8` — condition lookup in a 256-byte
    /// truth table (`NE` when the entry is set).
    pub fn cmp_mem8_imm2(&mut self, base: HostReg, index: HostReg, imm: u8) {
        self.rex(false, 0, index.0, base.0);
        self.buf.push(0x80);
        self.modrm_mem2(7, base, index, 0);
        self.buf.push(imm);
    }

    /// `cmovcc dst, src` (64-bit).
    pub fn cmovcc(&mut self, cond: u8, dst: HostReg, src: HostReg) {
        self.rex(true, dst.0, 0, src.0);
        self.buf.extend_from_slice(&[0x0F, 0x40 | cond]);
        self.modrm_reg(dst.0, src.0);
    }

    // ---- control transfer -------------------------------------------

    /// `jmp reg`.
    pub fn jmp_r(&mut self, target: HostReg) {
        self.rex(false, 0, 0, target.0);
        self.buf.push(0xFF);
        self.modrm_reg(4, target.0);
    }

    /// `jmp qword [base + index + disp]` — the inline-cache dispatch.
    pub fn jmp_mem2(&mut self, base: HostReg, index: HostReg, disp: i32) {
        self.rex(false, 0, index.0, base.0);
        self.buf.push(0xFF);
        self.modrm_mem2(4, base, index, disp);
    }

    /// `call reg`.
    pub fn call_r(&mut self, target: HostReg) {
        self.rex(false, 0, 0, target.0);
        self.buf.push(0xFF);
        self.modrm_reg(2, target.0);
    }

    /// `push reg`.
    pub fn push_r(&mut self, reg: HostReg) {
        self.rex(false, 0, 0, reg.0);
        self.buf.push(0x50 | (reg.0 & 7));
    }

    /// `pop reg`.
    pub fn pop_r(&mut self, reg: HostReg) {
        self.rex(false, 0, 0, reg.0);
        self.buf.push(0x58 | (reg.0 & 7));
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.buf.push(0xC3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm() -> Asm {
        Asm::new(0)
    }

    /// Appends `n` one-byte `nop`s.
    fn pad(a: &mut Asm, n: usize) {
        a.buf.resize(a.buf.len() + n, 0x90);
    }

    #[track_caller]
    fn check(f: impl FnOnce(&mut Asm), want: &[u8]) {
        let mut a = asm();
        f(&mut a);
        assert_eq!(a.bytes(), want, "bytes {:02x?} != want {:02x?}", a.bytes(), want);
    }

    #[test]
    fn moves_round_trip() {
        check(|a| a.mov_rr(RBP, RDI), &[0x48, 0x89, 0xFD]);
        check(|a| a.mov_rr(RAX, R8), &[0x4C, 0x89, 0xC0]);
        check(
            |a| a.mov_ri64(RAX, 0x1122_3344_5566_7788),
            &[0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11],
        );
        check(|a| a.mov_ri64(HostReg(10), 1), &[0x49, 0xBA, 1, 0, 0, 0, 0, 0, 0, 0]);
        check(|a| a.mov_ri32(RAX, -1), &[0x48, 0xC7, 0xC0, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn memory_forms_cover_rbp_r12_r13_escapes() {
        // [rbp] always needs a disp byte; [r12] always needs a SIB byte.
        check(|a| a.load(RAX, RBP, 0x10), &[0x48, 0x8B, 0x45, 0x10]);
        check(|a| a.load(RAX, RBP, 0x180), &[0x48, 0x8B, 0x85, 0x80, 0x01, 0x00, 0x00]);
        check(|a| a.load(RCX, R12, 0), &[0x49, 0x8B, 0x0C, 0x24]);
        check(|a| a.load(RAX, R13, 0), &[0x49, 0x8B, 0x45, 0x00]);
        check(|a| a.store(RBP, 0x10, RAX), &[0x48, 0x89, 0x45, 0x10]);
        check(|a| a.store(RBP, -8, RCX), &[0x48, 0x89, 0x4D, 0xF8]);
        check(|a| a.store_imm32(RBP, 8, 7), &[0x48, 0xC7, 0x45, 0x08, 7, 0, 0, 0]);
        check(
            |a| a.cmp_r_mem2(RAX, RBP, RCX, 0x100),
            &[0x48, 0x3B, 0x84, 0x0D, 0x00, 0x01, 0x00, 0x00],
        );
        check(|a| a.jmp_mem2(RBP, RCX, 0x180), &[0xFF, 0xA4, 0x0D, 0x80, 0x01, 0x00, 0x00]);
    }

    /// The inline memory fast path's instruction forms: base+index
    /// addressing for the flat guest byte array, the permission-byte test,
    /// and the dirty-bit/generation bookkeeping.
    #[test]
    fn memory_fast_path_forms() {
        // cmp rax, [rbp + 0x10] — page-count bound check.
        check(|a| a.cmp_r_mem(RAX, RBP, 0x10), &[0x48, 0x3B, 0x45, 0x10]);
        // test byte [rsi + rax], imm — per-page permission probe.
        check(|a| a.test_mem8_imm2(RSI, RAX, 2), &[0xF6, 0x04, 0x06, 0x02]);
        // bts rdi, rax; or [r8 + rsi], rdi — dirty-bitmap word update.
        check(|a| a.bts_rr(RDI, RAX), &[0x48, 0x0F, 0xAB, 0xC7]);
        check(|a| a.or_mem2_r(R8, RSI, RDI), &[0x49, 0x09, 0x3C, 0x30]);
        // inc qword [rsi + rax (+ disp)] — page-generation bump.
        check(|a| a.inc_mem2(RSI, RAX, 0), &[0x48, 0xFF, 0x04, 0x06]);
        check(|a| a.inc_mem2(RSI, RAX, 0x180), &[0x48, 0xFF, 0x84, 0x06, 0x80, 0x01, 0x00, 0x00]);
        // Guest loads/stores through bytes-base + guest-address index.
        check(|a| a.load2(RAX, RSI, RCX, 0), &[0x48, 0x8B, 0x04, 0x0E]);
        check(|a| a.load2(RAX, RSI, HostReg(9), 0), &[0x4A, 0x8B, 0x04, 0x0E]);
        check(|a| a.store2(RSI, RCX, 0, RDX), &[0x48, 0x89, 0x14, 0x0E]);
        check(|a| a.load8_2(RAX, RSI, RCX), &[0x48, 0x0F, 0xB6, 0x04, 0x0E]);
        check(|a| a.store8_2(RSI, RCX, RDX), &[0x88, 0x14, 0x0E]);
        // cc::A (unsigned above) guards the in-page span check.
        assert_eq!(cc::A, 0x7);
        check(|a| a.cmovcc(cc::A, RDX, RAX), &[0x48, 0x0F, 0x47, 0xD0]);
    }

    #[test]
    #[should_panic(expected = "byte store source")]
    fn byte_store_rejects_rex_only_sources() {
        let mut a = asm();
        a.store8_2(RSI, RCX, R8);
    }

    #[test]
    fn alu_forms() {
        check(|a| a.alu_rr(Alu::Add, RAX, RCX), &[0x48, 0x01, 0xC8]);
        check(|a| a.alu_rr(Alu::Sub, RAX, RCX), &[0x48, 0x29, 0xC8]);
        check(|a| a.alu_rr(Alu::Cmp, RBX, R12), &[0x4C, 0x39, 0xE3]);
        check(|a| a.alu_rr(Alu::And, RAX, RCX), &[0x48, 0x21, 0xC8]);
        check(|a| a.alu_rr(Alu::Or, RAX, RCX), &[0x48, 0x09, 0xC8]);
        check(|a| a.alu_rr(Alu::Xor, RAX, RCX), &[0x48, 0x31, 0xC8]);
        check(|a| a.test_rr(RAX, RCX), &[0x48, 0x85, 0xC8]);
        check(|a| a.alu_ri(Alu::Add, RBX, 1), &[0x48, 0x83, 0xC3, 0x01]);
        check(|a| a.alu_ri(Alu::Add, R15, 300), &[0x49, 0x81, 0xC7, 0x2C, 0x01, 0x00, 0x00]);
        check(|a| a.alu_ri(Alu::Sub, RSP, 8), &[0x48, 0x83, 0xEC, 0x08]);
        check(|a| a.cmp_mem_imm8(RBP, 0x90, 0), &[0x48, 0x83, 0xBD, 0x90, 0, 0, 0, 0x00]);
        check(|a| a.inc_mem(RBP, 0xA0), &[0x48, 0xFF, 0x85, 0xA0, 0, 0, 0]);
        check(|a| a.neg(RAX), &[0x48, 0xF7, 0xD8]);
        check(|a| a.not(RCX), &[0x48, 0xF7, 0xD1]);
        check(|a| a.imul_rr(RAX, RCX), &[0x48, 0x0F, 0xAF, 0xC1]);
        check(|a| a.imul_ecx_imm8(0x21), &[0x6B, 0xC9, 0x21]);
        check(|a| a.div(RCX), &[0x48, 0xF7, 0xF1]);
        check(|a| a.xor_r32(RDX), &[0x31, 0xD2]);
        check(|a| a.xor_r32(R15), &[0x45, 0x31, 0xFF]);
        check(|a| a.and_ecx_imm8(63), &[0x83, 0xE1, 0x3F]);
    }

    #[test]
    fn lea_and_shift_forms() {
        check(|a| a.lea(RAX, RAX, 8), &[0x48, 0x8D, 0x40, 0x08]);
        check(|a| a.lea2(RAX, RAX, RCX, 1), &[0x48, 0x8D, 0x44, 0x08, 0x01]);
        check(|a| a.lea2(RAX, RBP, R13, 0), &[0x4A, 0x8D, 0x44, 0x2D, 0x00]);
        check(|a| a.shift_cl(Shift::Shl, RAX), &[0x48, 0xD3, 0xE0]);
        check(|a| a.shift_cl(Shift::Shr, RAX), &[0x48, 0xD3, 0xE8]);
        check(|a| a.shift_cl(Shift::Sar, RAX), &[0x48, 0xD3, 0xF8]);
        check(|a| a.shift_imm(Shift::Shr, RCX, 3), &[0x48, 0xC1, 0xE9, 0x03]);
        check(|a| a.shift_imm(Shift::Shl, RCX, 3), &[0x48, 0xC1, 0xE1, 0x03]);
    }

    #[test]
    fn flag_capture_idiom() {
        check(|a| a.lahf(), &[0x9F]);
        check(|a| a.seto(RAX), &[0x0F, 0x90, 0xC0]);
        check(|a| a.seto(RCX), &[0x0F, 0x90, 0xC1]);
        check(|a| a.shl_al_imm(5), &[0xC0, 0xE0, 0x05]);
        check(|a| a.or_ah_al(), &[0x08, 0xC4]);
        check(|a| a.or_ah_cl(), &[0x08, 0xCC]);
        check(|a| a.and_ah_imm(0xC4), &[0x80, 0xE4, 0xC4]);
        check(|a| a.store_ah_rbp(0x80), &[0x88, 0xA5, 0x80, 0, 0, 0]);
        check(|a| a.store_ah_rbp(0x40), &[0x88, 0x65, 0x40]);
        check(|a| a.load_flags_al(0x80), &[0x0F, 0xB6, 0x85, 0x80, 0, 0, 0]);
        check(|a| a.movzx_ecx_cl(), &[0x0F, 0xB6, 0xC9]);
        // cmp byte [rcx + rax], 0 — condition-table lookup.
        check(|a| a.cmp_mem8_imm2(RCX, RAX, 0), &[0x80, 0x3C, 0x01, 0x00]);
        check(|a| a.cmovcc(cc::NE, RDX, RAX), &[0x48, 0x0F, 0x45, 0xD0]);
    }

    #[test]
    fn stack_and_indirect_forms() {
        check(|a| a.push_r(RBX), &[0x53]);
        check(|a| a.push_r(R12), &[0x41, 0x54]);
        check(|a| a.pop_r(RBP), &[0x5D]);
        check(|a| a.pop_r(R15), &[0x41, 0x5F]);
        check(|a| a.jmp_r(RAX), &[0xFF, 0xE0]);
        check(|a| a.jmp_r(RSI), &[0xFF, 0xE6]);
        check(|a| a.jmp_r(R8), &[0x41, 0xFF, 0xE0]);
        check(|a| a.call_r(RAX), &[0xFF, 0xD0]);
        check(|a| a.ret(), &[0xC3]);
    }

    /// Rel8 jumps go through label fixups, rel32 ones also through the
    /// byte builders the chaining protocol uses to rewrite exit sites;
    /// cover every condition code in both widths, forward and backward, at
    /// the rel8 reach limits.
    #[test]
    fn jcc_and_jmp_rel8_vs_rel32_patching() {
        for cond in 0..16u8 {
            // rel8 forward: the label binds 0x7F bytes past the jcc (max i8).
            let mut a = asm();
            let fwd = a.new_label();
            a.jcc_short(cond, fwd);
            pad(&mut a, 0x7F);
            a.bind(fwd);
            assert_eq!(&a.bytes()[..2], &[0x70 | cond, 0x7F]);
            // rel8 backward: max negative reach.
            let mut a = asm();
            let back = a.new_label();
            a.bind(back);
            pad(&mut a, 0x7E);
            a.jcc_short(cond, back);
            assert_eq!(&a.bytes()[0x7E..], &[0x70 | cond, 0x80]);
            // rel32 forward and backward with multi-byte displacements.
            let b = jcc_rel32_bytes(cond, 0x4000_0000, 0x4000_0000 + 6 + 0x0102_0304);
            assert_eq!(b, [0x0F, 0x80 | cond, 0x04, 0x03, 0x02, 0x01]);
            let b = jcc_rel32_bytes(cond, 0x4000_0000, 0x4000_0000 + 6 - 0x0102_0304);
            let want = (-0x0102_0304i32).to_le_bytes();
            assert_eq!(&b[2..], &want);
        }
        let mut a = asm();
        let fwd = a.new_label();
        a.jmp_short(fwd);
        pad(&mut a, 0x10);
        a.bind(fwd);
        let top = a.new_label();
        a.bind(top);
        a.jmp_short(top); // self-loop
        assert_eq!(&a.bytes()[..2], &[0xEB, 0x10]);
        assert_eq!(&a.bytes()[0x12..], &[0xEB, 0xFE]);
        assert_eq!(jmp_rel32_bytes(0x1_0000, 0x2_0000), [0xE9, 0xFB, 0xFF, 0x00, 0x00]);
        let back = jmp_rel32_bytes(0x2_0000, 0x1_0000);
        assert_eq!(back[0], 0xE9);
        assert_eq!(i32::from_le_bytes(back[1..].try_into().unwrap()), -0x1_0005);
    }

    #[test]
    #[should_panic(expected = "rel8 fixup out of range")]
    fn rel8_overflow_panics() {
        let mut a = asm();
        let out = a.new_label();
        a.jmp_short(out);
        pad(&mut a, 0x80);
        a.bind(out);
    }

    #[test]
    fn labels_fix_up_forward_and_backward() {
        let mut a = asm();
        let top = a.new_label();
        a.bind(top);
        let out = a.new_label();
        a.jcc_short(cc::E, out); // 2 bytes
        a.jcc(cc::NE, out); // 6 bytes
        a.jmp_short(out); // 2 bytes
        a.jmp(out); // 5 bytes
        a.bind(out);
        a.jmp_short(top); // backward rel8
        a.jmp(top); // backward rel32
        let bytes = a.finish();
        // out is at offset 15.
        assert_eq!(&bytes[..2], &[0x74, 13]); // 15 - 2
        assert_eq!(&bytes[2..8], &[0x0F, 0x85, 7, 0, 0, 0]); // 15 - 8
        assert_eq!(&bytes[8..10], &[0xEB, 5]); // 15 - 10
        assert_eq!(&bytes[10..15], &[0xE9, 0, 0, 0, 0]); // 15 - 15
        assert_eq!(&bytes[15..17], &[0xEB, 0xEF]); // 0 - 17 = -17
        assert_eq!(&bytes[17..22], &[0xE9, 0xEA, 0xFF, 0xFF, 0xFF]); // -22
    }

    /// Guest `lea` and stack adjusts lower to host `lea`s whose
    /// displacements may exceed i8, and guest `jrz`/`jrnz` lower to a
    /// register-zero test. Pin the exact encodings across displacement
    /// widths and the ModRM escape registers (RBP/R13 force a disp byte,
    /// R12 forces a SIB byte).
    #[test]
    fn trace_emitter_lea_folding_forms() {
        check(|a| a.lea(RAX, RAX, 0x180), &[0x48, 0x8D, 0x80, 0x80, 0x01, 0x00, 0x00]);
        check(|a| a.lea(RAX, RAX, -0x1234), &[0x48, 0x8D, 0x80, 0xCC, 0xED, 0xFF, 0xFF]);
        check(|a| a.lea(HostReg(8), HostReg(8), -8), &[0x4D, 0x8D, 0x40, 0xF8]);
        check(
            |a| a.lea(HostReg(11), HostReg(11), 0x100),
            &[0x4D, 0x8D, 0x9B, 0x00, 0x01, 0x00, 0x00],
        );
        check(|a| a.lea(RCX, RBP, 0), &[0x48, 0x8D, 0x4D, 0x00]);
        check(|a| a.lea(RAX, R12, 8), &[0x49, 0x8D, 0x44, 0x24, 0x08]);
        check(|a| a.lea(RAX, R13, 0), &[0x49, 0x8D, 0x45, 0x00]);
        // Register-zero test feeding a side exit (`jrz`/`jrnz` lowering).
        check(|a| a.test_rr(HostReg(10), HostReg(10)), &[0x4D, 0x85, 0xD2]);
    }

    #[test]
    fn trace_side_exit_jcc_rel32_forms() {
        // Jumps to absolute targets (e.g. the shared trap exit) always use
        // the rel32 form; every condition code, forward and backward, from a
        // non-zero builder base as the native code buffer uses.
        for cond in 0..16u8 {
            let mut a = Asm::new(0x20_0000);
            a.jcc_abs(cond, 0x20_0000 + 6 + 0x1234);
            let b = a.finish();
            assert_eq!(&b[..2], &[0x0F, 0x80 | cond]);
            assert_eq!(i32::from_le_bytes(b[2..6].try_into().unwrap()), 0x1234);

            let mut a = Asm::new(0x20_0000);
            a.jcc_abs(cond, 0x1F_FF00);
            let b = a.finish();
            assert_eq!(&b[..2], &[0x0F, 0x80 | cond]);
            assert_eq!(i32::from_le_bytes(b[2..6].try_into().unwrap()), -0x106);
        }
    }

    #[test]
    fn abs_jumps_use_builder_base() {
        let mut a = Asm::new(0x10_0000);
        a.jmp_abs(0x10_0100);
        a.jcc_abs(cc::AE, 0x10_0000);
        let bytes = a.finish();
        assert_eq!(&bytes[..5], &[0xE9, 0xFB, 0x00, 0x00, 0x00]);
        assert_eq!(bytes[5..7], [0x0F, 0x83]);
        assert_eq!(i32::from_le_bytes(bytes[7..11].try_into().unwrap()), -(5 + 6));
    }
}
