//! # cfed-isa — the VISA virtual instruction set
//!
//! VISA is a 64-bit, x86-flavoured virtual ISA built as the substrate for
//! reproducing *"Software-Based Transparent and Comprehensive Control-Flow
//! Error Detection"* (Borin et al., CGO 2006). The paper's techniques,
//! error model and DBT implementation depend on concrete IA-32/EM64T traits;
//! VISA keeps exactly those traits while remaining small enough to simulate
//! deterministically:
//!
//! * sixteen 64-bit registers ([`Reg`]), with `r8`–`r14` free for DBT
//!   instrumentation (the EM64T register headroom of paper §5.1);
//! * six IA-32-style condition flags ([`Flags`]) driving [`Cond`]-coded
//!   conditional branches and conditional moves;
//! * fixed 8-byte instructions ([`Inst`], [`INST_SIZE`]) with 32-bit branch
//!   offsets ([`OFFSET_BITS`]) — the bit-flip surface of the paper's error
//!   model;
//! * a flag-preserving `lea` family and flag-free `jrz`/`jrnz` branches,
//!   the building blocks the paper uses to instrument signatures without
//!   EFLAGS side effects;
//! * a strict binary [encoder/decoder](Inst::encode) and a
//!   [disassembler](disassemble);
//! * one deterministic cycle-[`cost()`] function replacing wall-clock slowdown.
//!
//! ## Example
//!
//! ```
//! use cfed_isa::{Inst, Reg, Cond, AluOp, encode_all, disassemble};
//!
//! // r0 = 10; loop { r0 -= 1; if r0 != 0 goto loop }; halt
//! let prog = vec![
//!     Inst::MovRI { dst: Reg::R0, imm: 10 },
//!     Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
//!     Inst::Jcc { cc: Cond::Ne, offset: -16 },
//!     Inst::Halt,
//! ];
//! let bytes = encode_all(&prog);
//! assert_eq!(bytes.len(), 32);
//! println!("{}", disassemble(&bytes, 0x1000));
//! ```

pub mod cond;
pub mod cost;
pub mod disasm;
pub mod encode;
pub mod flags;
pub mod fxhash;
pub mod inst;
pub mod reg;

pub use cond::Cond;
pub use cost::cost;
pub use disasm::disassemble;
pub use encode::{encode_all, DecodeError};
pub use flags::Flags;
pub use fxhash::FxBuildHasher;
pub use inst::{AluOp, Inst, INST_SIZE, INST_SIZE_U64, OFFSET_BITS};
pub use reg::Reg;
