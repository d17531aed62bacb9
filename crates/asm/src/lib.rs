//! # cfed-asm — assembler for VISA
//!
//! A two-pass, label-based assembler ([`Asm`]) producing linked program
//! images ([`Image`]) for the `cfed-sim` guest machine. The builder API is
//! the target of the MiniC code generator in `cfed-lang` and of hand-written
//! guest programs in tests and examples.
//!
//! ## Example
//!
//! ```
//! use cfed_asm::Asm;
//! use cfed_isa::{AluOp, Cond, Reg};
//!
//! // sum = 0; for i in 1..=10 { sum += i }
//! let mut a = Asm::new();
//! a.label("start");
//! a.movri(Reg::R0, 0);
//! a.movri(Reg::R1, 10);
//! a.label("loop");
//! a.alu(AluOp::Add, Reg::R0, Reg::R1);
//! a.alui(AluOp::Sub, Reg::R1, 1);
//! a.jcc(Cond::Ne, "loop");
//! a.out(Reg::R0);
//! a.halt();
//! let image = a.assemble("start")?;
//! assert_eq!(image.len(), 7);
//! # Ok::<(), cfed_asm::AsmError>(())
//! ```

pub mod asm;
pub mod image;
pub mod text;

pub use asm::{Asm, AsmError, IntoLabel, Label};
pub use image::{Image, DEFAULT_CODE_BASE, DEFAULT_DATA_BASE};
pub use text::{parse_asm, ParseAsmError};
