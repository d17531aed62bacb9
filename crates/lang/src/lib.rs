//! # cfed-lang — the MiniC language
//!
//! A small imperative language (lexer → parser → semantic analysis → VISA
//! code generator) used to author the SPEC2000-analog guest workloads of the
//! CGO'06 control-flow error detection reproduction. MiniC programs compile
//! to `cfed-asm` [`Image`]s that run on the `cfed-sim` machine, either
//! natively or under the `cfed-dbt` dynamic binary translator.
//!
//! The language is 64-bit-integer only: `global` scalars and arrays,
//! functions with call-by-value parameters, `let` locals, `while`/`if`
//! control flow, short-circuit `&&`/`||`, C-like operator precedence,
//! `out(..)` for observable output (the silent-data-corruption oracle) and
//! `assert(..)` for guest self-checks. `/` and `%` are unsigned; ordered
//! comparisons are signed.
//!
//! ## Example
//!
//! ```
//! use cfed_lang::compile;
//!
//! let image = compile(
//!     r#"
//!     fn gcd(a, b) {
//!         while (b != 0) { let t = b; b = a % b; a = t; }
//!         return a;
//!     }
//!     fn main() { out(gcd(48, 36)); }
//!     "#,
//! )?;
//! assert!(image.len() > 0);
//! # Ok::<(), cfed_lang::CompileError>(())
//! ```

pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod parser;
pub mod sema;

pub use ast::Program;
pub use codegen::CodegenError;
pub use parser::{parse, ParseError};
pub use sema::{check, SemaError, SemaInfo};

use cfed_asm::Image;
use std::error::Error;
use std::fmt;

/// Any error from the MiniC pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexical or syntax error.
    Parse(ParseError),
    /// Name-resolution / arity error.
    Sema(SemaError),
    /// Code generation or layout error.
    Codegen(CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::Sema(e) => e.fmt(f),
            CompileError::Codegen(e) => e.fmt(f),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Parse(e) => Some(e),
            CompileError::Sema(e) => Some(e),
            CompileError::Codegen(e) => Some(e),
        }
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> CompileError {
        CompileError::Parse(e)
    }
}

impl From<SemaError> for CompileError {
    fn from(e: SemaError) -> CompileError {
        CompileError::Sema(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> CompileError {
        CompileError::Codegen(e)
    }
}

/// Compiles MiniC source to a linked VISA image.
///
/// # Errors
///
/// Returns the first lexical, syntactic, semantic, or layout error.
pub fn compile(src: &str) -> Result<Image, CompileError> {
    let prog = parser::parse(src)?;
    let info = sema::check(&prog)?;
    Ok(codegen::generate(&prog, &info)?)
}
