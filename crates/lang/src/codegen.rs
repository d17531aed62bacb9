//! VISA code generation for MiniC.
//!
//! A simple one-pass, accumulator + stack code generator:
//!
//! * expression results land in `r0`; `r1`/`r2` are scratch; temporaries are
//!   spilled to the stack;
//! * `r6` is the frame pointer; locals live at `[r6 − 8(i+1)]`, argument `j`
//!   of an `n`-ary function at `[r6 + 16 + 8(n−1−j)]` (arguments pushed left
//!   to right by the caller, who also pops them);
//! * loops are emitted inverted (guard test, then body with a bottom exit
//!   test) so the body, its test and the taken back edge share one basic
//!   block, and else-less `if` bodies move out of line behind a mostly
//!   not-taken branch — the block-size and branch-direction profile of real
//!   compiled code, which the paper's error model measures;
//! * registers `r8`–`r14` are never touched, leaving them to the DBT's
//!   signature instrumentation (paper §5.1).

use crate::ast::*;
use crate::sema::{FnInfo, SemaInfo, Slot};
use cfed_asm::{Asm, AsmError, Image, IntoLabel, Label};
use cfed_isa::{AluOp, Cond, Reg};
use std::error::Error;
use std::fmt;

/// Software trap code for failed `assert` statements (mirrors
/// `cfed_sim::trap_codes::GUEST_ASSERT`; kept literal to avoid a dependency
/// cycle and asserted equal in integration tests).
pub const GUEST_ASSERT_CODE: u32 = 0xC0DE_0002;

const ACC: Reg = Reg::R0;
const SCRATCH: Reg = Reg::R1;
const SCRATCH2: Reg = Reg::R2;
const FP: Reg = Reg::R6;

/// A directly addressable operand: no evaluation needed beyond one load.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Imm(i32),
    Slot(i32),
    Global(u64),
}

/// The VISA condition code of a MiniC comparison operator.
fn cond_of(op: BinOp) -> Cond {
    match op {
        BinOp::Eq => Cond::E,
        BinOp::Ne => Cond::Ne,
        BinOp::Lt => Cond::L,
        BinOp::Le => Cond::Le,
        BinOp::Gt => Cond::G,
        BinOp::Ge => Cond::Ge,
        other => unreachable!("not a comparison: {other:?}"),
    }
}

/// An error produced during code generation (label bookkeeping or layout
/// overflow surfaced by the assembler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl Error for CodegenError {}

impl From<AsmError> for CodegenError {
    fn from(e: AsmError) -> CodegenError {
        CodegenError { message: e.to_string() }
    }
}

/// Generates a linked [`Image`] from a checked program.
///
/// The program entry (`__start`) calls `main` and halts; `main`'s return
/// value becomes the exit code.
///
/// # Errors
///
/// Propagates assembler errors (which indicate codegen bugs rather than user
/// errors — sema has already validated the program).
pub fn generate(prog: &Program<'_>, info: &SemaInfo) -> Result<Image, CodegenError> {
    let mut asm = Asm::new();

    // Lay out globals in the data section.
    let mut global_addrs = vec![0; prog.names.len()];
    for g in &prog.globals {
        let mut words: Vec<u64> = g.init.iter().map(|v| *v as u64).collect();
        words.resize(g.len as usize, 0);
        global_addrs[g.name.index()] = asm.data_u64(&words);
    }

    // One label per function up front, so calls can refer forward.
    let mut fn_labels = vec![None; prog.names.len()];
    for f in &prog.functions {
        let label = format!("fn_{}", prog.name(f.name)).into_label(&mut asm);
        fn_labels[f.name.index()] = Some(label);
    }

    // Entry stub.
    asm.label("__start");
    asm.call("fn_main");
    asm.halt();

    // Slot per name, set for the function being generated.
    let mut slots = vec![None; prog.names.len()];
    for (f, fi) in prog.functions.iter().zip(&info.functions) {
        for &(name, slot) in &fi.slots {
            slots[name.index()] = Some(slot);
        }
        let mut cg = FnCodegen {
            asm: &mut asm,
            prog,
            fi,
            slots: &slots,
            global_addrs: &global_addrs,
            fn_labels: &fn_labels,
            cold: Vec::new(),
        };
        cg.function(f)?;
        for (name, _) in &fi.slots {
            slots[name.index()] = None;
        }
    }

    Ok(asm.assemble("__start")?)
}

struct FnCodegen<'a> {
    asm: &'a mut Asm,
    prog: &'a Program<'a>,
    fi: &'a FnInfo,
    /// Slot per name, set for this function's parameters and locals.
    slots: &'a [Option<Slot>],
    /// Data address per global name.
    global_addrs: &'a [u64],
    /// Entry label per function name.
    fn_labels: &'a [Option<Label>],
    /// Deferred out-of-line blocks: (cold label, body, join label).
    cold: Vec<(Label, &'a Block, Label)>,
}

impl<'a> FnCodegen<'a> {
    fn function(&mut self, f: &'a Function) -> Result<(), CodegenError> {
        self.asm.label(self.fn_label(f.name));
        // Prologue: save fp, establish frame, reserve locals (flag-free —
        // instrumentation correctness does not depend on it, but it mirrors
        // real prologue code).
        self.asm.push(FP);
        self.asm.movrr(FP, Reg::SP);
        if self.fi.locals > 0 {
            self.asm.lea(Reg::SP, Reg::SP, -(8 * self.fi.locals as i32));
        }
        self.block(&f.body)?;
        // Implicit `return 0` at the end of the body.
        self.asm.movri(ACC, 0);
        self.epilogue();
        // Out-of-line (statically predicted unlikely) blocks go after the
        // function body, the layout real compilers use for cold paths; the
        // guarding branch in the hot path is then NOT taken in the common
        // case. Cold blocks may defer further blocks of their own.
        while let Some((l_cold, body, l_join)) = self.cold.pop() {
            self.asm.label(l_cold);
            self.block(body)?;
            self.asm.jmp(l_join);
        }
        Ok(())
    }

    fn fn_label(&self, name: Name) -> Label {
        self.fn_labels[name.index()].expect("sema resolved function")
    }

    fn epilogue(&mut self) {
        self.asm.movrr(Reg::SP, FP);
        self.asm.pop(FP);
        self.asm.ret();
    }

    fn slot_disp(&self, slot: Slot) -> i32 {
        match slot {
            Slot::Local(i) => -(8 * (i as i32 + 1)),
            Slot::Param(j) => 16 + 8 * (self.fi.arity as i32 - 1 - j as i32),
        }
    }

    fn block(&mut self, b: &'a Block) -> Result<(), CodegenError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn global_addr(&self, name: Name) -> u64 {
        self.global_addrs[name.index()]
    }

    fn slot(&self, name: Name) -> Option<Slot> {
        self.slots[name.index()]
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), CodegenError> {
        match s {
            Stmt::Let { name, value, .. } | Stmt::Assign { name, value, .. } => {
                self.expr(*value)?;
                if let Some(slot) = self.slot(*name) {
                    let disp = self.slot_disp(slot);
                    self.asm.st(FP, ACC, disp);
                } else {
                    let addr = self.global_addr(*name);
                    self.asm.mov_addr(SCRATCH2, addr);
                    self.asm.st(SCRATCH2, ACC, 0);
                }
                Ok(())
            }
            Stmt::Store { name, index, value, .. } => {
                self.expr(*index)?;
                self.asm.push(ACC);
                self.expr(*value)?;
                self.asm.pop(SCRATCH);
                self.asm.alui(AluOp::Shl, SCRATCH, 3);
                self.asm.mov_addr(SCRATCH2, self.global_addr(*name));
                self.asm.lea2(SCRATCH2, SCRATCH2, SCRATCH, 0);
                self.asm.st(SCRATCH2, ACC, 0);
                Ok(())
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                match else_blk {
                    Some(e) => {
                        // Balanced if/else: both arms inline.
                        let l_else = self.asm.fresh_label("else");
                        let l_end = self.asm.fresh_label("endif");
                        self.branch_on(*cond, false, l_else)?;
                        self.block(then_blk)?;
                        self.asm.jmp(l_end);
                        self.asm.label(l_else);
                        self.block(e)?;
                        self.asm.label(l_end);
                    }
                    None => {
                        // Else-less if: statically predicted unlikely; the
                        // then-block moves out of line so the hot path falls
                        // through a not-taken branch (compiler-style cold
                        // layout).
                        let l_cold = self.asm.fresh_label("cold");
                        let l_join = self.asm.fresh_label("join");
                        self.branch_on(*cond, true, l_cold)?;
                        self.asm.label(l_join);
                        self.cold.push((l_cold, then_blk, l_join));
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                // Inverted loop (guard + bottom test), the shape real
                // compilers emit: the loop body, its exit test and the taken
                // back edge all live in ONE basic block, giving loops the
                // large own-block footprint behind the paper's category-C
                // observations on fp code.
                let l_body = self.asm.fresh_label("body");
                let l_end = self.asm.fresh_label("endloop");
                self.branch_on(*cond, false, l_end)?;
                self.asm.label(l_body);
                self.block(body)?;
                self.branch_on(*cond, true, l_body)?;
                self.asm.label(l_end);
                Ok(())
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(v) => self.expr(*v)?,
                    None => self.asm.movri(ACC, 0),
                }
                self.epilogue();
                Ok(())
            }
            Stmt::Out { value, .. } => {
                self.expr(*value)?;
                self.asm.out(ACC);
                Ok(())
            }
            Stmt::Assert { value, .. } => {
                let l_ok = self.asm.fresh_label("assert_ok");
                self.branch_on(*value, true, l_ok)?;
                self.asm.trap(GUEST_ASSERT_CODE);
                self.asm.label(l_ok);
                Ok(())
            }
            Stmt::Expr { value, .. } => self.expr(*value),
        }
    }

    /// Evaluates `e` into `r0`. Clobbers `r1`, `r2` and the flags; balances
    /// the stack.
    fn expr(&mut self, id: ExprId) -> Result<(), CodegenError> {
        let prog = self.prog;
        match &prog[id] {
            Expr::Int { value, .. } => {
                if let Ok(imm) = i32::try_from(*value) {
                    self.asm.movri(ACC, imm);
                } else {
                    // Constant pool: 64-bit literals live in the data section.
                    let addr = self.asm.data_u64(&[*value as u64]);
                    self.asm.mov_addr(SCRATCH2, addr);
                    self.asm.ld(ACC, SCRATCH2, 0);
                }
                Ok(())
            }
            Expr::Var { name, .. } => {
                if let Some(slot) = self.slot(*name) {
                    let disp = self.slot_disp(slot);
                    self.asm.ld(ACC, FP, disp);
                } else {
                    self.asm.mov_addr(SCRATCH2, self.global_addr(*name));
                    self.asm.ld(ACC, SCRATCH2, 0);
                }
                Ok(())
            }
            Expr::Index { name, index, .. } => {
                self.expr(*index)?;
                self.asm.alui(AluOp::Shl, ACC, 3);
                self.asm.mov_addr(SCRATCH2, self.global_addr(*name));
                self.asm.lea2(SCRATCH2, SCRATCH2, ACC, 0);
                self.asm.ld(ACC, SCRATCH2, 0);
                Ok(())
            }
            Expr::Call { name, args, .. } => {
                for a in args {
                    self.expr(*a)?;
                    self.asm.push(ACC);
                }
                self.asm.call(self.fn_label(*name));
                if !args.is_empty() {
                    self.asm.lea(Reg::SP, Reg::SP, 8 * args.len() as i32);
                }
                Ok(())
            }
            Expr::Unary { op, expr, .. } => {
                self.expr(*expr)?;
                match op {
                    UnOp::Neg => self.asm.raw(cfed_isa::Inst::Neg { dst: ACC }),
                    UnOp::BitNot => self.asm.raw(cfed_isa::Inst::Not { dst: ACC }),
                    UnOp::Not => {
                        self.asm.cmpi(ACC, 0);
                        self.asm.movri(ACC, 0);
                        self.asm.movri(SCRATCH2, 1);
                        self.asm.cmov(Cond::E, ACC, SCRATCH2);
                    }
                }
                Ok(())
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_logical() {
                    return self.logical(*op, *lhs, *rhs);
                }
                // Leaf right operands (literals, variables) skip the stack
                // spill: evaluate the left side into the accumulator and
                // combine directly — the dense `op reg, reg/imm` shapes a
                // real compiler emits.
                if let Some(leaf) = self.leaf(*rhs) {
                    self.expr(*lhs)?;
                    self.binary_with_leaf(*op, leaf);
                    return Ok(());
                }
                self.expr(*lhs)?;
                self.asm.push(ACC);
                self.expr(*rhs)?;
                self.asm.pop(SCRATCH); // lhs in r1, rhs in r0
                match op {
                    BinOp::Add => self.two_op(AluOp::Add),
                    BinOp::Sub => self.two_op(AluOp::Sub),
                    BinOp::Mul => self.two_op(AluOp::Mul),
                    BinOp::Div => self.two_op(AluOp::Div),
                    BinOp::And => self.two_op(AluOp::And),
                    BinOp::Or => self.two_op(AluOp::Or),
                    BinOp::Xor => self.two_op(AluOp::Xor),
                    BinOp::Shl => self.two_op(AluOp::Shl),
                    BinOp::Shr => self.two_op(AluOp::Shr),
                    BinOp::Rem => {
                        // r1 % r0 = r1 - (r1 / r0) * r0
                        self.asm.movrr(SCRATCH2, SCRATCH);
                        self.asm.alu(AluOp::Div, SCRATCH2, ACC);
                        self.asm.alu(AluOp::Mul, SCRATCH2, ACC);
                        self.asm.alu(AluOp::Sub, SCRATCH, SCRATCH2);
                        self.asm.movrr(ACC, SCRATCH);
                    }
                    BinOp::Eq => self.compare(Cond::E),
                    BinOp::Ne => self.compare(Cond::Ne),
                    BinOp::Lt => self.compare(Cond::L),
                    BinOp::Le => self.compare(Cond::Le),
                    BinOp::Gt => self.compare(Cond::G),
                    BinOp::Ge => self.compare(Cond::Ge),
                    BinOp::LogAnd | BinOp::LogOr => unreachable!("handled above"),
                }
                Ok(())
            }
        }
    }

    /// Applies `r1 = r1 op r0; r0 = r1`.
    fn two_op(&mut self, op: AluOp) {
        self.asm.alu(op, SCRATCH, ACC);
        self.asm.movrr(ACC, SCRATCH);
    }

    /// Classifies an expression as a directly addressable operand.
    fn leaf(&self, id: ExprId) -> Option<Leaf> {
        match self.prog[id] {
            Expr::Int { value, .. } => i32::try_from(value).ok().map(Leaf::Imm),
            Expr::Var { name, .. } => match self.slot(name) {
                Some(slot) => Some(Leaf::Slot(self.slot_disp(slot))),
                None => Some(Leaf::Global(self.global_addr(name))),
            },
            _ => None,
        }
    }

    /// Loads a leaf operand into `dst` (may clobber `r2` for globals; never
    /// clobbers the flags or `r0` unless `dst` is `r0`).
    fn load_leaf(&mut self, dst: Reg, leaf: Leaf) {
        match leaf {
            Leaf::Imm(v) => self.asm.movri(dst, v),
            Leaf::Slot(disp) => self.asm.ld(dst, FP, disp),
            Leaf::Global(addr) => {
                self.asm.mov_addr(SCRATCH2, addr);
                self.asm.ld(dst, SCRATCH2, 0);
            }
        }
    }

    /// `r0 = r0 op leaf` without touching the stack.
    fn binary_with_leaf(&mut self, op: BinOp, leaf: Leaf) {
        let alu = match op {
            BinOp::Add => Some(AluOp::Add),
            BinOp::Sub => Some(AluOp::Sub),
            BinOp::Mul => Some(AluOp::Mul),
            BinOp::Div => Some(AluOp::Div),
            BinOp::And => Some(AluOp::And),
            BinOp::Or => Some(AluOp::Or),
            BinOp::Xor => Some(AluOp::Xor),
            BinOp::Shl => Some(AluOp::Shl),
            BinOp::Shr => Some(AluOp::Shr),
            _ => None,
        };
        if let Some(alu) = alu {
            match leaf {
                Leaf::Imm(v) => self.asm.alui(alu, ACC, v),
                other => {
                    self.load_leaf(SCRATCH, other);
                    self.asm.alu(alu, ACC, SCRATCH);
                }
            }
            return;
        }
        match op {
            BinOp::Rem => {
                // r0 % leaf = r0 - (r0 / leaf) * leaf
                self.load_leaf(SCRATCH, leaf);
                self.asm.movrr(SCRATCH2, ACC);
                self.asm.alu(AluOp::Div, SCRATCH2, SCRATCH);
                self.asm.alu(AluOp::Mul, SCRATCH2, SCRATCH);
                self.asm.alu(AluOp::Sub, ACC, SCRATCH2);
            }
            cmp if cmp.is_comparison() => {
                self.emit_compare_flags(leaf);
                self.asm.movri(ACC, 0);
                self.asm.movri(SCRATCH2, 1);
                self.asm.cmov(cond_of(cmp), ACC, SCRATCH2);
            }
            other => unreachable!("non-leaf-compatible operator {other:?}"),
        }
    }

    /// Sets the flags for `r0 cmp leaf`.
    fn emit_compare_flags(&mut self, leaf: Leaf) {
        match leaf {
            Leaf::Imm(v) => self.asm.cmpi(ACC, v),
            other => {
                self.load_leaf(SCRATCH, other);
                self.asm.cmp(ACC, SCRATCH);
            }
        }
    }

    /// Emits the condition `cond` and a branch to `target` taken
    /// when the condition's truth equals `jump_if`. Fuses leaf comparisons
    /// into a `cmp` + `jcc` pair (no 0/1 materialization).
    fn branch_on(
        &mut self,
        cond: ExprId,
        jump_if: bool,
        target: Label,
    ) -> Result<(), CodegenError> {
        if let Expr::Binary { op, lhs, rhs, .. } = self.prog[cond] {
            if op.is_comparison() {
                if let Some(leaf) = self.leaf(rhs) {
                    self.expr(lhs)?;
                    self.emit_compare_flags(leaf);
                    let cc = if jump_if { cond_of(op) } else { cond_of(op).negated() };
                    self.asm.jcc(cc, target);
                    return Ok(());
                }
            }
        }
        self.expr(cond)?;
        self.asm.cmpi(ACC, 0);
        self.asm.jcc(if jump_if { Cond::Ne } else { Cond::E }, target);
        Ok(())
    }

    /// `r0 = (r1 cc r0) ? 1 : 0`.
    fn compare(&mut self, cc: Cond) {
        self.asm.cmp(SCRATCH, ACC);
        self.asm.movri(ACC, 0);
        self.asm.movri(SCRATCH2, 1);
        self.asm.cmov(cc, ACC, SCRATCH2);
    }

    /// Short-circuit `&&` / `||` producing 0/1.
    fn logical(&mut self, op: BinOp, lhs: ExprId, rhs: ExprId) -> Result<(), CodegenError> {
        let l_short = self.asm.fresh_label("sc");
        let l_end = self.asm.fresh_label("sc_end");
        self.expr(lhs)?;
        self.asm.cmpi(ACC, 0);
        match op {
            BinOp::LogAnd => self.asm.jcc(Cond::E, l_short),
            BinOp::LogOr => self.asm.jcc(Cond::Ne, l_short),
            _ => unreachable!(),
        }
        self.expr(rhs)?;
        self.asm.cmpi(ACC, 0);
        self.asm.movri(ACC, 0);
        self.asm.movri(SCRATCH2, 1);
        self.asm.cmov(Cond::Ne, ACC, SCRATCH2);
        self.asm.jmp(l_end);
        self.asm.label(l_short);
        self.asm.movri(ACC, if op == BinOp::LogAnd { 0 } else { 1 });
        self.asm.label(l_end);
        Ok(())
    }
}
