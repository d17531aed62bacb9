//! Semantic analysis: name resolution, arity checking and slot assignment.

use crate::ast::*;
use std::error::Error;
use std::fmt;

/// A semantic error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError {
    /// Human-readable description.
    pub message: String,
    /// Where the error occurred.
    pub pos: Pos,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error at {}: {}", self.pos, self.message)
    }
}

impl Error for SemaError {}

/// Where a name resolves inside a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The `i`-th parameter.
    Param(usize),
    /// The `i`-th local (declaration order).
    Local(usize),
}

/// Resolution results for one function.
#[derive(Debug, Clone, Default)]
pub struct FnInfo {
    /// Number of parameters.
    pub arity: usize,
    /// Number of `let` locals.
    pub locals: usize,
    /// Every parameter and local with its slot, in declaration order.
    pub slots: Vec<(Name, Slot)>,
}

/// Resolution results for a whole program.
#[derive(Debug, Clone, Default)]
pub struct SemaInfo {
    /// Per-function resolution info, in [`Program::functions`] order.
    pub functions: Vec<FnInfo>,
}

/// Checks a parsed program and computes slot assignments.
///
/// Enforced rules:
/// * globals and functions have unique names; globals and functions do not
///   shadow one another;
/// * `main` exists and takes no parameters;
/// * every variable reference resolves to a parameter, a `let` local
///   declared earlier in the function, or a global scalar;
/// * indexing applies only to global arrays; assignment targets must be
///   locals/params or global scalars; stores target global arrays;
/// * calls reference defined functions with matching arity;
/// * `let` does not redeclare a name within the same function.
///
/// # Errors
///
/// The first violated rule is reported with its source position.
pub fn check(prog: &Program<'_>) -> Result<SemaInfo, SemaError> {
    // Name-indexed tables: (element count, is_array) per global, arity per
    // function, and the slot of each name in the function being checked.
    let mut globals: Vec<Option<(u64, bool)>> = vec![None; prog.names.len()];
    let mut arity: Vec<Option<usize>> = vec![None; prog.names.len()];
    let mut slots: Vec<Option<Slot>> = vec![None; prog.names.len()];

    for g in &prog.globals {
        if globals[g.name.index()].replace((g.len, g.is_array)).is_some() {
            return Err(SemaError {
                message: format!("duplicate global `{}`", prog.name(g.name)),
                pos: g.pos,
            });
        }
        if g.init.len() as u64 > g.len {
            return Err(SemaError {
                message: format!("too many initializers for `{}`", prog.name(g.name)),
                pos: g.pos,
            });
        }
    }

    // Collect function signatures first so calls can be forward references.
    for f in &prog.functions {
        if arity[f.name.index()].is_some() || globals[f.name.index()].is_some() {
            return Err(SemaError {
                message: format!("duplicate definition of `{}`", prog.name(f.name)),
                pos: f.pos,
            });
        }
        for (i, p) in f.params.iter().enumerate() {
            if slots[p.index()].replace(Slot::Param(i)).is_some() {
                return Err(SemaError {
                    message: format!(
                        "duplicate parameter `{}` in `{}`",
                        prog.name(*p),
                        prog.name(f.name)
                    ),
                    pos: f.pos,
                });
            }
        }
        for p in &f.params {
            slots[p.index()] = None;
        }
        arity[f.name.index()] = Some(f.params.len());
    }

    match prog.functions.iter().find(|f| prog.name(f.name) == "main") {
        None => {
            return Err(SemaError {
                message: "program must define `fn main()`".into(),
                pos: Pos::default(),
            })
        }
        Some(main) if !main.params.is_empty() => {
            return Err(SemaError {
                message: "`main` must take no parameters".into(),
                pos: main.pos,
            });
        }
        Some(_) => {}
    }

    // Resolve bodies.
    let mut functions = Vec::with_capacity(prog.functions.len());
    for f in &prog.functions {
        let declared: Vec<(Name, Slot)> =
            f.params.iter().enumerate().map(|(i, p)| (*p, Slot::Param(i))).collect();
        for &(name, slot) in &declared {
            slots[name.index()] = Some(slot);
        }
        let mut ck = Checker {
            prog,
            globals: &globals,
            arity: &arity,
            fname: prog.name(f.name),
            slots: &mut slots,
            declared,
            locals: 0,
        };
        ck.block(&f.body)?;
        let (locals, declared) = (ck.locals, ck.declared);
        for (name, _) in &declared {
            slots[name.index()] = None;
        }
        functions.push(FnInfo { arity: f.params.len(), locals, slots: declared });
    }

    Ok(SemaInfo { functions })
}

struct Checker<'a> {
    prog: &'a Program<'a>,
    globals: &'a [Option<(u64, bool)>],
    arity: &'a [Option<usize>],
    fname: &'a str,
    /// Slot per name, set for the names in `declared`.
    slots: &'a mut [Option<Slot>],
    declared: Vec<(Name, Slot)>,
    locals: usize,
}

impl Checker<'_> {
    fn err(&self, message: String, pos: Pos) -> SemaError {
        SemaError { message, pos }
    }

    fn is_slot(&self, name: Name) -> bool {
        self.slots[name.index()].is_some()
    }

    fn global(&self, name: Name) -> Option<(u64, bool)> {
        self.globals[name.index()]
    }

    fn block(&mut self, b: &Block) -> Result<(), SemaError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), SemaError> {
        match s {
            Stmt::Let { name, value, pos } => {
                self.expr(*value)?;
                let text = self.prog.name(*name);
                if self.is_slot(*name) {
                    return Err(
                        self.err(format!("`{text}` is already declared in `{}`", self.fname), *pos)
                    );
                }
                if self.global(*name).is_some() {
                    return Err(
                        self.err(format!("`{text}` shadows a global of the same name"), *pos)
                    );
                }
                let slot = Slot::Local(self.locals);
                self.slots[name.index()] = Some(slot);
                self.declared.push((*name, slot));
                self.locals += 1;
                Ok(())
            }
            Stmt::Assign { name, value, pos } => {
                self.expr(*value)?;
                if self.is_slot(*name) {
                    return Ok(());
                }
                let text = self.prog.name(*name);
                match self.global(*name) {
                    Some((_, false)) => Ok(()),
                    Some((_, true)) => {
                        Err(self.err(format!("global array `{text}` needs an index"), *pos))
                    }
                    None => Err(self.err(format!("assignment to undeclared `{text}`"), *pos)),
                }
            }
            Stmt::Store { name, index, value, pos } => {
                self.expr(*index)?;
                self.expr(*value)?;
                let text = self.prog.name(*name);
                match self.global(*name) {
                    Some((_, true)) => Ok(()),
                    Some((_, false)) => {
                        Err(self.err(format!("`{text}` is a scalar, not an array"), *pos))
                    }
                    None => Err(self.err(format!("store to undeclared array `{text}`"), *pos)),
                }
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                self.expr(*cond)?;
                self.block(then_blk)?;
                if let Some(e) = else_blk {
                    self.block(e)?;
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                self.expr(*cond)?;
                self.block(body)
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.expr(*v)?;
                }
                Ok(())
            }
            Stmt::Out { value, .. } | Stmt::Assert { value, .. } | Stmt::Expr { value, .. } => {
                self.expr(*value)
            }
        }
    }

    fn expr(&mut self, id: ExprId) -> Result<(), SemaError> {
        let prog = self.prog;
        match &prog[id] {
            Expr::Int { .. } => Ok(()),
            Expr::Var { name, pos } => {
                if self.is_slot(*name) {
                    return Ok(());
                }
                let text = self.prog.name(*name);
                match self.global(*name) {
                    Some((_, false)) => Ok(()),
                    Some((_, true)) => {
                        Err(self.err(format!("global array `{text}` needs an index"), *pos))
                    }
                    None => Err(self.err(format!("use of undeclared `{text}`"), *pos)),
                }
            }
            Expr::Index { name, index, pos } => {
                self.expr(*index)?;
                let text = self.prog.name(*name);
                match self.global(*name) {
                    Some((_, true)) => Ok(()),
                    Some((_, false)) => {
                        Err(self.err(format!("`{text}` is a scalar, not an array"), *pos))
                    }
                    None => Err(self.err(format!("use of undeclared array `{text}`"), *pos)),
                }
            }
            Expr::Call { name, args, pos } => {
                for a in args {
                    self.expr(*a)?;
                }
                let text = self.prog.name(*name);
                match self.arity[name.index()] {
                    Some(arity) if arity == args.len() => Ok(()),
                    Some(arity) => Err(self.err(
                        format!("`{text}` expects {arity} argument(s), got {}", args.len()),
                        *pos,
                    )),
                    None => Err(self.err(format!("call to undefined function `{text}`"), *pos)),
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(*lhs)?;
                self.expr(*rhs)
            }
            Expr::Unary { expr, .. } => self.expr(*expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sema(src: &str) -> Result<SemaInfo, SemaError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn valid_program_resolves() {
        let prog = parse(
            "global g; global a[3];
             fn add(x, y) { let s = x + y; return s; }
             fn main() { g = add(1, 2); a[0] = g; out(a[0]); }",
        )
        .unwrap();
        let info = check(&prog).unwrap();
        let add = &info.functions[0];
        assert_eq!(add.arity, 2);
        assert_eq!(add.locals, 1);
        let slots: Vec<_> = add.slots.iter().map(|(n, s)| (prog.name(*n), *s)).collect();
        assert_eq!(slots, [("x", Slot::Param(0)), ("y", Slot::Param(1)), ("s", Slot::Local(0))]);
    }

    #[test]
    fn missing_main_rejected() {
        let e = sema("fn helper() { }").unwrap_err();
        assert!(e.message.contains("main"));
    }

    #[test]
    fn main_with_params_rejected() {
        assert!(sema("fn main(x) { }").is_err());
    }

    #[test]
    fn undeclared_variable_rejected() {
        let e = sema("fn main() { out(x); }").unwrap_err();
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn use_before_declaration_rejected() {
        assert!(sema("fn main() { out(x); let x = 1; }").is_err());
    }

    #[test]
    fn duplicate_let_rejected() {
        assert!(sema("fn main() { let x = 1; let x = 2; }").is_err());
    }

    #[test]
    fn local_shadowing_global_rejected() {
        assert!(sema("global x; fn main() { let x = 1; }").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = sema("fn f(a) { } fn main() { f(1, 2); }").unwrap_err();
        assert!(e.message.contains("expects 1"));
    }

    #[test]
    fn undefined_function_rejected() {
        assert!(sema("fn main() { nope(); }").is_err());
    }

    #[test]
    fn scalar_indexing_rejected() {
        assert!(sema("global g; fn main() { out(g[0]); }").is_err());
        assert!(sema("global g; fn main() { g[0] = 1; }").is_err());
    }

    #[test]
    fn array_without_index_rejected() {
        assert!(sema("global a[2]; fn main() { out(a); }").is_err());
        assert!(sema("global a[2]; fn main() { a = 2; }").is_err());
    }

    #[test]
    fn duplicate_global_rejected() {
        assert!(sema("global g; global g; fn main() { }").is_err());
    }

    #[test]
    fn duplicate_function_rejected() {
        assert!(sema("fn f() { } fn f() { } fn main() { }").is_err());
    }

    #[test]
    fn function_global_name_clash_rejected() {
        assert!(sema("global f; fn f() { } fn main() { }").is_err());
    }

    #[test]
    fn duplicate_parameter_rejected() {
        assert!(sema("fn f(a, a) { } fn main() { }").is_err());
    }

    #[test]
    fn recursion_allowed() {
        assert!(sema(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn main() { out(fib(10)); }"
        )
        .is_ok());
    }
}
