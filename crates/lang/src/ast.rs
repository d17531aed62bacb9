//! Abstract syntax tree for MiniC.
//!
//! MiniC is a small imperative language over 64-bit integers, designed to
//! generate guest code whose *control-flow structure* matches real programs:
//! nested loops, short-circuit conditions, function calls (direct and through
//! function pointers is not supported — calls are direct; indirect control
//! flow enters via `ret`), and global arrays. Arithmetic is 64-bit; `/` and
//! `%` are unsigned (the VISA `div`), comparisons are signed.

/// Source position (1-based line and column) for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An interned identifier: index into [`Program::names`].
///
/// The lexer interns each distinct identifier once, so later passes compare
/// and look names up by this `Copy` id instead of by string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(pub(crate) u32);

impl Name {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An expression: index into [`Program::exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub(crate) u32);

/// A complete MiniC program. Identifier text is borrowed from the source;
/// expressions live in one arena and refer to their operands by
/// [`ExprId`] (index the program with it: `prog[id]`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program<'src> {
    /// Global scalar/array declarations.
    pub globals: Vec<Global>,
    /// Function definitions.
    pub functions: Vec<Function>,
    /// The text of every [`Name`], indexed by id.
    pub names: Vec<&'src str>,
    /// Every expression, operands before the expressions that use them.
    pub exprs: Vec<Expr>,
}

impl Program<'_> {
    /// The text of an identifier.
    pub fn name(&self, name: Name) -> &str {
        self.names[name.index()]
    }
}

impl std::ops::Index<ExprId> for Program<'_> {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }
}

/// A global declaration: `global g;`, `global g = 7;`,
/// `global a[100];` or `global a[] = [1, 2, 3];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name of the global.
    pub name: Name,
    /// Number of 64-bit elements (1 for scalars).
    pub len: u64,
    /// Initial values (padded with zeros to `len`).
    pub init: Vec<i64>,
    /// Whether the declaration used array syntax.
    pub is_array: bool,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: Name,
    /// Parameter names.
    pub params: Vec<Name>,
    /// Body block.
    pub body: Block,
    /// Source position of the definition.
    pub pos: Pos,
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `let x = expr;` — declares a local.
    Let { name: Name, value: ExprId, pos: Pos },
    /// `x = expr;` — assigns a local, parameter, or global scalar.
    Assign { name: Name, value: ExprId, pos: Pos },
    /// `a[idx] = expr;` — stores to a global array.
    Store { name: Name, index: ExprId, value: ExprId, pos: Pos },
    /// `if (cond) { .. } else { .. }`.
    If { cond: ExprId, then_blk: Block, else_blk: Option<Block>, pos: Pos },
    /// `while (cond) { .. }`.
    While { cond: ExprId, body: Block, pos: Pos },
    /// `return expr?;`
    Return { value: Option<ExprId>, pos: Pos },
    /// `out(expr);` — emits a value on the observable output stream.
    Out { value: ExprId, pos: Pos },
    /// `assert(expr);` — traps with `GUEST_ASSERT` when the value is zero.
    Assert { value: ExprId, pos: Pos },
    /// An expression evaluated for its side effects (typically a call).
    Expr { value: ExprId, pos: Pos },
}

/// Binary operators in MiniC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (unsigned)
    Div,
    /// `%` (unsigned)
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>` (logical)
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (signed)
    Lt,
    /// `<=` (signed)
    Le,
    /// `>` (signed)
    Gt,
    /// `>=` (signed)
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

impl BinOp {
    /// Returns `true` for the comparison operators producing 0/1.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Returns `true` for the short-circuit logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!x` is 1 when x == 0).
    Not,
    /// Bitwise complement.
    BitNot,
}

/// An expression; operands are [`ExprId`]s into [`Program::exprs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int { value: i64, pos: Pos },
    /// Variable reference (local, parameter, or global scalar).
    Var { name: Name, pos: Pos },
    /// Global array element read: `a[idx]`.
    Index { name: Name, index: ExprId, pos: Pos },
    /// Direct call: `f(a, b)`.
    Call { name: Name, args: Vec<ExprId>, pos: Pos },
    /// Binary operation.
    Binary { op: BinOp, lhs: ExprId, rhs: ExprId, pos: Pos },
    /// Unary operation.
    Unary { op: UnOp, expr: ExprId, pos: Pos },
}

impl Expr {
    /// The source position of the expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int { pos, .. }
            | Expr::Var { pos, .. }
            | Expr::Index { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Binary { pos, .. }
            | Expr::Unary { pos, .. } => *pos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogAnd.is_logical());
        assert!(!BinOp::And.is_logical());
    }

    #[test]
    fn expr_pos_extraction() {
        let p = Pos { line: 3, col: 9 };
        let e = Expr::Int { value: 1, pos: p };
        assert_eq!(e.pos(), p);
        assert_eq!(p.to_string(), "3:9");
    }
}
