//! Recursive-descent parser for MiniC with precedence-climbing expressions.

use crate::ast::*;
use crate::lexer::{LexError, Lexer, Tok, Token};
use std::error::Error;
use std::fmt;

/// A syntax error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the error occurred.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { message: e.message, pos: e.pos }
    }
}

/// The deepest nesting the parser accepts, counted over parentheses and
/// other bracketed sub-expressions, unary operators, binary operators on
/// one left-leaning chain, blocks and `else if` links together. Parsing,
/// sema and codegen recurse over this nesting (and dropping a program over
/// its nested blocks), so the bound keeps each of them within a 2 MiB
/// thread stack.
pub const MAX_NESTING: u32 = 256;

/// Parses MiniC source text into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, including
/// nesting deeper than [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// use cfed_lang::parse;
///
/// let prog = parse("fn main() { out(1 + 2 * 3); }")?;
/// assert_eq!(prog.functions.len(), 1);
/// assert_eq!(prog.name(prog.functions[0].name), "main");
/// # Ok::<(), cfed_lang::parser::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program<'_>, ParseError> {
    let mut lexer = Lexer::new(src);
    let cur = lexer.next_token();
    let exprs = Vec::with_capacity(src.len() / 16);
    let mut parser = Parser { lexer, cur, next: None, depth: 0, exprs };
    let prog = parser.program();
    // A lexical error anywhere in the source wins over the parse result.
    let names = parser.lexer.finish()?;
    Ok(Program { names, ..prog? })
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    cur: Token<'src>,
    /// The token after `cur`, once looked at.
    next: Option<Token<'src>>,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: u32,
    /// The expression arena, moved into the [`Program`] at the end.
    exprs: Vec<Expr>,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Tok<'src> {
        self.cur.tok
    }

    /// The token after the current one.
    fn peek2(&mut self) -> Tok<'src> {
        match self.next {
            Some(t) => t.tok,
            None => {
                let t = self.lexer.next_token();
                self.next = Some(t);
                t.tok
            }
        }
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    fn advance(&mut self) {
        self.cur = match self.next.take() {
            Some(t) => t,
            None => self.lexer.next_token(),
        };
    }

    fn check(&mut self, tok: Tok<'_>) -> bool {
        if self.peek() == tok {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<(), ParseError> {
        if self.check(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", tok, self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { message, pos: self.pos() }
    }

    /// Enters one more nesting level; [`Parser::leave`] undoes it.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    /// Leaves `levels` nesting levels.
    fn leave(&mut self, levels: u32) {
        self.depth -= levels;
    }

    fn ident(&mut self) -> Result<Name, ParseError> {
        match self.peek() {
            Tok::Ident(name, _) => {
                self.advance();
                Ok(name)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn int_literal(&mut self) -> Result<i64, ParseError> {
        // Allow a leading minus in constant contexts (global initializers).
        let neg = self.check(Tok::Minus);
        match self.peek() {
            Tok::Int(v) => {
                self.advance();
                Ok(if neg { v.wrapping_neg() } else { v })
            }
            other => Err(self.err(format!("expected integer literal, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program<'src>, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Global => prog.globals.push(self.global()?),
                Tok::Fn => prog.functions.push(self.function()?),
                other => return Err(self.err(format!("expected `fn` or `global`, found {other}"))),
            }
        }
        prog.exprs = std::mem::take(&mut self.exprs);
        Ok(prog)
    }

    fn push(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    fn global(&mut self) -> Result<Global, ParseError> {
        let pos = self.pos();
        self.expect(Tok::Global)?;
        let name = self.ident()?;
        let mut is_array = false;
        let mut len = 1u64;
        let mut explicit_len = false;
        if self.check(Tok::LBracket) {
            is_array = true;
            if !self.check(Tok::RBracket) {
                let n = self.int_literal()?;
                if n <= 0 {
                    return Err(self.err(format!("array length must be positive, got {n}")));
                }
                len = n as u64;
                explicit_len = true;
                self.expect(Tok::RBracket)?;
            }
        }
        let mut init = Vec::new();
        if self.check(Tok::Assign) {
            if is_array {
                self.expect(Tok::LBracket)?;
                if !self.check(Tok::RBracket) {
                    loop {
                        init.push(self.int_literal()?);
                        if !self.check(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBracket)?;
                }
                if !explicit_len {
                    len = init.len() as u64;
                } else if init.len() as u64 > len {
                    return Err(
                        self.err(format!("{} initializers for array of length {len}", init.len()))
                    );
                }
            } else {
                init.push(self.int_literal()?);
            }
        } else if is_array && !explicit_len {
            return Err(self.err("array global needs a length or an initializer".into()));
        }
        self.expect(Tok::Semi)?;
        Ok(Global { name, len, init, is_array, pos })
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let pos = self.pos();
        self.expect(Tok::Fn)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.check(Tok::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.check(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let body = self.block()?;
        Ok(Function { name, params, body, pos })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(Tok::LBrace)?;
        self.enter()?;
        let mut stmts = Vec::new();
        while !self.check(Tok::RBrace) {
            if self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of input inside block".into()));
            }
            stmts.push(self.stmt()?);
        }
        self.leave(1);
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Let => {
                self.advance();
                let name = self.ident()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Let { name, value, pos })
            }
            Tok::If => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_blk = self.block()?;
                let else_blk = if self.check(Tok::Else) {
                    if self.peek() == Tok::If {
                        // `else if` sugar: wrap in a single-statement block.
                        self.enter()?;
                        let inner = self.stmt()?;
                        self.leave(1);
                        Some(Block { stmts: vec![inner] })
                    } else {
                        Some(self.block()?)
                    }
                } else {
                    None
                };
                Ok(Stmt::If { cond, then_blk, else_blk, pos })
            }
            Tok::While => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, pos })
            }
            Tok::Return => {
                self.advance();
                let value = if self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, pos })
            }
            Tok::Out => {
                self.advance();
                self.expect(Tok::LParen)?;
                let value = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Out { value, pos })
            }
            Tok::Assert => {
                self.advance();
                self.expect(Tok::LParen)?;
                let value = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Assert { value, pos })
            }
            Tok::Ident(name, _) => {
                // Could be assignment, array store, or expression statement.
                match self.peek2() {
                    Tok::Assign => {
                        self.advance();
                        self.advance();
                        let value = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Assign { name, value, pos })
                    }
                    Tok::LBracket => {
                        // Look ahead: `a[e] = v;` is a store; `a[e]` in an
                        // expression statement is rare but must still parse —
                        // we try store first by scanning for `]` `=` is
                        // ambiguous, so parse the index then decide.
                        self.advance();
                        self.advance();
                        let index = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        if self.check(Tok::Assign) {
                            let value = self.expr()?;
                            self.expect(Tok::Semi)?;
                            Ok(Stmt::Store { name, index, value, pos })
                        } else {
                            // Expression statement of an index read.
                            let value = self.push(Expr::Index { name, index, pos });
                            let value = self.binary_rhs(value, 0)?;
                            self.expect(Tok::Semi)?;
                            Ok(Stmt::Expr { value, pos })
                        }
                    }
                    _ => {
                        let value = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Expr { value, pos })
                    }
                }
            }
            Tok::LBrace => {
                // Anonymous block: inline as an if(1) for simplicity.
                let blk = self.block()?;
                Ok(Stmt::If {
                    cond: self.push(Expr::Int { value: 1, pos }),
                    then_blk: blk,
                    else_blk: None,
                    pos,
                })
            }
            other => Err(self.err(format!("expected statement, found {other}"))),
        }
    }

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        self.enter()?;
        let lhs = self.unary()?;
        let e = self.binary_rhs(lhs, 0)?;
        self.leave(1);
        Ok(e)
    }

    /// Each operator folded into `lhs` deepens the left-leaning tree by one
    /// level, so it counts as one level of nesting until the chain ends.
    fn binary_rhs(&mut self, mut lhs: ExprId, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut chain = 0;
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (BinOp::LogOr, 1),
                Tok::AmpAmp => (BinOp::LogAnd, 2),
                Tok::Pipe => (BinOp::Or, 3),
                Tok::Caret => (BinOp::Xor, 4),
                Tok::Amp => (BinOp::And, 5),
                Tok::EqEq => (BinOp::Eq, 6),
                Tok::NotEq => (BinOp::Ne, 6),
                Tok::Lt => (BinOp::Lt, 7),
                Tok::Le => (BinOp::Le, 7),
                Tok::Gt => (BinOp::Gt, 7),
                Tok::Ge => (BinOp::Ge, 7),
                Tok::Shl => (BinOp::Shl, 8),
                Tok::Shr => (BinOp::Shr, 8),
                Tok::Plus => (BinOp::Add, 9),
                Tok::Minus => (BinOp::Sub, 9),
                Tok::Star => (BinOp::Mul, 10),
                Tok::Slash => (BinOp::Div, 10),
                Tok::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.enter()?;
            chain += 1;
            self.advance();
            let mut rhs = self.unary()?;
            // Left associative: bind tighter operators to the right operand.
            loop {
                let next_prec = match self.peek() {
                    Tok::PipePipe => 1,
                    Tok::AmpAmp => 2,
                    Tok::Pipe => 3,
                    Tok::Caret => 4,
                    Tok::Amp => 5,
                    Tok::EqEq | Tok::NotEq => 6,
                    Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge => 7,
                    Tok::Shl | Tok::Shr => 8,
                    Tok::Plus | Tok::Minus => 9,
                    Tok::Star | Tok::Slash | Tok::Percent => 10,
                    _ => 0,
                };
                if next_prec > prec {
                    rhs = self.binary_rhs(rhs, prec + 1)?;
                } else {
                    break;
                }
            }
            lhs = self.push(Expr::Binary { op, lhs, rhs, pos });
        }
        self.leave(chain);
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            Tok::Tilde => UnOp::BitNot,
            _ => return self.primary(),
        };
        self.advance();
        self.enter()?;
        let e = self.unary()?;
        self.leave(1);
        Ok(self.push(Expr::Unary { op, expr: e, pos }))
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Int(value) => {
                self.advance();
                Ok(self.push(Expr::Int { value, pos }))
            }
            Tok::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name, _) => {
                self.advance();
                if self.check(Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.check(Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.check(Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    Ok(self.push(Expr::Call { name, args, pos }))
                } else if self.check(Tok::LBracket) {
                    let index = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(self.push(Expr::Index { name, index, pos }))
                } else {
                    Ok(self.push(Expr::Var { name, pos }))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `out(<src>);` and hands the program and the expression to `f`.
    fn with_expr(src: &str, f: impl FnOnce(&Program<'_>, &Expr)) {
        let src = format!("fn main() {{ out({src}); }}");
        let prog = parse(&src).unwrap();
        match &prog.functions[0].body.stmts[0] {
            Stmt::Out { value, .. } => f(&prog, &prog[*value]),
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    fn op_of(e: &Expr) -> BinOp {
        match e {
            Expr::Binary { op, .. } => *op,
            other => panic!("not binary: {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        with_expr("1 + 2 * 3", |prog, e| {
            assert_eq!(op_of(e), BinOp::Add);
            let Expr::Binary { rhs, .. } = e else { panic!() };
            assert_eq!(op_of(&prog[*rhs]), BinOp::Mul);
        });
    }

    #[test]
    fn left_associativity() {
        // (10 - 3) - 2
        with_expr("10 - 3 - 2", |prog, e| {
            let Expr::Binary { op, lhs, rhs, .. } = e else { panic!() };
            assert_eq!(*op, BinOp::Sub);
            assert_eq!(op_of(&prog[*lhs]), BinOp::Sub);
            assert!(matches!(prog[*rhs], Expr::Int { value: 2, .. }));
        });
    }

    #[test]
    fn comparison_below_logical() {
        with_expr("a < b && c > d", |_, e| assert_eq!(op_of(e), BinOp::LogAnd));
    }

    #[test]
    fn parens_override() {
        with_expr("(1 + 2) * 3", |_, e| assert_eq!(op_of(e), BinOp::Mul));
    }

    #[test]
    fn unary_chain() {
        with_expr("-~!x", |_, e| assert!(matches!(e, Expr::Unary { op: UnOp::Neg, .. })));
    }

    #[test]
    fn calls_and_indexing() {
        with_expr("f(1, g(2), a[i + 1])", |prog, e| {
            let Expr::Call { name, args, .. } = e else { panic!() };
            assert_eq!(prog.name(*name), "f");
            assert_eq!(args.len(), 3);
            assert!(matches!(prog[args[2]], Expr::Index { .. }));
        });
    }

    #[test]
    fn statements_parse() {
        let src = r#"
            global counter;
            global table[4] = [1, 2, 3, 4];
            fn helper(x) { return x + 1; }
            fn main() {
                let i = 0;
                while (i < 10) {
                    if (i % 2 == 0) { counter = counter + helper(i); }
                    else { table[i % 4] = i; }
                    i = i + 1;
                }
                assert(counter > 0);
                out(counter);
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.globals.len(), 2);
        assert_eq!(prog.globals[1].len, 4);
        assert_eq!(prog.functions.len(), 2);
    }

    #[test]
    fn else_if_chains() {
        let src = "fn main() { if (1) { out(1); } else if (2) { out(2); } else { out(3); } }";
        let prog = parse(src).unwrap();
        if let Stmt::If { else_blk, .. } = &prog.functions[0].body.stmts[0] {
            let inner = &else_blk.as_ref().unwrap().stmts[0];
            assert!(matches!(inner, Stmt::If { .. }));
        } else {
            panic!()
        }
    }

    #[test]
    fn negative_global_initializer() {
        let prog = parse("global g = -5; fn main() { }").unwrap();
        assert_eq!(prog.globals[0].init, vec![-5]);
    }

    #[test]
    fn array_without_length_infers_from_init() {
        let prog = parse("global a[] = [7, 8]; fn main() { }").unwrap();
        assert_eq!(prog.globals[0].len, 2);
    }

    #[test]
    fn error_messages_have_positions() {
        let err = parse("fn main() { let = 3; }").unwrap_err();
        assert!(err.message.contains("identifier"));
        assert_eq!(err.pos.line, 1);
    }

    #[test]
    fn unterminated_block_reported() {
        assert!(parse("fn main() { out(1);").is_err());
    }

    #[test]
    fn index_read_statement() {
        // `a[i];` as a bare statement must parse (continue_expr path).
        let prog = parse("global a[2]; fn main() { a[0]; a[0] + 1; }").unwrap();
        assert_eq!(prog.functions[0].body.stmts.len(), 2);
    }

    #[test]
    fn too_many_initializers_rejected() {
        assert!(parse("global a[1] = [1, 2]; fn main() { }").is_err());
    }
}
