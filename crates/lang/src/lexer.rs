//! Lexer for MiniC.
//!
//! Tokens borrow their text from the source, and each distinct identifier
//! is interned once into a [`Name`].

use crate::ast::{Name, Pos};
use cfed_isa::FxBuildHasher;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A lexical token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    // Literals / identifiers.
    Int(i64),
    /// An identifier: its interned name and its source text.
    Ident(Name, &'src str),
    // Keywords.
    Fn,
    Let,
    If,
    Else,
    While,
    Return,
    Global,
    Out,
    Assert,
    // Punctuation.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Assign,
    // Operators.
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AmpAmp,
    PipePipe,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Ident(_, s) => write!(f, "identifier `{s}`"),
            Tok::Fn => write!(f, "`fn`"),
            Tok::Let => write!(f, "`let`"),
            Tok::If => write!(f, "`if`"),
            Tok::Else => write!(f, "`else`"),
            Tok::While => write!(f, "`while`"),
            Tok::Return => write!(f, "`return`"),
            Tok::Global => write!(f, "`global`"),
            Tok::Out => write!(f, "`out`"),
            Tok::Assert => write!(f, "`assert`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Caret => write!(f, "`^`"),
            Tok::Tilde => write!(f, "`~`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Shl => write!(f, "`<<`"),
            Tok::Shr => write!(f, "`>>`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::AmpAmp => write!(f, "`&&`"),
            Tok::PipePipe => write!(f, "`||`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token kind and payload.
    pub tok: Tok<'src>,
    /// Where it starts.
    pub pos: Pos,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Where the error occurred.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl Error for LexError {}

/// The output of [`lex`]: the token stream and the interned identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lexed<'src> {
    /// The tokens, ending with [`Tok::Eof`].
    pub tokens: Vec<Token<'src>>,
    /// The text of every [`Name`], indexed by id.
    pub names: Vec<&'src str>,
}

/// Tokenizes MiniC source text.
///
/// Collects a [`Lexer`]'s stream; the parser pulls tokens one at a time
/// instead.
///
/// # Errors
///
/// Returns the first [`LexError`]: an unknown character or a malformed
/// literal.
///
/// # Examples
///
/// ```
/// use cfed_lang::lexer::{lex, Tok};
/// let lexed = lex("let x = 0x10; // comment").unwrap();
/// let toks = &lexed.tokens;
/// assert_eq!(toks[0].tok, Tok::Let);
/// assert!(matches!(toks[1].tok, Tok::Ident(name, "x") if lexed.names[name.index()] == "x"));
/// assert_eq!(toks[2].tok, Tok::Assign);
/// assert_eq!(toks[3].tok, Tok::Int(16));
/// assert_eq!(toks.last().unwrap().tok, Tok::Eof);
/// ```
pub fn lex(src: &str) -> Result<Lexed<'_>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut tokens = Vec::new();
    loop {
        let token = lexer.next_token();
        tokens.push(token);
        if token.tok == Tok::Eof {
            break;
        }
    }
    Ok(Lexed { tokens, names: lexer.finish()? })
}

/// The end of the run of bytes from `from` on that satisfy `pred`.
fn scan(bytes: &[u8], from: usize, pred: impl Fn(u8) -> bool) -> usize {
    from + bytes[from..].iter().position(|&b| !pred(b)).unwrap_or(bytes.len() - from)
}

/// A streaming tokenizer over MiniC source text.
///
/// Supports `//` line comments, decimal and `0x` hexadecimal integer
/// literals, and the operator set of the language. Columns count bytes.
pub struct Lexer<'src> {
    src: &'src str,
    i: usize,
    line: u32,
    /// Byte index where the current line starts.
    line_start: usize,
    names: Vec<&'src str>,
    /// Hashed with Fx: over the 26 `Scale::Full` images it interns ~0.035 s
    /// faster than SipHash.
    ids: HashMap<&'src str, Name, FxBuildHasher>,
    /// The first lexical error; the stream ends there.
    error: Option<LexError>,
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'src str) -> Lexer<'src> {
        Lexer {
            src,
            i: 0,
            line: 1,
            line_start: 0,
            names: Vec::new(),
            ids: HashMap::default(),
            error: None,
        }
    }

    /// The next token. At the end of input, and from the first lexical
    /// error on, every call returns [`Tok::Eof`].
    pub fn next_token(&mut self) -> Token<'src> {
        let bytes = self.src.as_bytes();
        if self.error.is_some() {
            self.i = bytes.len();
        }
        // Skip whitespace and comments.
        while let Some(&c) = bytes.get(self.i) {
            match c {
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'\n' => {
                    self.i += 1;
                    self.line += 1;
                    self.line_start = self.i;
                    // Indentation follows most newlines: skip it in one go.
                    self.i = scan(bytes, self.i, |b| b == b' ');
                }
                b'/' if bytes.get(self.i + 1) == Some(&b'/') => {
                    let rest = &bytes[self.i..];
                    self.i += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                }
                _ => break,
            }
        }
        let pos = Pos { line: self.line, col: (self.i - self.line_start) as u32 + 1 };
        let tok = match self.token() {
            Ok(tok) => tok,
            Err(message) => {
                self.error = Some(LexError { message, pos });
                Tok::Eof
            }
        };
        Token { tok, pos }
    }

    /// Consumes the token at `self.i` (not whitespace).
    fn token(&mut self) -> Result<Tok<'src>, String> {
        let src = self.src;
        let bytes = src.as_bytes();
        let i = self.i;
        let Some(&c) = bytes.get(i) else { return Ok(Tok::Eof) };
        let tok = match c {
            b'0' if matches!(bytes.get(i + 1), Some(b'x' | b'X')) => {
                let end = scan(bytes, i + 2, |b| b.is_ascii_hexdigit());
                self.i = end;
                let text = &src[i + 2..end];
                if text.is_empty() {
                    return Err("empty hex literal".into());
                }
                let value = u64::from_str_radix(text, 16)
                    .map_err(|_| format!("hex literal `{text}` out of range"))?;
                Tok::Int(value as i64)
            }
            b'0'..=b'9' => {
                let end = scan(bytes, i, |b| b.is_ascii_digit());
                self.i = end;
                let text = &src[i..end];
                Tok::Int(
                    text.parse().map_err(|_| format!("integer literal `{text}` out of range"))?,
                )
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = scan(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'_');
                self.i = end;
                let word = &src[i..end];
                match word {
                    "fn" => Tok::Fn,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "return" => Tok::Return,
                    "global" => Tok::Global,
                    "out" => Tok::Out,
                    "assert" => Tok::Assert,
                    _ => {
                        let names = &mut self.names;
                        let name = *self.ids.entry(word).or_insert_with(|| {
                            names.push(word);
                            Name(names.len() as u32 - 1)
                        });
                        Tok::Ident(name, word)
                    }
                }
            }
            _ => {
                // Two-character operators first.
                let (tok, len) = match (c, bytes.get(i + 1).copied().unwrap_or(0)) {
                    (b'<', b'<') => (Tok::Shl, 2),
                    (b'>', b'>') => (Tok::Shr, 2),
                    (b'=', b'=') => (Tok::EqEq, 2),
                    (b'!', b'=') => (Tok::NotEq, 2),
                    (b'<', b'=') => (Tok::Le, 2),
                    (b'>', b'=') => (Tok::Ge, 2),
                    (b'&', b'&') => (Tok::AmpAmp, 2),
                    (b'|', b'|') => (Tok::PipePipe, 2),
                    (b'(', _) => (Tok::LParen, 1),
                    (b')', _) => (Tok::RParen, 1),
                    (b'{', _) => (Tok::LBrace, 1),
                    (b'}', _) => (Tok::RBrace, 1),
                    (b'[', _) => (Tok::LBracket, 1),
                    (b']', _) => (Tok::RBracket, 1),
                    (b',', _) => (Tok::Comma, 1),
                    (b';', _) => (Tok::Semi, 1),
                    (b'=', _) => (Tok::Assign, 1),
                    (b'+', _) => (Tok::Plus, 1),
                    (b'-', _) => (Tok::Minus, 1),
                    (b'*', _) => (Tok::Star, 1),
                    (b'/', _) => (Tok::Slash, 1),
                    (b'%', _) => (Tok::Percent, 1),
                    (b'&', _) => (Tok::Amp, 1),
                    (b'|', _) => (Tok::Pipe, 1),
                    (b'^', _) => (Tok::Caret, 1),
                    (b'~', _) => (Tok::Tilde, 1),
                    (b'!', _) => (Tok::Bang, 1),
                    (b'<', _) => (Tok::Lt, 1),
                    (b'>', _) => (Tok::Gt, 1),
                    _ => {
                        let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
                        return Err(format!("unexpected character `{ch}`"));
                    }
                };
                self.i += len;
                tok
            }
        };
        Ok(tok)
    }

    /// Ends the stream: the interned names (the text of every [`Name`],
    /// indexed by id), or the first lexical error. Tokens not yet pulled
    /// are scanned for errors first, so a lexical error anywhere in the
    /// source wins over whatever the consumer made of the tokens.
    ///
    /// # Errors
    ///
    /// The first [`LexError`] in the source.
    pub fn finish(mut self) -> Result<Vec<&'src str>, LexError> {
        while self.error.is_none() && self.next_token().tok != Tok::Eof {}
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.names),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().tokens.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("fn foo let iffy"),
            vec![
                Tok::Fn,
                Tok::Ident(Name(0), "foo"),
                Tok::Let,
                Tok::Ident(Name(1), "iffy"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn identifiers_interned_once() {
        let lexed = lex("a b a _c b").unwrap();
        let ids: Vec<Name> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(name, _) => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [Name(0), Name(1), Name(0), Name(2), Name(1)]);
        assert_eq!(lexed.names, ["a", "b", "_c"]);
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("0 42 0xFF"), vec![Tok::Int(0), Tok::Int(42), Tok::Int(255), Tok::Eof]);
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("< << <= = == & &&"),
            vec![
                Tok::Lt,
                Tok::Shl,
                Tok::Le,
                Tok::Assign,
                Tok::EqEq,
                Tok::Amp,
                Tok::AmpAmp,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(kinds("1 // two three\n4"), vec![Tok::Int(1), Tok::Int(4), Tok::Eof]);
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap().tokens;
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn bad_character_reported() {
        let err = lex("let $x").unwrap_err();
        assert!(err.message.contains('$'));
        assert_eq!(err.pos.col, 5);
    }

    #[test]
    fn empty_hex_reported() {
        assert!(lex("0x").is_err());
    }

    #[test]
    fn huge_decimal_reported() {
        assert!(lex("99999999999999999999999999").is_err());
    }
}
