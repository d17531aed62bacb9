//! Nesting bound: arbitrarily deep input ends in a typed `ParseError`, and
//! the deepest accepted program compiles, on a thread with the 2 MiB stack
//! that `parallel_map` workers get. Parsing, sema and codegen all recurse
//! over the nesting, so one bound in the parser keeps all of them in that
//! stack.

use cfed_lang::parser::MAX_NESTING;
use cfed_lang::{compile, CompileError};

const STACK: usize = 2 << 20;

/// Compiles `src` on a fresh 2 MiB-stack thread.
fn compile_on_small_stack(src: String) -> Result<usize, CompileError> {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || compile(&src).map(|image| image.len()))
        .expect("spawn")
        .join()
        .expect("compile must not crash")
}

fn assert_too_deep(src: String) {
    match compile_on_small_stack(src) {
        Err(CompileError::Parse(e)) => {
            assert_eq!(e.message, format!("nesting deeper than {MAX_NESTING} levels"))
        }
        other => panic!("expected a nesting error, got {other:?}"),
    }
}

/// `out(` + `n` × open + `1` + `n` × close + `);` inside `main`.
fn nested_out(n: usize, open: &str, close: &str) -> String {
    format!("fn main() {{ out({}1{}); }}", open.repeat(n), close.repeat(n))
}

/// `n` nested statements of the given shape around `out(1);`.
fn nested_stmts(n: usize, open: &str, close: &str) -> String {
    format!("fn main() {{ let x = 1; {} out(1); {} }}", open.repeat(n), close.repeat(n))
}

/// The largest `n` for which `make(n)` compiles (the bound is exact, so
/// the search is a plain scan down from the bound).
fn deepest_accepted(make: impl Fn(usize) -> String) -> usize {
    let n = (0..=MAX_NESTING as usize)
        .rev()
        .find(|&n| cfed_lang::parse(&make(n)).is_ok())
        .expect("shallow input parses");
    compile_on_small_stack(make(n)).expect("deepest accepted program compiles");
    assert!(cfed_lang::parse(&make(n + 1)).is_err());
    n
}

#[test]
fn deep_parentheses_are_a_parse_error() {
    assert_too_deep(nested_out(100_000, "(", ")"));
    let n = deepest_accepted(|n| nested_out(n, "(", ")"));
    assert!(n >= MAX_NESTING as usize - 4, "parentheses accepted only to depth {n}");
}

#[test]
fn deep_unary_chains_are_a_parse_error() {
    assert_too_deep(nested_out(100_000 / 3, "-~!", ""));
    let n = deepest_accepted(|n| nested_out(n, "-", ""));
    assert!(n >= MAX_NESTING as usize - 4, "unary chain accepted only to depth {n}");
}

#[test]
fn deep_statement_nesting_is_a_parse_error() {
    assert_too_deep(nested_stmts(50_000, "if (x) { while (x) { x = x - 1; ", "} }"));
    assert_too_deep(nested_stmts(100_000, "if (x) { ", "}"));
    let n = deepest_accepted(|n| nested_stmts(n, "if (x) { ", "}"));
    assert!(n >= MAX_NESTING as usize - 4, "blocks accepted only to depth {n}");
}

#[test]
fn deep_else_if_chains_are_a_parse_error() {
    let chain = |n: usize| {
        format!("fn main() {{ let x = 1; if (x) {{ }}{} }}", " else if (x) { }".repeat(n))
    };
    assert_too_deep(chain(100_000));
    let n = deepest_accepted(chain);
    assert!(n >= MAX_NESTING as usize - 4, "else-if chain accepted only to depth {n}");
}

#[test]
fn long_operator_chains_are_a_parse_error() {
    // `1 + 1 + … + 1` folds into a left-leaning tree as deep as the chain.
    let chain = |n: usize| format!("fn main() {{ out(1{}); }}", " + 1".repeat(n));
    assert_too_deep(chain(100_000));
    let n = deepest_accepted(chain);
    assert!(n >= MAX_NESTING as usize - 4, "operator chain accepted only to length {n}");
}
