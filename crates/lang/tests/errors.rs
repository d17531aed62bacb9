//! Compile-error pinning: the message and source position of every MiniC
//! diagnostic the unit tests exercise, as `compile` renders it. A front-end
//! change that moves a position or rewords a message fails here.

use cfed_lang::compile;

const CASES: &[(&str, &str)] = &[
    ("let $x", "parse error at 1:5: unexpected character `$`"),
    ("0x", "parse error at 1:1: empty hex literal"),
    (
        "99999999999999999999999999",
        "parse error at 1:1: integer literal `99999999999999999999999999` out of range",
    ),
    ("fn main() { let = 3; }", "parse error at 1:17: expected identifier, found `=`"),
    ("fn main() { out(1);", "parse error at 1:20: unexpected end of input inside block"),
    (
        "global a[1] = [1, 2]; fn main() { }",
        "parse error at 1:21: 2 initializers for array of length 1",
    ),
    ("fn helper() { }", "semantic error at 0:0: program must define `fn main()`"),
    ("fn main(x) { }", "semantic error at 1:1: `main` must take no parameters"),
    ("fn main() { out(x); }", "semantic error at 1:17: use of undeclared `x`"),
    ("fn main() { out(x); let x = 1; }", "semantic error at 1:17: use of undeclared `x`"),
    (
        "fn main() { let x = 1; let x = 2; }",
        "semantic error at 1:24: `x` is already declared in `main`",
    ),
    (
        "global x; fn main() { let x = 1; }",
        "semantic error at 1:23: `x` shadows a global of the same name",
    ),
    (
        "fn f(a) { } fn main() { f(1, 2); }",
        "semantic error at 1:25: `f` expects 1 argument(s), got 2",
    ),
    ("fn main() { nope(); }", "semantic error at 1:13: call to undefined function `nope`"),
    ("global g; fn main() { out(g[0]); }", "semantic error at 1:27: `g` is a scalar, not an array"),
    ("global g; fn main() { g[0] = 1; }", "semantic error at 1:23: `g` is a scalar, not an array"),
    (
        "global a[2]; fn main() { out(a); }",
        "semantic error at 1:30: global array `a` needs an index",
    ),
    (
        "global a[2]; fn main() { a = 2; }",
        "semantic error at 1:26: global array `a` needs an index",
    ),
    ("global g; global g; fn main() { }", "semantic error at 1:11: duplicate global `g`"),
    ("fn f() { } fn f() { } fn main() { }", "semantic error at 1:12: duplicate definition of `f`"),
    ("global f; fn f() { } fn main() { }", "semantic error at 1:11: duplicate definition of `f`"),
    ("fn f(a, a) { } fn main() { }", "semantic error at 1:1: duplicate parameter `a` in `f`"),
    ("fn main() { out(1 +); }", "parse error at 1:20: expected expression, found `)`"),
    ("x", "parse error at 1:1: expected `fn` or `global`, found identifier `x`"),
    ("fn main() { else }", "parse error at 1:13: expected statement, found `else`"),
    (
        "global a[]; fn main() { }",
        "parse error at 1:11: array global needs a length or an initializer",
    ),
    ("global a[0]; fn main() { }", "parse error at 1:11: array length must be positive, got 0"),
    ("fn main() { out(1) }", "parse error at 1:20: expected `;`, found `}`"),
    ("fn main() { x = 1; }", "semantic error at 1:13: assignment to undeclared `x`"),
    ("fn main() { a[0] = 1; }", "semantic error at 1:13: store to undeclared array `a`"),
    ("fn main() { out(a[0]); }", "semantic error at 1:17: use of undeclared array `a`"),
    ("fn main() { out(\u{e9}); }", "parse error at 1:17: unexpected character `é`"),
    (
        "global g = x; fn main() { }",
        "parse error at 1:12: expected integer literal, found identifier `x`",
    ),
    ("fn main() { let x = 1 }", "parse error at 1:23: expected `;`, found `}`"),
];

#[test]
fn compile_errors_are_pinned() {
    for (src, want) in CASES {
        match compile(src) {
            Ok(_) => panic!("`{src}` compiled; expected `{want}`"),
            Err(e) => assert_eq!(e.to_string(), *want, "source `{src}`"),
        }
    }
}
