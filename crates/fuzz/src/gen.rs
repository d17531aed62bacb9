//! The two-tier structured program generator.
//!
//! Tier one emits MiniC source (loops, calls, recursion, arrays, guarded
//! division, early returns) and lowers it through `cfed-lang`, so the
//! generated programs look like compiler output. Tier two assembles raw
//! VISA the compiler never produces — indirect jumps through address
//! tables, flag-free `jrz`/`jrnz` loops, flag-preserving `lea` chains and
//! a self-modifying store behind a runtime flag — to exercise the decode
//! cache and DBT invalidation paths.
//!
//! Generation is a pure function of the seed: no wall clock, no OS
//! randomness, no global state. The same seed always yields the same
//! [`cfed_asm::Image`], which is what makes the corpus and every verdict
//! reproducible.

use cfed_asm::{Asm, Image};
use cfed_isa::{AluOp, Cond, Inst, Reg};
use rand::{Rng, SeedableRng as _, StdRng};

/// Which generator tier produced a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// MiniC source lowered through `cfed-lang`.
    MiniC,
    /// Raw VISA assembled directly (encodings the compiler never emits).
    Visa,
}

impl Tier {
    /// Short stable name used in reports and regression files.
    pub fn name(self) -> &'static str {
        match self {
            Tier::MiniC => "minic",
            Tier::Visa => "visa",
        }
    }

    /// Parses [`Tier::name`] back.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "minic" => Some(Tier::MiniC),
            "visa" => Some(Tier::Visa),
            _ => None,
        }
    }
}

/// One generated program, ready for the oracle.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// Generator tier.
    pub tier: Tier,
    /// The seed that produced it (replay key).
    pub seed: u64,
    /// MiniC source, for tier-one programs (provenance in regression files).
    pub source: Option<String>,
    /// The linked image every backend runs.
    pub image: Image,
}

/// Derives the per-iteration seed from the campaign seed. O(1), collision
/// scattered by splitmix64 — the schedule the whole corpus reproduces from.
pub fn schedule_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut x = campaign_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1));
    rand::splitmix64(&mut x)
}

/// Generates the program for `seed` in the given tier.
pub fn generate(seed: u64, tier: Tier) -> GeneratedProgram {
    match tier {
        Tier::MiniC => {
            let source = minic_source(seed);
            let image = cfed_lang::compile(&source).expect("generated MiniC always compiles");
            GeneratedProgram { tier, seed, source: Some(source), image }
        }
        Tier::Visa => GeneratedProgram { tier, seed, source: None, image: visa_image(seed) },
    }
}

// ---------------------------------------------------------------------------
// Tier one: MiniC
// ---------------------------------------------------------------------------

/// Size of the global array tier-one programs index into (power of two so
/// `% ARR` never leaves the array).
const ARR: u64 = 32;

fn minic_expr(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 {
        return match rng.gen_range(0u32..5) {
            0 => rng.gen_range(0i64..100).to_string(),
            1 => "a".to_string(),
            2 => "b".to_string(),
            3 => "c".to_string(),
            _ => format!("arr[(c + {}) % {ARR}]", rng.gen_range(0u64..ARR)),
        };
    }
    let sub = |rng: &mut StdRng| minic_expr(rng, depth - 1);
    match rng.gen_range(0u32..10) {
        0..=4 => {
            let ops = ["+", "-", "*", "&", "|", "^"];
            let op = ops[rng.gen_range(0usize..ops.len())];
            let (l, r) = (sub(rng), sub(rng));
            format!("(({l}) {op} ({r}))")
        }
        5 => {
            // Shift amounts masked so behaviour is well-defined and small.
            let (l, r) = (sub(rng), sub(rng));
            if rng.gen_bool(0.5) {
                format!("(({l}) << (({r}) & 7))")
            } else {
                format!("((({l}) & 0xFFFFFF) >> (({r}) & 7))")
            }
        }
        6 => {
            // Guarded division / modulo: divisor forced nonzero.
            let (l, r) = (sub(rng), sub(rng));
            let op = if rng.gen_bool(0.5) { "/" } else { "%" };
            format!("(({l}) {op} ((({r}) & 15) + 1))")
        }
        7 => {
            let (l, r) = (sub(rng), sub(rng));
            format!("(({l}) < ({r}))")
        }
        8 => {
            let (l, r) = (sub(rng), sub(rng));
            if rng.gen_bool(0.5) {
                format!("((({l}) == ({r})) && (({l}) < 90))")
            } else {
                format!("((({l}) < 50) || (({r}) < 50))")
            }
        }
        _ => sub(rng),
    }
}

/// Generates one MiniC program from `seed`. Always compiles; always
/// terminates (loops are bounded, recursion depth is bounded).
pub fn minic_source(seed: u64) -> String {
    let rng = &mut StdRng::seed_from_u64(seed);
    let bound = rng.gen_range(2u64..24);
    let init_a = rng.gen_range(0i64..1000);
    let init_b = rng.gen_range(0i64..1000);
    let rec_n = rng.gen_range(2u64..10);
    let cond = minic_expr(rng, 2);
    let e1 = minic_expr(rng, 3);
    let e2 = minic_expr(rng, 3);
    let e3 = minic_expr(rng, 2);
    let early = rng.gen_bool(0.4);
    let early_stmt = if early {
        format!("if ((acc & 63) == {}) {{ return acc & 255; }}", rng.gen_range(0u64..64))
    } else {
        String::new()
    };
    format!(
        r#"
        global acc;
        global arr[{ARR}];
        fn rec(n) {{
            if (n < 2) {{ return n + 1; }}
            return rec(n - 1) + (n & 7);
        }}
        fn step(a, b, c) {{
            if ({cond}) {{ return {e1}; }}
            return {e2};
        }}
        fn main() {{
            let a = {init_a};
            let b = {init_b};
            let c = 0;
            acc = rec({rec_n});
            while (c < {bound}) {{
                arr[c % {ARR}] = ({e3}) & 0xFFFF;
                acc = (acc ^ step(a, b, c)) & 0xFFFFFFFF;
                a = (a + 13) & 0xFFFF;
                b = (b + 7) & 0xFFFF;
                c = c + 1;
                {early_stmt}
                out(acc);
            }}
            out(acc + arr[{bound} % {ARR}]);
        }}
        "#
    )
}

// ---------------------------------------------------------------------------
// Tier two: raw VISA
// ---------------------------------------------------------------------------

// Register conventions inside generated VISA programs, honouring the
// stack's IA-32-analog guest contract: guest code touches only r0–r7 and
// sp — r8–r13 belong to the translator and its instrumentation (see
// `cfed_dbt::instrument::regs`). Random computation stays in r0–r4; r5/r6
// are generator-managed scratch at control sites; r7 permanently holds the
// data scratch base. Loop fuel and the SMC trigger flag live in data
// memory so random ops can never corrupt control flow.
const GP: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4];
/// Scratch registers for address computation at branch/SMC sites.
const TMP_A: Reg = Reg::R5;
const TMP_B: Reg = Reg::R6;
/// Base address of the data scratch area (set once, never clobbered).
const SCRATCH: Reg = Reg::R7;

fn gp(rng: &mut StdRng) -> Reg {
    GP[rng.gen_range(0usize..GP.len())]
}

/// Emits one random straight-line instruction (never a control transfer,
/// never touching the reserved registers).
fn visa_op(a: &mut Asm, rng: &mut StdRng) {
    let (dst, src) = (gp(rng), gp(rng));
    match rng.gen_range(0u32..14) {
        0 => a.movri(dst, rng.gen_range(-1000i32..1000)),
        1 => a.movrr(dst, src),
        2 => {
            let ops = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Mul];
            a.alu(ops[rng.gen_range(0usize..ops.len())], dst, src);
        }
        3 => {
            let ops = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Shl, AluOp::Shr, AluOp::Sar];
            let imm = if matches!(rng.gen_range(0u32..2), 0) {
                rng.gen_range(0i32..8) // shift-sized
            } else {
                rng.gen_range(-500i32..500)
            };
            a.alui(ops[rng.gen_range(0usize..ops.len())], dst, imm);
        }
        4 => {
            // Division, usually guarded flag-free (`or src, 1` keeps the
            // divisor nonzero); occasionally unguarded so genuine
            // div-by-zero traps flow through the whole oracle matrix.
            if rng.gen_bool(0.9) {
                a.alui(AluOp::Or, src, 1);
            }
            a.alu(AluOp::Div, dst, src);
        }
        5 => {
            // Flag-preserving lea chain.
            a.lea(dst, src, rng.gen_range(-64i32..64));
            a.lea2(dst, dst, src, rng.gen_range(0i32..16));
            if rng.gen_bool(0.5) {
                a.leasub(dst, dst, src, rng.gen_range(0i32..16));
            }
        }
        6 => {
            let disp = rng.gen_range(0i32..30) * 8;
            a.st(SCRATCH, src, disp);
        }
        7 => {
            let disp = rng.gen_range(0i32..30) * 8;
            a.ld(dst, SCRATCH, disp);
        }
        8 => {
            let disp = rng.gen_range(0i32..240);
            a.st8(SCRATCH, src, disp);
            a.ld8(dst, SCRATCH, disp);
        }
        9 => {
            a.push(src);
            a.pop(dst);
        }
        10 => {
            a.cmpi(src, rng.gen_range(-50i32..50));
            a.cmov(cond_pick(rng), dst, src);
        }
        11 => a.raw(Inst::Neg { dst }),
        12 => a.raw(Inst::Not { dst }),
        _ => a.out(src),
    }
}

fn cond_pick(rng: &mut StdRng) -> Cond {
    const CONDS: [Cond; 12] = [
        Cond::E,
        Cond::Ne,
        Cond::L,
        Cond::Le,
        Cond::G,
        Cond::Ge,
        Cond::B,
        Cond::Be,
        Cond::A,
        Cond::Ae,
        Cond::S,
        Cond::Ns,
    ];
    CONDS[rng.gen_range(0usize..CONDS.len())]
}

/// Generates one raw-VISA image from `seed`.
///
/// The program is a chain of basic blocks with forward branches (direct,
/// conditional, `jrz`/`jrnz`, indirect through a data table), fuel-bounded
/// backedges, call/ret subroutines and at most one flag-guarded
/// self-modifying store. Termination is guaranteed: every backedge burns
/// fuel (held in a data slot, updated through flag-free `ld`/`lea`/`st`)
/// and all other transfers move forward.
pub fn visa_image(seed: u64) -> Image {
    let rng = &mut StdRng::seed_from_u64(seed);
    let n_blocks = rng.gen_range(4usize..10);
    let n_subs = rng.gen_range(0usize..3);
    let use_table = rng.gen_bool(0.6);
    let use_smc = rng.gen_bool(0.4);
    let fuel = rng.gen_range(4u64..40);

    let mut a = Asm::new();
    let scratch = a.data_zeroed(256);
    // Jump-table slots (filled at runtime with &label addresses), the
    // pre-encoded SMC patch word, and the generator's control state: loop
    // fuel and the run-once SMC trigger flag.
    let table = a.data_zeroed(8 * 4);
    let patch = Inst::Out { src: Reg::R1 };
    let patch_pool = a.data_u64(&[u64::from_le_bytes(patch.encode())]);
    let fuel_slot = a.data_u64(&[fuel]);
    let flag_slot = a.data_u64(&[1]);

    a.label("entry");
    a.mov_addr(SCRATCH, scratch);
    for (i, r) in GP.iter().enumerate() {
        a.movri(*r, rng.gen_range(-100i32..100).wrapping_mul(i as i32 + 1));
    }
    if use_table {
        // Fill the table with addresses of later landing blocks. Targets
        // are always forward of the indirect-jump site, preserving
        // termination no matter which slot the masked index selects.
        a.mov_addr(TMP_A, table);
        for slot in 0..4usize {
            let target = n_blocks / 2 + (slot % (n_blocks - n_blocks / 2));
            a.mov_label(TMP_B, format!("b{target}"));
            a.st(TMP_A, TMP_B, slot as i32 * 8);
        }
    }

    for b in 0..n_blocks {
        a.label(format!("b{b}"));
        for _ in 0..rng.gen_range(1usize..6) {
            visa_op(&mut a, rng);
        }
        if use_smc && b == n_blocks / 2 {
            // Behind a run-once flag, overwrite the victim instruction in a
            // later block with `out r1` — exercising native RWX stores, the
            // decode cache's page invalidation and the DBT's SMC flush.
            let skip = a.fresh_label("smc_skip");
            a.mov_addr(TMP_A, flag_slot);
            a.ld(TMP_B, TMP_A, 0);
            a.jrz(TMP_B, skip);
            a.movri(TMP_B, 0);
            a.st(TMP_A, TMP_B, 0);
            a.mov_label(TMP_A, "victim");
            a.mov_addr(TMP_B, patch_pool);
            a.ld(TMP_B, TMP_B, 0);
            a.st(TMP_A, TMP_B, 0);
            a.label(skip);
        }
        // Terminator: forward progress or a fuel-bounded backedge.
        match rng.gen_range(0u32..8) {
            0 if b + 1 < n_blocks => a.jmp(format!("b{}", b + 1)),
            1 if b + 2 < n_blocks => {
                a.cmpi(gp(rng), rng.gen_range(-20i32..20));
                a.jcc(cond_pick(rng), format!("b{}", rng.gen_range(b + 1..n_blocks)));
            }
            2 if b + 1 < n_blocks => {
                let r = gp(rng);
                if rng.gen_bool(0.5) {
                    a.jrz(r, format!("b{}", rng.gen_range(b + 1..n_blocks)));
                } else {
                    a.jrnz(r, format!("b{}", rng.gen_range(b + 1..n_blocks)));
                }
            }
            3 if b > 0 => {
                // Fuel-bounded backedge: decrement the fuel slot flag-free
                // and loop while it is nonzero.
                a.mov_addr(TMP_A, fuel_slot);
                a.ld(TMP_B, TMP_A, 0);
                a.lea(TMP_B, TMP_B, -1);
                a.st(TMP_A, TMP_B, 0);
                a.jrnz(TMP_B, format!("b{}", rng.gen_range(0..b)));
            }
            4 if use_table && b + 1 < n_blocks / 2 => {
                // Indirect jump through the table, index data-dependent.
                a.movrr(TMP_A, gp(rng));
                a.alui(AluOp::And, TMP_A, 3);
                a.alui(AluOp::Shl, TMP_A, 3);
                a.mov_addr(TMP_B, table);
                a.lea2(TMP_B, TMP_B, TMP_A, 0);
                a.ld(TMP_B, TMP_B, 0);
                a.jmpr(TMP_B);
            }
            5 if n_subs > 0 => a.call(format!("sub{}", rng.gen_range(0..n_subs))),
            _ => {} // fall through to the next block
        }
    }

    a.label("victim");
    a.out(Reg::R0);
    a.label("exit");
    a.out(Reg::R2);
    a.alu(AluOp::Xor, Reg::R0, Reg::R3);
    a.out(Reg::R0);
    a.halt();

    for s in 0..n_subs {
        a.label(format!("sub{s}"));
        for _ in 0..rng.gen_range(1usize..4) {
            visa_op(&mut a, rng);
        }
        a.ret();
    }

    a.assemble("entry").expect("generated VISA always assembles")
}

// ---------------------------------------------------------------------------
// Shared proptest strategies (satellite: one generator, many suites)
// ---------------------------------------------------------------------------

/// Proptest adapters over the seed-driven generators, so property suites
/// across the workspace draw from the same program space as the fuzzer.
pub mod strategies {
    use proptest::prelude::*;

    /// Well-formed MiniC programs (tier one of the fuzz generator).
    pub fn minic_source() -> impl Strategy<Value = String> {
        any::<u64>().prop_map(super::minic_source)
    }

    /// Token soup over MiniC's own vocabulary — likelier to reach deep
    /// parser states than raw bytes. Shared with `cfed-lang`'s robustness
    /// suite.
    pub fn minic_token_soup() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just("fn"),
                Just("let"),
                Just("if"),
                Just("else"),
                Just("while"),
                Just("return"),
                Just("global"),
                Just("out"),
                Just("assert"),
                Just("("),
                Just(")"),
                Just("{"),
                Just("}"),
                Just("["),
                Just("]"),
                Just(","),
                Just(";"),
                Just("="),
                Just("+"),
                Just("-"),
                Just("*"),
                Just("/"),
                Just("%"),
                Just("<"),
                Just(">"),
                Just("<="),
                Just("=="),
                Just("&&"),
                Just("||"),
                Just("!"),
                Just("~"),
                Just("x"),
                Just("y"),
                Just("main"),
                Just("0"),
                Just("1"),
                Just("42"),
                Just("0xFF"),
            ],
            0..60,
        )
        .prop_map(|toks| toks.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            assert_eq!(minic_source(seed), minic_source(seed));
            assert_eq!(visa_image(seed).code(), visa_image(seed).code());
        }
        assert_ne!(minic_source(1), minic_source(2));
    }

    #[test]
    fn schedule_is_seed_and_index_pure() {
        assert_eq!(schedule_seed(7, 3), schedule_seed(7, 3));
        assert_ne!(schedule_seed(7, 3), schedule_seed(7, 4));
        assert_ne!(schedule_seed(7, 3), schedule_seed(8, 3));
    }

    #[test]
    fn minic_tier_compiles_across_seeds() {
        for seed in 0..40u64 {
            let src = minic_source(seed);
            cfed_lang::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn visa_tier_assembles_across_seeds() {
        for seed in 0..40u64 {
            let img = visa_image(seed);
            assert!(img.insts().len() > 4, "seed {seed} produced a trivial program");
        }
    }
}
