//! Native-backend equivalence: `NativeDbt` must be bit-identical to the
//! fused-interpreter `Dbt` — same exit, same final CPU (registers, flags,
//! ip, output stream, `ExecStats`) and same `DbtStats`. These tests are the
//! backend's detection-guarantee anchor: if the native backend drifted in any
//! observable way, signature checks running on top of it would too.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use cfed_dbt::{native_enabled, Dbt, DbtStats, NativeDbt, NullInstrumenter, UpdateStyle};
use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
use cfed_lang::compile;
use cfed_sim::{trap_codes, Cpu, ExitReason, Machine};

/// Everything a run leaves behind that the two backends must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    exit: ExitReason,
    /// Registers, flags, ip, output stream and `ExecStats`.
    cpu: Cpu,
    stats: DbtStats,
}

fn run_interp(code: &[u8], data: &[u8], entry: u64, budget: u64) -> Outcome {
    let mut m = Machine::load(code, data, entry);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    let exit = dbt.run(&mut m, budget);
    Outcome { exit, cpu: m.cpu.clone(), stats: dbt.stats() }
}

fn run_native(code: &[u8], data: &[u8], entry: u64, budget: u64) -> Outcome {
    let mut m = Machine::load(code, data, entry);
    let mut dbt = NativeDbt::wrap(
        Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m),
        native_enabled(),
    );
    // On this platform the native backend must engage unless the environment
    // opts out; under CFED_NO_NATIVE=1 the suite still runs, pinning the
    // fallback path against the plain engine.
    assert_eq!(dbt.is_native(), cfed_dbt::native_enabled(), "native backend gating");
    let exit = dbt.run(&mut m, budget);
    Outcome { exit, cpu: m.cpu.clone(), stats: dbt.stats() }
}

fn check_identical(code: &[u8], data: &[u8], entry: u64, budget: u64) {
    assert_eq!(run_interp(code, data, entry, budget), run_native(code, data, entry, budget));
}

fn check_src(src: &str) {
    let image = compile(src).expect("compile");
    check_identical(image.code(), image.data(), image.entry_offset(), 20_000_000);
}

#[test]
fn straight_line_and_alu_flags() {
    check_src(
        r#"
        fn main() {
            out(1 + 2);
            out(3 * 4);
            out(100 / 7);
            out(100 % 7);
            out(5 - 9);
            out((1 << 40) >> 3);
            out(12345 & 777);
            out(12345 | 777);
            out(12345 ^ 777);
            return 7;
        }
        "#,
    );
}

#[test]
fn loops_and_branches() {
    check_src(
        r#"
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 500) {
                if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }
                if (i % 7 == 0) { acc = acc * 2; }
                i = i + 1;
            }
            out(acc);
        }
        "#,
    );
}

#[test]
fn calls_recursion_and_dispatch() {
    // Every `ret` exercises the indirect dispatcher and its inline cache.
    check_src(
        r#"
        fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        fn main() { out(fib(15)); }
        "#,
    );
}

#[test]
fn globals_arrays_and_memory() {
    check_src(
        r#"
        global a[128];
        fn main() {
            let i = 0;
            while (i < 128) { a[i] = i * i + 3; i = i + 1; }
            let s = 0;
            i = 0;
            while (i < 128) { s = s + a[i]; i = i + 2; }
            out(s);
        }
        "#,
    );
}

#[test]
fn shift_edge_cases() {
    // Shift counts of 0, 63 and 64+ hit the ISA's masked-count semantics,
    // whose flag behavior the native backend special-cases.
    check_src(
        r#"
        fn sh(v, n) { return ((v << n) > 0) + ((v >> n) == 0); }
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 70) { acc = acc + sh(12345, i) + sh(0 - 7, i); i = i + 1; }
            out(acc);
        }
        "#,
    );
}

#[test]
fn div_by_zero_trap_identical() {
    let image = compile("fn main() { let z = 0; out(1 / z); }").unwrap();
    check_identical(image.code(), image.data(), image.entry_offset(), 1_000_000);
}

#[test]
fn guest_assert_trap_identical() {
    let image = compile("fn main() { out(3); assert(0); }").unwrap();
    check_identical(image.code(), image.data(), image.entry_offset(), 1_000_000);
}

#[test]
fn wild_store_fault_identical() {
    // A store far outside the mapped guest space faults mid-block; the
    // native helper must surface the same trap without committing state.
    let code = encode_all(&[
        Inst::MovRI { dst: Reg::R0, imm: 0x7F00_0000 },
        Inst::St { base: Reg::R0, src: Reg::R0, disp: 0 },
        Inst::Halt,
    ]);
    check_identical(&code, &[], 0, 1000);
}

#[test]
fn step_limit_exactness() {
    // Budgets around and below the native session threshold must stop on
    // exactly the same instruction as the interpreter.
    let image = compile(
        r#"
        fn main() {
            let i = 0;
            while (1) { i = i + 3; if (i > 1000000000) { return i; } }
        }
        "#,
    )
    .unwrap();
    for budget in [0u64, 1, 100, 4095, 4096, 5000, 100_000, 1_000_000] {
        let i = run_interp(image.code(), image.data(), image.entry_offset(), budget);
        let n = run_native(image.code(), image.data(), image.entry_offset(), budget);
        assert_eq!(i, n, "budget {budget}");
    }
}

#[test]
fn resume_after_step_limit_identical() {
    // Chopping one run into many budgets around the native threshold (4096)
    // must retire the same stream: each slice's interpreted tail stops
    // mid-block, on chained direct exits and on inline-cache dispatch sites,
    // and the next slice steps from there to a block head before native
    // code resumes. Final CPU, output and `DbtStats` must equal one
    // unsliced `Dbt::run`.
    let image = compile(
        r#"
        fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
        fn mid(x) { return leaf(x) + leaf(x + 1); }
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 2000) { acc = acc + mid(i); i = i + 1; }
            out(acc);
        }
        "#,
    )
    .unwrap();
    let whole = run_interp(image.code(), image.data(), image.entry_offset(), 20_000_000);
    assert!(matches!(whole.exit, ExitReason::Halted { .. }));
    let is_exit_trap = |m: &Machine, ip: u64| {
        matches!(Inst::decode_from_slice(m.mem.peek(ip, 8)),
            Some(Ok(Inst::Trap { code })) if code >= trap_codes::DBT_EXIT_BASE)
    };
    let (mut on_chained_exit, mut on_dispatch_site) = (0usize, 0usize);
    for slice in [4095u64, 4096, 4097, 4133, 4500, 5001, 6000, 8192] {
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut dbt = NativeDbt::wrap(
            Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m),
            native_enabled(),
        );
        let mut resumed_on_trap = Vec::new();
        let exit = loop {
            match dbt.run(&mut m, slice) {
                ExitReason::StepLimit => {}
                other => break other,
            }
            assert!(m.cpu.stats().insts < 20_000_000, "diverged");
            // Where the next slice resumes: a `Jmp` in a block's exit glue
            // is a chained direct exit.
            let ip = m.cpu.ip();
            let Some(block) = dbt.dbt().block_containing(ip) else { continue };
            let glue = ip >= block.body_range().end;
            if glue
                && matches!(Inst::decode_from_slice(m.mem.peek(ip, 8)), Some(Ok(Inst::Jmp { .. })))
            {
                on_chained_exit += 1;
            } else if is_exit_trap(&m, ip) {
                resumed_on_trap.push(ip);
            }
        };
        // A direct exit is chained the first time it is serviced, so an
        // exit trap still in place at the end is an indirect dispatch site.
        on_dispatch_site += resumed_on_trap.iter().filter(|&&ip| is_exit_trap(&m, ip)).count();
        let sliced = Outcome { exit, cpu: m.cpu.clone(), stats: dbt.stats() };
        assert_eq!(whole, sliced, "slice {slice}");
    }
    assert!(on_chained_exit > 0 && on_dispatch_site > 0, "{on_chained_exit} {on_dispatch_site}");
}

#[test]
fn self_modifying_code_identical() {
    // SMC invalidation nukes native code; results must still match the
    // interpreter's flush-and-retranslate path exactly.
    let target_patch = Inst::Out { src: Reg::R1 };
    let patch_words = i64::from_le_bytes(target_patch.encode());
    let mut asm = cfed_asm::Asm::new();
    let pool = asm.data_u64(&[patch_words as u64]);
    asm.label("start");
    asm.movri(Reg::R0, 1);
    asm.movri(Reg::R1, 2);
    asm.call("victim");
    asm.mov_addr(Reg::R2, pool);
    asm.ld(Reg::R3, Reg::R2, 0);
    asm.mov_label(Reg::R4, "victim");
    asm.st(Reg::R4, Reg::R3, 0);
    asm.call("victim");
    asm.halt();
    asm.label("victim");
    asm.out(Reg::R0);
    asm.ret();
    let image = asm.assemble("start").unwrap();
    let n = run_native(image.code(), image.data(), image.entry_offset(), 1_000_000);
    assert_eq!(n.cpu.output(), [1, 2]);
    assert!(n.stats.smc_flushes >= 1, "SMC must trigger a flush");
    check_identical(image.code(), image.data(), image.entry_offset(), 1_000_000);
}

#[test]
fn smc_store_into_hot_loop_retranslates() {
    // A hot self-loop runs long enough to be chained and compiled, then an
    // SMC store lands inside the guest range its translation covers. The
    // flush must discard the stale translation (and the native code under
    // it), the patched loop must be retranslated from the new bytes, and
    // the whole run must stay guest-identical to an interpreter run.

    // Replacement for the patch site: `acc += 2` instead of `acc += i`.
    let patch = Inst::AluI { op: AluOp::Add, dst: Reg::R5, imm: 2 };
    let mut asm = cfed_asm::Asm::new();
    let pool = asm.data_u64(&[u64::from_le_bytes(patch.encode())]);
    asm.label("start");
    asm.call("hotfn");
    asm.mov_addr(Reg::R2, pool);
    asm.ld(Reg::R3, Reg::R2, 0);
    asm.mov_label(Reg::R4, "patchsite");
    asm.st(Reg::R4, Reg::R3, 0); // SMC store into the hot loop's page
    asm.call("hotfn");
    asm.halt();
    asm.label("hotfn");
    asm.movri(Reg::R0, 0);
    asm.movri(Reg::R5, 0);
    asm.label("body");
    asm.label("patchsite");
    asm.alu(AluOp::Add, Reg::R5, Reg::R0);
    asm.alui(AluOp::Add, Reg::R0, 1);
    asm.cmpi(Reg::R0, 200);
    asm.jcc(Cond::L, "body");
    asm.out(Reg::R5);
    asm.ret();
    let image = asm.assemble("start").unwrap();

    let run = |native: bool| {
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut dbt =
            NativeDbt::wrap(Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m), native);
        let exit = dbt.run(&mut m, 1_000_000);
        (exit, m.cpu.take_output(), m.cpu.stats().insts, m.cpu.stats().cycles, dbt.stats())
    };

    let fused = run(false);
    let (exit, output, _, _, stats) = &fused;
    // First call sums 0..200 = 19900; patched second call adds 2 per
    // iteration = 400 — proof the retranslation picked up the new bytes.
    assert!(matches!(exit, ExitReason::Halted { .. }));
    assert_eq!(*output, vec![19_900, 400]);
    assert!(stats.smc_flushes >= 1, "the patch store must flush: {stats:?}");

    if cfed_dbt::native_enabled() {
        let native = run(true);
        assert_eq!(fused, native, "fused and native must agree through the flush");
    }

    // Guest-observable equivalence against the reference interpreter.
    let plain = run_interp(image.code(), image.data(), image.entry_offset(), 1_000_000);
    assert_eq!(plain.exit, fused.0);
    assert_eq!(plain.cpu.output(), fused.1);
}

#[test]
fn spin_loop_budget_sweep() {
    let code = encode_all(&[Inst::Jmp { offset: -8 }]);
    for budget in [0u64, 1, 7, 4096, 9999, 50_000] {
        check_identical(&code, &[], 0, budget);
    }
}

#[test]
fn misaligned_indirect_target_identical() {
    let code =
        encode_all(&[Inst::MovRI { dst: Reg::R1, imm: 0x1_0004 }, Inst::JmpR { target: Reg::R1 }]);
    check_identical(&code, &[], 0, 1000);
}

#[test]
fn wild_jump_to_data_identical() {
    // Category F coverage survives native execution: the jump's target is
    // vetted by the translator either way.
    let code = encode_all(&[Inst::Jmp { offset: 0x1F_0000 }]);
    check_identical(&code, &[], 0, 1000);
}

#[test]
fn cond_branch_matrix_identical() {
    // Signed/unsigned comparisons in both directions stress every flag the
    // native ALU capture sequences produce.
    check_src(
        r#"
        fn main() {
            let a = 0 - 5;
            let b = 3;
            out(a < b);
            out(a > b);
            out(a <= a);
            out(b >= b);
            out(a == a);
            out(a != b);
            let i = 0;
            let acc = 0;
            while (i < 64) {
                if ((1 << i) > (1 << (63 - i))) { acc = acc + 1; }
                i = i + 1;
            }
            out(acc);
        }
        "#,
    );
}

#[test]
fn no_native_fallback_is_equivalent() {
    // `wrap(.., false)` must behave exactly like the plain engine (this
    // is the CFED_NO_NATIVE path without the environment dependency).
    let image = compile("fn main() { let i = 0; while (i < 100) { i = i + 1; } out(i); }").unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt =
        NativeDbt::wrap(Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m), false);
    assert!(!dbt.is_native());
    let exit = dbt.run(&mut m, 1_000_000);
    let i = run_interp(image.code(), image.data(), image.entry_offset(), 1_000_000);
    assert_eq!(Outcome { exit, cpu: m.cpu.clone(), stats: dbt.stats() }, i);
}

#[test]
fn cmov_parity() {
    let code = encode_all(&[
        Inst::MovRI { dst: Reg::R0, imm: 10 },
        Inst::MovRI { dst: Reg::R1, imm: 20 },
        Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 10 },
        Inst::CMov { cc: Cond::E, dst: Reg::R2, src: Reg::R1 },
        Inst::CMov { cc: Cond::Ne, dst: Reg::R3, src: Reg::R0 },
        Inst::Out { src: Reg::R2 },
        Inst::Out { src: Reg::R3 },
        Inst::Jcc { cc: Cond::E, offset: 8 },
        Inst::Out { src: Reg::R0 },
        Inst::Halt,
    ]);
    check_identical(&code, &[], 0, 1000);
}
