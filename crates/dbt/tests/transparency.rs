//! DBT transparency tests: programs must behave identically under the DBT
//! (same outputs, same exit codes, same guest-visible faults) — the paper's
//! core premise that reliability can be added to unmodified binaries.

use cfed_dbt::{Dbt, NullInstrumenter, UpdateStyle};
use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
use cfed_lang::compile;
use cfed_sim::{ExitReason, Machine, Trap};

fn native(code: &[u8], data: &[u8], entry: u64) -> (ExitReason, Vec<u64>, u64) {
    let mut m = Machine::load(code, data, entry);
    let exit = m.run(10_000_000);
    let cycles = m.cpu.stats().cycles;
    (exit, m.cpu.take_output(), cycles)
}

fn under_dbt(code: &[u8], data: &[u8], entry: u64) -> (ExitReason, Vec<u64>, u64, Dbt) {
    let mut m = Machine::load(code, data, entry);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    let exit = dbt.run(&mut m, 20_000_000);
    let cycles = m.cpu.stats().cycles;
    (exit, m.cpu.take_output(), cycles, dbt)
}

fn check_equivalent(src: &str) {
    let image = compile(src).expect("compile");
    let (nexit, nout, _) = native(image.code(), image.data(), image.entry_offset());
    let (dexit, dout, _, _) = under_dbt(image.code(), image.data(), image.entry_offset());
    match (nexit, dexit) {
        (ExitReason::Halted { code: a }, ExitReason::Halted { code: b }) => assert_eq!(a, b),
        (a, b) => panic!("exit mismatch: native {a:?}, dbt {b:?}"),
    }
    assert_eq!(nout, dout, "output stream must match");
}

#[test]
fn straight_line_program() {
    check_equivalent("fn main() { out(1 + 2); out(3 * 4); return 7; }");
}

#[test]
fn loops_and_branches() {
    check_equivalent(
        r#"
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 200) {
                if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }
                i = i + 1;
            }
            out(acc);
        }
        "#,
    );
}

#[test]
fn calls_and_recursion() {
    check_equivalent(
        r#"
        fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        fn main() { out(fib(12)); }
        "#,
    );
}

#[test]
fn globals_and_arrays() {
    check_equivalent(
        r#"
        global a[64];
        fn main() {
            let i = 0;
            while (i < 64) { a[i] = i * i; i = i + 1; }
            let s = 0;
            i = 0;
            while (i < 64) { s = s + a[i]; i = i + 1; }
            out(s);
        }
        "#,
    );
}

#[test]
fn guest_assert_trap_surfaces() {
    let image = compile("fn main() { assert(0); }").unwrap();
    let (exit, _, _, _) = under_dbt(image.code(), image.data(), image.entry_offset());
    match exit {
        ExitReason::Trapped(Trap::Software { code, .. }) => {
            assert_eq!(code, cfed_sim::trap_codes::GUEST_ASSERT)
        }
        other => panic!("expected guest assert, got {other:?}"),
    }
}

#[test]
fn div_by_zero_surfaces() {
    let image = compile("fn main() { let z = 0; out(1 / z); }").unwrap();
    let (exit, _, _, _) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert!(matches!(exit, ExitReason::Trapped(Trap::DivByZero { .. })));
}

#[test]
fn indirect_calls_via_ret() {
    // `ret` exercises the indirect dispatcher on every function return.
    let image = compile(
        r#"
        fn leaf(x) { return x * 3; }
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 50) { acc = acc + leaf(i); i = i + 1; }
            out(acc);
        }
        "#,
    )
    .unwrap();
    let (exit, out, _, dbt) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert!(matches!(exit, ExitReason::Halted { .. }));
    assert_eq!(out, vec![(0..50).map(|i| i * 3).sum::<u64>()]);
    assert!(dbt.stats().dispatches >= 50, "each ret goes through the dispatcher");
}

#[test]
fn blocks_translated_on_demand_only() {
    // The else-branch is never executed, so its block must not be translated.
    let mut never = 0;
    let image = compile(
        r#"
        fn main() {
            if (1) { out(10); } else { out(99); out(98); out(97); }
        }
        "#,
    )
    .unwrap();
    let (exit, out, _, dbt) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert!(matches!(exit, ExitReason::Halted { .. }));
    assert_eq!(out, vec![10]);
    for b in dbt.blocks() {
        never += (b.guest_len == 0) as u32;
    }
    assert_eq!(never, 0);
    // Translating everything would need more blocks than were created.
    let translated: u64 = dbt.stats().guest_insts;
    assert!(
        translated < image.len() as u64,
        "on-demand translation must skip the dead else arm ({translated} of {})",
        image.len()
    );
}

#[test]
fn chaining_eliminates_repeat_exits() {
    let image =
        compile("fn main() { let i = 0; while (i < 1000) { i = i + 1; } out(i); }").unwrap();
    let (_, out, _, dbt) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert_eq!(out, vec![1000]);
    let stats = dbt.stats();
    // Each direct edge is patched once; the 1000-iteration loop must not
    // take 1000 exits.
    assert!(stats.chains <= 20, "chains: {}", stats.chains);
}

#[test]
fn dbt_overhead_is_moderate() {
    // The paper reports ~12% average DBT baseline overhead.
    let image = compile(
        r#"
        fn work(n) {
            let acc = 0;
            let i = 0;
            while (i < n) { acc = acc + i * 3 + (acc >> 2); i = i + 1; }
            return acc;
        }
        fn main() { out(work(5000)); }
        "#,
    )
    .unwrap();
    let (_, nout, ncycles) = native(image.code(), image.data(), image.entry_offset());
    let (_, dout, dcycles, _) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert_eq!(nout, dout);
    let overhead = dcycles as f64 / ncycles as f64;
    assert!(overhead >= 1.0, "dbt cannot be faster than native: {overhead}");
    assert!(overhead < 1.6, "dbt overhead too high: {overhead}");
}

#[test]
fn self_modifying_code_retranslated() {
    // The guest overwrites an upcoming `out r0` (out of its own straight-line
    // code) with `out r1`, then jumps to it. The DBT must flush and
    // retranslate, observing the new instruction.
    let target_patch = Inst::Out { src: Reg::R1 };
    let patch_words = i64::from_le_bytes(target_patch.encode());
    // Build by hand: needs precise addresses.
    let mut asm = cfed_asm::Asm::new();
    let pool = asm.data_u64(&[patch_words as u64]);
    asm.label("start");
    asm.movri(Reg::R0, 1); // r0 = 1
    asm.movri(Reg::R1, 2); // r1 = 2
                           // First execution of `victim`: prints r0 (1).
    asm.call("victim");
    // Patch victim's first instruction to `out r1`.
    asm.mov_addr(Reg::R2, pool);
    asm.ld(Reg::R3, Reg::R2, 0); // r3 = encoded `out r1`
    asm.mov_label(Reg::R4, "victim");
    asm.st(Reg::R4, Reg::R3, 0); // overwrite guest code (SMC!)
    asm.call("victim");
    asm.halt();
    asm.label("victim");
    asm.out(Reg::R0);
    asm.ret();
    let image = asm.assemble("start").unwrap();

    // Natively: prints 1 then 2.
    let (nexit, nout, _) = native(image.code(), image.data(), image.entry_offset());
    assert!(matches!(nexit, ExitReason::Halted { .. }));
    assert_eq!(nout, vec![1, 2]);

    // Under DBT: identical, via the write-protection flush path.
    let (dexit, dout, _, dbt) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert!(matches!(dexit, ExitReason::Halted { .. }), "{dexit:?}");
    assert_eq!(dout, vec![1, 2]);
    assert!(dbt.stats().smc_flushes >= 1, "SMC must trigger a flush");
}

#[test]
fn wild_jump_to_data_detected_by_hardware() {
    // Category F: a branch into the data region must surface PermExec.
    let code = encode_all(&[Inst::Jmp { offset: 0x1F_0000 }]);
    let mut m = Machine::load(&code, &[], 0);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    match dbt.run(&mut m, 1000) {
        ExitReason::Trapped(t) => assert!(t.is_hardware_cfe_detection(), "{t:?}"),
        other => panic!("expected trap, got {other:?}"),
    }
}

#[test]
fn misaligned_indirect_target_detected() {
    let code = encode_all(&[
        Inst::MovRI { dst: Reg::R1, imm: 0x1_0004 }, // misaligned guest addr
        Inst::JmpR { target: Reg::R1 },
    ]);
    let mut m = Machine::load(&code, &[], 0);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    match dbt.run(&mut m, 1000) {
        ExitReason::Trapped(Trap::UnalignedFetch { addr }) => assert_eq!(addr, 0x1_0004),
        other => panic!("expected unaligned fetch, got {other:?}"),
    }
}

#[test]
fn step_limit_reported() {
    let code = encode_all(&[Inst::Jmp { offset: -8 }]);
    let mut m = Machine::load(&code, &[], 0);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    assert_eq!(dbt.run(&mut m, 100), ExitReason::StepLimit);
}

#[test]
fn cond_branch_both_arms_eventually_translated() {
    let code = encode_all(&[
        Inst::MovRI { dst: Reg::R0, imm: 2 },                // 0x10000
        Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 1 }, // 0x10008: loop head
        Inst::Jcc { cc: Cond::E, offset: 16 },               // 0x10010 -> 0x10028
        Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 }, // 0x10018
        Inst::Jmp { offset: -32 },                           // 0x10020 -> 0x10008
        Inst::Halt,                                          // 0x10028
    ]);
    let mut m = Machine::load(&code, &[], 0);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    assert_eq!(dbt.run(&mut m, 10_000), ExitReason::Halted { code: 1 });
    assert!(dbt.lookup(0x1_0008).is_some());
    assert!(dbt.lookup(0x1_0018).is_some());
    assert!(dbt.lookup(0x1_0028).is_some());
}

#[test]
fn guest_sees_guest_return_addresses() {
    // Transparency of the stack: a function reading its own return address
    // must see the guest address, not a code-cache address.
    let mut asm = cfed_asm::Asm::new();
    asm.label("start");
    asm.call("probe"); // return addr = start+8 (guest!)
    asm.label("after");
    asm.halt();
    asm.label("probe");
    asm.ld(Reg::R0, Reg::SP, 0); // read return address
    asm.out(Reg::R0);
    asm.ret();
    let image = asm.assemble("start").unwrap();
    let after = image.symbol("after").unwrap();
    let (dexit, dout, _, _) = under_dbt(image.code(), image.data(), image.entry_offset());
    assert!(matches!(dexit, ExitReason::Halted { .. }));
    assert_eq!(dout, vec![after], "return address on stack must be the guest address");
}

#[test]
fn fused_run_matches_per_step() {
    // The block-fused dispatch loop (decode cache attached, default) and the
    // per-instruction path (cache disabled) must agree bit-for-bit: exit,
    // output, cycle count, retired instructions and engine statistics.
    let image = compile(
        r#"
        fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 300) { acc = acc + leaf(i); i = i + 1; }
            out(acc);
        }
        "#,
    )
    .unwrap();
    let run = |fused: bool| {
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        m.set_decode_cache(fused);
        let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
        let exit = dbt.run(&mut m, 20_000_000);
        (exit, m.cpu.take_output(), m.cpu.stats().cycles, m.cpu.stats().insts, dbt.stats())
    };
    let (fexit, fout, fcycles, finsts, fstats) = run(true);
    let (sexit, sout, scycles, sinsts, sstats) = run(false);
    assert_eq!(fexit, sexit);
    assert_eq!(fout, sout);
    assert_eq!(fcycles, scycles);
    assert_eq!(finsts, sinsts);
    assert_eq!(fstats.blocks, sstats.blocks);
    assert_eq!(fstats.chains, sstats.chains);
    assert_eq!(fstats.dispatches, sstats.dispatches);
    assert_eq!(fstats.smc_flushes, sstats.smc_flushes);
    // Both paths dispatch the same; the inline cache serves repeat targets.
    assert!(fstats.dispatch_ic_hits > 0, "repeat rets must hit the dispatch IC");
    assert_eq!(fstats.dispatch_ic_hits, sstats.dispatch_ic_hits);
}

#[test]
fn fused_run_handles_smc_and_budget() {
    // Budget exactness under fusion: run the same spin loop twice, once
    // fused and once per-step, to the same instruction budget.
    let code = encode_all(&[Inst::Jmp { offset: -8 }]);
    for budget in [0u64, 1, 7, 100] {
        let mut fused = Machine::load(&code, &[], 0);
        let mut dbt_f = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut fused);
        assert_eq!(dbt_f.run(&mut fused, budget), ExitReason::StepLimit);
        let mut stepped = Machine::load(&code, &[], 0);
        stepped.set_decode_cache(false);
        let mut dbt_s = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut stepped);
        assert_eq!(dbt_s.run(&mut stepped, budget), ExitReason::StepLimit);
        assert_eq!(fused.cpu.stats().insts, stepped.cpu.stats().insts, "budget {budget}");
        assert_eq!(fused.cpu.stats().cycles, stepped.cpu.stats().cycles, "budget {budget}");
    }
}
