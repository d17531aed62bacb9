//! Random guest programs shared by the execution-equivalence properties
//! (`cfed-sim`'s `icache_equiv`, `cfed-dbt`'s `native_burst`) and the
//! error model's one-pass property (`cfed-fault`'s `error_model`): words of
//! valid and invalid encodings with short loops and self-modifying stores,
//! guaranteed loops whose branches are met again on later iterations, and
//! loops that call a leaf.
//!
//! Register conventions: stores through `r1` are meant to land in the code
//! page (self-modifying code), loads and byte stores through `r2` in a data
//! page; the harness points both there before running (`r1` 0x40 bytes
//! into the code, which also locates the leaf of a call loop).

use cfed_isa::{AluOp, Cond, Inst, Reg};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..Reg::COUNT).prop_map(|i| Reg::all().nth(i).expect("in range"))
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0usize..4).prop_map(|i| [Cond::E, Cond::Ne, Cond::L, Cond::Ae][i])
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    (0usize..6)
        .prop_map(|i| [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Cmp, AluOp::Mul, AluOp::And][i])
}

/// Branch offsets stay aligned and small so loops actually form.
fn arb_joff() -> impl Strategy<Value = i32> {
    (-24i32..24).prop_map(|w| w * 8)
}

/// A word of guest code: valid instructions (short loops, stores into the
/// code region, ALU traffic), with an occasional arm of raw bytes that may
/// not decode at all.
pub fn arb_word() -> impl Strategy<Value = [u8; 8]> {
    let inst = prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        (arb_reg(), -100i32..100).prop_map(|(dst, imm)| Inst::MovRI { dst, imm }),
        (arb_alu_op(), arb_reg(), 1i32..50).prop_map(|(op, dst, imm)| Inst::AluI { op, dst, imm }),
        (arb_alu_op(), arb_reg(), arb_reg()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
        (arb_cond(), arb_joff()).prop_map(|(cc, offset)| Inst::Jcc { cc, offset }),
        (arb_reg(), arb_joff()).prop_map(|(src, offset)| Inst::JRnz { src, offset }),
        // Stores through R1 land in the code pages (self-modifying code);
        // through R2 in the data page.
        (arb_reg(), 0i32..64).prop_map(|(src, disp)| Inst::St {
            base: Reg::R1,
            src,
            disp: disp * 8
        }),
        (arb_reg(), 0i32..256).prop_map(|(src, disp)| Inst::St8 { base: Reg::R2, src, disp }),
        (arb_reg(), 0i32..64).prop_map(|(dst, disp)| Inst::Ld {
            dst,
            base: Reg::R2,
            disp: disp * 8
        }),
        arb_reg().prop_map(|src| Inst::Out { src }),
        arb_reg().prop_map(|src| Inst::Push { src }),
        arb_reg().prop_map(|dst| Inst::Pop { dst }),
    ];
    (inst, any::<u64>(), 0usize..8).prop_map(|(inst, raw, sel)| {
        // One word in eight is raw bytes (usually an invalid encoding), so
        // the InvalidInst path gets the same equivalence scrutiny.
        if sel == 0 {
            raw.to_le_bytes()
        } else {
            inst.encode()
        }
    })
}

/// A guaranteed loop: `r3 = n; body: <straight-line code>; r3 -= 1;
/// jrnz r3, body; halt`. The body may hold forward `jcc`s that skip one
/// instruction, so an iteration retires one or more branches. From the
/// second iteration on every branch line is already decoded, so a burst
/// stopped in front of one meets it on the decode cache's hit path, which
/// random programs (that mostly halt or trap early) seldom reach.
pub fn arb_loop() -> impl Strategy<Value = Vec<[u8; 8]>> {
    // The counter (r3), the data base (r2) and the stack pointer stay out
    // of reach of the body's writes.
    let dst = || (0usize..4).prop_map(|i| [Reg::R0, Reg::R4, Reg::R5, Reg::R6][i]);
    let body_inst = prop_oneof![
        Just(Inst::Nop),
        (dst(), -100i32..100).prop_map(|(dst, imm)| Inst::MovRI { dst, imm }),
        (arb_alu_op(), dst(), 1i32..50).prop_map(|(op, dst, imm)| Inst::AluI { op, dst, imm }),
        (arb_alu_op(), dst(), arb_reg()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
        arb_cond().prop_map(|cc| Inst::Jcc { cc, offset: 8 }),
        (arb_reg(), 0i32..256).prop_map(|(src, disp)| Inst::St8 { base: Reg::R2, src, disp }),
        (dst(), 0i32..64).prop_map(|(dst, disp)| Inst::Ld { dst, base: Reg::R2, disp: disp * 8 }),
        arb_reg().prop_map(|src| Inst::Out { src }),
    ];
    (2i32..12, prop::collection::vec(body_inst, 0..8)).prop_map(|(n, body)| {
        let back = -8 * (body.len() as i32 + 2);
        let mut prog = vec![Inst::MovRI { dst: Reg::R3, imm: n }];
        prog.extend(body);
        prog.push(Inst::AluI { op: AluOp::Sub, dst: Reg::R3, imm: 1 });
        prog.push(Inst::JRnz { src: Reg::R3, offset: back });
        prog.push(Inst::Halt);
        prog.iter().map(Inst::encode).collect()
    })
}

/// One line of [`arb_calls`]'s loop body.
#[derive(Debug, Clone)]
enum CallItem {
    Plain(Inst),
    /// `call leaf`.
    Call,
    /// `call r5` (`r5` holds the leaf's address).
    CallR,
}

/// A loop that calls a leaf: `r3 = n; r5 = &leaf; r6 = &dec; body: <code
/// with call leaf / call r5>; [jmp r6]; dec: r3 -= 1; jrnz r3, body; halt;
/// leaf: <straight-line code>; ret`. Every iteration passes the same
/// dispatch sites (indirect call, indirect jump, return) with the same
/// targets, so an engine with an inline cache hits it from the second
/// iteration on, and bursts stop in front of calls, returns and indirect
/// jumps as well as conditional branches.
pub fn arb_calls() -> impl Strategy<Value = Vec<[u8; 8]>> {
    // The counter (r3), the data base (r2), both addresses (r5, r6) and
    // the stack pointer stay out of reach of the body's writes.
    let dst = || (0usize..3).prop_map(|i| [Reg::R0, Reg::R4, Reg::R7][i]);
    let straight = move || {
        prop_oneof![
            Just(Inst::Nop),
            (dst(), -100i32..100).prop_map(|(dst, imm)| Inst::MovRI { dst, imm }),
            (arb_alu_op(), dst(), 1i32..50).prop_map(|(op, dst, imm)| Inst::AluI { op, dst, imm }),
            (arb_alu_op(), dst(), arb_reg()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
            (arb_reg(), 0i32..256).prop_map(|(src, disp)| Inst::St8 { base: Reg::R2, src, disp }),
            (dst(), 0i32..64).prop_map(|(dst, disp)| Inst::Ld {
                dst,
                base: Reg::R2,
                disp: disp * 8
            }),
            arb_reg().prop_map(|src| Inst::Out { src }),
        ]
    };
    let item = prop_oneof![
        straight().prop_map(CallItem::Plain),
        arb_cond().prop_map(|cc| CallItem::Plain(Inst::Jcc { cc, offset: 8 })),
        Just(CallItem::Call),
        Just(CallItem::CallR),
    ];
    let body = prop::collection::vec(item, 1..8);
    let leaf = prop::collection::vec(straight(), 0..6);
    (2i32..24, body, any::<bool>(), leaf).prop_map(|(n, body, jmpr, leaf)| {
        // Lines: 3 set-up, the body, the optional `jmp r6`, `dec`, `jrnz`,
        // `halt`, then the leaf. `r1` points 0x40 bytes into the code.
        let head = 3;
        let dec = head + body.len() + jmpr as usize;
        let leaf_at = dec + 3;
        let addr = |line: usize| 8 * line as i32 - 0x40;
        let mut prog = vec![
            Inst::MovRI { dst: Reg::R3, imm: n },
            Inst::Lea { dst: Reg::R5, base: Reg::R1, disp: addr(leaf_at) },
            Inst::Lea { dst: Reg::R6, base: Reg::R1, disp: addr(dec) },
        ];
        for (i, item) in body.into_iter().enumerate() {
            let line = head + i;
            prog.push(match item {
                CallItem::Plain(inst) => inst,
                CallItem::Call => Inst::Call { offset: 8 * (leaf_at as i32 - line as i32 - 1) },
                CallItem::CallR => Inst::CallR { target: Reg::R5 },
            });
        }
        if jmpr {
            prog.push(Inst::JmpR { target: Reg::R6 });
        }
        prog.push(Inst::AluI { op: AluOp::Sub, dst: Reg::R3, imm: 1 });
        prog.push(Inst::JRnz { src: Reg::R3, offset: 8 * (head as i32 - dec as i32 - 2) });
        prog.push(Inst::Halt);
        prog.extend(leaf);
        prog.push(Inst::Ret);
        prog.iter().map(Inst::encode).collect()
    })
}
