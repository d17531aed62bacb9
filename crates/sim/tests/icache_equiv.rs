//! Equivalence of the decoded execution paths with raw fetch+decode.
//!
//! The decoded i-cache is only admissible because it is invisible: for any
//! program — including self-modifying code and external writes landing in
//! executed pages — stepping through the cache, running fused bursts and
//! raw per-instruction decode must produce bit-identical CPU state (regs,
//! flags, ip, halted, stats, output), traps, dirty-page logs and memory
//! contents. These properties drive random programs (valid and invalid
//! encodings) interleaved with random code-page writes through all three
//! paths and demand exact agreement.

use cfed_isa::{AluOp, Cond, Inst, Reg, INST_SIZE_U64};
use cfed_sim::{Cpu, DecodedCache, Memory, Perms, Step, Trap, PAGE_SIZE};
use proptest::prelude::*;

const CODE_PAGES: u64 = 2;
const DATA_BASE: u64 = CODE_PAGES * PAGE_SIZE;
const MEM_SIZE: u64 = 4 * PAGE_SIZE;

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

/// A word of guest code: valid instructions (short loops, stores into the
/// code region, ALU traffic), with an occasional arm of raw bytes that may
/// not decode at all.
/// Branch offsets stay aligned and small so loops actually form.
fn arb_joff() -> impl Strategy<Value = i32> {
    (-24i32..24).prop_map(|w| w * 8)
}

fn arb_word() -> impl Strategy<Value = [u8; 8]> {
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

/// One external event: run up to `steps` instructions — stopping early in
/// front of a branch once `stop` more branches have retired, when set (`0`:
/// in front of the next branch) — then (maybe)
/// write `word` into the code region at `slot` — the SMC-from-outside case
/// (DBT chain patching, fault injection) the cache must observe.
#[derive(Debug, Clone)]
struct Op {
    steps: u64,
    stop: Option<u64>,
    write: Option<(u64, [u8; 8])>,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let write = prop_oneof![
        Just(None),
        (0u64..(CODE_PAGES * PAGE_SIZE / INST_SIZE_U64), arb_word())
            .prop_map(|(slot, word)| Some((slot * INST_SIZE_U64, word))),
    ];
    let stop = prop_oneof![Just(None), (0u64..6).prop_map(Some)];
    (0u64..40, stop, write).prop_map(|(steps, stop, write)| Op { steps, stop, write })
}

/// A guaranteed loop: `r3 = n; body: <straight-line code>; r3 -= 1;
/// jrnz r3, body; halt`. The body may hold forward `jcc`s that skip one
/// instruction, so an iteration retires one or more branches. From the
/// second iteration on every branch line is already decoded, so a burst
/// stopped in front of one meets it on the decode cache's hit path, which
/// random programs (that mostly halt or trap early) seldom reach.
fn arb_loop() -> impl Strategy<Value = Vec<[u8; 8]>> {
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

fn build(words: &[[u8; 8]]) -> (Cpu, Memory) {
    let mut mem = Memory::new(MEM_SIZE);
    mem.map(0..DATA_BASE, Perms::RWX);
    mem.map(DATA_BASE..MEM_SIZE, Perms::RW);
    for (i, w) in words.iter().enumerate() {
        mem.install(i as u64 * INST_SIZE_U64, w);
    }
    let mut cpu = Cpu::new();
    cpu.set_ip(0);
    cpu.set_reg(Reg::SP, MEM_SIZE);
    cpu.set_reg(Reg::R1, 0x40); // store base inside the code page
    cpu.set_reg(Reg::R2, DATA_BASE);
    (cpu, mem)
}

/// What a run segment ended with, for exact cross-path comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SegEnd {
    Budget,
    Halt,
    Trap(Trap),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Raw,
    Stepped,
    Fused,
}

/// Everything a run down one path can show: per-segment outcomes and the
/// CPU each segment ends in (so a burst must stop exactly where the steps
/// do), the final CPU, dirty log and code bytes.
type Observed = (Vec<(SegEnd, Cpu)>, Cpu, Vec<u64>, Vec<u8>);

/// Runs the op sequence down one execution path and returns everything
/// observable.
fn execute(words: &[[u8; 8]], ops: &[Op], path: Path) -> Observed {
    let (mut cpu, mut mem) = build(words);
    let mut icache = DecodedCache::new();
    let mut log = Vec::new();
    let mut live = true;
    for op in ops {
        if live {
            let stop_at = op.stop.map_or(u64::MAX, |n| cpu.stats().branches + n);
            let end = match path {
                Path::Fused => match cpu.run_fused(&mut mem, &mut icache, op.steps, stop_at) {
                    Ok(Step::Continue) => SegEnd::Budget,
                    Ok(Step::Halt) => SegEnd::Halt,
                    Err(t) => SegEnd::Trap(t),
                },
                Path::Raw | Path::Stepped => {
                    let mut end = SegEnd::Budget;
                    for _ in 0..op.steps {
                        if cpu.stats().branches >= stop_at
                            && cpu.peek_inst(&mem).is_ok_and(|inst| inst.is_branch())
                        {
                            break;
                        }
                        let step = match path {
                            Path::Raw => cpu.step(&mut mem),
                            _ => cpu.step_decoded(&mut mem, &mut icache),
                        };
                        match step {
                            Ok(Step::Continue) => {}
                            Ok(Step::Halt) => {
                                end = SegEnd::Halt;
                                break;
                            }
                            Err(t) => {
                                end = SegEnd::Trap(t);
                                break;
                            }
                        }
                    }
                    end
                }
            };
            live = end == SegEnd::Budget;
            log.push((end, cpu.clone()));
        }
        if let Some((addr, word)) = op.write {
            mem.install(addr, &word);
        }
    }
    let code = mem.peek(0, (CODE_PAGES * PAGE_SIZE) as usize).to_vec();
    (log, cpu, mem.dirty_pages(), code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random code-page writes interleaved with execution: the decoded
    /// stepping path and the fused burst path — stopping in front of a
    /// branch or not —
    /// are bit-identical to raw decode in results, traps, stats, dirty log
    /// and memory.
    #[test]
    fn decoded_paths_bit_identical_to_raw(
        words in prop::collection::vec(arb_word(), 1..96),
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        let raw = execute(&words, &ops, Path::Raw);
        let stepped = execute(&words, &ops, Path::Stepped);
        let fused = execute(&words, &ops, Path::Fused);
        prop_assert_eq!(&raw, &stepped);
        prop_assert_eq!(&raw, &fused);
    }

    /// The guest's own stores into its code page (classic SMC, no external
    /// writer involved) behave identically down all three paths.
    #[test]
    fn guest_smc_bit_identical(
        words in prop::collection::vec(arb_word(), 1..96),
        budget in 1u64..600,
    ) {
        let ops = [Op { steps: budget, stop: None, write: None }];
        let raw = execute(&words, &ops, Path::Raw);
        let stepped = execute(&words, &ops, Path::Stepped);
        let fused = execute(&words, &ops, Path::Fused);
        prop_assert_eq!(&raw, &stepped);
        prop_assert_eq!(&raw, &fused);
    }

    /// Bursts over guaranteed loops, each stopping in front of a branch a
    /// few branches on: most stops land on branch lines decoded by an
    /// earlier iteration, so the stop rule is exercised on the decode
    /// cache's hit path, not only where a branch is decoded for the first
    /// time.
    #[test]
    fn loop_bursts_stop_at_warm_branches_like_steps(
        words in arb_loop(),
        ops in prop::collection::vec((1u64..120, 0u64..4), 1..24),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(steps, stop)| Op { steps, stop: Some(stop), write: None })
            .collect();
        let raw = execute(&words, &ops, Path::Raw);
        let stepped = execute(&words, &ops, Path::Stepped);
        let fused = execute(&words, &ops, Path::Fused);
        prop_assert_eq!(&raw, &stepped);
        prop_assert_eq!(&raw, &fused);
    }
}
