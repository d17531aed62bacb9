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

mod programs;

use cfed_isa::{Reg, INST_SIZE_U64};
use cfed_sim::{Cpu, DecodedCache, Memory, Perms, Step, Trap, PAGE_SIZE};
use programs::{arb_calls, arb_loop, arb_word};
use proptest::prelude::*;

const CODE_PAGES: u64 = 2;
const DATA_BASE: u64 = CODE_PAGES * PAGE_SIZE;
const MEM_SIZE: u64 = 4 * PAGE_SIZE;

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
    /// time. Half the loops call a leaf, so stops also land in front of
    /// calls, returns and indirect jumps.
    #[test]
    fn loop_bursts_stop_at_warm_branches_like_steps(
        words in prop_oneof![arb_loop(), arb_calls()],
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
