//! One persistent JIT rewound through a campaign-style sequence of
//! checkpoints: every trial restores a random checkpoint of one golden run,
//! bursts natively along the golden path for a while, declares that path
//! (`NativeDbt::mark_lineage`), strikes (flips a flag or overwrites a
//! register, so the rest of the trial translates, chains and dispatches
//! its own way, self-modifying stores included), and bursts on. After each
//! rewind the trial must leave every segment in the same place — same end,
//! same CPU including `ExecStats` and output, same `DbtStats` — and the same
//! dirty pages as the same trial on a fresh `restore()` and a fresh fused
//! engine. The JIT keeps host code between the trials of one golden run,
//! so any block, chain slot or inline-cache entry it keeps for a checkpoint
//! that does not hold it shows up here as a different stop, counter or
//! output.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

#[path = "../../sim/tests/programs/mod.rs"]
mod programs;

use cfed_dbt::{Dbt, DbtStats, DbtStep, NativeDbt, NullInstrumenter, UpdateStyle};
use cfed_isa::Reg;
use cfed_sim::{Cpu, Machine, MachineSnapshot, SnapshotTracker, Trap, PAGE_SIZE};
use programs::{arb_calls, arb_loop, arb_word};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Checkpoints captured at most, one in front of each of the golden run's
/// first branches: the stretch in which it translates most of its blocks,
/// so checkpoints differ in the blocks they hold.
const MAX_CHECKPOINTS: u64 = 32;
/// Instructions a golden run or a trial's prefix may take.
const BUDGET: u64 = 60_000;

/// How a segment ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SegEnd {
    Budget,
    AtBranch,
    Halt,
    Trap(Trap),
}

/// At most `max_insts` instructions, stopping in front of a branch once
/// `stop` more branches have retired (`None`: never).
#[derive(Debug, Clone)]
struct Seg {
    max_insts: u64,
    stop: Option<u64>,
}

fn arb_seg() -> impl Strategy<Value = Seg> {
    // Native code runs only while at least 4096 instructions of budget are
    // left; shorter segments take the fused tail throughout.
    let long = || 4096u64..12_000;
    let max_insts = prop_oneof![0u64..64, long(), long(), long()];
    let stop = prop_oneof![Just(None), (0u64..6).prop_map(Some), (0u64..6).prop_map(Some)];
    (max_insts, stop).prop_map(|(max_insts, stop)| Seg { max_insts, stop })
}

/// The corruption a trial applies at its strike point.
#[derive(Debug, Clone)]
enum Strike {
    /// Flip one flags bit in front of a branch: the branch may go the
    /// other way.
    Flag(u8),
    /// Overwrite a register (the loop counter, a data or code pointer...).
    Reg(usize, u64),
    /// Point a register at the `k`th guest instruction: an indirect call or
    /// jump through it lands somewhere new, and trials translate, chain
    /// and run blocks of their own that later checkpoints hold otherwise.
    Code(usize, u64),
}

fn arb_strike() -> impl Strategy<Value = Strike> {
    prop_oneof![
        (0u8..6).prop_map(Strike::Flag),
        (0usize..8, prop_oneof![0u64..64, any::<u64>()]).prop_map(|(r, v)| Strike::Reg(r, v)),
        (prop_oneof![Just(5usize), Just(6usize), 0usize..8], 0u64..24)
            .prop_map(|(r, k)| Strike::Code(r, k)),
    ]
}

/// One trial: the checkpoint it restores, the golden-path branches it runs
/// before striking, the strike, and the segments after it.
#[derive(Debug, Clone)]
struct Trial {
    at: usize,
    prefix: u64,
    strike: Strike,
    segs: Vec<Seg>,
}

fn arb_trial() -> impl Strategy<Value = Trial> {
    (any::<usize>(), 0u64..4, arb_strike(), prop::collection::vec(arb_seg(), 1..6))
        .prop_map(|(at, prefix, strike, segs)| Trial { at, prefix, strike, segs })
}

/// Runs bursts until `max_insts` instructions retired, the machine stands
/// in front of a branch with `stop_at` branches retired, or the run ends.
fn drive(
    m: &mut Machine,
    max_insts: u64,
    stop_at: u64,
    mut burst: impl FnMut(&mut Machine, u64, u64) -> DbtStep,
) -> SegEnd {
    let start = m.cpu.stats().insts;
    loop {
        let used = m.cpu.stats().insts - start;
        if used >= max_insts {
            return SegEnd::Budget;
        }
        if m.cpu.stats().branches >= stop_at && m.peek_inst().is_ok_and(|i| i.is_branch()) {
            return SegEnd::AtBranch;
        }
        match burst(m, max_insts - used, stop_at) {
            DbtStep::Continue => {}
            DbtStep::Halted => return SegEnd::Halt,
            DbtStep::Exit(t) => return SegEnd::Trap(t),
        }
    }
}

/// A checkpoint: the machine and the engine captured at the same instant.
struct Checkpoint {
    machine: MachineSnapshot,
    dbt: Dbt,
}

fn load(words: &[[u8; 8]]) -> Machine {
    let mut m = Machine::load(&words.concat(), &[], 0);
    let layout = m.layout().clone();
    m.cpu.set_reg(Reg::R1, layout.code_base + 0x40);
    m.cpu.set_reg(Reg::R2, layout.data_base);
    m
}

/// The golden run's checkpoints, in front of each of its first branches.
fn golden(words: &[[u8; 8]]) -> Vec<Checkpoint> {
    let mut m = load(words);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    let mut tracker = SnapshotTracker::new();
    let mut checkpoints = Vec::new();
    for k in 0..MAX_CHECKPOINTS {
        let left = BUDGET.saturating_sub(m.cpu.stats().insts);
        let end = drive(&mut m, left, k, |m, left, stop| dbt.burst(m, left, stop));
        if end != SegEnd::AtBranch {
            break;
        }
        checkpoints.push(Checkpoint { machine: tracker.capture(&mut m), dbt: dbt.clone() });
    }
    checkpoints
}

/// The engine a trial runs on.
enum Engine {
    Fused(Dbt),
    Native(NativeDbt),
}

impl Engine {
    fn burst(&mut self, m: &mut Machine, max_insts: u64, stop_at: u64) -> DbtStep {
        match self {
            Engine::Fused(dbt) => dbt.burst(m, max_insts, stop_at),
            Engine::Native(nd) => nd.burst(m, max_insts, stop_at),
        }
    }

    fn stats(&self) -> DbtStats {
        match self {
            Engine::Fused(dbt) => dbt.stats(),
            Engine::Native(nd) => nd.stats(),
        }
    }
}

/// Every segment's end, CPU and engine statistics, then each dirty page
/// with its contents.
type Observed = (Vec<(SegEnd, Cpu, DbtStats)>, Vec<(u64, Vec<u8>)>);

/// Runs `trial` from `cp`: natively on this thread's JIT, rewound under
/// `lineage`, or on a fresh fused engine.
fn run_trial(cp: &Checkpoint, trial: &Trial, native: Option<u64>) -> Observed {
    let mut m = cp.machine.restore();
    let mut engine = match native {
        Some(lineage) => Engine::Native(NativeDbt::rewind(cp.dbt.clone(), &m, lineage)),
        None => Engine::Fused(cp.dbt.clone()),
    };
    let stop_at = m.cpu.stats().branches + trial.prefix;
    let end = drive(&mut m, BUDGET, stop_at, |m, left, stop| engine.burst(m, left, stop));
    let mut live = matches!(end, SegEnd::Budget | SegEnd::AtBranch);
    let mut log = vec![(end, m.cpu.clone(), engine.stats())];
    if live {
        if let Engine::Native(nd) = &mut engine {
            nd.mark_lineage();
        }
        match trial.strike {
            Strike::Flag(bit) => m.cpu.set_flags(m.cpu.flags().with_bit_flipped(bit)),
            Strike::Reg(r, v) => m.cpu.set_reg(Reg::all().nth(r).expect("in range"), v),
            Strike::Code(r, k) => {
                let at = m.layout().code_base + 8 * k;
                m.cpu.set_reg(Reg::all().nth(r).expect("in range"), at);
            }
        }
    }
    for seg in &trial.segs {
        if !live {
            break;
        }
        let stop_at = seg.stop.map_or(u64::MAX, |n| m.cpu.stats().branches + n);
        let end =
            drive(&mut m, seg.max_insts, stop_at, |m, left, stop| engine.burst(m, left, stop));
        live = matches!(end, SegEnd::Budget | SegEnd::AtBranch);
        log.push((end, m.cpu.clone(), engine.stats()));
    }
    let pages = m
        .mem
        .dirty_pages()
        .into_iter()
        .map(|base| (base, m.mem.peek(base, PAGE_SIZE as usize).to_vec()))
        .collect();
    (log, pages)
}

/// A golden run the thread's JIT has not seen: every case starts afresh.
fn new_lineage() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1 << 40);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn rewinds_match(words: &[[u8; 8]], trials: &[Trial]) {
    let checkpoints = golden(words);
    if checkpoints.is_empty() {
        return;
    }
    let lineage = new_lineage();
    for (i, trial) in trials.iter().enumerate() {
        let cp = &checkpoints[trial.at % checkpoints.len()];
        let fused = run_trial(cp, trial, None);
        let native = run_trial(cp, trial, Some(lineage));
        prop_assert_eq!(fused, native, "trial {} of {}", i, trials.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Loops, with and without calls through direct and indirect jumps, so
    /// trials chain exits, fill the inline cache and hit it natively.
    #[test]
    fn rewound_jit_matches_fresh_restore_on_loops(
        words in prop_oneof![arb_loop(), arb_calls()],
        trials in prop::collection::vec(arb_trial(), 1..16),
    ) {
        rewinds_match(&words, &trials);
    }

    /// Random programs, self-modifying stores and invalid encodings
    /// included: trials flush translations (a generation change) as well.
    #[test]
    fn rewound_jit_matches_fresh_restore_on_random_programs(
        words in prop::collection::vec(arb_word(), 1..96),
        trials in prop::collection::vec(arb_trial(), 1..16),
    ) {
        rewinds_match(&words, &trials);
    }
}
