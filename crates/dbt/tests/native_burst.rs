//! The burst stop rule on native code: `NativeDbt::burst` against
//! `Dbt::burst`, driven over the same segments — each at most `max_insts`
//! instructions, stopping in front of a branch once `stop` more branches
//! have retired — must end every segment in the same place (same end, same
//! CPU including `ExecStats` and output, same `DbtStats`) and leave the
//! same memory behind.
//!
//! Each run first warms up on the fused engine and only then wraps the
//! engine, as a fault-injection trial wraps the engine it restored from a
//! checkpoint: exits chained before the wrap compile to jumps inside native
//! code, among them a loop block's jump back to its own head, which must
//! re-check the stop on every iteration. Loops that call a leaf pass the
//! same calls, returns and indirect jumps on every iteration, so native
//! code enters block heads from inline-cache hits and fills the cache
//! between stops.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

#[path = "../../sim/tests/programs/mod.rs"]
mod programs;

use cfed_dbt::{Dbt, DbtStats, DbtStep, NativeDbt, NullInstrumenter, UpdateStyle};
use cfed_isa::Reg;
use cfed_sim::{Cpu, Machine, Trap, PAGE_SIZE};
use programs::{arb_calls, arb_loop, arb_word};
use proptest::prelude::*;

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

/// The engine the segments run on after the warm-up.
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

fn execute(words: &[[u8; 8]], warm: u64, segs: &[Seg], native: bool) -> Observed {
    let mut m = Machine::load(&words.concat(), &[], 0);
    let layout = m.layout().clone();
    m.cpu.set_reg(Reg::R1, layout.code_base + 0x40);
    m.cpu.set_reg(Reg::R2, layout.data_base);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    let end = drive(&mut m, warm, u64::MAX, |m, left, stop| dbt.burst(m, left, stop));
    let mut log = vec![(end.clone(), m.cpu.clone(), dbt.stats())];
    let mut engine = if native {
        let nd = NativeDbt::wrap(dbt);
        assert_eq!(nd.is_native(), cfed_dbt::native_enabled(), "native backend gating");
        Engine::Native(nd)
    } else {
        Engine::Fused(dbt)
    };
    let mut live = end == SegEnd::Budget;
    for seg in segs {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random programs, self-modifying stores and invalid encodings
    /// included.
    #[test]
    fn native_bursts_stop_where_fused_bursts_do(
        words in prop::collection::vec(arb_word(), 1..96),
        warm in 0u64..200,
        segs in prop::collection::vec(arb_seg(), 1..12),
    ) {
        let fused = execute(&words, warm, &segs, false);
        let native = execute(&words, warm, &segs, true);
        prop_assert_eq!(fused, native);
    }

    /// Guaranteed loops: stops land on branches met again on later
    /// iterations, inside blocks that loop back to their own head. Half
    /// the loops call a leaf directly and through a register, so stops
    /// also land in front of calls, returns and indirect jumps, and native
    /// code enters block heads from its inline cache.
    #[test]
    fn native_loop_bursts_stop_where_fused_bursts_do(
        words in prop_oneof![arb_loop(), arb_calls()],
        warm in 0u64..40,
        segs in prop::collection::vec(arb_seg(), 1..16),
    ) {
        let fused = execute(&words, warm, &segs, false);
        let native = execute(&words, warm, &segs, true);
        prop_assert_eq!(fused, native);
    }
}
