//! Counter alignment for the burst trial driver.
//!
//! Fault injection names its site as "the nth dynamic branch about to
//! execute"; the trial driver (`cfed_fault::advance_to_branch`) finds that
//! instant from `ExecStats::branches`, which counts *retired* branches:
//! its bursts — on native code where the engine runs it, else on the
//! block-fused engine — stop in front of a branch once that count reaches
//! the target. The two counts agree only because translated code never
//! traps on a branch and the DBT's trap servicing never retires one. These
//! properties pin that agreement on the fuzzer's seed-pure programs —
//! self-modifying stores, jump tables, call/return, DBT exit stubs —
//! against a single-stepping reference that counts branches by decoding
//! ahead, and check that the burst driver stops in exactly the reference's
//! state on both burst engines.

use cfed_asm::{Asm, Image};
use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::{native_enabled, Dbt, DbtStep, NativeDbt, UpdateStyle};
use cfed_fault::{advance_to_branch, golden_run, Advance};
use cfed_fuzz::{generate, Tier};
use cfed_isa::Reg;
use cfed_sim::{Cpu, Machine};
use proptest::prelude::*;

const BUDGET: u64 = 2_000_000;

/// Checked stops per run (bounds the reference's saved CPU states).
const MAX_STOPS: usize = 256;

const TECHNIQUES: [Option<TechniqueKind>; 6] = [
    None,
    Some(TechniqueKind::Cfcss),
    Some(TechniqueKind::Ecca),
    Some(TechniqueKind::Ecf),
    Some(TechniqueKind::EdgCf),
    Some(TechniqueKind::Rcf),
];

fn attached(image: &Image, cfg: &RunConfig) -> (Machine, Dbt) {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(cfg.instrumenter(image), cfg.style, &mut m);
    dbt.attach(&mut m).expect("entry point translates");
    (m, dbt)
}

/// The single-stepping reference run.
struct Reference {
    /// CPU state about to execute dynamic branch `i * every`, for each `i`
    /// below [`MAX_STOPS`].
    at: Vec<Cpu>,
    end: Advance,
    final_cpu: Cpu,
    /// Branches counted by decoding ahead of every step.
    branches: u64,
    smc_flushes: u64,
}

/// Steps under the DBT, counting branches about to execute by decoding
/// the next instruction, and asserts at every instruction boundary that
/// the count equals the retired-branch counter.
fn step_reference(image: &Image, cfg: &RunConfig, every: u64) -> Reference {
    let (mut m, mut dbt) = attached(image, cfg);
    let mut branches = 0;
    let mut at = Vec::new();
    let end = loop {
        assert_eq!(branches, m.cpu.stats().branches, "counters diverged at {:#x}", m.cpu.ip());
        if m.cpu.stats().insts >= BUDGET {
            break Advance::OutOfBudget;
        }
        if m.peek_inst().is_ok_and(|i| i.is_branch()) {
            if branches.is_multiple_of(every) && at.len() < MAX_STOPS {
                at.push(m.cpu.clone());
            }
            branches += 1;
        }
        match dbt.step(&mut m) {
            DbtStep::Continue => {}
            DbtStep::Halted => break Advance::Halted,
            DbtStep::Exit(t) => break Advance::Trapped(t),
        }
    };
    Reference { at, end, final_cpu: m.cpu.clone(), branches, smc_flushes: dbt.stats().smc_flushes }
}

/// Drives the same run through the burst driver on the fused engine and,
/// where the platform runs it, on native code, stopping at every
/// `every`-th branch, and demands the reference's state at each stop and
/// at the end, and the same engine statistics from both burst engines.
fn check_burst_driver(image: &Image, cfg: &RunConfig, every: u64) {
    let reference = step_reference(image, cfg, every);
    let mut fused_stats = None;
    for native in [false, true] {
        if native && !native_enabled() {
            continue;
        }
        let (mut m, dbt) = attached(image, cfg);
        let mut nd = NativeDbt::wrap(dbt, native);
        for (i, cpu) in reference.at.iter().enumerate() {
            let target = i as u64 * every;
            let stop = advance_to_branch(&mut m, &mut nd, target, BUDGET, true);
            assert_eq!(stop, Advance::AtBranch, "native {native}: target branch {target}");
            assert_eq!(&m.cpu, cpu, "native {native}: state at branch {target}");
        }
        let end = advance_to_branch(&mut m, &mut nd, u64::MAX, BUDGET, true);
        assert_eq!(end, reference.end, "native {native}");
        assert_eq!(&m.cpu, &reference.final_cpu, "native {native}");
        match &fused_stats {
            None => fused_stats = Some(nd.stats()),
            Some(fused) => assert_eq!(&nd.stats(), fused, "native and fused engine stats"),
        }
    }
    if reference.end == Advance::Halted {
        let golden = golden_run(image, &RunConfig { max_insts: BUDGET, ..*cfg }).unwrap();
        assert_eq!(golden.branches, reference.branches);
        assert_eq!(golden.insts, reference.final_cpu.stats().insts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Both generator tiers under every technique and update style.
    #[test]
    fn burst_driver_matches_step_reference(
        seed in any::<u64>(),
        visa in any::<bool>(),
        technique in 0usize..TECHNIQUES.len(),
        jcc in any::<bool>(),
        every in 1u64..6,
    ) {
        let image = generate(seed, if visa { Tier::Visa } else { Tier::MiniC }).image;
        let cfg = RunConfig {
            technique: TECHNIQUES[technique],
            style: if jcc { UpdateStyle::Jcc } else { UpdateStyle::CMov },
            ..RunConfig::baseline()
        };
        check_burst_driver(&image, &cfg, every);
    }
}

/// Self-modifying stores are where the DBT's trap servicing re-executes a
/// guest instruction; a fixed seed sweep makes sure the property above
/// really crosses SMC flushes rather than relying on the random draw.
#[test]
fn smc_programs_stay_aligned() {
    let mut flushed = 0;
    for seed in 0..64u64 {
        let image = generate(seed, Tier::Visa).image;
        let cfg = RunConfig::technique(TechniqueKind::Rcf);
        flushed += step_reference(&image, &cfg, 1).smc_flushes;
        check_burst_driver(&image, &cfg, 3);
    }
    assert!(flushed > 0, "no generated program exercised an SMC flush");
}

/// A `call` whose return-address push lands on a write-protected code
/// page: the translated push traps, the DBT flushes the page and resumes
/// in the cache. The branch counters must stay aligned across the trap.
#[test]
fn call_push_onto_protected_page_stays_aligned() {
    let mut a = Asm::new();
    a.label("entry");
    a.mov_label(Reg::SP, "stack_top");
    a.call("sub");
    a.out(Reg::R0);
    a.call("sub");
    a.out(Reg::R0);
    a.halt();
    a.label("sub");
    a.movri(Reg::R0, 7);
    a.ret();
    for _ in 0..8 {
        a.nop();
    }
    a.label("stack_top");
    a.nop();
    let image = a.assemble("entry").unwrap();
    for technique in TECHNIQUES {
        let cfg = RunConfig { technique, ..RunConfig::baseline() };
        let reference = step_reference(&image, &cfg, 1);
        assert!(reference.smc_flushes > 0, "{technique:?}: the push never hit a protected page");
        assert_eq!(reference.end, Advance::Halted, "{technique:?}");
        check_burst_driver(&image, &cfg, 1);
        check_burst_driver(&image, &cfg, 2);
    }
}
