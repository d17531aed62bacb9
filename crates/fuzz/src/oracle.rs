//! The N-way differential oracle.
//!
//! Runs one image on every execution backend the stack provides — raw
//! interpreter, fused interpreter, DBT per-step, DBT block-fused, DBT
//! native x86-64 — crossed with every control-flow-checking technique
//! and both conditional-update styles, then diffs the runs pairwise. The
//! first divergent pair (in a fixed, deterministic order) is the verdict.
//!
//! Three comparison strengths, matching the invariants the stack pins in
//! its own test suites:
//!
//! * **Interpreter pair** (raw vs fused): the decode cache is pure
//!   mechanism, so *full architectural state* must match — registers,
//!   flags, IP, retired-instruction/cycle counts and the output stream.
//! * **DBT dispatch group** (per-step vs block-fused vs native, same
//!   config): exit, output, cycles, retired instructions and the translator
//!   counters `blocks`/`chains`/`dispatches`/`smc_flushes`/
//!   `dispatch_ic_hits` must match (neither block fusion nor native code
//!   generation may change what was translated or executed). The native
//!   engine transparently falls back to the fused cache on hosts where the
//!   backend is unavailable, so this comparison is meaningful everywhere.
//! * **Cross-engine** (interpreter vs DBT): instrumentation legitimately
//!   changes cost, so only the observable contract is compared — output
//!   stream and normalized exit (see [`exits_compatible`]).

use crate::gen::{GeneratedProgram, Tier};
use cfed_asm::Image;
use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::{native_enabled, Dbt, DbtStats, NativeDbt, UpdateStyle};
use cfed_sim::{Cpu, ExitReason, Machine, Trap};

/// Identifies one backend in the oracle matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendId {
    /// Execution engine + dispatch flavour.
    pub engine: Engine,
    /// Technique, or `None` for uninstrumented (always `None` for the
    /// interpreter engines, which cannot carry instrumentation).
    pub technique: Option<TechniqueKind>,
    /// Conditional-update style (meaningful only with a technique).
    pub style: UpdateStyle,
}

/// The execution paths of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Interpreter, decode cache off.
    InterpRaw,
    /// Interpreter, pre-decoded block-fused dispatch.
    InterpFused,
    /// DBT translating into per-step cache execution.
    DbtStep,
    /// DBT with block-fused cache execution.
    DbtFused,
    /// DBT with the native x86-64 backend (falls back to block-fused cache
    /// execution, bit-identically, where the backend is unavailable).
    DbtNative,
}

impl BackendId {
    /// Stable human-readable label used in reports and divergence records.
    pub fn label(&self) -> String {
        let engine = match self.engine {
            Engine::InterpRaw => "interp-raw",
            Engine::InterpFused => "interp-fused",
            Engine::DbtStep => "dbt-step",
            Engine::DbtFused => "dbt-fused",
            Engine::DbtNative => "dbt-native",
        };
        match self.technique {
            None => engine.to_string(),
            Some(t) => {
                let style = match self.style {
                    UpdateStyle::Jcc => "jcc",
                    UpdateStyle::CMov => "cmov",
                };
                format!("{engine}/{t}/{style}")
            }
        }
    }
}

/// What one backend produced for one program.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which backend.
    pub id: BackendId,
    /// How it ended.
    pub exit: ExitReason,
    /// Observable output stream.
    pub output: Vec<u64>,
    /// Cost-model cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Final architectural state (output already drained).
    pub cpu: Cpu,
    /// Translator counters (DBT engines only).
    pub dbt: Option<DbtStats>,
}

/// A recorded mismatch between two backends.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the first backend of the pair.
    pub left: String,
    /// Label of the second backend of the pair.
    pub right: String,
    /// Which comparison failed (`exit`, `output`, `state`, `cost`,
    /// `dbt-stats`).
    pub field: String,
    /// Human-readable detail of both sides.
    pub detail: String,
}

/// Everything the oracle learned about one program.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Every backend run, in matrix order.
    pub runs: Vec<BackendRun>,
    /// The first divergent pair, if any.
    pub divergence: Option<Divergence>,
}

/// The configurations the DBT engines are crossed with: the uninstrumented
/// baseline plus all five techniques under both update styles.
pub fn technique_matrix() -> Vec<(Option<TechniqueKind>, UpdateStyle)> {
    let mut m = vec![(None, UpdateStyle::Jcc)];
    for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
        for kind in TechniqueKind::ALL_FIVE {
            m.push((Some(kind), style));
        }
    }
    m
}

fn load(image: &Image) -> Machine {
    Machine::load(image.code(), image.data(), image.entry_offset())
}

fn run_interp(image: &Image, id: BackendId, max_insts: u64) -> BackendRun {
    let mut m = load(image);
    m.set_decode_cache(matches!(id.engine, Engine::InterpFused));
    let exit = m.run(max_insts);
    finish(id, exit, m, None)
}

fn run_dbt_engine(image: &Image, id: BackendId, max_insts: u64) -> BackendRun {
    let mut m = load(image);
    // Per-step vs block-fused is selected by the decode cache's presence at
    // translator attach time (the DBT fuses only when the machine fuses);
    // the native backend requires the fused cache underneath it.
    m.set_decode_cache(!matches!(id.engine, Engine::DbtStep));
    let instr = RunConfig { technique: id.technique, ..RunConfig::default() }.instrumenter(image);
    if id.engine == Engine::DbtNative {
        let mut dbt = NativeDbt::wrap(Dbt::new(instr, id.style, &mut m), native_enabled());
        let exit = dbt.run(&mut m, max_insts);
        let stats = dbt.stats();
        return finish(id, exit, m, Some(stats));
    }
    let mut dbt = Dbt::new(instr, id.style, &mut m);
    let exit = dbt.run(&mut m, max_insts);
    finish(id, exit, m, Some(dbt.stats()))
}

fn finish(id: BackendId, exit: ExitReason, mut m: Machine, dbt: Option<DbtStats>) -> BackendRun {
    let output = m.cpu.take_output();
    let cycles = m.cpu.stats().cycles;
    let insts = m.cpu.stats().insts;
    BackendRun { id, exit, output, cycles, insts, cpu: m.cpu, dbt }
}

/// Exit compatibility across engines, where instrumentation shifts
/// addresses and costs.
///
/// * `Halted`: codes must match exactly.
/// * Traps executing *inside cache code* under the DBT (`DivByZero`,
///   `Software`) report cache addresses, so only the variant (and software
///   trap code) must match.
/// * Memory faults carry *data* addresses, which instrumentation never
///   changes: exact equality.
/// * Fetch faults carry *guest* addresses (the DBT reconstructs them):
///   exact equality.
/// * `StepLimit` on either side makes the pair incomparable (budgets bite
///   at different guest points once instrumentation changes cost), so it is
///   compatible with anything.
pub fn exits_compatible(a: &ExitReason, b: &ExitReason) -> bool {
    match (a, b) {
        (ExitReason::StepLimit, _) | (_, ExitReason::StepLimit) => true,
        (ExitReason::Halted { code: ca }, ExitReason::Halted { code: cb }) => ca == cb,
        (ExitReason::Trapped(ta), ExitReason::Trapped(tb)) => traps_compatible(ta, tb),
        _ => false,
    }
}

fn traps_compatible(a: &Trap, b: &Trap) -> bool {
    match (a, b) {
        (Trap::DivByZero { .. }, Trap::DivByZero { .. }) => true,
        (Trap::Software { code: ca, .. }, Trap::Software { code: cb, .. }) => ca == cb,
        _ => a == b,
    }
}

/// Whether a technique run is allowed to diverge from the uninstrumented
/// behaviour on this program tier.
///
/// The CFG-dependent prior-work techniques (CFCSS, ECCA) instrument from a
/// *static* CFG of the initial image. The raw-VISA tier deliberately
/// generates what static analysis cannot see — data-driven indirect jumps
/// and self-modifying stores — so on that tier those two techniques may
/// legitimately report a (false-positive) control-flow error. The report
/// itself must still be a *detection* (CFE trap), never silent corruption,
/// and the per-step/fused pair must still agree exactly.
fn may_false_positive(tier: Tier, technique: Option<TechniqueKind>) -> bool {
    tier == Tier::Visa
        && matches!(technique, Some(TechniqueKind::Cfcss) | Some(TechniqueKind::Ecca))
}

fn is_cfe_detection_exit(exit: &ExitReason) -> bool {
    match exit {
        ExitReason::Trapped(t) => t.is_cfe_report() || matches!(t, Trap::DivByZero { .. }),
        _ => false,
    }
}

fn diff_exact_cpu(a: &BackendRun, b: &BackendRun) -> Option<Divergence> {
    if a.exit != b.exit {
        return Some(divergence(a, b, "exit", format!("{:?} vs {:?}", a.exit, b.exit)));
    }
    if a.cpu != b.cpu {
        return Some(divergence(
            a,
            b,
            "state",
            format!(
                "architectural state differs (ip {:#x} vs {:#x}, insts {} vs {})",
                a.cpu.ip(),
                b.cpu.ip(),
                a.insts,
                b.insts
            ),
        ));
    }
    diff_output(a, b)
}

fn diff_output(a: &BackendRun, b: &BackendRun) -> Option<Divergence> {
    if a.output != b.output {
        let n = a.output.iter().zip(&b.output).take_while(|(x, y)| x == y).count();
        return Some(divergence(
            a,
            b,
            "output",
            format!(
                "streams differ at index {n} (lengths {} vs {}): {:?} vs {:?}",
                a.output.len(),
                b.output.len(),
                a.output.get(n),
                b.output.get(n)
            ),
        ));
    }
    None
}

fn diff_dispatch_pair(step: &BackendRun, fused: &BackendRun) -> Option<Divergence> {
    if step.exit != fused.exit {
        return Some(divergence(
            step,
            fused,
            "exit",
            format!("{:?} vs {:?}", step.exit, fused.exit),
        ));
    }
    if let Some(d) = diff_output(step, fused) {
        return Some(d);
    }
    if (step.cycles, step.insts) != (fused.cycles, fused.insts) {
        return Some(divergence(
            step,
            fused,
            "cost",
            format!(
                "cycles {} vs {}, insts {} vs {}",
                step.cycles, fused.cycles, step.insts, fused.insts
            ),
        ));
    }
    let (a, b) = (step.dbt.as_ref()?, fused.dbt.as_ref()?);
    let key = |s: &DbtStats| (s.blocks, s.chains, s.dispatches, s.smc_flushes, s.dispatch_ic_hits);
    if key(a) != key(b) {
        return Some(divergence(step, fused, "dbt-stats", format!("{:?} vs {:?}", key(a), key(b))));
    }
    None
}

fn diff_cross_engine(native: &BackendRun, dbt: &BackendRun, tier: Tier) -> Option<Divergence> {
    if matches!(native.exit, ExitReason::StepLimit) || matches!(dbt.exit, ExitReason::StepLimit) {
        return None; // budgets bite at different points; nothing comparable
    }
    if may_false_positive(tier, dbt.id.technique) && is_cfe_detection_exit(&dbt.exit) {
        // A static-CFG technique tripping on dynamic code is a detection,
        // not a divergence. Output up to the trap must still be a prefix.
        return (!native.output.starts_with(&dbt.output)).then(|| {
            divergence(
                native,
                dbt,
                "output",
                format!(
                    "false-positive detection but output is not a prefix: {:?} vs {:?}",
                    native.output, dbt.output
                ),
            )
        });
    }
    if !exits_compatible(&native.exit, &dbt.exit) {
        return Some(divergence(
            native,
            dbt,
            "exit",
            format!("{:?} vs {:?}", native.exit, dbt.exit),
        ));
    }
    diff_output(native, dbt)
}

fn divergence(a: &BackendRun, b: &BackendRun, field: &str, detail: String) -> Divergence {
    Divergence { left: a.id.label(), right: b.id.label(), field: field.into(), detail }
}

/// Runs the full backend matrix on one program and reports the first
/// divergent pair.
pub fn run_oracle(prog: &GeneratedProgram, max_insts: u64) -> OracleReport {
    let image = &prog.image;
    let base_style = UpdateStyle::Jcc;
    let raw = run_interp(
        image,
        BackendId { engine: Engine::InterpRaw, technique: None, style: base_style },
        max_insts,
    );
    let fused = run_interp(
        image,
        BackendId { engine: Engine::InterpFused, technique: None, style: base_style },
        max_insts,
    );

    let mut runs = vec![raw, fused];
    let mut divergence = diff_exact_cpu(&runs[0], &runs[1]);

    for (technique, style) in technique_matrix() {
        let step = run_dbt_engine(
            image,
            BackendId { engine: Engine::DbtStep, technique, style },
            max_insts,
        );
        let fused_dbt = run_dbt_engine(
            image,
            BackendId { engine: Engine::DbtFused, technique, style },
            max_insts,
        );
        let native_dbt = run_dbt_engine(
            image,
            BackendId { engine: Engine::DbtNative, technique, style },
            max_insts,
        );
        if divergence.is_none() {
            divergence = diff_dispatch_pair(&step, &fused_dbt)
                .or_else(|| diff_dispatch_pair(&fused_dbt, &native_dbt))
                .or_else(|| diff_cross_engine(&runs[0], &fused_dbt, prog.tier));
        }
        runs.push(step);
        runs.push(fused_dbt);
        runs.push(native_dbt);
    }

    OracleReport { runs, divergence }
}

/// Re-runs only the recorded diverging backend pair — the cheap predicate
/// the shrinker uses (2 runs instead of the full matrix).
pub fn pair_diverges(image: &Image, left: &str, right: &str, tier: Tier, max_insts: u64) -> bool {
    let all = backend_ids();
    let Some(a) = all.iter().find(|b| b.label() == left) else { return false };
    let Some(b) = all.iter().find(|b| b.label() == right) else { return false };
    let run = |id: &BackendId| match id.engine {
        Engine::InterpRaw | Engine::InterpFused => run_interp(image, *id, max_insts),
        _ => run_dbt_engine(image, *id, max_insts),
    };
    let (ra, rb) = (run(a), run(b));
    diff_for_pair(&ra, &rb, tier).is_some()
}

/// Every backend id of the matrix, in matrix order.
pub fn backend_ids() -> Vec<BackendId> {
    let mut ids = vec![
        BackendId { engine: Engine::InterpRaw, technique: None, style: UpdateStyle::Jcc },
        BackendId { engine: Engine::InterpFused, technique: None, style: UpdateStyle::Jcc },
    ];
    for (technique, style) in technique_matrix() {
        ids.push(BackendId { engine: Engine::DbtStep, technique, style });
        ids.push(BackendId { engine: Engine::DbtFused, technique, style });
        ids.push(BackendId { engine: Engine::DbtNative, technique, style });
    }
    ids
}

/// The comparison the oracle would apply to this specific pair.
fn diff_for_pair(a: &BackendRun, b: &BackendRun, tier: Tier) -> Option<Divergence> {
    use Engine::*;
    match (a.id.engine, b.id.engine) {
        (InterpRaw, InterpFused) | (InterpFused, InterpRaw) => diff_exact_cpu(a, b),
        (DbtStep | DbtFused | DbtNative, DbtStep | DbtFused | DbtNative) => {
            diff_dispatch_pair(a, b)
        }
        (InterpRaw | InterpFused, _) => diff_cross_engine(a, b, tier),
        (_, InterpRaw | InterpFused) => diff_cross_engine(b, a, tier),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Tier};

    #[test]
    fn matrix_covers_all_paths_and_techniques() {
        let ids = backend_ids();
        // 2 interpreters + 3 DBT flavours per config.
        assert_eq!(ids.len(), 2 + 3 * (1 + 2 * 5));
        for engine in [
            Engine::InterpRaw,
            Engine::InterpFused,
            Engine::DbtStep,
            Engine::DbtFused,
            Engine::DbtNative,
        ] {
            assert!(ids.iter().any(|b| b.engine == engine));
        }
        for kind in TechniqueKind::ALL_FIVE {
            for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
                assert!(ids.iter().any(|b| b.technique == Some(kind) && b.style == style));
            }
        }
        // Labels are unique (they key divergence records).
        let mut labels: Vec<_> = ids.iter().map(|b| b.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ids.len());
    }

    #[test]
    fn clean_programs_produce_no_divergence() {
        for seed in [3u64, 17] {
            for tier in [Tier::MiniC, Tier::Visa] {
                let prog = generate(seed, tier);
                let report = run_oracle(&prog, 2_000_000);
                assert!(
                    report.divergence.is_none(),
                    "seed {seed} {tier:?}: {:?}",
                    report.divergence
                );
            }
        }
    }

    #[test]
    fn smc_into_hot_loop_survives_the_full_matrix() {
        // A loop runs hot (chained translations, warm inline cache), then an
        // SMC store patches its body and it runs again: the flush and
        // retranslation path must stay coherent across all 35 backends
        // (generated programs rarely hit this combination, so the scenario
        // is pinned by hand).
        use cfed_isa::{AluOp, Inst, Reg};
        let patch = Inst::AluI { op: AluOp::Add, dst: Reg::R5, imm: 2 };
        let mut asm = cfed_asm::Asm::new();
        let pool = asm.data_u64(&[u64::from_le_bytes(patch.encode())]);
        asm.label("start");
        asm.call("hotfn");
        asm.mov_addr(Reg::R2, pool);
        asm.ld(Reg::R3, Reg::R2, 0);
        asm.mov_label(Reg::R4, "patchsite");
        asm.st(Reg::R4, Reg::R3, 0);
        asm.call("hotfn");
        asm.halt();
        asm.label("hotfn");
        asm.movri(Reg::R0, 0);
        asm.movri(Reg::R5, 0);
        asm.label("body");
        asm.label("patchsite");
        asm.alu(AluOp::Add, Reg::R5, Reg::R0);
        asm.alui(AluOp::Add, Reg::R0, 1);
        asm.cmpi(Reg::R0, 50);
        asm.jcc(cfed_isa::Cond::L, "body");
        asm.out(Reg::R5);
        asm.ret();
        let image = asm.assemble("start").unwrap();
        let prog = GeneratedProgram { tier: Tier::Visa, seed: 0, source: None, image };
        let report = run_oracle(&prog, 2_000_000);
        assert!(report.divergence.is_none(), "{:?}", report.divergence);
        let flushed =
            report.runs.iter().any(|r| r.dbt.as_ref().is_some_and(|s| s.smc_flushes >= 1));
        assert!(flushed, "the SMC store must flush the hot loop's translation");
    }

    #[test]
    fn exit_normalization() {
        use cfed_sim::Trap;
        let a = ExitReason::Trapped(Trap::DivByZero { addr: 0x100 });
        let b = ExitReason::Trapped(Trap::DivByZero { addr: 0x9000 });
        assert!(exits_compatible(&a, &b));
        let c = ExitReason::Trapped(Trap::PermRead { addr: 8 });
        let d = ExitReason::Trapped(Trap::PermRead { addr: 16 });
        assert!(!exits_compatible(&c, &d));
        assert!(exits_compatible(&ExitReason::StepLimit, &c));
        assert!(!exits_compatible(&ExitReason::Halted { code: 0 }, &c));
    }
}
