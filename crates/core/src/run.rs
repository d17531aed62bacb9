//! Convenience harness: run an image natively or under the DBT with a
//! chosen technique, policy and update style, collecting the numbers the
//! experiments need.

use crate::profile::fold_profile;
use crate::techniques::TechniqueKind;
use cfed_asm::Image;
use cfed_dbt::{
    CheckPolicy, Dbt, DbtStats, Instrumenter, NativeDbt, NullInstrumenter, UpdateStyle,
};
use cfed_sim::{ExitReason, Machine};
use cfed_telemetry::{Profile, Telemetry};

/// Default instruction budget for experiment runs.
pub const DEFAULT_MAX_INSTS: u64 = 200_000_000;

/// Configuration for one DBT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// The technique, or `None` for the uninstrumented DBT baseline.
    pub technique: Option<TechniqueKind>,
    /// Signature checking policy.
    pub policy: CheckPolicy,
    /// Conditional-update style.
    pub style: UpdateStyle,
    /// Instruction budget.
    pub max_insts: u64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            technique: None,
            policy: CheckPolicy::AllBb,
            style: UpdateStyle::Jcc,
            max_insts: DEFAULT_MAX_INSTS,
        }
    }
}

impl RunConfig {
    /// Baseline (uninstrumented DBT) configuration.
    pub fn baseline() -> RunConfig {
        RunConfig::default()
    }

    /// A technique under ALLBB/Jcc defaults.
    pub fn technique(kind: TechniqueKind) -> RunConfig {
        RunConfig { technique: Some(kind), ..RunConfig::default() }
    }

    /// The instrumenter this configuration runs under: the technique's
    /// (recovering the CFG from `image` when the technique needs it), or
    /// the no-op baseline's.
    pub fn instrumenter(&self, image: &Image) -> Box<dyn Instrumenter> {
        match self.technique {
            Some(kind) => kind.instrumenter_for(image, self.policy),
            None => Box::new(NullInstrumenter),
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// How execution ended.
    pub exit: ExitReason,
    /// The observable output stream.
    pub output: Vec<u64>,
    /// Cycles consumed (cost-model time).
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Translator statistics.
    pub dbt: DbtStats,
}

impl RunOutcome {
    /// What the run that ended with `exit` on `m` produced.
    fn collect(exit: ExitReason, m: &mut Machine, dbt: DbtStats) -> RunOutcome {
        RunOutcome {
            exit,
            output: m.cpu.take_output(),
            cycles: m.cpu.stats().cycles,
            insts: m.cpu.stats().insts,
            dbt,
        }
    }
}

/// The one DBT run: loads `image`, runs it under `instr` with `telemetry`
/// attached — on the native backend when `native`, else on the fused
/// interpreter — and, when `profile`, with the execution profiler attached
/// and folded into the returned [`Profile`].
pub(crate) fn run_loaded(
    image: &Image,
    instr: Box<dyn Instrumenter>,
    style: UpdateStyle,
    max_insts: u64,
    native: bool,
    telemetry: &Telemetry,
    profile: bool,
) -> (RunOutcome, Option<Profile>) {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    if profile {
        m.enable_profiler();
    }
    let mut dbt = NativeDbt::wrap(Dbt::new(instr, style, &mut m), native);
    dbt.set_telemetry(telemetry.clone());
    let exit = dbt.run(&mut m, max_insts);
    let profile = profile.then(|| fold_profile(&mut m, dbt.dbt()));
    (RunOutcome::collect(exit, &mut m, dbt.stats()), profile)
}

/// Runs `image` under the DBT with the given configuration, on the fused
/// interpreter: the reference the native-first [`run_dbt_native`] is
/// checked against.
///
/// # Examples
///
/// ```
/// use cfed_core::{run_dbt, RunConfig, TechniqueKind};
/// use cfed_lang::compile;
/// use cfed_sim::ExitReason;
///
/// let image = compile("fn main() { out(6 * 7); }")?;
/// let out = run_dbt(&image, &RunConfig::technique(TechniqueKind::EdgCf));
/// assert_eq!(out.exit, ExitReason::Halted { code: 0 });
/// assert_eq!(out.output, vec![42]);
/// # Ok::<(), cfed_lang::CompileError>(())
/// ```
pub fn run_dbt(image: &Image, cfg: &RunConfig) -> RunOutcome {
    let instr = cfg.instrumenter(image);
    run_loaded(image, instr, cfg.style, cfg.max_insts, false, &Telemetry::off(), false).0
}

/// As [`run_dbt_native`], with a telemetry handle attached to the
/// translator: the run end emits a `dbt_stats` event (block/chain/eviction
/// counters and the translation-time histogram) to the handle's sink. With
/// the disabled handle this is exactly [`run_dbt_native`].
pub fn run_dbt_telemetry(image: &Image, cfg: &RunConfig, telemetry: &Telemetry) -> RunOutcome {
    let (instr, native) = (cfg.instrumenter(image), cfed_dbt::native_enabled());
    run_loaded(image, instr, cfg.style, cfg.max_insts, native, telemetry, false).0
}

/// Runs `image` under the DBT with an explicit instrumenter (for custom or
/// CFG-dependent techniques).
pub fn run_dbt_with(
    image: &Image,
    instr: Box<dyn Instrumenter>,
    style: UpdateStyle,
    max_insts: u64,
) -> RunOutcome {
    run_loaded(image, instr, style, max_insts, false, &Telemetry::off(), false).0
}

/// Runs `image` under the DBT with the native x86-64 backend when the
/// platform and environment allow it (see [`cfed_dbt::native_enabled`]:
/// non-x86-64 hosts and `CFED_NO_NATIVE=1` fall back to the fused
/// interpreter). Results are bit-identical either way.
///
/// # Examples
///
/// ```
/// use cfed_core::{run_dbt, run_dbt_native, RunConfig, TechniqueKind};
///
/// let image = cfed_lang::compile("fn main() { out(6 * 7); }")?;
/// let cfg = RunConfig::technique(TechniqueKind::Cfcss);
/// let native = run_dbt_native(&image, &cfg);
/// let interp = run_dbt(&image, &cfg);
/// assert_eq!(native.exit, interp.exit);
/// assert_eq!(native.output, interp.output);
/// assert_eq!(native.cycles, interp.cycles);
/// assert_eq!(native.dbt, interp.dbt);
/// # Ok::<(), cfed_lang::CompileError>(())
/// ```
pub fn run_dbt_native(image: &Image, cfg: &RunConfig) -> RunOutcome {
    run_dbt_telemetry(image, cfg, &Telemetry::off())
}

/// As [`run_dbt_native`] with an explicit native on/off switch, for
/// harnesses that must not depend on ambient environment variables.
pub fn run_dbt_native_enabled(image: &Image, cfg: &RunConfig, native: bool) -> RunOutcome {
    let instr = cfg.instrumenter(image);
    run_loaded(image, instr, cfg.style, cfg.max_insts, native, &Telemetry::off(), false).0
}

/// Runs `image` directly on the interpreter (no DBT).
pub fn run_native(image: &Image, max_insts: u64) -> RunOutcome {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let exit = m.run(max_insts);
    RunOutcome::collect(exit, &mut m, DbtStats::default())
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }
}
