//! Adversarial attack oracle: attack schedules in the differential matrix.
//!
//! `cfed-fault` mounts an attack as a campaign trial: it runs to a dynamic
//! branch, seizes control there with a target picked from the *live
//! translated-code geometry*, and runs to an outcome. A campaign runs such
//! a trial on one of two paths, and the two must agree (the campaign's
//! `--no-snapshots` contract): from scratch on the single-step reference
//! engine, or on the fast path — checkpoint restore, bursts on the
//! worker's rewound JIT (fused ones where native execution is off) and
//! convergence pruning. This module mutates a deterministic schedule of
//! attacks (a pure function of the case seed) into the fuzzer's
//! differential matrix: every scheduled [`AttackSpec`] runs on both paths,
//! and the two [`InjectionResult`]s must be equal: same placement, outcome,
//! category, site, latency and landing kind.
//!
//! A mismatch is an engine bug by construction (the attack itself is the
//! same on both sides), and is shrunk with the generic image shrinker
//! against [`finding_reproduces`] — the cheap two-run predicate — then
//! archived as a [`RegressionMode::Attack`] reproducer replayable by
//! `cfed-fuzz replay` and the `regressions` integration test.
//!
//! [`RegressionMode::Attack`]: crate::corpus::RegressionMode::Attack
//! [`InjectionResult`]: cfed_fault::InjectionResult

use cfed_asm::Image;
use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::UpdateStyle;
use cfed_fault::{inject, AttackKind, AttackSpec, InjectionResult, SnapshotSet, WorkloadError};
use rand::{Rng, SeedableRng as _, StdRng};

/// Attack trials mounted per case (one per `CONFIGS` row) — shared by
/// `cfed-fuzz run --attacks`, `cfed-fuzz replay` and the regressions test
/// so an archived reproducer replays the exact schedule that found it.
pub const ATTACK_TRIALS: u64 = 6;

/// The configurations attacks are scheduled against: the uninstrumented
/// baseline, the paper techniques under both styles, and one prior-work
/// scheme for placement diversity. Trial `t` uses row `t % CONFIGS.len()`.
const CONFIGS: [(Option<TechniqueKind>, UpdateStyle); 6] = [
    (None, UpdateStyle::Jcc),
    (Some(TechniqueKind::EdgCf), UpdateStyle::CMov),
    (Some(TechniqueKind::EdgCf), UpdateStyle::Jcc),
    (Some(TechniqueKind::Rcf), UpdateStyle::CMov),
    (Some(TechniqueKind::Ecf), UpdateStyle::CMov),
    (Some(TechniqueKind::Cfcss), UpdateStyle::Jcc),
];

/// Strike branches are drawn below `1 << k` for a `k` drawn below this:
/// log-uniform, so the few branches of a short program are struck as
/// often as the warm-up and steady state of a long loop. Programs that end
/// first exercise the unplaceable path on both sides.
const MAX_NTH_BITS: u32 = 9;

/// One disagreement between a trial's two paths: everything needed to
/// re-run the diverging pair (the shrinker's and replayer's contract).
#[derive(Debug, Clone)]
pub struct AttackFinding {
    /// Technique the attacked run was instrumented with.
    pub technique: Option<TechniqueKind>,
    /// Conditional-update style.
    pub style: UpdateStyle,
    /// Attack archetype.
    pub kind: AttackKind,
    /// Archetype parameter (target selector).
    pub param: u64,
    /// The dynamic branch the attack strikes at.
    pub nth: u64,
    /// Which comparison failed (`placed`, `outcome`, `category`, `site`,
    /// `latency`, `landing`).
    pub field: String,
    /// Human-readable detail of both sides.
    pub detail: String,
}

impl AttackFinding {
    /// Stable pair labels for report lines, mirroring the differential
    /// oracle's `left|right` convention.
    pub fn pair(&self) -> (&'static str, &'static str) {
        ("scratch", "fast")
    }
}

/// Aggregate result of one program's attack schedule.
#[derive(Debug, Clone, Default)]
pub struct AttackOutcome {
    /// Trials scheduled. Those on a configuration whose attack-free run
    /// traps or runs out of budget are skipped: no golden, never placed.
    pub trials: u64,
    /// Trials whose from-scratch run actually placed the attack.
    pub placed: u64,
    /// Path mismatches (empty = both paths agree under attack).
    pub findings: Vec<AttackFinding>,
}

/// The run configuration for one scheduled trial.
fn trial_config(technique: Option<TechniqueKind>, style: UpdateStyle, max_insts: u64) -> RunConfig {
    RunConfig { technique, style, max_insts, ..RunConfig::default() }
}

/// What one path of a trial returned.
type TrialResult = Result<Option<InjectionResult>, WorkloadError>;

/// First differing field of a path pair, in fixed comparison order.
fn diff_trials(a: &TrialResult, b: &TrialResult) -> Option<(String, String)> {
    let (Ok(Some(x)), Ok(Some(y))) = (a, b) else {
        return (a != b).then(|| ("placed".into(), format!("{a:?} vs {b:?}")));
    };
    let fields = [
        ("outcome", x.outcome != y.outcome, format!("{} vs {}", x.outcome, y.outcome)),
        ("category", x.category != y.category, format!("{} vs {}", x.category, y.category)),
        ("site", x.site != y.site, format!("{:#x} vs {:#x}", x.site, y.site)),
        (
            "latency",
            x.latency_insts != y.latency_insts,
            format!("{} vs {}", x.latency_insts, y.latency_insts),
        ),
        (
            "landing",
            x.instrumentation_landing != y.instrumentation_landing,
            format!("{} vs {}", x.instrumentation_landing, y.instrumentation_landing),
        ),
    ];
    fields.into_iter().find(|f| f.1).map(|(field, _, detail)| (field.into(), detail))
}

/// Runs `spec` from scratch and on the fast path. `None` when the
/// attack-free run under `cfg` does not halt.
fn run_paths(
    image: &Image,
    cfg: &RunConfig,
    spec: AttackSpec,
) -> Option<(TrialResult, TrialResult)> {
    let (golden, snapshots) = SnapshotSet::capture(image, cfg).ok()?;
    let scratch = inject(image, cfg, spec, &golden, None);
    let fast = inject(image, cfg, spec, &golden, Some(&snapshots));
    Some((scratch, fast))
}

/// Mounts one trial on both paths and returns their first mismatch.
/// `(placed, finding)` — `placed` reflects the from-scratch run.
fn run_trial(
    image: &Image,
    technique: Option<TechniqueKind>,
    style: UpdateStyle,
    spec: AttackSpec,
    max_insts: u64,
) -> (bool, Option<AttackFinding>) {
    let cfg = trial_config(technique, style, max_insts);
    let Some((scratch, fast)) = run_paths(image, &cfg, spec) else { return (false, None) };
    let finding = diff_trials(&scratch, &fast).map(|(field, detail)| AttackFinding {
        technique,
        style,
        kind: spec.kind,
        param: spec.param,
        nth: spec.nth,
        field,
        detail,
    });
    (matches!(scratch, Ok(Some(_))), finding)
}

/// The schedule RNG of `seed`.
fn schedule_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xA77A_C4ED_2006_0000)
}

/// Derives trial `t`'s attack from the schedule RNG. Separate from
/// [`run_trial`] so the schedule stays a pure function of the seed
/// regardless of what each trial observes.
fn schedule(rng: &mut StdRng, t: u64) -> (Option<TechniqueKind>, UpdateStyle, AttackSpec) {
    let (technique, style) = CONFIGS[(t % CONFIGS.len() as u64) as usize];
    let kind = AttackKind::ALL[rng.gen_range(0usize..AttackKind::ALL.len())];
    let param = rng.gen::<u64>();
    let span = 1u64 << rng.gen_range(2..MAX_NTH_BITS);
    let nth = rng.gen_range(0..span);
    (technique, style, AttackSpec { kind, nth, param })
}

/// Mounts the deterministic attack schedule of `seed` on `image` and diffs
/// every trial's two paths. The schedule depends only on `(seed, trials)`,
/// never on the image or on prior trial outcomes, so a shrunk image
/// replays the exact schedule that exposed its finding.
pub fn attack_sweep(image: &Image, seed: u64, trials: u64, max_insts: u64) -> AttackOutcome {
    let mut out = AttackOutcome::default();
    let mut rng = schedule_rng(seed);
    for t in 0..trials {
        let (technique, style, spec) = schedule(&mut rng, t);
        out.trials += 1;
        let (placed, finding) = run_trial(image, technique, style, spec, max_insts);
        if placed {
            out.placed += 1;
        }
        out.findings.extend(finding);
    }
    out
}

/// Re-checks whether a specific finding's two paths still disagree on
/// `image` — the shrinker's predicate (one trial instead of the schedule).
pub fn finding_reproduces(image: &Image, finding: &AttackFinding, max_insts: u64) -> bool {
    let cfg = trial_config(finding.technique, finding.style, max_insts);
    let spec = AttackSpec { kind: finding.kind, nth: finding.nth, param: finding.param };
    run_paths(image, &cfg, spec)
        .is_some_and(|(scratch, fast)| diff_trials(&scratch, &fast).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, schedule_seed, Tier};

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let (mut a, mut b) = (schedule_rng(9), schedule_rng(9));
        for t in 0..ATTACK_TRIALS {
            assert_eq!(schedule(&mut a, t), schedule(&mut b, t));
        }
    }

    #[test]
    fn engines_agree_under_attack_on_generated_programs() {
        // The sweep's own loop, per archetype: every archetype must place
        // somewhere, or the oracle is silently inert for it.
        let mut placed = [0u64; 7];
        for case in 0..8u64 {
            let (seed, tier) = (11 + case, if case % 2 == 0 { Tier::MiniC } else { Tier::Visa });
            let image = generate(schedule_seed(seed, 0), tier).image;
            let mut rng = schedule_rng(seed);
            for t in 0..ATTACK_TRIALS {
                let (technique, style, spec) = schedule(&mut rng, t);
                let (hit, finding) = run_trial(&image, technique, style, spec, 300_000);
                assert!(finding.is_none(), "paths disagree: {finding:?}");
                placed[spec.kind.idx()] += u64::from(hit);
            }
        }
        for kind in AttackKind::ALL {
            assert!(placed[kind.idx()] > 0, "{kind} never placed: {placed:?}");
        }
    }

    #[test]
    fn a_clean_pair_does_not_reproduce() {
        let prog = generate(3, Tier::MiniC);
        let finding = AttackFinding {
            technique: Some(TechniqueKind::EdgCf),
            style: UpdateStyle::CMov,
            kind: AttackKind::RetGadget,
            param: 7,
            nth: 90,
            field: "outcome".into(),
            detail: String::new(),
        };
        assert!(!finding_reproduces(&prog.image, &finding, 300_000));
    }
}
