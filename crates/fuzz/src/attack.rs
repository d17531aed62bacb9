//! Adversarial attack oracle: attack schedules in the differential matrix.
//!
//! `cfed-fault` mounts an attack as a campaign trial: it runs to a dynamic
//! branch, seizes control there with a target picked from the *live
//! translated-code geometry*, and runs to an outcome. A campaign runs such
//! a trial on one of two paths, and the two must agree (the campaign's
//! `--no-snapshots` contract): from scratch on the single-step reference
//! engine, or on the fast path — the worker's resident machine and engine
//! rewound to a checkpoint, bursts on its rewound JIT (fused ones where
//! native execution is off) and convergence pruning. This module mutates a
//! deterministic schedule of attacks (a pure function of the case seed)
//! into the fuzzer's differential matrix: every scheduled [`AttackSpec`]
//! runs on both paths, and the two [`InjectionResult`]s must be equal: same
//! placement, outcome, category, site, latency and landing kind. As in a
//! campaign, a case's trials share golden runs: each of its
//! `SETS_PER_CASE` configurations is captured once, and its trials
//! mount in a seed-drawn order across them, so the fast path rewinds state
//! kept from earlier trials of the same golden run and switches between
//! runs.
//!
//! A mismatch is an engine bug by construction (the attack itself is the
//! same on both sides), and is shrunk with the generic image shrinker
//! against [`finding_reproduces`] — the schedule replayed up to the
//! diverging trial — then archived as a [`RegressionMode::Attack`]
//! reproducer replayable by `cfed-fuzz replay` and the `regressions`
//! integration test.
//!
//! [`RegressionMode::Attack`]: crate::corpus::RegressionMode::Attack
//! [`InjectionResult`]: cfed_fault::InjectionResult

use cfed_asm::Image;
use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::UpdateStyle;
use cfed_fault::{
    inject, AttackKind, AttackSpec, Golden, InjectionResult, SnapshotSet, WorkloadError,
};
use rand::{Rng, SeedableRng as _, StdRng};

/// Attack trials mounted per case — shared by `cfed-fuzz run --attacks`,
/// `cfed-fuzz replay` and the regressions test so an archived reproducer
/// replays the exact schedule that found it.
pub const ATTACK_TRIALS: u64 = 12;

/// Configurations (so golden runs and snapshot sets) a case's trials
/// share, drawn from [`CONFIGS`] by the seed.
const SETS_PER_CASE: usize = 2;

/// The configurations attacks are scheduled against: the uninstrumented
/// baseline, the paper techniques under both styles, and one prior-work
/// scheme for placement diversity.
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
/// re-run the schedule up to the diverging trial (the shrinker's and
/// replayer's contract).
#[derive(Debug, Clone)]
pub struct AttackFinding {
    /// The case seed whose schedule diverged.
    pub seed: u64,
    /// The diverging trial's index in that schedule.
    pub trial: u64,
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

/// The schedule RNG of `seed`.
fn schedule_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xA77A_C4ED_2006_0000)
}

/// Draws a case's [`SETS_PER_CASE`] distinct [`CONFIGS`] rows.
fn schedule_rows(rng: &mut StdRng) -> [usize; SETS_PER_CASE] {
    let mut rows: [usize; CONFIGS.len()] = std::array::from_fn(|i| i);
    for i in 0..SETS_PER_CASE {
        rows.swap(i, rng.gen_range(i..CONFIGS.len()));
    }
    std::array::from_fn(|i| rows[i])
}

/// One scheduled trial: the [`CONFIGS`] row it attacks and the attack.
fn schedule(rng: &mut StdRng, rows: &[usize; SETS_PER_CASE]) -> (usize, AttackSpec) {
    let row = rows[rng.gen_range(0..SETS_PER_CASE)];
    let kind = AttackKind::ALL[rng.gen_range(0usize..AttackKind::ALL.len())];
    let param = rng.gen::<u64>();
    let span = 1u64 << rng.gen_range(2..MAX_NTH_BITS);
    let nth = rng.gen_range(0..span);
    (row, AttackSpec { kind, nth, param })
}

/// Mounts trials `0..trials` of `seed`'s schedule on `image`, each from
/// scratch and on the fast path against its configuration's one snapshot
/// set, and hands `on_trial` its index, row, attack and the two paths'
/// results (`None`: the configuration's attack-free run does not halt).
/// The schedule depends only on `seed`, never on the image or on what a
/// trial observes.
fn mount(
    image: &Image,
    seed: u64,
    trials: u64,
    max_insts: u64,
    mut on_trial: impl FnMut(u64, usize, AttackSpec, Option<(TrialResult, TrialResult)>),
) {
    let mut rng = schedule_rng(seed);
    let rows = schedule_rows(&mut rng);
    let mut captured: [Option<Option<(Golden, SnapshotSet)>>; CONFIGS.len()] = Default::default();
    for t in 0..trials {
        let (row, spec) = schedule(&mut rng, &rows);
        let (technique, style) = CONFIGS[row];
        let cfg = trial_config(technique, style, max_insts);
        let capture = captured[row].get_or_insert_with(|| SnapshotSet::capture(image, &cfg).ok());
        let paths = capture.as_ref().map(|(golden, set)| {
            (inject(image, &cfg, spec, golden, None), inject(image, &cfg, spec, golden, Some(set)))
        });
        on_trial(t, row, spec, paths);
    }
}

/// Mounts the deterministic attack schedule of `seed` on `image` and diffs
/// every trial's two paths. The schedule depends only on `(seed, trials)`,
/// never on the image or on prior trial outcomes, so a shrunk image
/// replays the exact schedule that exposed its finding.
pub fn attack_sweep(image: &Image, seed: u64, trials: u64, max_insts: u64) -> AttackOutcome {
    let mut out = AttackOutcome::default();
    mount(image, seed, trials, max_insts, |trial, row, spec, paths| {
        out.trials += 1;
        let Some((scratch, fast)) = paths else { return };
        out.placed += u64::from(matches!(scratch, Ok(Some(_))));
        let (technique, style) = CONFIGS[row];
        out.findings.extend(diff_trials(&scratch, &fast).map(|(field, detail)| AttackFinding {
            seed,
            trial,
            technique,
            style,
            kind: spec.kind,
            param: spec.param,
            nth: spec.nth,
            field,
            detail,
        }));
    });
    out
}

/// Re-checks whether a finding's trial still diverges on `image`, the
/// schedule replayed up to it — the shrinker's predicate. The trials
/// before it stay: the fast path's resident state is what they left.
pub fn finding_reproduces(image: &Image, finding: &AttackFinding, max_insts: u64) -> bool {
    let mut diverged = false;
    mount(image, finding.seed, finding.trial + 1, max_insts, |trial, _, _, paths| {
        if let (true, Some((scratch, fast))) = (trial == finding.trial, paths) {
            diverged = diff_trials(&scratch, &fast).is_some();
        }
    });
    diverged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, schedule_seed, Tier};

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let (mut a, mut b) = (schedule_rng(9), schedule_rng(9));
        let rows = schedule_rows(&mut a);
        assert_eq!(rows, schedule_rows(&mut b));
        assert_ne!(rows[0], rows[1]);
        for _ in 0..ATTACK_TRIALS {
            assert_eq!(schedule(&mut a, &rows), schedule(&mut b, &rows));
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
            mount(&image, seed, ATTACK_TRIALS, 300_000, |trial, row, spec, paths| {
                let Some((scratch, fast)) = paths else { return };
                let finding = diff_trials(&scratch, &fast);
                assert!(finding.is_none(), "seed {seed} trial {trial} row {row}: {finding:?}");
                placed[spec.kind.idx()] += u64::from(matches!(scratch, Ok(Some(_))));
            });
        }
        for kind in AttackKind::ALL {
            assert!(placed[kind.idx()] > 0, "{kind} never placed: {placed:?}");
        }
    }

    #[test]
    fn a_clean_pair_does_not_reproduce() {
        let prog = generate(3, Tier::MiniC);
        let finding = AttackFinding {
            seed: 3,
            trial: 5,
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
