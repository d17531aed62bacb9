//! Detected-or-Benign for adversarial control-flow attacks.
//!
//! The campaign suite (`native_detection.rs`) pins the paper's guarantee against the §2 single-bit error model. This suite pins
//! it against the `cfed-fault` attack generator: deliberate corruptions —
//! return-address overwrites, cross-block edge splices past the signature
//! head, mid-instruction gadget entries, jump-table slides, stack pivots —
//! that a bit flip cannot express.
//!
//! Adversarial reach is exactly what splits the paper's two techniques.
//! The DESIGN.md coverage table has one row the SEU campaigns barely
//! exercise: *errors on inserted check branches* — EdgCF ✗, RCF ✓. Under
//! the SEU model a fault at an inserted `jrnz` is benign (the check branch
//! is flag-free and not-taken on a correct run, so offset flips never act);
//! an attacker, however, seizes the program counter *at* the check, where
//! EdgCF's in-body signature is the shared zero. A body landing then finds
//! a consistent signature and escapes — EdgCF's documented gap, visible in
//! the frontier as edge-splice/jump-corrupt SDC. RCF's per-block region
//! values close it. The sweep therefore asserts:
//!
//! - **RCF**: every placed attack of every archetype ends Detected (a
//!   CFE-report trap or the hardware path), Benign, or fail-stop — with
//!   only the fuzz sweeper's exemptions (sub-block landings:
//!   `instrumentation_landing` or `latency_insts <= 1`; category A under
//!   Jcc, where the inserted selector consumes corrupted flags).
//! - **EdgCF**: the same for every archetype except the body-landing pair
//!   (`edge-splice`, `jump-corrupt`); for those, any surviving SDC must be
//!   a category C/E body landing — the one documented escape shape.
//!
//! On top of the outcome guarantee, every placed attack must classify
//! inside its archetype's pinned A–F set, and every strike must end the
//! same on the campaign's two paths: from scratch on the single-step
//! reference engine, and from a checkpoint on the worker's rewound JIT
//! (fused bursts under `CFED_NO_NATIVE=1`).

use cfed::asm::Image;
use cfed::core::{Category, RunConfig, TechniqueKind};
use cfed::dbt::UpdateStyle;
use cfed::fault::{inject, AttackKind, AttackSpec, Golden, InjectionResult, Outcome, SnapshotSet};
use cfed::lang::compile;

const PROGRAM: &str = r#"
    fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
    fn main() {
        let i = 0;
        let acc = 3;
        while (i < 40) {
            if (i % 3 == 1) { acc = acc * 2 - i; } else { acc = acc + leaf(i); }
            i = i + 1;
        }
        out(acc);
    }
"#;

/// The techniques whose detection guarantee the sweep enforces — the same
/// pair the fuzz sweeper guards for the SEU model.
const GUARANTEED: [TechniqueKind; 2] = [TechniqueKind::EdgCf, TechniqueKind::Rcf];

/// Strike points per (archetype, technique, style): strided across the full
/// dynamic branch range so early setup, the hot loop and the epilogue are
/// all attacked.
const SITES: u64 = 48;

/// Whether this archetype lands on block *bodies* — the target shape of
/// EdgCF's inserted-branch gap (see the module doc). Head-targeting,
/// misaligned and out-of-cache archetypes are guaranteed by both
/// techniques.
fn body_landing(archetype: AttackKind) -> bool {
    matches!(archetype, AttackKind::EdgeSplice | AttackKind::JumpCorrupt)
}

/// The fuzz sweeper's exemptions, verbatim: sub-block landings are below
/// the paper's block-granular model for both styles; under Jcc a
/// category-A corruption mis-selects the inserted update branch
/// consistently with the wrong arm, outside any signature scheme's reach.
fn exempt(
    style: UpdateStyle,
    category: Category,
    instrumentation_landing: bool,
    latency_insts: u64,
) -> bool {
    instrumentation_landing
        || latency_insts <= 1
        || (style == UpdateStyle::Jcc && category == Category::A)
}

/// Mounts `spec` on the fast path and from scratch, demands the same result
/// from both, and returns it (`None`: unplaceable).
fn strike(
    image: &Image,
    cfg: &RunConfig,
    golden: &Golden,
    snapshots: &SnapshotSet,
    spec: AttackSpec,
) -> Option<InjectionResult> {
    let fast = inject(image, cfg, spec, golden, Some(snapshots)).expect("prefix is attack-free");
    let scratch = inject(image, cfg, spec, golden, None).expect("prefix is attack-free");
    assert_eq!(fast, scratch, "{spec:?}: the fast path diverged from the reference");
    fast
}

fn is_detected(outcome: Outcome) -> bool {
    matches!(outcome, Outcome::DetectedByCheck | Outcome::DetectedByHw)
}

#[test]
fn attacks_under_guaranteed_techniques_end_detected_or_benign() {
    let image = compile(PROGRAM).expect("valid program");
    for kind in GUARANTEED {
        for style in [UpdateStyle::CMov, UpdateStyle::Jcc] {
            let cfg = RunConfig { style, max_insts: 2_000_000, ..RunConfig::technique(kind) };
            let (golden, snapshots) =
                SnapshotSet::capture(&image, &cfg).expect("attack-free run halts");
            assert!(golden.branches > SITES, "program too small to sweep");

            let mut placed = [0u64; 7];
            let mut detections = [0u64; 7];
            for archetype in AttackKind::ALL {
                for i in 0..SITES {
                    let nth = i * golden.branches / SITES;
                    for param in [i, i * 31 + 7] {
                        let spec = AttackSpec { kind: archetype, nth, param };
                        let Some(r) = strike(&image, &cfg, &golden, &snapshots, spec) else {
                            continue; // unplaceable at this strike point
                        };
                        placed[archetype.idx()] += 1;

                        // Taxonomy: placed attacks classify inside the
                        // archetype's pinned set — never NoError.
                        assert!(
                            archetype.expected_categories().contains(&r.category),
                            "{kind}/{style:?} {archetype} nth={nth}: \
                             classified {} outside the pinned set",
                            r.category
                        );

                        match r.outcome {
                            Outcome::DetectedByCheck | Outcome::DetectedByHw => {
                                detections[archetype.idx()] += 1;
                            }
                            // Benign is only recorded after the run halted
                            // with golden-identical output and exit code.
                            Outcome::Benign => {}
                            // Fail-stop endings: the corrupted suffix
                            // crashed on an unrelated guest trap or hung
                            // into the watchdog. Loud, not silent — the
                            // guarantee (like the fuzz sweeper's) only
                            // forbids *silent* corruption.
                            Outcome::OtherFault | Outcome::Timeout => {}
                            Outcome::Sdc => {
                                if exempt(
                                    style,
                                    r.category,
                                    r.instrumentation_landing,
                                    r.latency_insts,
                                ) {
                                    continue;
                                }
                                if kind == TechniqueKind::Rcf || !body_landing(archetype) {
                                    panic!(
                                        "{kind}/{style:?} {archetype} nth={nth} param={param}: \
                                         silent corruption escaped detection \
                                         (category {}, latency {}, landing {})",
                                        r.category, r.latency_insts, r.instrumentation_landing
                                    );
                                }
                                // EdgCF's documented gap: a strike at an
                                // inserted branch (where the in-body
                                // signature is the shared zero) landing in
                                // a block body finds a consistent
                                // signature. Only that shape may survive.
                                assert!(
                                    matches!(r.category, Category::C | Category::E),
                                    "{kind}/{style:?} {archetype} nth={nth} param={param}: \
                                     SDC outside the inserted-branch escape shape \
                                     (category {}, latency {})",
                                    r.category,
                                    r.latency_insts
                                );
                            }
                        }
                    }
                }
            }

            for archetype in AttackKind::ALL {
                assert!(
                    placed[archetype.idx()] > 0,
                    "{kind}/{style:?}: {archetype} never placed across the sweep"
                );
            }
            // The guarantee is only meaningful if the checks actually fire:
            // the pure-redirect archetypes must each see real detections.
            for archetype in [
                AttackKind::ReenterBlock,
                AttackKind::GadgetEntry,
                AttackKind::RetGadget,
                AttackKind::EdgeSplice,
                AttackKind::DataPivot,
            ] {
                assert!(
                    detections[archetype.idx()] > 0,
                    "{kind}/{style:?}: {archetype} was never detected \
                     ({} placed)",
                    placed[archetype.idx()]
                );
            }
            // flip-branch is the style-splitting archetype: CMov's update
            // consumed the true flags before the corruption, so the very
            // next check fires.
            if style == UpdateStyle::CMov {
                assert!(
                    detections[AttackKind::FlipBranch.idx()] > 0,
                    "{kind}/CMov: flip-branch must trip the target check"
                );
            }
        }
    }
}

#[test]
fn uninstrumented_runs_set_the_hardware_only_floor() {
    // Baseline (no technique) catches only what the hardware model traps:
    // misaligned gadget entries and non-executable pivots. The archetypes
    // that stay inside translated code — ret-gadget, edge-splice — must
    // sail through undetected on at least one strike, which is precisely
    // the coverage gap the frontier report quantifies.
    let image = compile(PROGRAM).expect("valid program");
    let cfg = RunConfig { max_insts: 2_000_000, ..RunConfig::baseline() };
    let (golden, snapshots) = SnapshotSet::capture(&image, &cfg).expect("attack-free run halts");
    let strikes = [golden.branches / 5, golden.branches / 2];

    for kind in [AttackKind::GadgetEntry, AttackKind::DataPivot] {
        let spec = AttackSpec { kind, nth: strikes[0], param: 2 };
        let r = strike(&image, &cfg, &golden, &snapshots, spec);
        let r = r.unwrap_or_else(|| panic!("{kind} must place at branch {}", strikes[0]));
        assert!(is_detected(r.outcome), "{kind} must trip the hardware path, got {}", r.outcome);
    }

    let mut undetected = 0;
    for kind in [AttackKind::RetGadget, AttackKind::EdgeSplice] {
        for nth in strikes {
            for param in [3u64, 11] {
                let spec = AttackSpec { kind, nth, param };
                let r = strike(&image, &cfg, &golden, &snapshots, spec);
                if r.is_some_and(|r| !is_detected(r.outcome)) {
                    undetected += 1;
                }
            }
        }
    }
    assert!(undetected > 0, "software attacks must evade the uninstrumented baseline");
}
