//! The attack taxonomy, exhaustively: every archetype's A–F pin is
//! table-driven, and classification is *total* and *stable* as properties —
//! a placed attack always classifies inside its archetype's pinned
//! category set (never `NoError`, never outside A–F), identically whether
//! the trial replays from scratch, fast-forwards through snapshots, or
//! runs traced for forensics, over every workload × technique × style.

use cfed_core::{Category, RunConfig, TechniqueKind};
use cfed_dbt::UpdateStyle;
use cfed_fault::{inject, inject_traced, AttackKind, AttackModel, AttackSpec, SnapshotSet};
use proptest::prelude::*;

/// Small MiniC workloads with different branch mixes: a counted loop, a
/// data-dependent branchy loop, and nested loops with a call.
const PROGRAMS: [&str; 3] = [
    r#"
        fn main() {
            let i = 0;
            let acc = 7;
            while (i < 60) { acc = acc + i * 2; i = i + 1; }
            out(acc);
        }
    "#,
    r#"
        fn main() {
            let i = 0;
            let acc = 11;
            while (i < 45) {
                if (i % 5 == 2) { acc = acc * 2 - i; } else { acc = acc + 3; }
                if (acc > 900) { acc = acc - 700; }
                i = i + 1;
            }
            out(acc);
        }
    "#,
    r#"
        fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
        fn main() {
            let i = 0;
            let total = 0;
            while (i < 12) {
                let j = 0;
                while (j < 8) { total = total + leaf(i * j); j = j + 1; }
                i = i + 1;
            }
            out(total);
        }
    "#,
];

const TECHNIQUES: [Option<TechniqueKind>; 6] = [
    None,
    Some(TechniqueKind::Cfcss),
    Some(TechniqueKind::Ecca),
    Some(TechniqueKind::Ecf),
    Some(TechniqueKind::EdgCf),
    Some(TechniqueKind::Rcf),
];

/// The archetype → category table, pinned value by value. This is the
/// contract DESIGN.md's "Attack model" section documents and the frontier
/// report rows are keyed by; changing it is a report-format change.
#[test]
fn archetype_category_table_is_pinned() {
    let table: [(AttackKind, &[Category]); 7] = [
        (AttackKind::FlipBranch, &[Category::A]),
        (AttackKind::ReenterBlock, &[Category::B]),
        (AttackKind::GadgetEntry, &[Category::C]),
        (AttackKind::RetGadget, &[Category::D]),
        (AttackKind::EdgeSplice, &[Category::D, Category::E]),
        (
            AttackKind::JumpCorrupt,
            &[Category::A, Category::B, Category::C, Category::D, Category::E, Category::F],
        ),
        (AttackKind::DataPivot, &[Category::F]),
    ];
    assert_eq!(table.map(|(k, _)| k), AttackKind::ALL, "table rows follow ALL order");
    for (kind, cats) in table {
        assert_eq!(kind.expected_categories(), cats, "{kind}: pinned set changed");
        assert!(!cats.is_empty(), "{kind}: empty pin");
        for c in cats {
            assert_ne!(*c, Category::NoError, "{kind}: NoError is not an attack category");
        }
    }
}

/// Names are wire format (cell-key suffixes, telemetry events): pinned.
#[test]
fn archetype_names_are_pinned_and_roundtrip() {
    let names: Vec<&str> = AttackKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        names,
        [
            "flip-branch",
            "reenter-block",
            "gadget-entry",
            "ret-gadget",
            "edge-splice",
            "jump-corrupt",
            "data-pivot"
        ]
    );
    for (i, kind) in AttackKind::ALL.into_iter().enumerate() {
        assert_eq!(kind.idx(), i);
        assert_eq!(AttackKind::from_name(kind.name()), Some(kind));
        assert_eq!(kind.to_string(), kind.name());
    }
    assert_eq!(AttackKind::from_name("seu"), None);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// One random attack: if it places, its category sits inside the
    /// archetype's pinned set (so never `NoError`), and the classification
    /// and full outcome are bit-identical across the from-scratch,
    /// fast-forward and traced execution paths.
    #[test]
    fn classification_is_total_and_stable(
        program in 0usize..PROGRAMS.len(),
        technique in 0usize..TECHNIQUES.len(),
        style in 0usize..2,
        kind_idx in 0usize..AttackKind::ALL.len(),
        nth_seed in any::<u64>(),
        param in any::<u64>(),
    ) {
        let cfg = RunConfig {
            technique: TECHNIQUES[technique],
            style: [UpdateStyle::CMov, UpdateStyle::Jcc][style],
            ..RunConfig::default()
        };
        let image = cfed_lang::compile(PROGRAMS[program]).expect("programs compile");
        let (golden, snapshots) = SnapshotSet::capture(&image, &cfg).expect("well-behaved");
        prop_assert!(golden.branches > 0, "looped programs execute branches");

        let kind = AttackKind::ALL[kind_idx];
        let spec = AttackSpec { kind, nth: nth_seed % golden.branches, param };

        let scratch = inject(&image, &cfg, spec, &golden, None).expect("well-behaved prefix");
        let fast = inject(&image, &cfg, spec, &golden, Some(&snapshots))
            .expect("well-behaved prefix");
        prop_assert_eq!(&scratch, &fast, "fast-forward diverged for {:?}", spec);

        let traced = inject_traced(&image, &cfg, spec, &golden, 32, Some(&snapshots))
            .expect("well-behaved prefix");
        match (scratch, traced) {
            (Some(r), Some((t, _, Some(provenance)))) => {
                prop_assert_eq!(&r, &t, "traced outcome diverged for {:?}", spec);
                prop_assert!(
                    kind.expected_categories().contains(&r.category),
                    "{} classified {} outside its pinned set", kind, r.category
                );
                // Redirect archetypes record where the gadget actually went.
                if kind != AttackKind::FlipBranch {
                    prop_assert!(
                        provenance.target != 0,
                        "{} placed without a target", kind
                    );
                }
            }
            (None, None) => {} // unplaceable on every path — consistent
            (a, b) => prop_assert!(
                false,
                "placement diverged for {:?}: scratch {} vs traced {}",
                spec, a.is_some(), b.is_some()
            ),
        }
    }

    /// The surface analyzer plans all seven archetypes at *every* dynamic
    /// branch: totality means each plan either lands in the pinned set or
    /// is counted unplaceable — nothing else, under any configuration.
    #[test]
    fn surface_analysis_is_total_over_every_branch(
        program in 0usize..PROGRAMS.len(),
        technique in 0usize..TECHNIQUES.len(),
        style in 0usize..2,
    ) {
        let cfg = RunConfig {
            technique: TECHNIQUES[technique],
            style: [UpdateStyle::CMov, UpdateStyle::Jcc][style],
            ..RunConfig::default()
        };
        let image = cfed_lang::compile(PROGRAMS[program]).expect("programs compile");
        let surface = AttackModel::new(cfg).analyze(&image).expect("well-behaved");
        prop_assert!(surface.branches > 0);
        for kind in AttackKind::ALL {
            prop_assert_eq!(
                surface.placed(kind) + surface.unplaceable[kind.idx()],
                surface.branches,
                "{} plans unaccounted for", kind
            );
            prop_assert_eq!(surface.count(kind, Category::NoError), 0u64);
            for c in surface.observed(kind) {
                prop_assert!(
                    kind.expected_categories().contains(&c),
                    "{} reached {} outside its pinned set", kind, c
                );
            }
        }
    }
}
