//! Property tests for the fast-forward engine's core contract: restoring
//! a golden-run checkpoint and stepping the residual prefix must be
//! observationally identical to replaying the whole prefix from scratch —
//! for every workload, technique, update style, checking policy and fault,
//! and for the traced (forensics) path byte for byte, trace included.

use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::{inject, FaultSpec, ForensicsBundle, SnapshotSet, DEFAULT_TRACE_WINDOW};
use proptest::prelude::*;

/// Small MiniC workloads with different branch mixes: a counted loop, a
/// data-dependent branchy loop, and nested loops.
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
        fn main() {
            let i = 0;
            let total = 0;
            while (i < 12) {
                let j = 0;
                while (j < 8) { total = total + i * j; j = j + 1; }
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// `inject(…, Some(snapshots))` returns a bit-identical
    /// [`cfed_fault::InjectionResult`] to the from-scratch path, and the
    /// forensics bundle (result *and* tracer export) matches byte for
    /// byte.
    #[test]
    fn fast_forward_is_outcome_equivalent(
        program in 0usize..PROGRAMS.len(),
        technique in 0usize..TECHNIQUES.len(),
        style in 0usize..2,
        policy in 0usize..CheckPolicy::ALL.len(),
        addr_fault in any::<bool>(),
        nth_seed in any::<u64>(),
        bit_seed in any::<u8>(),
    ) {
        let cfg = RunConfig {
            technique: TECHNIQUES[technique],
            style: [UpdateStyle::CMov, UpdateStyle::Jcc][style],
            policy: CheckPolicy::ALL[policy],
            ..RunConfig::default()
        };
        let image = cfed_lang::compile(PROGRAMS[program]).expect("programs compile");
        let (golden, snapshots) = SnapshotSet::capture(&image, &cfg).expect("well-behaved");
        prop_assert!(golden.branches > 0, "looped programs execute branches");

        let nth = nth_seed % golden.branches;
        let spec = if addr_fault {
            FaultSpec::AddrBit { nth, bit: bit_seed % 32 }
        } else {
            FaultSpec::FlagBit { nth, bit: bit_seed % 6 }
        };

        let scratch = inject(&image, &cfg, spec, &golden, None).expect("well-behaved prefix");
        let fast = inject(&image, &cfg, spec, &golden, Some(&snapshots))
            .expect("well-behaved prefix");
        prop_assert_eq!(scratch, fast, "plain injection diverged for {:?}", spec);

        let from_scratch =
            ForensicsBundle::capture_with(&image, &cfg, spec, &golden, DEFAULT_TRACE_WINDOW, None);
        let fast_forward = ForensicsBundle::capture_with(
            &image, &cfg, spec, &golden, DEFAULT_TRACE_WINDOW, Some(&snapshots),
        );
        match (from_scratch, fast_forward) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.result, b.result, "traced result diverged for {:?}", spec);
                prop_assert_eq!(a.trace, b.trace, "trace diverged for {:?}", spec);
            }
            (a, b) => prop_assert!(
                false,
                "placement diverged for {:?}: scratch {} vs fast-forward {}",
                spec, a.is_some(), b.is_some()
            ),
        }
    }
}
