//! Resident trial machines against fresh restores: random sequences of
//! fast-path trials over three snapshot sets (two configurations of one
//! program and a second program), with lineage switches, strikes at the
//! first checkpoint and past the last, SEU and attack specs, and native
//! execution on and off. Before each trial the rewound resident machine
//! and engine must equal a fresh `restore()` + `clone()` of the checkpoint;
//! after it, they must equal the same trial run on a fresh restore and
//! clone, in CPU and output, every page's bytes, page permissions and
//! `DbtStats`; and at both points the convergence compare against every
//! later checkpoint must give the full compare's verdict, also with the
//! CPU forced equal so that the verdict rests on memory alone.
//!
//! Every set holds a checkpoint in front of branch 0, so a fast-path
//! strike never lands before a set's first checkpoint: the earliest
//! strikes restore that one.

use super::{Resident, Snapshot, SnapshotSet, RESIDENT};
use crate::attack::{AttackKind, AttackSpec};
use crate::inject::{run_trial_inner, FaultSpec, Golden, TrialPlan, TrialSpec};
use cfed_asm::Image;
use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::{Dbt, NativeDbt, UpdateStyle};
use cfed_lang::compile;
use cfed_sim::{Machine, MachineSnapshot, PAGE_SIZE};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// A program whose later phases write pages its early checkpoints do not
/// hold: a recursion deep enough to reach new stack pages, then calls to
/// functions translated only then, into new code-cache pages.
fn deep_program() -> String {
    let mut src = String::from("global a[40];\n");
    src.push_str(
        "fn rec(n) { if (n == 0) { return 0; } a[n % 40] = a[n % 40] + n; return rec(n - 1) + 1; }\n",
    );
    for f in 0..24 {
        let _ = writeln!(
            src,
            "fn f{f}(x) {{ if (x % {m} == 1) {{ return x * {k} + 1; }} return x + {k}; }}",
            m = f % 5 + 2,
            k = f + 3
        );
    }
    src.push_str("fn main() {\n let i = 0;\n let acc = 1;\n");
    src.push_str(" while (i < 12) { acc = acc + i * 3; i = i + 1; }\n");
    src.push_str(" acc = acc + rec(180);\n");
    for f in 0..24 {
        let _ = writeln!(src, " acc = f{f}(acc) & 0xFFFF;");
    }
    src.push_str(" out(acc);\n out(a[7]);\n}\n");
    src
}

/// A short branchy loop with a call.
const LOOP: &str = r#"
    fn step(x) { if (x % 3 == 0) { return x / 3; } return x * 2 + 1; }
    fn main() {
        let i = 0;
        let acc = 5;
        while (i < 40) { acc = step(acc) & 0xFFF; i = i + 1; }
        out(acc);
    }
"#;

/// One snapshot set and what its trials need.
struct Fixture {
    image: Image,
    cfg: RunConfig,
    golden: Golden,
    set: SnapshotSet,
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let deep = compile(&deep_program()).expect("compiles");
        let looped = compile(LOOP).expect("compiles");
        let edgcf = RunConfig::technique(TechniqueKind::EdgCf);
        let rcf = RunConfig { style: UpdateStyle::Jcc, ..RunConfig::technique(TechniqueKind::Rcf) };
        [(deep.clone(), RunConfig::baseline()), (deep, edgcf), (looped, rcf)]
            .into_iter()
            .map(|(image, cfg)| {
                let (golden, set) = SnapshotSet::capture(&image, &cfg).expect("halts");
                assert!(set.len() > 2, "{cfg:?}: {} checkpoints", set.len());
                Fixture { image, cfg, golden, set }
            })
            .collect()
    })
}

/// One trial of a sequence.
#[derive(Debug, Clone)]
struct Step {
    /// Switch to this set (`None`: stay on the previous one).
    set: Option<usize>,
    /// The strike branch, modulo two past the set's last branch.
    nth: u64,
    /// Which spec: the two SEU kinds, then the attack archetypes.
    kind: usize,
    /// The flipped bit or the attack parameter.
    param: u64,
    native: bool,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let set = prop_oneof![Just(None), Just(None), (0..3usize).prop_map(Some)];
    let nth = prop_oneof![0u64..4, any::<u64>(), any::<u64>()];
    (set, nth, 0..2 + AttackKind::ALL.len(), any::<u64>(), any::<bool>())
        .prop_map(|(set, nth, kind, param, native)| Step { set, nth, kind, param, native })
}

fn spec(step: &Step, nth: u64) -> TrialSpec {
    match step.kind {
        0 => FaultSpec::AddrBit { nth, bit: (step.param % 32) as u8 }.into(),
        1 => FaultSpec::FlagBit { nth, bit: (step.param % 6) as u8 }.into(),
        k => AttackSpec { kind: AttackKind::ALL[k - 2], nth, param: step.param }.into(),
    }
}

/// Everything architectural about a machine and its engine: CPU with
/// counters and output, every nonzero page, permissions, `DbtStats`.
fn observe(m: &Machine, dbt: &Dbt) -> impl PartialEq + std::fmt::Debug {
    // A page never written is zero: only written ones need a look.
    let pages: Vec<(u64, Vec<u8>)> = (0..m.mem.page_count())
        .filter(|&p| m.mem.page_gen(p) > 0)
        .map(|p| (p as u64 * PAGE_SIZE, m.mem.peek(p as u64 * PAGE_SIZE, PAGE_SIZE as usize)))
        .filter(|(_, page)| page.iter().any(|&b| b != 0))
        .map(|(base, page)| (base, page.to_vec()))
        .collect();
    (m.cpu.clone(), pages, m.mem.perms_table().to_vec(), dbt.stats())
}

/// The convergence compare of `m` (whose dirty log starts at `base`)
/// against every checkpoint after `from`, as it stands and with the CPU
/// forced to the checkpoint's.
fn verdicts(
    m: &mut Machine,
    base: Option<&MachineSnapshot>,
    later: &[Snapshot],
) -> Vec<(bool, bool)> {
    later
        .iter()
        .map(|c| {
            let natural = c.machine.matches(m, base);
            let cpu = std::mem::replace(&mut m.cpu, c.machine.cpu().clone());
            let forced = c.machine.matches(m, base);
            m.cpu = cpu;
            (natural, forced)
        })
        .collect()
}

/// This thread's resident pair, looked at in place.
fn with_resident<R>(f: impl FnOnce(&mut Resident) -> R) -> R {
    let mut resident = RESIDENT.take().expect("a fast-path trial left its resident pair");
    let r = f(&mut resident);
    RESIDENT.set(Some(resident));
    r
}

fn resident_matches_fresh(steps: &[Step]) {
    let fixtures = fixtures();
    let mut at = 0;
    for (i, step) in steps.iter().enumerate() {
        at = step.set.unwrap_or(at);
        let Fixture { image, cfg, golden, set } = &fixtures[at];
        let nth = step.nth % (golden.branches + 2);
        let snap = set.nearest(nth).expect("a checkpoint in front of branch 0");
        let later = set.after(snap.branch_index);
        let what = format!("step {i} of {}: {step:?} at {}", steps.len(), snap.branch_index);

        // The rewind alone.
        let (mut resident, dbt) = set.check_out(snap);
        let mut fresh = snap.machine.restore();
        prop_assert_eq!(
            observe(&resident.machine, &dbt),
            observe(&fresh, &snap.dbt),
            "rewind, {}",
            &what
        );
        prop_assert!(dbt.blocks().eq(snap.dbt.blocks()), "engine blocks, {}", &what);
        prop_assert_eq!(
            verdicts(&mut resident.machine, Some(&snap.machine), later),
            verdicts(&mut fresh, None, later),
            "verdicts after the rewind, {}",
            &what
        );
        resident.check_in(dbt);

        // The trial, on the resident pair and on a fresh restore and clone.
        // With native execution the resident trial is `inject`'s own; the
        // fused one takes the same steps on an engine without a JIT.
        let spec = spec(step, nth);
        let plan = TrialPlan { image, spec, golden, fast: Some(set) };
        let got = if step.native {
            run_trial_inner(image, cfg, spec, golden, None, Some(set))
        } else {
            let (mut resident, dbt) = set.check_out(snap);
            let mut nd = NativeDbt::wrap(dbt, false);
            let trial = plan.run(&mut resident.machine, &mut nd, Some(&snap.machine));
            resident.check_in(nd.into_dbt());
            trial
        };
        let got = got.expect("the prefix is the golden run's");
        let mut m = snap.machine.restore();
        let mut nd = NativeDbt::wrap(snap.dbt.clone(), false);
        let want = plan.run(&mut m, &mut nd, None).expect("the prefix is the golden run's");
        prop_assert_eq!(got.map(|t| t.0), want.map(|t| t.0), "result, {}", &what);
        let (state, verdict) = with_resident(|r| {
            let dbt = r.dbt.as_ref().expect("checked in");
            (observe(&r.machine, dbt), verdicts(&mut r.machine, Some(&snap.machine), later))
        });
        prop_assert_eq!(state, observe(&m, nd.dbt()), "trial end, {}", &what);
        prop_assert_eq!(verdict, verdicts(&mut m, None, later), "verdicts at the end, {}", &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resident_trials_match_fresh_restores(steps in prop::collection::vec(arb_step(), 1..24)) {
        resident_matches_fresh(&steps);
    }
}
