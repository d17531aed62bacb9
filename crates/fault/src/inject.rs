//! Single-fault injection into DBT-translated code.
//!
//! Realizes the experiment the paper leaves as future work ("we will also
//! work on soft-error injection to measure the actual effectiveness of our
//! techniques"): flip one bit — in a branch's address offset as fetched, or
//! in the flags register at a branch — at a chosen dynamic branch execution
//! inside the code cache, then observe the outcome. Faults strike the
//! *translated* code, so the instrumentation's own inserted branches are
//! fault sites too — exactly the surface RCF exists to protect (§3.2).
//! The same trial loop mounts [`crate::attack`] corruptions: a
//! [`TrialSpec`] names either kind of trial. A trial on the fast path runs
//! on one engine from restore to outcome: native code on its worker's JIT
//! ([`NativeDbt::rewind`]), which keeps host code across the trials of one
//! golden run.

use crate::attack::{attack_now, AttackProvenance, AttackSpec};
use crate::snapshot::{SnapshotBuilder, SnapshotSet};
use cfed_asm::Image;
use cfed_core::{
    classify_addr_fault, classify_flag_fault, fold_profile, BlockLayout, BranchFault, CacheLayout,
    Category, RunConfig,
};
use cfed_dbt::{Dbt, DbtStep, NativeDbt};
use cfed_isa::{Flags, INST_SIZE_U64};
use cfed_sim::{Machine, MachineSnapshot, Trap};
use cfed_telemetry::Profile;

/// The *fault-free* execution misbehaved: the workload itself is unsound
/// under the given configuration. Distinct from an unplaceable fault
/// (`Ok(None)` from [`inject`]) — an error here means every trial against
/// this `(image, config)` is meaningless, so campaign runners fail the
/// owning shard/cell rather than the whole process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// The fault-free program did not halt within the instruction budget.
    BudgetExhausted {
        /// Instructions retired when the budget cut the run off.
        insts: u64,
    },
    /// The fault-free program trapped.
    Trapped(Trap),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::BudgetExhausted { insts } => {
                write!(f, "fault-free run exceeded instruction budget ({insts} insts)")
            }
            WorkloadError::Trapped(t) => write!(f, "fault-free run trapped: {t}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A single-bit fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Flip bit `bit` (0–31) of the address offset of the `nth` dynamic
    /// branch execution (0-based) in translated code. Transient: the
    /// encoding is restored after the branch executes once.
    AddrBit { nth: u64, bit: u8 },
    /// Flip bit `bit` (0–5) of the flags register immediately before the
    /// `nth` dynamic branch execution.
    FlagBit { nth: u64, bit: u8 },
}

/// One trial: a single-bit soft error or a synthesized attack. Both strike
/// at a dynamic branch execution in translated code and run through the
/// same trial loop to the same [`Outcome`] vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialSpec {
    /// A soft error.
    Fault(FaultSpec),
    /// An attack.
    Attack(AttackSpec),
}

impl From<FaultSpec> for TrialSpec {
    fn from(spec: FaultSpec) -> TrialSpec {
        TrialSpec::Fault(spec)
    }
}

impl From<AttackSpec> for TrialSpec {
    fn from(spec: AttackSpec) -> TrialSpec {
        TrialSpec::Attack(spec)
    }
}

impl TrialSpec {
    /// The dynamic branch execution the trial strikes at.
    fn nth(&self) -> u64 {
        match self {
            TrialSpec::Fault(FaultSpec::AddrBit { nth, .. } | FaultSpec::FlagBit { nth, .. })
            | TrialSpec::Attack(AttackSpec { nth, .. }) => *nth,
        }
    }
}

/// How an injected run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The control-flow checking instrumentation reported the error.
    DetectedByCheck,
    /// Hardware memory protection caught it (execute permission, alignment,
    /// invalid instruction — the paper's category-F detection path).
    DetectedByHw,
    /// The program raised a visible fault (guest assert, division by zero,
    /// data access fault) — fail-stop, but not via control-flow checking.
    OtherFault,
    /// The program completed with output identical to the golden run.
    Benign,
    /// The program completed with wrong output or exit code — silent data
    /// corruption, the outcome the techniques exist to prevent.
    Sdc,
    /// The program exceeded its instruction budget (e.g. a fault-induced
    /// infinite loop).
    Timeout,
}

impl Outcome {
    /// All outcomes, in the order campaign reports index them.
    pub const ALL: [Outcome; 6] = [
        Outcome::DetectedByCheck,
        Outcome::DetectedByHw,
        Outcome::OtherFault,
        Outcome::Benign,
        Outcome::Sdc,
        Outcome::Timeout,
    ];

    /// This outcome's position in [`Outcome::ALL`].
    pub fn idx(self) -> usize {
        match self {
            Outcome::DetectedByCheck => 0,
            Outcome::DetectedByHw => 1,
            Outcome::OtherFault => 2,
            Outcome::Benign => 3,
            Outcome::Sdc => 4,
            Outcome::Timeout => 5,
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Outcome::DetectedByCheck => "detected(check)",
            Outcome::DetectedByHw => "detected(hw)",
            Outcome::OtherFault => "fault",
            Outcome::Benign => "benign",
            Outcome::Sdc => "SDC",
            Outcome::Timeout => "timeout",
        };
        f.write_str(s)
    }
}

/// Result of one injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionResult {
    /// What happened.
    pub outcome: Outcome,
    /// The §2 category of the injected fault (NoError when the flipped bit
    /// could not change control flow).
    pub category: Category,
    /// Cache address of the faulted branch.
    pub site: u64,
    /// Instructions retired between injection and the end of the run.
    pub latency_insts: u64,
    /// Whether the faulty target landed on a translated block's
    /// *instrumentation* (head check sequence or terminator glue) rather
    /// than on a 1:1-copied guest instruction. Such sub-block landings sit
    /// below the paper's §2 block-granular error model: one past the
    /// signature updates is indistinguishable from taking the edge
    /// legitimately. Always `false` for flag faults.
    pub instrumentation_landing: bool,
}

/// The golden (fault-free) reference for SDC comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// Observable output stream.
    pub output: Vec<u64>,
    /// Exit code.
    pub exit_code: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Dynamic branch executions in translated code (the fault-site count).
    pub branches: u64,
}

/// Runs `image` under the DBT configuration without faults, collecting the
/// golden output and the number of dynamic branch fault sites.
///
/// # Errors
///
/// [`WorkloadError`] when the fault-free program traps or does not halt
/// within the budget — the workload itself is unsound under this
/// configuration.
pub fn golden_run(image: &Image, cfg: &RunConfig) -> Result<Golden, WorkloadError> {
    golden_pass(image, cfg, false, false).map(|(golden, ..)| golden)
}

/// The one fault-free pass per `(image, config)`: the golden reference,
/// plus fast-forward checkpoints when `snapshots` (bursting from one
/// capture point to the next) and the execution profile
/// ([`cfed_core::profile_dbt`]'s, cycle for cycle) when `profile`.
/// Capturing and profiling observe the machine without perturbing it, so
/// the golden is identical whatever is collected alongside it.
///
/// # Errors
///
/// As [`golden_run`].
pub fn golden_pass(
    image: &Image,
    cfg: &RunConfig,
    snapshots: bool,
    profile: bool,
) -> Result<(Golden, Option<SnapshotSet>, Option<Profile>), WorkloadError> {
    let (mut m, dbt) = build(image, cfg);
    if profile {
        m.enable_profiler();
    }
    // Fused bursts: native code has no profiler hook.
    let mut nd = NativeDbt::wrap(dbt, false);
    let mut builder = snapshots.then(SnapshotBuilder::new);
    let mut from = 0;
    loop {
        let target = builder.as_ref().map_or(u64::MAX, |b| b.next_capture(from));
        match advance_to_branch(&mut m, &mut nd, target, cfg.max_insts, true) {
            Advance::AtBranch => {
                // About to execute dynamic branch `target`: the same instant
                // a trial's prefix identifies as branch `target`, which is
                // what makes a restored checkpoint equivalent to replaying.
                let builder = builder.as_mut().expect("only capture points stop a run");
                builder.observe_branch(target, &mut m, nd.dbt());
                from = target + 1;
            }
            Advance::OutOfBudget => {
                return Err(WorkloadError::BudgetExhausted { insts: m.cpu.stats().insts })
            }
            Advance::Halted => {
                let profile = profile.then(|| fold_profile(&mut m, nd.dbt()));
                let golden = Golden {
                    output: m.cpu.take_output(),
                    exit_code: m.cpu.reg(cfed_isa::Reg::R0),
                    insts: m.cpu.stats().insts,
                    branches: m.cpu.stats().branches,
                };
                return Ok((golden, builder.map(|b| b.finish(*cfg)), profile));
            }
            Advance::Trapped(t) => return Err(WorkloadError::Trapped(t)),
        }
    }
}

/// Where [`advance_to_branch`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// About to execute the target dynamic branch.
    AtBranch,
    /// The instruction budget ran out first.
    OutOfBudget,
    /// The guest halted first.
    Halted,
    /// A program-level trap surfaced first.
    Trapped(Trap),
}

/// The one trial driver: runs until the machine is about to execute
/// dynamic branch `target` (0-based), the run ends, or `budget` total
/// instructions have retired. It drives every branch-indexed run: the
/// golden capture, the attack-surface walk, and a trial's prefix and
/// suffix.
///
/// Dynamic branches are indexed by [`cfed_sim::ExecStats::branches`]: in
/// translated code every branch is a direct `jmp`/`jcc`/`jrz`/`jrnz`
/// (calls, returns and indirect jumps become pushes, pops and dispatcher
/// exits), which cannot trap, and the DBT's trap servicing only ever
/// re-executes non-branch guest instructions, so the retired-branch count
/// is exactly the index of the next branch about to execute. With `fused`
/// the driver therefore bursts ([`NativeDbt::burst`]: native code where the
/// engine runs it, else the block-fused [`Dbt::burst`]), stopping in front
/// of the first branch met once `target` branches have retired. Without it
/// every instruction goes through [`Dbt::step`] — the reference path, and
/// the only one that feeds an attached tracer.
pub fn advance_to_branch(
    m: &mut Machine,
    nd: &mut NativeDbt,
    target: u64,
    budget: u64,
    fused: bool,
) -> Advance {
    debug_assert!(!(fused && m.tracer.is_some()), "bursts do not feed the tracer");
    loop {
        let insts = m.cpu.stats().insts;
        if insts >= budget {
            return Advance::OutOfBudget;
        }
        if m.cpu.stats().branches >= target && m.peek_inst().is_ok_and(|i| i.is_branch()) {
            return Advance::AtBranch;
        }
        let step = if fused { nd.burst(m, budget - insts, target) } else { nd.dbt_mut().step(m) };
        match step {
            DbtStep::Continue => {}
            DbtStep::Halted => return Advance::Halted,
            DbtStep::Exit(t) => return Advance::Trapped(t),
        }
    }
}

/// The translated-block layout of `dbt`, with `image`'s exact code range as
/// the guest code faults classify against.
pub(crate) fn cache_layout<'a>(dbt: &'a Dbt, image: &Image) -> CacheLayout<'a> {
    CacheLayout::new(dbt, image.base()..image.base() + image.code().len() as u64)
}

pub(crate) fn build(image: &Image, cfg: &RunConfig) -> (Machine, Dbt) {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(cfg.instrumenter(image), cfg.style, &mut m);
    // Attach eagerly: branch counting and fault placement must happen on
    // translated code, never on raw guest bytes (a fault applied to guest
    // memory would be baked into the translation permanently).
    dbt.attach(&mut m).expect("entry point translates");
    (m, dbt)
}

/// Runs one trial — a soft error or an attack — to an outcome. Without
/// `snapshots` the fault-free prefix replays from scratch on the
/// single-step reference engine. With them, the nearest checkpoint
/// at-or-below the strike branch is restored, reusing its translated code
/// cache, and the residual prefix and the post-strike suffix run in native
/// bursts ([`NativeDbt::burst`], fused where native execution is off) on
/// the worker's JIT, which keeps the host code compiled for earlier trials
/// of the same golden run; a set captured under a different configuration
/// falls back to from-scratch. The outcome is bit-identical either way.
///
/// Returns `Ok(None)` when the trial is unplaceable: the strike branch is
/// beyond the program's execution (use [`golden_run`]'s branch count to
/// stay in range), or an attack archetype has no candidate target there.
///
/// # Errors
///
/// [`WorkloadError`] when the fault-free prefix itself misbehaves — only
/// possible when `golden` does not actually describe this
/// `(image, config)`.
pub fn inject(
    image: &Image,
    cfg: &RunConfig,
    spec: impl Into<TrialSpec>,
    golden: &Golden,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<InjectionResult>, WorkloadError> {
    Ok(run_trial_inner(image, cfg, spec.into(), golden, None, snapshots)?.map(|(r, ..)| r))
}

/// As [`inject`], but with an execution tracer of `capacity` instructions
/// attached, returning the result alongside the tracer at its final state
/// — the last-N window ends at the detection point (the trapping
/// instruction itself never commits, hence never appears) — and, for
/// attacks, where the seized control transfer went. Trials are
/// deterministic, so re-running a plain [`inject`] trial through here
/// reproduces the identical outcome with forensics attached.
///
/// The trace stays bit-identical to the from-scratch path: only
/// checkpoints at least `capacity` branches before the strike point are
/// used (every branch is an instruction, so at least `capacity`
/// instructions and `capacity` branches retire between restore and strike,
/// filling both tracer rings with exactly the entries the from-scratch run
/// would hold), and the tracer's retired counter resumes from the
/// checkpoint's instruction count.
///
/// # Errors
///
/// As [`inject`].
pub fn inject_traced(
    image: &Image,
    cfg: &RunConfig,
    spec: impl Into<TrialSpec>,
    golden: &Golden,
    capacity: usize,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<(InjectionResult, cfed_sim::Tracer, Option<AttackProvenance>)>, WorkloadError> {
    Ok(run_trial_inner(image, cfg, spec.into(), golden, Some(capacity), snapshots)?
        .map(|(r, t, p)| (r, t.expect("tracer attached"), p)))
}

/// A finished trial: its result, the tracer when one was attached, and
/// where an attack went.
pub(crate) type Trial = (InjectionResult, Option<cfed_sim::Tracer>, Option<AttackProvenance>);

/// The one trial loop behind soft errors and attacks alike: replay (or
/// fast-forward) the fault-free prefix to the strike branch, corrupt the
/// machine there as `spec` says, then run to an outcome. A fast-path trial
/// runs on its worker's resident machine and engine, rewound to the
/// checkpoint ([`SnapshotSet::check_out`]), and bursts from restore to
/// outcome on one [`NativeDbt`] — rewound onto the worker's JIT under the
/// snapshot set's lineage, and told at the strike that the prefix followed
/// the golden run — single-stepping only the faulted instruction;
/// from-scratch and traced trials build or restore a machine of their own
/// and single-step the reference engine throughout.
pub(crate) fn run_trial_inner(
    image: &Image,
    cfg: &RunConfig,
    spec: TrialSpec,
    golden: &Golden,
    trace_capacity: Option<usize>,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<Trial>, WorkloadError> {
    let nth = spec.nth();
    // Fast-forward: restore the nearest checkpoint at-or-below the target
    // branch instead of replaying the prefix. Traced runs additionally
    // require `capacity` branches of margin before the injection point so
    // the last-N windows fill identically to the from-scratch stream.
    let usable = snapshots.filter(|s| s.matches(cfg));
    // The set an untraced trial fast-forwards through, prunes against and
    // counts itself into. A traced re-run (forensics) is an observer: it
    // steps to feed the tracer, never prunes, and records nothing into the
    // set's trial counters.
    let fast = usable.filter(|_| trace_capacity.is_none());
    let target = match trace_capacity {
        None => Some(nth),
        Some(cap) => nth.checked_sub(cap as u64),
    };
    let restored = usable.and_then(|s| target.and_then(|t| s.nearest(t)));
    if let Some(s) = fast {
        match restored {
            Some(snap) => s.note_restore(snap.branch_index, nth - snap.branch_index),
            None => s.note_miss(nth),
        }
    }
    let plan = TrialPlan { image, spec, golden, fast };
    let engine = |dbt, m: &Machine| match fast {
        Some(s) => NativeDbt::rewind(dbt, m, s.lineage()),
        None => NativeDbt::wrap(dbt, false),
    };
    match (fast, restored) {
        (Some(set), Some(snap)) => {
            let (mut resident, dbt) = set.check_out(snap);
            let mut nd = engine(dbt, &resident.machine);
            let trial = plan.run(&mut resident.machine, &mut nd, Some(&snap.machine));
            resident.check_in(nd.into_dbt());
            trial
        }
        _ => {
            let (mut m, dbt) = match restored {
                Some(snap) => (snap.machine.restore(), snap.dbt.clone()),
                None => build(image, cfg),
            };
            if let Some(capacity) = trace_capacity {
                // From scratch this is a plain fresh tracer (zero retired);
                // from a checkpoint it resumes the count at the
                // instructions already executed before the restore point.
                m.attach_tracer_resumed(capacity, m.cpu.stats().insts);
            }
            let mut nd = engine(dbt, &m);
            plan.run(&mut m, &mut nd, None)
        }
    }
}

/// One trial's spec and reference, and the set a fast-path trial
/// fast-forwards through, prunes against and counts itself into.
pub(crate) struct TrialPlan<'a> {
    pub(crate) image: &'a Image,
    pub(crate) spec: TrialSpec,
    pub(crate) golden: &'a Golden,
    pub(crate) fast: Option<&'a SnapshotSet>,
}

impl TrialPlan<'_> {
    /// Runs the trial on `m` and `nd`, standing where its prefix starts.
    /// `base` is the checkpoint `m`'s dirty log starts from (`None`: the
    /// all-zero address space), for the convergence compare.
    pub(crate) fn run(
        &self,
        m: &mut Machine,
        nd: &mut NativeDbt,
        base: Option<&MachineSnapshot>,
    ) -> Result<Option<Trial>, WorkloadError> {
        let (image, golden, fast) = (self.image, self.golden, self.fast);
        let nth = self.spec.nth();
        let budget = golden.insts * 3 + 100_000;
        let fused = fast.is_some();
        let insts_at_start = m.cpu.stats().insts;
        // Instructions single-stepped on the fast path: the faulted step's.
        let mut faulted_insts = 0;
        let mut provenance = None;

        // Phase 1: run to the injection point.
        let injected = match advance_to_branch(m, nd, nth, budget, fused) {
            Advance::AtBranch => {
                // The prefix ran exactly as the golden run did.
                nd.mark_lineage();
                let insts = m.cpu.stats().insts;
                let dbt = nd.dbt_mut();
                let applied = match self.spec {
                    TrialSpec::Fault(f) => inject_now(m, dbt, image, f),
                    TrialSpec::Attack(a) => attack_now(m, dbt, image, a).map(|(s, p)| {
                        provenance = Some(p);
                        s
                    }),
                };
                faulted_insts = m.cpu.stats().insts - insts;
                applied
            }
            // Budget exhausted or the program ended before the nth branch.
            Advance::OutOfBudget | Advance::Halted => None,
            Advance::Trapped(t) => return Err(WorkloadError::Trapped(t)),
        };
        let Some((category, site, instrumentation_landing, faulted_step)) = injected else {
            return Ok(None);
        };
        let insts_at_injection = m.cpu.stats().insts;

        // Phase 2: run to an outcome (the faulted step itself may already
        // have produced one). With snapshots available and no tracer
        // attached, the run additionally performs convergence pruning: it
        // bursts to each later dynamic branch for which the golden run holds
        // a checkpoint, and if the trial's architectural state is
        // bit-identical to that checkpoint (CPU including counters and the
        // output stream, every written page — the code cache among them —
        // and page permissions), the deterministic remainder *is* the golden
        // remainder. The outcome is then provably Benign with exactly the
        // latency the full run would report, so the suffix is skipped.
        // Traced runs never prune: the tracer window must hold the genuinely
        // executed final instructions.
        let mut boundaries = fast.map_or(&[][..], |s| s.after(nth)).iter();
        let end = match faulted_step {
            _ if m.cpu.stats().insts >= budget => Advance::OutOfBudget,
            DbtStep::Halted => Advance::Halted,
            DbtStep::Exit(t) => Advance::Trapped(t),
            DbtStep::Continue => loop {
                // Checkpoints the trial has already run past cannot match
                // (the retired-branch counters differ).
                let next = boundaries.find(|s| s.branch_index >= m.cpu.stats().branches);
                let target = next.map_or(u64::MAX, |s| s.branch_index);
                match advance_to_branch(m, nd, target, budget, fused) {
                    Advance::AtBranch if next.is_some_and(|s| s.machine.matches(m, base)) => {
                        break Advance::AtBranch
                    }
                    Advance::AtBranch => {}
                    end => break end,
                }
            },
        };
        let (outcome, pruned_latency) = match end {
            Advance::AtBranch => {
                fast.expect("pruning implies a snapshot set").note_pruned();
                (Outcome::Benign, Some(golden.insts - insts_at_injection))
            }
            Advance::OutOfBudget => (Outcome::Timeout, None),
            Advance::Halted => {
                let ok = m.cpu.output() == golden.output.as_slice()
                    && m.cpu.reg(cfed_isa::Reg::R0) == golden.exit_code;
                (if ok { Outcome::Benign } else { Outcome::Sdc }, None)
            }
            Advance::Trapped(t) => (outcome_of_trap(t), None),
        };
        if let Some(s) = fast {
            let bursts = m.cpu.stats().insts - insts_at_start - faulted_insts;
            let (fused, native) = if nd.is_native() { (0, bursts) } else { (bursts, 0) };
            s.note_insts(fused, faulted_insts, native, nd.native_compiles());
        }

        let result = InjectionResult {
            outcome,
            category,
            site,
            latency_insts: pruned_latency.unwrap_or(m.cpu.stats().insts - insts_at_injection),
            instrumentation_landing,
        };
        Ok(Some((result, m.tracer.take(), provenance)))
    }
}

/// Scans straight-line code from `from` for the next flag-reading branch
/// (stopping at flag writers, non-flag branches, or after a small window)
/// and reports whether `flipped` changes its direction relative to the
/// current flags.
fn stale_flags_flip_downstream(m: &Machine, from: u64, flipped: Flags) -> bool {
    let mut addr = from;
    for _ in 0..8 {
        let Ok(bytes) = m.mem.fetch(addr) else { return false };
        let Ok(inst) = cfed_isa::Inst::decode(&bytes) else { return false };
        if inst.reads_flags_for_direction() {
            return m.cpu.would_take_with_flags(&inst, flipped)
                != m.cpu.would_take_with_flags(&inst, m.cpu.flags());
        }
        if inst.writes_flags() || inst.is_branch() || inst.is_terminator() {
            return false;
        }
        addr += INST_SIZE_U64;
    }
    false
}

/// Classifies a surfaced trap as a detection outcome.
pub(crate) fn outcome_of_trap(t: Trap) -> Outcome {
    if t.is_cfe_report() {
        Outcome::DetectedByCheck
    } else if t.is_hardware_cfe_detection() {
        Outcome::DetectedByHw
    } else {
        Outcome::OtherFault
    }
}

/// Applies the fault at the current instruction (a branch), executes that
/// one instruction, and restores any transient state. Returns the fault's
/// category, site, whether the faulty target landed on instrumentation,
/// and the step result of the faulted instruction.
fn inject_now(
    m: &mut Machine,
    dbt: &mut Dbt,
    image: &Image,
    spec: FaultSpec,
) -> Option<(Category, u64, bool, DbtStep)> {
    let site = m.cpu.ip();
    let inst = m.peek_inst().expect("branch decodes");
    debug_assert!(inst.is_branch());
    let layout = cache_layout(dbt, image);
    let taken = m.cpu.would_take(&inst);
    let fall = site + INST_SIZE_U64;

    match spec {
        FaultSpec::AddrBit { bit, .. } => {
            let offset = inst
                .branch_offset()
                .expect("all cache branches are direct (indirects become dispatcher exits)");
            let faulty_off = offset ^ (1i32 << (bit % 32));
            let correct = if taken { inst.direct_target(site).expect("direct") } else { fall };
            let faulty_target =
                site.wrapping_add(INST_SIZE_U64).wrapping_add(faulty_off as i64 as u64);
            let category = if !taken {
                Category::NoError
            } else {
                let block = layout.block_of(site).unwrap_or(site..site + INST_SIZE_U64);
                classify_addr_fault(
                    &BranchFault {
                        branch_block: block,
                        fall_through: fall,
                        correct_target: correct,
                        faulty_target,
                    },
                    &layout,
                )
            };
            let glue = category != Category::NoError && layout.is_instrumentation(faulty_target);
            // Transient corruption of the fetched encoding.
            let original: [u8; 8] = m.mem.peek(site, 8).try_into().expect("slot");
            let faulted = inst.with_branch_offset(faulty_off).encode();
            m.mem.install(site, &faulted);
            let step = dbt.step(m);
            m.mem.install(site, &original);
            Some((category, site, glue, step))
        }
        FaultSpec::FlagBit { bit, .. } => {
            let flipped = m.cpu.flags().with_bit_flipped(bit % Flags::BITS as u8);
            let mut direction_changed = m.cpu.would_take_with_flags(&inst, flipped) != taken;
            if !direction_changed && !inst.reads_flags_for_direction() {
                // The faulted branch ignores the flags, but the corruption
                // persists: if the next flag-reading branch downstream (with
                // no flag write in between) flips, this is still a mistaken
                // branch — the paper's "caused by instructions executed
                // earlier than the branch" case of category A.
                let from = if taken {
                    inst.direct_target(site).unwrap_or(site + INST_SIZE_U64)
                } else {
                    site + INST_SIZE_U64
                };
                direction_changed = stale_flags_flip_downstream(m, from, flipped);
            }
            let category = classify_flag_fault(direction_changed);
            m.cpu.set_flags(flipped);
            let step = dbt.step(m);
            Some((category, site, false, step))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_core::TechniqueKind;
    use cfed_lang::compile;

    fn image() -> Image {
        compile(
            r#"
            fn main() {
                let i = 0;
                let acc = 0;
                while (i < 40) {
                    if (i % 3 == 0) { acc = acc + i; } else { acc = acc + 1; }
                    i = i + 1;
                }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn golden_run_counts_branches() {
        let img = image();
        let g = golden_run(&img, &RunConfig::technique(TechniqueKind::EdgCf)).unwrap();
        assert!(g.branches > 100);
        assert_eq!(g.output.len(), 1);
    }

    #[test]
    fn golden_run_budget_exhaustion_is_typed() {
        let img = compile("fn main() { let i = 0; while (i < 10) { i = i * 1; } }").unwrap();
        let cfg = RunConfig { max_insts: 5_000, ..RunConfig::baseline() };
        match golden_run(&img, &cfg) {
            Err(WorkloadError::BudgetExhausted { insts }) => assert!(insts >= 5_000),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_nth_returns_none() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let g = golden_run(&img, &cfg).unwrap();
        let r = inject(&img, &cfg, FaultSpec::AddrBit { nth: g.branches + 100, bit: 3 }, &g, None)
            .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn flag_fault_without_direction_change_is_benign() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let g = golden_run(&img, &cfg).unwrap();
        // Find an injection whose classification is NoError; it must end
        // benign (single-fault model, no other corruption).
        let mut found = false;
        for nth in 0..40 {
            let r = inject(&img, &cfg, FaultSpec::FlagBit { nth, bit: 1 }, &g, None).unwrap();
            if let Some(r) = r {
                if r.category == Category::NoError {
                    assert_eq!(r.outcome, Outcome::Benign, "NoError fault at {nth} not benign");
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "expected at least one direction-preserving flag fault");
    }

    #[test]
    fn high_offset_bits_detected_by_hardware() {
        // Flipping bit 30 of an offset flings control far outside code:
        // hardware (category F path) must catch it under any technique.
        let img = image();
        let cfg = RunConfig::baseline();
        let g = golden_run(&img, &cfg).unwrap();
        let mut hw = 0;
        let mut tried = 0;
        for nth in (0..g.branches.min(60)).step_by(7) {
            if let Some(r) =
                inject(&img, &cfg, FaultSpec::AddrBit { nth, bit: 30 }, &g, None).unwrap()
            {
                tried += 1;
                if r.category == Category::F {
                    assert!(
                        matches!(r.outcome, Outcome::DetectedByHw | Outcome::OtherFault),
                        "F fault at branch {nth} ended as {:?}",
                        r.outcome
                    );
                    hw += 1;
                }
            }
        }
        assert!(tried > 0);
        assert!(hw > 0, "no category-F faults produced");
    }

    #[test]
    fn techniques_catch_what_baseline_misses() {
        // Low offset bits keep the target inside code: without checking,
        // some SDC or silent weirdness; with RCF, detection.
        let img = image();
        let base_cfg = RunConfig::baseline();
        let rcf_cfg = RunConfig::technique(TechniqueKind::Rcf);
        let g_base = golden_run(&img, &base_cfg).unwrap();
        let g_rcf = golden_run(&img, &rcf_cfg).unwrap();

        let mut baseline_undetected = 0;
        let mut rcf_detected = 0;
        let mut rcf_sdc = 0;
        for nth in 0..60 {
            for bit in [3u8, 4, 5] {
                let spec_b = FaultSpec::AddrBit { nth, bit };
                if let Some(r) = inject(&img, &base_cfg, spec_b, &g_base, None).unwrap() {
                    let detected = matches!(
                        r.outcome,
                        Outcome::DetectedByCheck | Outcome::DetectedByHw | Outcome::OtherFault
                    );
                    if r.category != Category::NoError && !detected {
                        baseline_undetected += 1;
                    }
                }
                if let Some(r) = inject(&img, &rcf_cfg, spec_b, &g_rcf, None).unwrap() {
                    if r.category != Category::NoError {
                        match r.outcome {
                            Outcome::DetectedByCheck => rcf_detected += 1,
                            Outcome::Sdc => rcf_sdc += 1,
                            _ => {}
                        }
                    }
                }
            }
        }
        assert!(baseline_undetected > 0, "baseline should let some errors through");
        assert!(rcf_detected > 0, "RCF must detect in-code control-flow errors");
        assert_eq!(rcf_sdc, 0, "RCF must not allow SDC from single branch faults");
    }
}
