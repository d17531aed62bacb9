//! Adversarial control-flow attack synthesis.
//!
//! The paper's §2 error model is single-bit soft errors, but its branch-error
//! categories A–F describe *any* illegal control transfer — including
//! deliberate ones. This module synthesizes attacker-style corruptions
//! (overwritten return addresses, corrupted jump-table targets,
//! mid-instruction gadget entry, cross-block edge splices past the
//! instrumentation head, stack/data pivots, predicate bypasses) as
//! first-class injection campaigns: an attack cell is a
//! [`Campaign`](crate::Campaign) with `attack: Some(kind)`, and each trial
//! runs through the same [`inject`](crate::inject()) trial loop as a soft
//! error. Each archetype strikes at a chosen dynamic branch in *translated*
//! code, is mechanically classified into the paper's categories by the same
//! `classify_*` machinery as the SEU model, and runs to the same
//! [`Outcome`](crate::inject::Outcome) vocabulary — so campaign tallies,
//! stores, merges, and the coordinator/worker service work byte-identically
//! for attacks and soft errors alike.
//!
//! What separates an attack from an SEU here is *reach*: a single bit flip
//! perturbs a branch target to a power-of-two neighbour, while an attacker
//! writes an arbitrary value. [`AttackKind`] therefore selects targets the
//! bit-flip model cannot express — any other block's head, the first byte
//! *past* another block's signature check, a byte-misaligned gadget inside
//! the current block, or a non-executable data page.

use crate::inject::{advance_to_branch, build, cache_layout, Advance, WorkloadError};
use cfed_asm::Image;
use cfed_core::{
    classify_addr_fault, classify_flag_fault, BlockLayout, BranchFault, CachePart, Category,
    RunConfig,
};
use cfed_dbt::{Dbt, DbtStep, NativeDbt, TransBlock};
use cfed_isa::{Flags, Inst, INST_SIZE_U64};
use cfed_sim::Machine;

/// An attack archetype: *how* the adversary corrupts control flow at the
/// chosen dynamic branch. Each archetype maps onto a pinned subset of the
/// paper's categories (see [`AttackKind::expected_categories`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Predicate bypass: corrupt the flags so the conditional branch takes
    /// the wrong — but legal — direction (category A). The control-flow
    /// analogue of flipping an `if (authorized)` check.
    FlipBranch,
    /// Replay: redirect control to the current block's own head, re-running
    /// it with live state (category B).
    ReenterBlock,
    /// Mid-instruction gadget: enter the current block at a byte offset
    /// that is not an instruction boundary (category C) — the classic
    /// unintended-gadget entry of return-oriented programming.
    GadgetEntry,
    /// Return-address overwrite: redirect control to the head of an
    /// arbitrary other translated block (category D).
    RetGadget,
    /// Cross-block splice *past* the instrumentation head: land on the
    /// first 1:1-copied body instruction of another block, skipping its
    /// signature check — the canonical CFI bypass (category E; D when the
    /// target block carries no head).
    EdgeSplice,
    /// Jump-table index slide: displace the legitimate target by a few
    /// slots, the classic out-of-bounds indirect-jump index (any of A–F,
    /// depending on where the slid target lands).
    JumpCorrupt,
    /// Stack/shellcode pivot: redirect control into the writable,
    /// non-executable data region (category F — the hardware-detected
    /// path).
    DataPivot,
}

impl AttackKind {
    /// All archetypes, in the order campaign matrices and reports use.
    pub const ALL: [AttackKind; 7] = [
        AttackKind::FlipBranch,
        AttackKind::ReenterBlock,
        AttackKind::GadgetEntry,
        AttackKind::RetGadget,
        AttackKind::EdgeSplice,
        AttackKind::JumpCorrupt,
        AttackKind::DataPivot,
    ];

    /// This archetype's position in [`AttackKind::ALL`].
    pub fn idx(self) -> usize {
        AttackKind::ALL.iter().position(|&k| k == self).expect("kind in ALL")
    }

    /// Stable kebab-case name, used in cell keys, wire frames and reports.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::FlipBranch => "flip-branch",
            AttackKind::ReenterBlock => "reenter-block",
            AttackKind::GadgetEntry => "gadget-entry",
            AttackKind::RetGadget => "ret-gadget",
            AttackKind::EdgeSplice => "edge-splice",
            AttackKind::JumpCorrupt => "jump-corrupt",
            AttackKind::DataPivot => "data-pivot",
        }
    }

    /// Parses a [`AttackKind::name`] back to the archetype.
    pub fn from_name(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The categories this archetype is pinned to produce. Every placed
    /// attack classifies inside this set (enforced by the taxonomy tests);
    /// no attack ever classifies as `NoError` — an attack that would land
    /// on the correct target is unplaceable instead.
    pub fn expected_categories(self) -> &'static [Category] {
        match self {
            AttackKind::FlipBranch => &[Category::A],
            AttackKind::ReenterBlock => &[Category::B],
            AttackKind::GadgetEntry => &[Category::C],
            AttackKind::RetGadget => &[Category::D],
            AttackKind::EdgeSplice => &[Category::D, Category::E],
            AttackKind::JumpCorrupt => {
                &[Category::A, Category::B, Category::C, Category::D, Category::E, Category::F]
            }
            AttackKind::DataPivot => &[Category::F],
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One attack to mount: archetype, the dynamic branch execution it strikes
/// at (0-based, like [`crate::FaultSpec`]), and a free parameter that
/// selects among the archetype's candidate gadget targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSpec {
    /// How to corrupt control flow.
    pub kind: AttackKind,
    /// The dynamic branch execution to strike at.
    pub nth: u64,
    /// Selects among candidate targets (flag bits, gadget blocks, slide
    /// distances); any `u64` is valid.
    pub param: u64,
}

/// Where an attack actually went — the evidence the forensics bundles
/// carry beyond what [`InjectionResult`](crate::InjectionResult) records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackProvenance {
    /// The corrupted control-transfer target (for `flip-branch`, the wrong
    /// arm the flipped predicate diverts to).
    pub target: u64,
    /// Which translated block and part the target landed on, when it landed
    /// inside one (`None` for out-of-cache targets such as data pivots).
    pub attribution: Option<(u64, CachePart)>,
}

/// How an attack corrupts the machine at the strike point.
#[derive(Debug, Clone, Copy)]
enum AttackAction {
    /// Seize the program counter (the branch itself never retires).
    Redirect { target: u64 },
    /// Corrupt the flags, then let the branch execute on them.
    FlipFlags { flipped: Flags },
}

/// A fully-resolved attack at a concrete strike point.
#[derive(Debug, Clone)]
struct AttackPlan {
    category: Category,
    site: u64,
    landing: bool,
    provenance: AttackProvenance,
    action: AttackAction,
}

/// Scans a translated block's *guest* source range for a `halt`. Landing
/// mid-block past the signature checks of a block that can halt before the
/// next check fires sits below the paper's block-granular detection model
/// (§2's sub-block caveat), so target selection skips such blocks for the
/// mid-block-landing archetypes.
fn guest_block_can_halt(image: &Image, b: &TransBlock) -> bool {
    let base = image.base();
    if b.guest_start < base {
        return false;
    }
    let start = (b.guest_start - base) as usize;
    let code = image.code();
    let end = start.saturating_add(b.guest_len as usize).min(code.len());
    if start >= end {
        return false;
    }
    code[start..end]
        .chunks(INST_SIZE_U64 as usize)
        .any(|c| matches!(Inst::decode_from_slice(c), Some(Ok(Inst::Halt))))
}

/// Picks the archetype's concrete target for the branch `m` is stopped at,
/// whose uncorrupted successor is `correct`, among `dbt`'s live blocks (in
/// cache order). `None` means the archetype is unplaceable at this strike
/// point (no candidate gadget, or the only candidate coincides with the
/// correct target).
fn select_target(
    kind: AttackKind,
    param: u64,
    m: &Machine,
    dbt: &Dbt,
    image: &Image,
    correct: u64,
) -> Option<u64> {
    let site = m.cpu.ip();
    let fall = site + INST_SIZE_U64;
    let pick = |c: &[u64]| (!c.is_empty()).then(|| c[(param as usize) % c.len()]);
    // The translated block containing the site, when there is one.
    let own = dbt.block_containing(site).map(TransBlock::cache_range);
    match kind {
        AttackKind::FlipBranch => None, // not a redirect; handled separately
        AttackKind::ReenterBlock => {
            let own = own?;
            (own.start != correct).then_some(own.start)
        }
        AttackKind::GadgetEntry => {
            // Any non-zero byte offset below the instruction size is off the
            // 8-byte instruction grid: an unintended decode point.
            Some(site + 1 + param % (INST_SIZE_U64 - 1))
        }
        AttackKind::RetGadget => {
            let c: Vec<u64> = dbt
                .blocks()
                .map(|b| b.cache_start)
                .filter(|&s| own.as_ref().is_none_or(|o| s != o.start) && s != correct && s != fall)
                .collect();
            pick(&c)
        }
        AttackKind::EdgeSplice => {
            let c: Vec<u64> = dbt
                .blocks()
                .filter(|b| b.body_len > 0 && !guest_block_can_halt(image, b))
                .map(|b| b.body_start)
                .filter(|&t| {
                    own.as_ref().is_none_or(|o| !o.contains(&t)) && t != correct && t != fall
                })
                .collect();
            pick(&c)
        }
        AttackKind::JumpCorrupt => {
            let slide = (1 + param % 3) * INST_SIZE_U64;
            let t = if (param >> 2) & 1 == 0 {
                correct.wrapping_add(slide)
            } else {
                correct.wrapping_sub(slide)
            };
            // Sub-block caveat (see `guest_block_can_halt`): skip slides
            // landing mid-block in a block that can halt before a check.
            let risky = dbt
                .block_containing(t)
                .is_some_and(|b| t != b.cache_start && guest_block_can_halt(image, b));
            (t != correct && !risky).then_some(t)
        }
        AttackKind::DataPivot => Some(m.layout().data_base + (param % 1024) * INST_SIZE_U64),
    }
}

/// Resolves `kind`/`param` into a concrete plan at the current strike point
/// (the machine is stopped at a branch in translated code). Pure
/// observation: the machine and engine are not perturbed.
fn plan_attack(
    m: &mut Machine,
    dbt: &Dbt,
    image: &Image,
    kind: AttackKind,
    param: u64,
) -> Option<AttackPlan> {
    let site = m.cpu.ip();
    let inst = m.peek_inst().ok()?;
    debug_assert!(inst.is_branch());
    let taken = m.cpu.would_take(&inst);
    let fall = site + INST_SIZE_U64;
    let correct = if taken {
        inst.direct_target(site)
            .expect("all cache branches are direct (indirects become dispatcher exits)")
    } else {
        fall
    };
    let layout = cache_layout(dbt, image);

    if kind == AttackKind::FlipBranch {
        // Find a flag corruption that flips the branch's direction; the
        // param picks among the flippable bits.
        if !inst.reads_flags_for_direction() {
            return None;
        }
        let flags = m.cpu.flags();
        let flips: Vec<u8> = (0..Flags::BITS as u8)
            .filter(|&b| m.cpu.would_take_with_flags(&inst, flags.with_bit_flipped(b)) != taken)
            .collect();
        let bit = *flips.get(param as usize % flips.len().max(1))?;
        // The wrong-but-legal arm the flipped predicate diverts to.
        let diverted = if taken { fall } else { inst.direct_target(site)? };
        return Some(AttackPlan {
            category: classify_flag_fault(true),
            site,
            landing: false,
            provenance: AttackProvenance {
                target: diverted,
                attribution: layout.attribute(diverted),
            },
            action: AttackAction::FlipFlags { flipped: flags.with_bit_flipped(bit) },
        });
    }

    let target = select_target(kind, param, m, dbt, image, correct)?;
    if target == correct {
        return None;
    }
    let category = classify_addr_fault(
        &BranchFault {
            branch_block: layout.block_of(site).unwrap_or(site..site + INST_SIZE_U64),
            fall_through: fall,
            correct_target: correct,
            faulty_target: target,
        },
        &layout,
    );
    if category == Category::NoError {
        return None;
    }
    Some(AttackPlan {
        category,
        site,
        landing: layout.is_instrumentation(target),
        provenance: AttackProvenance { target, attribution: layout.attribute(target) },
        action: AttackAction::Redirect { target },
    })
}

/// Applies a resolved plan: redirects seize the program counter (the branch
/// never retires — a corrupted return address or jump target), flag flips
/// execute the branch on the corrupted flags. Returns the attack's
/// category, site, whether the target landed on instrumentation and the
/// step result of the strike, plus where the attack went.
pub(crate) fn attack_now(
    m: &mut Machine,
    dbt: &mut Dbt,
    image: &Image,
    spec: AttackSpec,
) -> Option<((Category, u64, bool, DbtStep), AttackProvenance)> {
    let plan = plan_attack(m, dbt, image, spec.kind, spec.param)?;
    let step = match plan.action {
        AttackAction::Redirect { target } => {
            m.cpu.set_ip(target);
            DbtStep::Continue
        }
        AttackAction::FlipFlags { flipped } => {
            m.cpu.set_flags(flipped);
            dbt.step(m)
        }
    };
    Some(((plan.category, plan.site, plan.landing, step), plan.provenance))
}

fn cat_idx(c: Category) -> usize {
    Category::ALL.iter().position(|&x| x == c).expect("category in ALL")
}

/// Per-archetype × per-category counts of *plannable* attacks over an
/// execution — the adversarial counterpart of the §2 error-model table,
/// answering "which categories can each archetype reach on this workload?"
/// without running the attacked suffixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSurface {
    /// counts[archetype][category], in [`AttackKind::ALL`] ×
    /// [`Category::ALL`] order.
    counts: [[u64; 7]; 7],
    /// Strike points where the archetype had no candidate target.
    pub unplaceable: [u64; 7],
    /// Dynamic branches analyzed.
    pub branches: u64,
}

impl AttackSurface {
    fn new() -> AttackSurface {
        AttackSurface { counts: [[0; 7]; 7], unplaceable: [0; 7], branches: 0 }
    }

    /// Plannable attacks of `kind` classifying as `c`.
    pub fn count(&self, kind: AttackKind, c: Category) -> u64 {
        self.counts[kind.idx()][cat_idx(c)]
    }

    /// Total plannable attacks of `kind`.
    pub fn placed(&self, kind: AttackKind) -> u64 {
        self.counts[kind.idx()].iter().sum()
    }

    /// Categories `kind` actually reached, in [`Category::ALL`] order.
    pub fn observed(&self, kind: AttackKind) -> Vec<Category> {
        Category::ALL.into_iter().filter(|&c| self.count(kind, c) > 0).collect()
    }

    /// Folds another surface in (associative, commutative).
    pub fn merge(&mut self, other: &AttackSurface) {
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (i, f) in into.iter_mut().zip(from.iter()) {
                *i += f;
            }
        }
        for (i, f) in self.unplaceable.iter_mut().zip(other.unplaceable.iter()) {
            *i += f;
        }
        self.branches += other.branches;
    }
}

/// The attack-surface analyzer: walks one fault-free execution under a DBT
/// configuration and plans (without mounting) every archetype at every
/// dynamic branch, tabulating which categories each archetype reaches.
#[derive(Debug, Clone)]
pub struct AttackModel {
    /// DBT configuration whose translated-code geometry defines the
    /// attack surface.
    pub config: RunConfig,
}

impl AttackModel {
    /// An analyzer for the given configuration.
    pub fn new(config: RunConfig) -> AttackModel {
        AttackModel { config }
    }

    /// Analyzes `image`'s attack surface, bursting from branch to branch
    /// ([`advance_to_branch`]) on the block-fused engine, native execution
    /// off. At each dynamic
    /// branch the target parameter is the branch index, cycling
    /// deterministically through each archetype's candidates.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when the attack-free run misbehaves.
    pub fn analyze(&self, image: &Image) -> Result<AttackSurface, WorkloadError> {
        let (mut m, dbt) = build(image, &self.config);
        let mut nd = NativeDbt::wrap(dbt, false);
        let mut surface = AttackSurface::new();
        let budget = self.config.max_insts;
        loop {
            match advance_to_branch(&mut m, &mut nd, surface.branches, budget, true) {
                Advance::AtBranch => {
                    for kind in AttackKind::ALL {
                        match plan_attack(&mut m, nd.dbt(), image, kind, surface.branches) {
                            Some(p) => surface.counts[kind.idx()][cat_idx(p.category)] += 1,
                            None => surface.unplaceable[kind.idx()] += 1,
                        }
                    }
                    surface.branches += 1;
                }
                Advance::OutOfBudget => {
                    return Err(WorkloadError::BudgetExhausted { insts: m.cpu.stats().insts })
                }
                Advance::Halted => return Ok(surface),
                Advance::Trapped(t) => return Err(WorkloadError::Trapped(t)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignReport};
    use crate::inject::{inject, inject_traced, Outcome};
    use crate::snapshot::SnapshotSet;
    use cfed_core::TechniqueKind;
    use cfed_lang::compile;

    fn image() -> Image {
        compile(
            r#"
            fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
            fn main() {
                let i = 0;
                let acc = 5;
                while (i < 30) {
                    if (i % 3 == 1) { acc = acc * 2 - i; } else { acc = acc + leaf(i); }
                    i = i + 1;
                }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in AttackKind::ALL {
            assert_eq!(AttackKind::from_name(k.name()), Some(k));
        }
        assert_eq!(AttackKind::from_name("nonsense"), None);
    }

    #[test]
    fn surface_stays_within_expected_categories() {
        // The A–F taxonomy is total and pinned: every plannable attack
        // classifies inside its archetype's expected set, never NoError.
        let img = image();
        for cfg in [RunConfig::baseline(), RunConfig::technique(TechniqueKind::EdgCf)] {
            let s = AttackModel::new(cfg).analyze(&img).unwrap();
            assert!(s.branches > 50);
            for kind in AttackKind::ALL {
                assert!(s.placed(kind) > 0, "{kind} never placed");
                assert_eq!(s.count(kind, Category::NoError), 0, "{kind} planned a NoError");
                for c in s.observed(kind) {
                    assert!(
                        kind.expected_categories().contains(&c),
                        "{kind} reached unexpected category {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn surface_is_pinned() {
        // Every cell of the archetype x category table, every unplaceable
        // count and the branch total, under baseline and under EdgCF.
        let img = image();
        let base = AttackModel::new(RunConfig::baseline()).analyze(&img).unwrap();
        assert_eq!(
            base.counts,
            [
                [81, 0, 0, 0, 0, 0, 0],
                [0, 193, 0, 0, 0, 0, 0],
                [0, 0, 193, 0, 0, 0, 0],
                [0, 0, 0, 192, 0, 0, 0],
                [0, 0, 0, 190, 0, 0, 0],
                [11, 0, 65, 13, 104, 0, 0],
                [0, 0, 0, 0, 0, 193, 0],
            ]
        );
        assert_eq!(base.unplaceable, [112, 0, 0, 1, 3, 0, 0]);
        assert_eq!(base.branches, 193);
        let edg =
            AttackModel::new(RunConfig::technique(TechniqueKind::EdgCf)).analyze(&img).unwrap();
        assert_eq!(
            edg.counts,
            [
                [162, 0, 0, 0, 0, 0, 0],
                [0, 431, 0, 0, 0, 0, 0],
                [0, 0, 431, 0, 0, 0, 0],
                [0, 0, 0, 429, 0, 0, 0],
                [0, 0, 0, 0, 426, 0, 0],
                [26, 22, 240, 17, 124, 0, 0],
                [0, 0, 0, 0, 0, 431, 0],
            ]
        );
        assert_eq!(edg.unplaceable, [269, 0, 0, 2, 5, 2, 0]);
        assert_eq!(edg.branches, 431);
    }

    #[test]
    fn instrumented_splices_land_mid_block() {
        // Under a checking technique the splice target sits past the head:
        // category E. Under baseline there is no head: category D.
        let img = image();
        let base = AttackModel::new(RunConfig::baseline()).analyze(&img).unwrap();
        assert_eq!(base.observed(AttackKind::EdgeSplice), vec![Category::D]);
        let edg =
            AttackModel::new(RunConfig::technique(TechniqueKind::EdgCf)).analyze(&img).unwrap();
        assert_eq!(edg.observed(AttackKind::EdgeSplice), vec![Category::E]);
    }

    #[test]
    fn attacks_are_deterministic_and_fast_forward_equivalent() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let (golden, snaps) = SnapshotSet::capture(&img, &cfg).unwrap();
        for kind in AttackKind::ALL {
            for nth in [0u64, 9, 33] {
                let spec = AttackSpec { kind, nth, param: nth * 17 + 3 };
                let a = inject(&img, &cfg, spec, &golden, None).unwrap();
                let b = inject(&img, &cfg, spec, &golden, None).unwrap();
                let fast = inject(&img, &cfg, spec, &golden, Some(&snaps)).unwrap();
                assert_eq!(a, b, "{kind} nth={nth} not deterministic");
                assert_eq!(a, fast, "{kind} nth={nth} fast-forward diverged");
            }
        }
    }

    #[test]
    fn data_pivot_is_hardware_detected() {
        let img = image();
        let cfg = RunConfig::baseline();
        let golden = crate::inject::golden_run(&img, &cfg).unwrap();
        let mut placed = 0;
        for nth in 0..10 {
            let spec = AttackSpec { kind: AttackKind::DataPivot, nth, param: nth };
            if let Some(r) = inject(&img, &cfg, spec, &golden, None).unwrap() {
                assert_eq!(r.category, Category::F);
                assert_eq!(r.outcome, Outcome::DetectedByHw, "pivot at {nth} escaped hardware");
                placed += 1;
            }
        }
        assert!(placed > 0);
    }

    #[test]
    fn gadget_entry_trips_alignment_hardware() {
        let img = image();
        let cfg = RunConfig::baseline();
        let golden = crate::inject::golden_run(&img, &cfg).unwrap();
        let mut placed = 0;
        for nth in 0..10 {
            let spec = AttackSpec { kind: AttackKind::GadgetEntry, nth, param: 2 };
            if let Some(r) = inject(&img, &cfg, spec, &golden, None).unwrap() {
                assert_eq!(r.category, Category::C);
                assert_eq!(r.outcome, Outcome::DetectedByHw, "gadget at {nth} escaped hardware");
                placed += 1;
            }
        }
        assert!(placed > 0);
    }

    #[test]
    fn campaign_shard_merge_equals_serial_run() {
        let img = image();
        let c = Campaign {
            attack: Some(AttackKind::RetGadget),
            ..Campaign::new(RunConfig::technique(TechniqueKind::EdgCf), 150)
        };
        let serial = c.run(&img).unwrap();
        let golden = crate::inject::golden_run(&img, &c.config).unwrap();
        let mut merged = CampaignReport::new(golden.clone());
        for shard in (0..c.num_shards()).rev() {
            merged.merge(&c.run_shard(&img, &golden, shard).unwrap());
        }
        for cat in Category::ALL {
            assert_eq!(serial.category(cat), merged.category(cat));
        }
        assert_eq!(serial.skipped, merged.skipped);
        assert_eq!(serial.latency_totals(), merged.latency_totals());
    }

    #[test]
    fn campaign_accounts_every_trial() {
        let img = image();
        for kind in AttackKind::ALL {
            let c = Campaign {
                attack: Some(kind),
                ..Campaign::new(RunConfig::technique(TechniqueKind::Rcf), 40)
            };
            let r = c.run(&img).unwrap();
            let total: u64 = Category::ALL.iter().map(|&cat| r.category(cat).total()).sum();
            assert_eq!(total + r.skipped, 40, "{kind}");
        }
    }

    #[test]
    fn traced_attack_reproduces_plain_outcome_with_provenance() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let (golden, snaps) = SnapshotSet::capture(&img, &cfg).unwrap();
        let spec = AttackSpec { kind: AttackKind::EdgeSplice, nth: 12, param: 5 };
        let plain = inject(&img, &cfg, spec, &golden, None).unwrap();
        let traced = inject_traced(&img, &cfg, spec, &golden, 64, Some(&snaps)).unwrap();
        match (plain, traced) {
            (Some(p), Some((t, _, Some(prov)))) => {
                assert_eq!(p, t);
                assert!(prov.attribution.is_some(), "splice target attributes to a block");
            }
            (None, None) => {}
            (p, t) => panic!("placement diverged: {:?} vs {}", p, t.is_some()),
        }
    }
}
