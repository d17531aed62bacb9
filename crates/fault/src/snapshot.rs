//! Checkpointed fast-forward for fault injection.
//!
//! Every injection trial must first replay the fault-free prefix up to the
//! nth dynamic branch — O(program length) of single-stepping and a full
//! re-translation per trial. During the golden run this module captures
//! periodic `(Machine, Dbt)` snapshots keyed by dynamic-branch index;
//! [`crate::inject::inject`] then rewinds its worker's resident machine
//! and engine to the nearest snapshot at-or-below the target branch
//! (`SnapshotSet::check_out`) and bursts through only the residual
//! prefix, reusing the translated code cache instead of re-translating.
//!
//! Both halves of a snapshot are captured at the same instant and restored
//! together: the [`cfed_sim::MachineSnapshot`] holds the architectural
//! state *including* the code-cache bytes, and the [`Dbt`] clone holds the
//! bookkeeping (block table, cursor, exit stubs) describing exactly those
//! bytes. Restoring either half alone desynchronizes them. Signature
//! state needs no separate reset: the techniques keep their running
//! signatures in guest registers, which the machine snapshot captures, and
//! the instrumenter itself is stateless (shared read-only by every clone).
//!
//! Snapshot memory stays bounded by adaptive thinning: capture every
//! [`INITIAL_INTERVAL`] branches until [`MAX_SNAPSHOTS`] are held, then
//! drop every other snapshot and double the interval, so arbitrarily long
//! runs keep at most `MAX_SNAPSHOTS` snapshots at power-of-two-scaled
//! spacing.

use crate::inject::{golden_pass, Golden, WorkloadError};
use cfed_asm::Image;
use cfed_core::RunConfig;
use cfed_dbt::Dbt;
use cfed_sim::{Machine, MachineSnapshot, SnapshotTracker};
use cfed_telemetry::Counter;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Branch interval between snapshots before any adaptive thinning.
pub const INITIAL_INTERVAL: u64 = 8;

/// Snapshot-count bound: when a golden run would exceed it, every other
/// snapshot is dropped and the capture interval doubles.
pub const MAX_SNAPSHOTS: usize = 48;

/// One checkpoint: the machine and translator exactly as they were when
/// the golden run was about to execute dynamic branch `branch_index`.
#[derive(Clone)]
pub(crate) struct Snapshot {
    pub(crate) branch_index: u64,
    pub(crate) machine: MachineSnapshot,
    pub(crate) dbt: Dbt,
}

/// An immutable set of golden-run checkpoints for one `(image, config)`,
/// shared read-only across worker threads (the usage counters are atomic).
pub struct SnapshotSet {
    config: RunConfig,
    /// Names this set's golden run to the native JIT
    /// ([`cfed_dbt::NativeDbt::rewind`]); unique per set in the process.
    lineage: u64,
    /// Ascending by `branch_index`; index 0 is the first dynamic branch.
    snapshots: Vec<Snapshot>,
    interval: u64,
    bytes: u64,
    restores: Counter,
    full_restores: Counter,
    pages_restored: Counter,
    misses: Counter,
    fast_forwarded: Counter,
    stepped: Counter,
    pruned: Counter,
    insts_fused: Counter,
    insts_stepped: Counter,
    insts_native: Counter,
    native_compiles: Counter,
}

impl std::fmt::Debug for SnapshotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSet")
            .field("snapshots", &self.snapshots.len())
            .field("interval", &self.interval)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl SnapshotSet {
    /// Runs the golden run with snapshot capture, returning the golden
    /// reference together with the checkpoint set.
    ///
    /// The golden result is identical to [`crate::golden_run`]'s —
    /// capturing observes the machine, never perturbs it.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when the fault-free program traps or exceeds its
    /// instruction budget.
    pub fn capture(image: &Image, cfg: &RunConfig) -> Result<(Golden, SnapshotSet), WorkloadError> {
        golden_pass(image, cfg, true, false).map(|(g, set, _)| (g, set.expect("captured")))
    }

    /// Whether this set was captured under `cfg`. Fast-forwarding with a
    /// mismatched configuration would replay the wrong translation, so
    /// injection falls back to from-scratch when this is false.
    pub fn matches(&self, cfg: &RunConfig) -> bool {
        self.config == *cfg
    }

    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the set holds no checkpoints (a branch-free golden run).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Heap bytes the machine snapshots retain, each shared page counted
    /// once.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The final capture interval in branches (after adaptive thinning).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The name of this set's golden run for [`cfed_dbt::NativeDbt::rewind`].
    pub(crate) fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The checkpoints strictly after dynamic branch `nth`, ascending —
    /// the convergence-pruning boundaries for a fault injected at `nth`.
    pub(crate) fn after(&self, nth: u64) -> &[Snapshot] {
        let i = self.snapshots.partition_point(|s| s.branch_index <= nth);
        &self.snapshots[i..]
    }

    /// The checkpoint with the greatest `branch_index <= max_branch`.
    pub(crate) fn nearest(&self, max_branch: u64) -> Option<&Snapshot> {
        match self.snapshots.binary_search_by_key(&max_branch, |s| s.branch_index) {
            Ok(i) => Some(&self.snapshots[i]),
            Err(0) => None,
            Err(i) => Some(&self.snapshots[i - 1]),
        }
    }

    /// This thread's resident machine rewound to `snap`, one of this set's
    /// checkpoints, with the resident engine refreshed to `snap`'s in place
    /// of a clone. The rewind rewrites only the pages the last trial wrote
    /// and the pages `snap` does not share with the checkpoint installed
    /// before it; after a trial of another set, or on a thread's first
    /// trial, it fills the machine in full. Hand both back with
    /// [`Resident::check_in`].
    pub(crate) fn check_out(&self, snap: &Snapshot) -> (Box<Resident>, Dbt) {
        let mut resident = RESIDENT.take().unwrap_or_else(|| {
            // All zero, never written: the full fill installs every page.
            Box::new(Resident { machine: Machine::load(&[], &[], 0), dbt: None, at: None })
        });
        let from = resident
            .at
            .filter(|&(lineage, _)| lineage == self.lineage)
            .and_then(|(_, branch)| self.nearest(branch))
            .map(|installed| &installed.machine);
        let pages = snap.machine.rewind(&mut resident.machine, from);
        if from.is_none() {
            self.full_restores.inc();
        }
        self.pages_restored.add(pages);
        resident.at = Some((self.lineage, snap.branch_index));
        let dbt = match resident.dbt.take() {
            Some(mut dbt) => {
                dbt.clone_from(&snap.dbt);
                dbt
            }
            None => snap.dbt.clone(),
        };
        (resident, dbt)
    }

    /// Records a successful restore that skipped `fast_forwarded` branches
    /// and left `stepped` branches of residual prefix.
    pub(crate) fn note_restore(&self, fast_forwarded: u64, stepped: u64) {
        self.restores.inc();
        self.fast_forwarded.add(fast_forwarded);
        self.stepped.add(stepped);
    }

    /// Records an injection that had to run from scratch (no usable
    /// checkpoint), stepping the whole `stepped`-branch prefix.
    pub(crate) fn note_miss(&self, stepped: u64) {
        self.misses.inc();
        self.stepped.add(stepped);
    }

    /// Records a trial whose post-injection state converged back onto a
    /// golden checkpoint, letting the injector skip the benign suffix.
    pub(crate) fn note_pruned(&self) {
        self.pruned.inc();
    }

    /// Records a trial's instructions (`fused` retired on the fused
    /// engine, `stepped` single-stepped, `native` through native bursts) and
    /// the blocks it compiled to host code.
    pub(crate) fn note_insts(&self, fused: u64, stepped: u64, native: u64, compiles: u64) {
        self.insts_fused.add(fused);
        self.insts_stepped.add(stepped);
        self.insts_native.add(native);
        self.native_compiles.add(compiles);
    }

    /// A point-in-time copy of the set's shape and usage counters.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            snapshot_sets: 1,
            snapshots: self.snapshots.len() as u64,
            bytes: self.bytes,
            restores: self.restores.get(),
            full_restores: self.full_restores.get(),
            pages_restored: self.pages_restored.get(),
            misses: self.misses.get(),
            branches_fast_forwarded: self.fast_forwarded.get(),
            branches_stepped: self.stepped.get(),
            benign_pruned: self.pruned.get(),
            insts_fused: self.insts_fused.get(),
            insts_stepped: self.insts_stepped.get(),
            insts_native: self.insts_native.get(),
            native_compiles: self.native_compiles.get(),
        }
    }
}

/// A worker thread's resident trial machine and engine: fast-path trials
/// rewind them to their checkpoints ([`SnapshotSet::check_out`]) instead of
/// building both anew and dropping them after.
pub(crate) struct Resident {
    pub(crate) machine: Machine,
    /// The engine, while no trial runs on it.
    dbt: Option<Dbt>,
    /// The checkpoint the machine was last rewound to: its set's lineage
    /// and its branch index.
    at: Option<(u64, u64)>,
}

thread_local! {
    static RESIDENT: Cell<Option<Box<Resident>>> = const { Cell::new(None) };
}

impl Resident {
    /// Keeps the machine, in whatever state the trial left it, and the
    /// engine as this thread's resident pair.
    pub(crate) fn check_in(mut self: Box<Self>, dbt: Dbt) {
        self.dbt = Some(dbt);
        RESIDENT.set(Some(self));
    }
}

/// Snapshot shape and usage counters, mergeable across sets for pool-wide
/// telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshot sets aggregated into these totals.
    pub snapshot_sets: u64,
    /// Checkpoints held.
    pub snapshots: u64,
    /// Heap bytes the machine snapshots retain: each distinct page once
    /// per set, however many of its checkpoints share it, plus every
    /// checkpoint's permission table.
    pub bytes: u64,
    /// Injections that restored a checkpoint.
    pub restores: u64,
    /// Restores that filled their worker's resident machine in full: the
    /// first on a thread, or the first after the thread ran a trial of
    /// another set. The rest rewrote only the pages that can differ.
    /// Depends on which worker ran which trial.
    pub full_restores: u64,
    /// Pages restores wrote into resident machines, full fills included.
    /// Depends on which worker ran which trial, and in what order.
    pub pages_restored: u64,
    /// Injections that ran from scratch despite snapshots being available
    /// (target before the first checkpoint). Traced forensics re-runs are
    /// observers and count nowhere in these stats.
    pub misses: u64,
    /// Prefix branches skipped by restoring instead of stepping.
    pub branches_fast_forwarded: u64,
    /// Prefix branches executed after the restore point (or from scratch).
    pub branches_stepped: u64,
    /// Trials whose post-injection state converged back onto a golden
    /// checkpoint, skipping the (provably benign) remainder of the run.
    pub benign_pruned: u64,
    /// Trial instructions, all but the faulted one, retired in block-fused
    /// bursts ([`cfed_dbt::Dbt::burst`]) where native execution is off
    /// (`CFED_NO_NATIVE=1`, hosts other than x86-64 Linux); 0 where it runs.
    pub insts_fused: u64,
    /// Trial instructions single-stepped: the faulted instruction, so at
    /// most one per trial, since bursts stop in front of the strike branch.
    pub insts_stepped: u64,
    /// Trial instructions, all but the faulted one, retired through native
    /// bursts ([`cfed_dbt::NativeDbt::burst`], with the fused tails and
    /// steps to a block head it takes to stop on an exact branch) where
    /// native execution runs; 0 where it is off.
    pub insts_native: u64,
    /// Blocks the trials compiled to host code (0 where native execution is
    /// off). Each worker's JIT keeps host code across the trials of one
    /// golden run, so most trials compile none.
    pub native_compiles: u64,
}

impl SnapshotStats {
    /// Accumulates another set's stats into this one (all fields are sums).
    pub fn absorb(&mut self, other: &SnapshotStats) {
        self.snapshot_sets += other.snapshot_sets;
        self.snapshots += other.snapshots;
        self.bytes += other.bytes;
        self.restores += other.restores;
        self.full_restores += other.full_restores;
        self.pages_restored += other.pages_restored;
        self.misses += other.misses;
        self.branches_fast_forwarded += other.branches_fast_forwarded;
        self.branches_stepped += other.branches_stepped;
        self.benign_pruned += other.benign_pruned;
        self.insts_fused += other.insts_fused;
        self.insts_stepped += other.insts_stepped;
        self.insts_native += other.insts_native;
        self.native_compiles += other.native_compiles;
    }
}

/// Accumulates snapshots during a golden run. Captures are incremental —
/// a [`SnapshotTracker`] over the machine's dirty-page log copies only the
/// pages written since the previous checkpoint, so checkpointing stays
/// cheap relative to the golden run itself.
pub(crate) struct SnapshotBuilder {
    interval: u64,
    snapshots: Vec<Snapshot>,
    tracker: SnapshotTracker,
}

impl SnapshotBuilder {
    pub(crate) fn new() -> SnapshotBuilder {
        SnapshotBuilder {
            interval: INITIAL_INTERVAL,
            snapshots: Vec::new(),
            tracker: SnapshotTracker::new(),
        }
    }

    /// The first dynamic branch at or after `branch_index` that
    /// [`SnapshotBuilder::observe_branch`] may capture at: the golden run
    /// bursts from one such point to the next instead of stopping at every
    /// branch. Thinning only ever lengthens the interval, so no capture
    /// point is skipped.
    pub(crate) fn next_capture(&self, branch_index: u64) -> u64 {
        branch_index.next_multiple_of(self.interval)
    }

    /// Called by the golden run when it is about to execute dynamic branch
    /// `branch_index`; captures a checkpoint on interval boundaries. The
    /// machine is only observed — dirty-page bookkeeping aside, its state
    /// is untouched.
    pub(crate) fn observe_branch(&mut self, branch_index: u64, m: &mut Machine, dbt: &Dbt) {
        if !branch_index.is_multiple_of(self.interval) {
            return;
        }
        if self.snapshots.len() >= MAX_SNAPSHOTS {
            self.thin();
            if !branch_index.is_multiple_of(self.interval) {
                return;
            }
        }
        self.snapshots.push(Snapshot {
            branch_index,
            machine: self.tracker.capture(m),
            dbt: dbt.clone(),
        });
    }

    /// Doubles the interval and drops the checkpoints that no longer fall
    /// on it (every other one, since the kept indices are the even
    /// multiples of the old interval).
    fn thin(&mut self) {
        self.interval *= 2;
        let interval = self.interval;
        self.snapshots.retain(|s| s.branch_index % interval == 0);
    }

    pub(crate) fn finish(self, config: RunConfig) -> SnapshotSet {
        let bytes = MachineSnapshot::retained_bytes(self.snapshots.iter().map(|s| &s.machine));
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);
        SnapshotSet {
            config,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            snapshots: self.snapshots,
            interval: self.interval,
            bytes,
            restores: Counter::new(),
            full_restores: Counter::new(),
            pages_restored: Counter::new(),
            misses: Counter::new(),
            fast_forwarded: Counter::new(),
            stepped: Counter::new(),
            pruned: Counter::new(),
            insts_fused: Counter::new(),
            insts_stepped: Counter::new(),
            insts_native: Counter::new(),
            native_compiles: Counter::new(),
        }
    }
}

#[cfg(test)]
#[path = "resident_rewind.rs"]
mod resident_rewind;

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_core::TechniqueKind;
    use cfed_lang::compile;

    fn image(iters: u32) -> Image {
        compile(&format!(
            r#"
            fn main() {{
                let i = 0;
                let acc = 1;
                while (i < {iters}) {{
                    if (i % 2 == 0) {{ acc = acc + i; }} else {{ acc = acc * 2; }}
                    i = i + 1;
                }}
                out(acc);
            }}
            "#
        ))
        .unwrap()
    }

    #[test]
    fn capture_matches_plain_golden_run() {
        let img = image(30);
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let plain = crate::golden_run(&img, &cfg).unwrap();
        let (golden, snaps) = SnapshotSet::capture(&img, &cfg).unwrap();
        assert_eq!(plain, golden);
        assert!(!snaps.is_empty());
        assert!(snaps.len() <= MAX_SNAPSHOTS);
        assert!(snaps.bytes() > 0);
        // Consecutive checkpoints share most pages, counted once.
        let each: u64 =
            snaps.snapshots.iter().map(|s| MachineSnapshot::retained_bytes([&s.machine])).sum();
        assert!(snaps.bytes() < each, "{} of {each}", snaps.bytes());
        assert!(snaps.matches(&cfg));
        assert!(!snaps.matches(&RunConfig::baseline()));
    }

    #[test]
    fn nearest_picks_greatest_at_or_below() {
        let img = image(60);
        let cfg = RunConfig::baseline();
        let (golden, snaps) = SnapshotSet::capture(&img, &cfg).unwrap();
        assert!(golden.branches > INITIAL_INTERVAL);
        // Branch 0 always has a checkpoint; a target below it has none.
        assert_eq!(snaps.nearest(0).unwrap().branch_index, 0);
        for target in [1, INITIAL_INTERVAL, golden.branches] {
            let s = snaps.nearest(target).expect("checkpoint at or below");
            assert!(s.branch_index <= target);
            // No later checkpoint also fits under the target.
            assert!(snaps
                .nearest(target)
                .map(|s| s.branch_index)
                .unwrap()
                .checked_add(snaps.interval())
                .map(|next| {
                    snaps.nearest(next.min(golden.branches)).unwrap().branch_index >= s.branch_index
                })
                .unwrap_or(true));
        }
    }

    #[test]
    fn snapshot_count_stays_bounded_and_interval_adapts() {
        // A long loop forces thinning: many more branches than
        // MAX_SNAPSHOTS * INITIAL_INTERVAL.
        let img = image(400);
        let cfg = RunConfig::baseline();
        let (golden, snaps) = SnapshotSet::capture(&img, &cfg).unwrap();
        assert!(golden.branches > (MAX_SNAPSHOTS as u64) * INITIAL_INTERVAL);
        assert!(snaps.len() <= MAX_SNAPSHOTS);
        assert!(snaps.interval() > INITIAL_INTERVAL, "thinning must have doubled the interval");
        // Checkpoints sit exactly on the final interval.
        let stats = snaps.stats();
        assert_eq!(stats.snapshots, snaps.len() as u64);
        assert_eq!(stats.restores, 0);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let a = SnapshotStats {
            snapshot_sets: 1,
            snapshots: 3,
            bytes: 100,
            restores: 5,
            full_restores: 2,
            pages_restored: 30,
            misses: 1,
            branches_fast_forwarded: 40,
            branches_stepped: 7,
            benign_pruned: 2,
            insts_fused: 90,
            insts_stepped: 9,
            insts_native: 40,
            native_compiles: 6,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(b.snapshot_sets, 2);
        assert_eq!(b.snapshots, 6);
        assert_eq!(b.bytes, 200);
        assert_eq!(b.full_restores, 4);
        assert_eq!(b.pages_restored, 60);
        assert_eq!(b.branches_fast_forwarded, 80);
        assert_eq!(b.benign_pruned, 4);
        assert_eq!(b.insts_fused, 180);
        assert_eq!(b.insts_stepped, 18);
        assert_eq!(b.insts_native, 80);
        assert_eq!(b.native_compiles, 12);
    }
}
