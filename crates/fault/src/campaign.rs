//! Fault-injection campaigns: many randomized single-bit faults — or
//! attacks of one archetype — aggregated into a per-category coverage
//! matrix.

use crate::attack::{AttackKind, AttackSpec};
use crate::inject::{
    inject, FaultSpec, Golden, InjectionResult, Outcome, TrialSpec, WorkloadError,
};
use crate::snapshot::SnapshotSet;
use cfed_asm::Image;
use cfed_core::{Category, RunConfig};
use cfed_isa::{Flags, OFFSET_BITS};
use cfed_telemetry::Histogram;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Latency histograms per category × outcome, in [`Category::ALL`] ×
/// [`Outcome::ALL`] order — the exact-merge replacement for the old lossy
/// global `latency_sum/latency_n` pair.
pub type LatencyGrid = [[Histogram; 6]; 7];

fn empty_grid() -> LatencyGrid {
    std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new()))
}

/// Detection latencies over `DetectedByCheck` outcomes, merged across
/// categories (the paper's Fig. 15 quantity).
pub fn detection_latency(lat: &LatencyGrid) -> Histogram {
    let mut h = Histogram::new();
    for row in lat {
        h.merge(&row[Outcome::DetectedByCheck.idx()]);
    }
    h
}

/// Outcome tallies for one branch-error category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryStats {
    /// Faults detected by the signature-checking instrumentation.
    pub detected_check: u64,
    /// Faults detected by hardware memory protection.
    pub detected_hw: u64,
    /// Faults surfacing as other program faults (fail-stop, not CF check).
    pub other_fault: u64,
    /// Faults absorbed without observable effect.
    pub benign: u64,
    /// Faults producing silent data corruption.
    pub sdc: u64,
    /// Faults producing non-terminating runs.
    pub timeout: u64,
}

impl CategoryStats {
    /// Total injections in this category.
    pub fn total(&self) -> u64 {
        self.detected_check
            + self.detected_hw
            + self.other_fault
            + self.benign
            + self.sdc
            + self.timeout
    }

    /// Fraction of *harmful* faults (everything but benign) that were
    /// detected before corrupting output. Timeouts count as undetected:
    /// a hung program is a failure the relaxed policies explicitly risk
    /// (paper §6: END "may not report branch-errors that lead the program to
    /// infinite loops").
    pub fn coverage(&self) -> f64 {
        let harmful = self.total() - self.benign;
        if harmful == 0 {
            return 1.0;
        }
        (self.detected_check + self.detected_hw + self.other_fault) as f64 / harmful as f64
    }

    fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::DetectedByCheck => self.detected_check += 1,
            Outcome::DetectedByHw => self.detected_hw += 1,
            Outcome::OtherFault => self.other_fault += 1,
            Outcome::Benign => self.benign += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Timeout => self.timeout += 1,
        }
    }
}

impl std::ops::AddAssign for CategoryStats {
    fn add_assign(&mut self, other: CategoryStats) {
        self.detected_check += other.detected_check;
        self.detected_hw += other.detected_hw;
        self.other_fault += other.other_fault;
        self.benign += other.benign;
        self.sdc += other.sdc;
        self.timeout += other.timeout;
    }
}

/// Trials per shard: the unit of work distributed by `cfed-runner`.
///
/// [`Campaign::run`] executes its trials as a sequence of shards of this
/// size, each with an independently derived RNG seed, so a campaign's
/// tallies are the associative merge of its shard reports — bit-identical
/// whether the shards run serially here or spread over a worker pool.
pub const SHARD_TRIALS: u64 = 64;

/// A randomized injection campaign over one image + DBT configuration:
/// soft errors, or attacks of one archetype.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// DBT configuration under test.
    pub config: RunConfig,
    /// When set, every trial mounts this attack archetype instead of a
    /// random soft error. Shard geometry, seed derivation and the report
    /// are the same either way.
    pub attack: Option<AttackKind>,
    /// Number of trials to run.
    pub trials: u64,
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
}

impl Campaign {
    /// A soft-error campaign with the given trial count and a fixed
    /// default seed.
    pub fn new(config: RunConfig, trials: u64) -> Campaign {
        Campaign { config, attack: None, trials, seed: 0xCFED_2006 }
    }

    /// Number of shards this campaign splits into ([`SHARD_TRIALS`] trials
    /// each, last shard possibly smaller).
    pub fn num_shards(&self) -> u64 {
        self.trials.div_ceil(SHARD_TRIALS)
    }

    /// Trials in shard `shard_index` (all [`SHARD_TRIALS`] except a
    /// possibly-short final shard).
    pub fn shard_trials(&self, shard_index: u64) -> u64 {
        let start = shard_index * SHARD_TRIALS;
        SHARD_TRIALS.min(self.trials.saturating_sub(start))
    }

    /// The RNG seed of shard `shard_index`: the `shard_index`-th output of
    /// a splitmix64 stream seeded with the campaign seed. Depends only on
    /// `(campaign seed, shard index)` — never on worker count or
    /// scheduling order — which is what makes sharded execution
    /// bit-identical to the serial path.
    pub fn shard_seed(&self, shard_index: u64) -> u64 {
        let mut state = self.seed.wrapping_add(shard_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rand::splitmix64(&mut state)
    }

    /// Runs one shard against a precomputed golden reference, replaying
    /// every trial's prefix from scratch.
    ///
    /// Each trial picks a uniformly random dynamic branch execution and a
    /// uniformly random bit among the 32 offset bits + 6 flag bits — the
    /// same fault space as the §2 error model, but executed rather than
    /// classified hypothetically. Attack campaigns instead draw a uniformly
    /// random target parameter for the archetype; unplaceable attacks count
    /// as skipped, like out-of-range faults.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when a trial's fault-free prefix misbehaves —
    /// the workload is unsound under this configuration, so the shard
    /// (not the process) fails.
    pub fn run_shard(
        &self,
        image: &Image,
        golden: &Golden,
        shard_index: u64,
    ) -> Result<CampaignReport, WorkloadError> {
        self.run_shard_with(image, golden, None, shard_index, |_, _| {})
    }

    /// As [`Campaign::run_shard`], fast-forwarding through `snapshots`
    /// when provided (see [`inject`]) and invoking `observer` with
    /// every placed trial's spec and result. Observers are for side
    /// channels — telemetry events, forensics capture of interesting
    /// outcomes — and must not influence the tallies; the report is
    /// identical to the observer-free, snapshot-free path.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_shard`].
    pub fn run_shard_with(
        &self,
        image: &Image,
        golden: &Golden,
        snapshots: Option<&SnapshotSet>,
        shard_index: u64,
        mut observer: impl FnMut(TrialSpec, &InjectionResult),
    ) -> Result<CampaignReport, WorkloadError> {
        let mut rng = StdRng::seed_from_u64(self.shard_seed(shard_index));
        let mut report = CampaignReport::new(golden.clone());
        for _ in 0..self.shard_trials(shard_index) {
            let nth = rng.gen_range(0..golden.branches.max(1));
            let spec = match self.attack {
                Some(kind) => TrialSpec::Attack(AttackSpec { kind, nth, param: rng.gen() }),
                None => {
                    let bit = rng.gen_range(0..OFFSET_BITS + Flags::BITS) as u8;
                    TrialSpec::Fault(if (bit as u32) < OFFSET_BITS {
                        FaultSpec::AddrBit { nth, bit }
                    } else {
                        FaultSpec::FlagBit { nth, bit: bit - OFFSET_BITS as u8 }
                    })
                }
            };
            if let Some(r) = inject(image, &self.config, spec, golden, snapshots)? {
                observer(spec, &r);
                report.record(r.category, r.outcome, r.latency_insts);
            } else {
                report.skipped += 1;
            }
        }
        Ok(report)
    }

    /// Runs the campaign against a caller-supplied golden reference,
    /// skipping the golden re-run (callers that batch campaigns over one
    /// image cache the golden once — see `cfed-runner`), optionally
    /// fast-forwarding through `snapshots`.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_shard`].
    pub fn run_with_golden(
        &self,
        image: &Image,
        golden: &Golden,
        snapshots: Option<&SnapshotSet>,
    ) -> Result<CampaignReport, WorkloadError> {
        let mut report = CampaignReport::new(golden.clone());
        for shard in 0..self.num_shards() {
            report.merge(&self.run_shard_with(image, golden, snapshots, shard, |_, _| {})?);
        }
        Ok(report)
    }

    /// Runs the campaign: the fault-free golden run (capturing
    /// fast-forward checkpoints), then every shard in order. Equals the
    /// merge of the shard reports in any order.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_shard`], plus golden-run failures.
    pub fn run(&self, image: &Image) -> Result<CampaignReport, WorkloadError> {
        let (golden, snapshots) = SnapshotSet::capture(image, &self.config)?;
        self.run_with_golden(image, &golden, Some(&snapshots))
    }
}

/// An exhaustive sweep over the fault space of a *prefix* of the execution:
/// every (branch execution, bit) pair for the first `branches` dynamic
/// branches — the deterministic complement to [`Campaign`]'s sampling.
#[derive(Debug, Clone)]
pub struct ExhaustiveSweep {
    /// DBT configuration under test.
    pub config: RunConfig,
    /// How many leading dynamic branch executions to sweep (each costs
    /// 38 whole-program runs).
    pub branches: u64,
}

impl ExhaustiveSweep {
    /// Creates a sweep over the first `branches` dynamic branches.
    pub fn new(config: RunConfig, branches: u64) -> ExhaustiveSweep {
        ExhaustiveSweep { config, branches }
    }

    /// Runs the sweep: `branches × (32 offset bits + 6 flag bits)`
    /// injections, fast-forwarding through checkpoints captured during
    /// the golden run.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when the fault-free run misbehaves.
    pub fn run(&self, image: &Image) -> Result<CampaignReport, WorkloadError> {
        let (golden, snapshots) = SnapshotSet::capture(image, &self.config)?;
        self.run_with_golden(image, &golden, Some(&snapshots))
    }

    /// Runs the sweep against a caller-supplied golden reference, skipping
    /// the golden re-run, optionally fast-forwarding through `snapshots`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when a trial's fault-free prefix misbehaves.
    pub fn run_with_golden(
        &self,
        image: &Image,
        golden: &Golden,
        snapshots: Option<&SnapshotSet>,
    ) -> Result<CampaignReport, WorkloadError> {
        let mut report = CampaignReport::new(golden.clone());
        for nth in 0..self.branches.min(golden.branches) {
            for bit in 0..OFFSET_BITS as u8 {
                let spec = FaultSpec::AddrBit { nth, bit };
                match inject(image, &self.config, spec, golden, snapshots)? {
                    Some(r) => report.record(r.category, r.outcome, r.latency_insts),
                    None => report.skipped += 1,
                }
            }
            for bit in 0..Flags::BITS as u8 {
                let spec = FaultSpec::FlagBit { nth, bit };
                match inject(image, &self.config, spec, golden, snapshots)? {
                    Some(r) => report.record(r.category, r.outcome, r.latency_insts),
                    None => report.skipped += 1,
                }
            }
        }
        Ok(report)
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Golden reference of the fault-free run.
    pub golden: Golden,
    /// Per-category outcome tallies, indexed by [`Category::ALL`] order.
    stats: [CategoryStats; 7],
    /// Injections that could not be placed (program ended first).
    pub skipped: u64,
    /// Detection-latency histograms (instructions from injection to end of
    /// run) per category × outcome.
    lat: LatencyGrid,
}

fn cat_idx(c: Category) -> usize {
    Category::ALL.iter().position(|&x| x == c).expect("category in ALL")
}

impl CampaignReport {
    /// An empty report for the given golden reference.
    pub fn new(golden: Golden) -> CampaignReport {
        CampaignReport {
            golden,
            stats: [CategoryStats::default(); 7],
            skipped: 0,
            lat: empty_grid(),
        }
    }

    /// Reconstructs a report from persisted tallies (the JSONL resume path
    /// of `cfed-runner`). `stats` is in [`Category::ALL`] order, `lat` in
    /// [`Category::ALL`] × [`Outcome::ALL`] order.
    pub fn from_parts(
        golden: Golden,
        stats: [CategoryStats; 7],
        skipped: u64,
        lat: LatencyGrid,
    ) -> CampaignReport {
        CampaignReport { golden, stats, skipped, lat }
    }

    /// Records one injection outcome.
    pub fn record(&mut self, category: Category, outcome: Outcome, latency: u64) {
        self.stats[cat_idx(category)].record(outcome);
        self.lat[cat_idx(category)][outcome.idx()].record(latency);
    }

    /// Folds another report's tallies into this one. Associative and
    /// commutative (every field is a sum), so shard reports reduce to the
    /// serial campaign's exact tallies in any merge order.
    ///
    /// # Panics
    ///
    /// Panics if the two reports reference different golden runs — merging
    /// across images or configurations is always a bug.
    pub fn merge(&mut self, other: &CampaignReport) {
        assert_eq!(self.golden, other.golden, "CampaignReport::merge across different golden runs");
        for (into, &from) in self.stats.iter_mut().zip(other.stats.iter()) {
            *into += from;
        }
        self.skipped += other.skipped;
        for (into_row, from_row) in self.lat.iter_mut().zip(other.lat.iter()) {
            for (into, from) in into_row.iter_mut().zip(from_row.iter()) {
                into.merge(from);
            }
        }
    }

    /// The latency histogram of one category × outcome cell.
    pub fn latency_hist(&self, c: Category, o: Outcome) -> &Histogram {
        &self.lat[cat_idx(c)][o.idx()]
    }

    /// The full latency grid, for persistence.
    pub fn latency_grid(&self) -> &LatencyGrid {
        &self.lat
    }

    /// [`detection_latency`] of this report's grid.
    pub fn detection_latency_hist(&self) -> Histogram {
        detection_latency(&self.lat)
    }

    /// The detection-latency accumulators `(sum, count)` over
    /// `DetectedByCheck` outcomes — exact, derived from the histograms.
    pub fn latency_totals(&self) -> (u64, u64) {
        let h = self.detection_latency_hist();
        (h.sum(), h.count())
    }

    /// Tallies for one category.
    pub fn category(&self, c: Category) -> &CategoryStats {
        &self.stats[cat_idx(c)]
    }

    /// Tallies summed over the SDC-prone categories A–E.
    pub fn sdc_prone_total(&self) -> CategoryStats {
        let mut out = CategoryStats::default();
        for c in Category::SDC_PRONE {
            out += *self.category(c);
        }
        out
    }

    /// Mean instructions between injection and a check-based detection.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        self.detection_latency_hist().mean()
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
                let acc = 7;
                while (i < 25) {
                    if (i % 4 == 1) { acc = acc * 3 + 1; } else { acc = acc + i; }
                    i = i + 1;
                }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn campaign_is_deterministic() {
        let img = image();
        let c = Campaign::new(RunConfig::technique(TechniqueKind::EdgCf), 30);
        let a = c.run(&img).unwrap();
        let b = c.run(&img).unwrap();
        for cat in Category::ALL {
            assert_eq!(a.category(cat), b.category(cat));
        }
    }

    #[test]
    fn trials_accounted_for() {
        let img = image();
        let c = Campaign::new(RunConfig::technique(TechniqueKind::Rcf), 40);
        let r = c.run(&img).unwrap();
        let total: u64 = Category::ALL.iter().map(|&cat| r.category(cat).total()).sum();
        assert_eq!(total + r.skipped, 40);
    }

    #[test]
    fn rcf_cmov_campaign_produces_no_sdc() {
        // Under the safe (CMOVcc) configuration RCF prevents every SDC.
        let img = image();
        let cfg = RunConfig {
            technique: Some(TechniqueKind::Rcf),
            style: cfed_dbt::UpdateStyle::CMov,
            ..RunConfig::default()
        };
        let r = Campaign::new(cfg, 60).run(&img).unwrap();
        let s = r.sdc_prone_total();
        assert_eq!(s.sdc, 0, "RCF/CMOVcc must prevent SDC: {:?}", s);
    }

    #[test]
    fn rcf_jcc_campaign_leaks_only_selector_flag_faults() {
        // Under Jcc updates the one irreducible leak is a flag fault at the
        // inserted selector branch (equivalent to a data fault in the
        // flag-producing instruction — outside any signature scheme's
        // reach). Those classify as category A; B–E stay SDC-free.
        let img = image();
        let r = Campaign::new(RunConfig::technique(TechniqueKind::Rcf), 60).run(&img).unwrap();
        for c in [Category::B, Category::C, Category::D, Category::E] {
            assert_eq!(r.category(c).sdc, 0, "RCF/Jcc leaked category {c}");
        }
    }

    #[test]
    fn exhaustive_sweep_covers_the_prefix() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let sweep = ExhaustiveSweep::new(cfg, 3);
        let r = sweep.run(&img).unwrap();
        let total: u64 = Category::ALL.iter().map(|&c| r.category(c).total()).sum();
        assert_eq!(total + r.skipped, 3 * 38, "3 branches x 38 bits");
        // Deterministic: same result twice.
        let r2 = sweep.run(&img).unwrap();
        for c in Category::ALL {
            assert_eq!(r.category(c), r2.category(c));
        }
    }

    #[test]
    fn shard_merge_equals_serial_run() {
        // The serial path is defined as the in-order shard merge; merging
        // the same shards in reverse must produce identical tallies.
        let img = image();
        let c = Campaign::new(RunConfig::technique(TechniqueKind::EdgCf), 150);
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
        // Exact mergeability extends to every latency histogram cell.
        for cat in Category::ALL {
            for o in Outcome::ALL {
                assert_eq!(serial.latency_hist(cat, o), merged.latency_hist(cat, o));
            }
        }
    }

    #[test]
    fn observer_does_not_change_tallies() {
        let img = image();
        let c = Campaign::new(RunConfig::technique(TechniqueKind::EdgCf), 30);
        let golden = crate::inject::golden_run(&img, &c.config).unwrap();
        let plain = c.run_shard(&img, &golden, 0).unwrap();
        let mut observed = 0u64;
        let with = c.run_shard_with(&img, &golden, None, 0, |_, _| observed += 1).unwrap();
        for cat in Category::ALL {
            assert_eq!(plain.category(cat), with.category(cat));
        }
        assert_eq!(plain.latency_totals(), with.latency_totals());
        let placed: u64 = Category::ALL.iter().map(|&c| with.category(c).total()).sum();
        assert_eq!(observed, placed);
    }

    #[test]
    fn latency_recorded_for_every_outcome() {
        let img = image();
        let c = Campaign::new(RunConfig::technique(TechniqueKind::EdgCf), 120);
        let r = c.run(&img).unwrap();
        for cat in Category::ALL {
            let s = r.category(cat);
            let per_outcome = [
                (s.detected_check, Outcome::DetectedByCheck),
                (s.detected_hw, Outcome::DetectedByHw),
                (s.other_fault, Outcome::OtherFault),
                (s.benign, Outcome::Benign),
                (s.sdc, Outcome::Sdc),
                (s.timeout, Outcome::Timeout),
            ];
            for (tally, o) in per_outcome {
                assert_eq!(
                    r.latency_hist(cat, o).count(),
                    tally,
                    "histogram count must match tally for {cat} / {o}"
                );
            }
        }
    }

    #[test]
    fn fast_forward_shard_matches_scratch_shard() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let c = Campaign::new(cfg, 128);
        let (golden, snaps) = crate::snapshot::SnapshotSet::capture(&img, &cfg).unwrap();
        let mut placed = 0;
        for shard in 0..c.num_shards() {
            let scratch = c.run_shard(&img, &golden, shard).unwrap();
            let fast = c.run_shard_with(&img, &golden, Some(&snaps), shard, |_, _| {}).unwrap();
            placed += Category::ALL.iter().map(|&c| fast.category(c).total()).sum::<u64>();
            for cat in Category::ALL {
                assert_eq!(scratch.category(cat), fast.category(cat), "shard {shard}");
            }
            assert_eq!(scratch.skipped, fast.skipped);
            for cat in Category::ALL {
                for o in Outcome::ALL {
                    assert_eq!(scratch.latency_hist(cat, o), fast.latency_hist(cat, o));
                }
            }
        }
        let stats = snaps.stats();
        assert!(stats.restores > 0, "fast path must actually restore checkpoints");
        assert!(stats.branches_fast_forwarded > stats.branches_stepped);
        // Bursts stop in front of the strike branch, so a fast-path trial
        // single-steps at most its faulted instruction.
        assert!(stats.insts_stepped <= placed, "{} stepped, {placed} placed", stats.insts_stepped);
        // Trials run on native code where it runs.
        assert_eq!(stats.insts_native > 0, cfed_dbt::native_enabled(), "{stats:?}");
        assert_eq!(stats.native_compiles > 0, cfed_dbt::native_enabled(), "{stats:?}");
    }

    #[test]
    fn shard_trials_partition_the_campaign() {
        let c = Campaign::new(RunConfig::baseline(), 150);
        assert_eq!(c.num_shards(), 3);
        let total: u64 = (0..c.num_shards()).map(|s| c.shard_trials(s)).sum();
        assert_eq!(total, 150);
        // Seeds are pairwise distinct and depend only on (seed, index).
        assert_ne!(c.shard_seed(0), c.shard_seed(1));
        assert_eq!(c.shard_seed(2), Campaign::new(RunConfig::baseline(), 999).shard_seed(2));
    }

    #[test]
    fn run_with_golden_matches_run() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::Ecf);
        let c = Campaign::new(cfg, 70);
        let golden = crate::inject::golden_run(&img, &cfg).unwrap();
        let a = c.run(&img).unwrap();
        let b = c.run_with_golden(&img, &golden, None).unwrap();
        for cat in Category::ALL {
            assert_eq!(a.category(cat), b.category(cat));
        }

        let sweep = ExhaustiveSweep::new(cfg, 2);
        let a = sweep.run(&img).unwrap();
        let b = sweep.run_with_golden(&img, &golden, None).unwrap();
        for cat in Category::ALL {
            assert_eq!(a.category(cat), b.category(cat));
        }
    }
}
