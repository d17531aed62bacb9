//! The worker pool: executes a campaign matrix's shards on `std::thread`
//! workers, checkpointing each finished shard to the JSONL store.
//!
//! Workers pop [`ShardTask`]s from a shared queue and send results over a
//! channel to the main thread, which is the store's single writer. Each
//! worker keeps its own compiled-image cache, while golden runs — and the
//! fast-forward [`SnapshotSet`]s captured alongside them — live in one
//! pool-wide cache keyed on the cell's golden identity, so every worker
//! shares a single translated code cache per `(image, config)` instead of
//! re-golden-running per thread. Shard panics and fault-free-run failures
//! are caught and recorded as failed shards (retried on a later resume)
//! instead of taking the pool down.
//!
//! Determinism: a shard's tallies depend only on `(cell, shard index)` —
//! see [`crate::matrix`] — so the merged per-cell reports are bit-identical
//! to the serial [`cfed_fault::Campaign::run`] path for any thread count.

use std::collections::{BTreeMap, HashMap};
use std::io::IsTerminal as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cfed_asm::Image;
use cfed_core::{profile_dbt, RunConfig};
use cfed_fault::{
    golden_run, AttackForensics, AttackSpec, CampaignReport, FaultSpec, ForensicsBundle, Golden,
    SnapshotSet, SnapshotStats, WorkloadError, DEFAULT_TRACE_WINDOW,
};
use cfed_telemetry::{Event, EventSink, FlightRecorder, Profile, Telemetry};

use crate::json::Json;
use crate::matrix::{CampaignMatrix, CellSpec, ShardTask};
use crate::retry::RetryPolicy;
use crate::store::{CampaignStore, ShardTallies, StoreHeader};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Stop after executing this many shards (in addition to any already
    /// persisted). Used by tests to simulate a killed run; `None` runs to
    /// completion.
    pub max_shards: Option<usize>,
    /// Print per-shard progress to stderr.
    pub progress: bool,
    /// Suppress all stderr progress output (per-shard lines and the live
    /// status line; failures are still reported).
    pub quiet: bool,
    /// Structured-event handle. Disabled by default; when a sink is
    /// attached the pool emits `shard_done` / `shard_failed` / `run_done`
    /// events and any forensics bundles.
    pub telemetry: Telemetry,
    /// Re-inject SDC / timeout / misdetection trials with a tracer
    /// attached and emit the forensics bundles as telemetry events.
    pub forensics: bool,
    /// Capture golden-run snapshots and fast-forward injections through
    /// them (the default). Disable to force every trial to replay its
    /// fault-free prefix from scratch — outcomes are identical either way.
    pub snapshots: bool,
    /// Bounded retry with backoff for failed shards — the same policy (and
    /// config type) `cfed-serve` applies to expired or failed leases. Each
    /// failed attempt is reported via `shard_failed` telemetry; only the
    /// final outcome reaches the store.
    pub retry: RetryPolicy,
    /// Collect a per-cell execution profile (payload vs instrumentation
    /// cycle attribution, [`cfed_core::profile_dbt`]) alongside each cell's
    /// golden run and persist it as an idempotent store record. Off by
    /// default: a profile costs one extra full run of the workload per
    /// cell.
    pub profile: bool,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            threads: 0,
            max_shards: None,
            progress: false,
            quiet: false,
            telemetry: Telemetry::off(),
            forensics: false,
            snapshots: true,
            retry: RetryPolicy::default(),
            profile: false,
        }
    }
}

/// The live stderr status line (`done/total | shards/s | ETA`).
///
/// Shown only when stderr is a terminal — redirected runs get the plain
/// per-shard lines behind `RunnerOptions::progress` instead — and colored
/// only when `NO_COLOR` is unset (per the no-color convention, any
/// non-empty value disables color). Progress writes exclusively to stderr;
/// the result store has its own dedicated file writer, so progress output
/// can never interleave with store records.
struct ProgressLine {
    live: bool,
    color: bool,
    start: Instant,
    open: bool,
}

impl ProgressLine {
    fn new(quiet: bool) -> ProgressLine {
        let live = !quiet && std::io::stderr().is_terminal();
        let color = live && std::env::var_os("NO_COLOR").is_none_or(|v| v.is_empty());
        ProgressLine { live, color, start: Instant::now(), open: false }
    }

    fn update(&mut self, done: usize, failed: usize, total: usize) {
        if !self.live {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
        let eta = if rate > 0.0 {
            format!("{}s", ((total.saturating_sub(done)) as f64 / rate).round() as u64)
        } else {
            "?".to_string()
        };
        let failures = if failed > 0 { format!(", {failed} failed") } else { String::new() };
        let body = format!(
            "cfed-runner: {done}/{total} shards{failures} | {rate:.1} shards/s | ETA {eta}"
        );
        if self.color {
            eprint!("\r\x1b[2K\x1b[36m{body}\x1b[0m");
        } else {
            eprint!("\r{body:<78}");
        }
        self.open = true;
    }

    /// Clears the live line so a regular stderr message starts on a clean
    /// column.
    fn clear(&mut self) {
        if self.open {
            if self.color {
                eprint!("\r\x1b[2K");
            } else {
                eprint!("\r{:<78}\r", "");
            }
            self.open = false;
        }
    }

    fn finish(&mut self) {
        if self.open {
            eprintln!();
            self.open = false;
        }
    }
}

impl RunnerOptions {
    /// The worker count a pool will actually use: `threads` capped at
    /// `std::thread::available_parallelism()` (oversubscribing a CPU-bound
    /// pool only adds scheduler churn, and recorded host metadata must
    /// never claim more resolved workers than the host has CPUs), or
    /// available parallelism itself when `threads` is `0`.
    pub fn resolved_threads(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.threads > 0 {
            return self.threads.min(cores);
        }
        cores
    }
}

/// Maps `0..n` through `f` on a scoped worker pool and returns the results
/// in index order, exactly as `(0..n).map(f).collect()` would.
///
/// `threads == 0` resolves to `std::thread::available_parallelism()`; the
/// worker count is additionally capped at `n`. With one worker (or `n <= 1`)
/// the map runs inline on the caller's thread. Workers claim indices from a
/// shared atomic counter, so scheduling is dynamic, but results are placed
/// by index — callers observe a deterministic, order-independent `Vec`.
///
/// This is the shared harness the `fig*` reproduction binaries use to fan
/// per-workload analyses out across cores while keeping their printed
/// figures byte-identical to a serial run.
///
/// # Panics
///
/// Panics if `f` panics on any index (the panic is propagated).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = RunnerOptions { threads, ..Default::default() }.resolved_threads().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, v) in rx {
            out[i] = Some(v);
        }
        // A missing slot means a worker died before sending; scope join
        // propagates its panic before we can get here, so every index is
        // present.
        out.into_iter().map(|v| v.expect("every index produced")).collect()
    })
}

/// Result of one cell after the run.
#[derive(Debug)]
pub struct CellResult {
    /// Index into the matrix's cell list.
    pub cell: usize,
    /// The cell's identity key.
    pub key: String,
    /// Merged report over the cell's completed shards, `None` if the cell's
    /// golden run failed (e.g. the workload traps under this configuration).
    pub report: Option<CampaignReport>,
    /// Completed shards.
    pub done_shards: u64,
    /// Total shards in the cell.
    pub total_shards: u64,
    /// Error messages of failed shards (panics, golden failures).
    pub failures: Vec<String>,
}

impl CellResult {
    /// Whether every shard of the cell completed.
    pub fn complete(&self) -> bool {
        self.done_shards == self.total_shards
    }
}

/// Throughput and fast-forward statistics for one pool invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunPerf {
    /// Wall-clock time of the invocation.
    pub wall_ms: u64,
    /// Injection trials executed (excludes resumed shards).
    pub executed_trials: u64,
    /// `executed_trials` per wall-clock second.
    pub trials_per_sec: f64,
    /// Whether fast-forward snapshots were enabled.
    pub snapshots_enabled: bool,
    /// Aggregated snapshot shape / usage counters across the run's cells.
    pub snapshots: SnapshotStats,
}

/// Result of a pool run over a matrix.
#[derive(Debug)]
pub struct RunSummary {
    /// One entry per matrix cell, in matrix cell order.
    pub cells: Vec<CellResult>,
    /// Shards executed by this invocation.
    pub executed_shards: u64,
    /// Shards skipped because the store already held their results.
    pub resumed_shards: u64,
    /// Failed shard attempts that were retried under the retry policy
    /// (counts attempts, not shards; a shard retried twice counts 2).
    pub retried_attempts: u64,
    /// Throughput and snapshot statistics for this invocation.
    pub perf: RunPerf,
}

impl RunSummary {
    /// Whether every cell completed all shards.
    pub fn complete(&self) -> bool {
        self.cells.iter().all(CellResult::complete)
    }

    /// Looks up a completed cell's report by workload key and configuration.
    pub fn report_for(&self, cell_key: &str) -> Option<&CampaignReport> {
        self.cells.iter().find(|c| c.key == cell_key).and_then(|c| c.report.as_ref())
    }
}

enum ShardOutcome {
    Ok(Box<ShardTallies>),
    Failed(String),
}

struct ShardDone {
    task: ShardTask,
    key: String,
    outcome: ShardOutcome,
    /// Errors of failed attempts that preceded `outcome` (bounded retry).
    attempt_errors: Vec<String>,
    /// The cell's golden run, sent with the first shard a worker completes
    /// for a cell so the main thread can build reports without recomputing.
    golden: Option<Golden>,
    /// The cell's execution profile (when profiling is enabled); the main
    /// thread persists it once per cell.
    profile: Option<Arc<Profile>>,
    /// Serialized forensics bundles captured for this shard.
    forensics: Vec<Json>,
    /// Trials that warranted a bundle (may exceed `forensics.len()` when
    /// the per-shard cap truncated the captures).
    forensics_wanted: u64,
}

/// Per-worker cache of compiled images, keyed by the workload identity
/// string (compilation is cheap; sharing it across threads isn't worth a
/// lock on the hot path).
#[derive(Default)]
struct WorkerCache {
    images: HashMap<String, Arc<Image>>,
}

impl WorkerCache {
    fn image(&mut self, cell: &CellSpec) -> Result<Arc<Image>, String> {
        let key = cell.workload.key();
        if let Some(img) = self.images.get(&key) {
            return Ok(Arc::clone(img));
        }
        let img = Arc::new(cell.workload.image()?);
        self.images.insert(key, Arc::clone(&img));
        Ok(img)
    }
}

/// A cell's golden run plus the snapshot set captured alongside it
/// (`None` when snapshots are disabled) and, under `--profile`, the cell's
/// execution profile. Shared read-only by every worker draining that
/// cell's shards.
#[derive(Clone)]
struct PreparedGolden {
    golden: Arc<Golden>,
    snapshots: Option<Arc<SnapshotSet>>,
    /// Execution profile of the cell's fault-free run (`None` when
    /// profiling is disabled). Deterministic in `(workload, config)`.
    profile: Option<Arc<Profile>>,
}

/// Pool-wide golden cache, keyed by [`CellSpec::golden_key`]. One golden
/// run (and one translated code cache, inside the snapshot set) serves
/// every worker and every shard of a cell. Failures are cached too, so a
/// cell whose fault-free run traps fails each shard fast instead of
/// re-running the program per shard.
///
/// Public so `cfed-serve` worker processes share one cache across their
/// executor threads exactly as the in-process pool does.
pub struct GoldenCache {
    snapshots_enabled: bool,
    profile_enabled: bool,
    prepared: Mutex<HashMap<String, Result<PreparedGolden, String>>>,
}

impl GoldenCache {
    /// An empty cache; `snapshots_enabled` decides whether prepared
    /// goldens carry fast-forward snapshot sets, `profile_enabled` whether
    /// they carry execution profiles.
    pub fn new(snapshots_enabled: bool, profile_enabled: bool) -> GoldenCache {
        GoldenCache { snapshots_enabled, profile_enabled, prepared: Mutex::new(HashMap::new()) }
    }

    fn get(&self, cell: &CellSpec, image: &Image) -> Result<PreparedGolden, String> {
        let key = cell.golden_key();
        if let Some(hit) = self.prepared.lock().expect("golden cache poisoned").get(&key) {
            return hit.clone();
        }
        // Computed outside the lock: two workers may race on a fresh key,
        // but the first insert wins and both use the same prepared golden.
        let computed =
            prepare_golden(image, &cell.config, self.snapshots_enabled, self.profile_enabled);
        let mut map = self.prepared.lock().expect("golden cache poisoned");
        map.entry(key).or_insert(computed).clone()
    }

    /// Aggregated stats over every successfully prepared snapshot set.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let map = self.prepared.lock().expect("golden cache poisoned");
        let mut stats = SnapshotStats::default();
        for prepared in map.values().filter_map(|r| r.as_ref().ok()) {
            if let Some(set) = &prepared.snapshots {
                stats.absorb(&set.stats());
            }
        }
        stats
    }
}

/// Result of executing one work unit (one shard of one cell).
pub struct UnitRun {
    /// The shard's persisted tallies, or the failure message.
    pub tallies: Result<Box<ShardTallies>, String>,
    /// The cell's golden run, when it was computable (present even for
    /// shard-level failures so callers can still assemble partial reports).
    pub golden: Option<Golden>,
    /// The cell's execution profile, when the shared cache collects them
    /// (every unit of a cell carries the same `Arc`'d profile; the store
    /// writer persists it once per cell).
    pub profile: Option<Arc<Profile>>,
    /// Serialized forensics bundles captured for this unit.
    pub forensics: Vec<Json>,
    /// Trials that warranted a bundle (may exceed `forensics.len()` when
    /// the per-unit cap truncated the captures).
    pub forensics_wanted: u64,
}

/// Executes single work units against a shared [`GoldenCache`] — the unit
/// extraction the worker pool and the `cfed-serve` worker processes share.
/// One executor per thread; the image cache inside is thread-local, the
/// golden/snapshot cache is whatever the caller shares.
pub struct UnitExecutor {
    cache: WorkerCache,
    goldens: Arc<GoldenCache>,
    forensics: bool,
}

impl UnitExecutor {
    /// An executor over `goldens`; `forensics` re-injects interesting
    /// trials with a tracer and captures bundles.
    pub fn new(goldens: Arc<GoldenCache>, forensics: bool) -> UnitExecutor {
        UnitExecutor { cache: WorkerCache::default(), goldens, forensics }
    }

    /// Runs shard `shard_index` of `cell`. Deterministic in
    /// `(cell, shard_index)`: any executor on any host produces identical
    /// tallies. Panics inside the unit are caught and surface as `Err`.
    pub fn run(&mut self, cell: &CellSpec, shard_index: u64) -> UnitRun {
        let run = run_shard(&mut self.cache, &self.goldens, cell, shard_index, self.forensics);
        let tallies = match run.outcome {
            ShardOutcome::Ok(tallies) => Ok(tallies),
            ShardOutcome::Failed(e) => Err(e),
        };
        UnitRun {
            tallies,
            golden: run.golden,
            profile: run.profile,
            forensics: run.forensics,
            forensics_wanted: run.forensics_wanted,
        }
    }

    /// As [`UnitExecutor::run`], retrying failed attempts under `policy`
    /// (sleeping the policy's backoff between attempts). Returns the final
    /// outcome plus the errors of every failed attempt that preceded it.
    pub fn run_with_retry(
        &mut self,
        cell: &CellSpec,
        shard_index: u64,
        policy: &RetryPolicy,
    ) -> (UnitRun, Vec<String>) {
        let mut attempt_errors = Vec::new();
        loop {
            let run = self.run(cell, shard_index);
            match &run.tallies {
                Ok(_) => return (run, attempt_errors),
                Err(e) => {
                    let attempts = attempt_errors.len() as u32 + 1;
                    if !policy.allows(attempts) {
                        return (run, attempt_errors);
                    }
                    attempt_errors.push(e.clone());
                    std::thread::sleep(policy.backoff(attempts));
                }
            }
        }
    }
}

fn prepare_golden(
    image: &Image,
    config: &RunConfig,
    snapshots: bool,
    profile: bool,
) -> Result<PreparedGolden, String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut prepared = if snapshots {
            SnapshotSet::capture(image, config).map(|(golden, set)| PreparedGolden {
                golden: Arc::new(golden),
                snapshots: Some(Arc::new(set)),
                profile: None,
            })?
        } else {
            golden_run(image, config).map(|golden| PreparedGolden {
                golden: Arc::new(golden),
                snapshots: None,
                profile: None,
            })?
        };
        if profile {
            // One extra fault-free run with the execution profiler
            // attached; deterministic, so every worker racing on this key
            // computes the identical profile.
            prepared.profile = Some(Arc::new(profile_dbt(image, config).1));
        }
        Ok::<_, WorkloadError>(prepared)
    }));
    match run {
        Ok(Ok(prepared)) => Ok(prepared),
        Ok(Err(e)) => Err(format!("golden run failed: {e}")),
        Err(e) => Err(format!("golden run panicked: {}", panic_message(&e))),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Forensics bundles captured per shard are capped: a configuration with
/// rampant SDC (e.g. the uninstrumented baseline) would otherwise
/// re-inject hundreds of traced runs per shard. The wanted total rides
/// along in each bundle's event, so truncation is visible.
const MAX_FORENSICS_PER_SHARD: usize = 8;

/// Flight-recorder window: the recent events attached to each forensics
/// bundle event (enough context to see the shards and retries leading up
/// to an SDC/timeout without unbounded history).
const FLIGHT_WINDOW: usize = 64;

struct ShardRun {
    outcome: ShardOutcome,
    golden: Option<Golden>,
    profile: Option<Arc<Profile>>,
    forensics: Vec<Json>,
    forensics_wanted: u64,
}

/// Trials of one shard that warranted a forensics capture — fault specs
/// for classic cells, attack specs for attack cells. Either way the
/// capture criterion is [`ForensicsBundle::wanted`].
enum WantedSpecs {
    Faults(Vec<FaultSpec>),
    Attacks(Vec<AttackSpec>),
}

impl WantedSpecs {
    fn len(&self) -> usize {
        match self {
            WantedSpecs::Faults(v) => v.len(),
            WantedSpecs::Attacks(v) => v.len(),
        }
    }
}

fn run_shard(
    cache: &mut WorkerCache,
    goldens: &GoldenCache,
    cell: &CellSpec,
    shard_index: u64,
    forensics: bool,
) -> ShardRun {
    let failed = |message: String, golden: Option<Golden>| ShardRun {
        outcome: ShardOutcome::Failed(message),
        golden,
        profile: None,
        forensics: Vec::new(),
        forensics_wanted: 0,
    };
    let image = match cache.image(cell) {
        Ok(img) => img,
        Err(e) => return failed(e, None),
    };
    let prepared = match goldens.get(cell, &image) {
        Ok(p) => p,
        Err(e) => return failed(e, None),
    };
    let PreparedGolden { golden, snapshots, profile } = prepared;
    let snaps = snapshots.as_deref();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(attack) = cell.attack_campaign() {
            let mut wanted: Vec<AttackSpec> = Vec::new();
            let report =
                attack.run_shard_with(&image, &golden, snaps, shard_index, |spec, r| {
                    if forensics && ForensicsBundle::wanted(r) {
                        wanted.push(spec);
                    }
                })?;
            return Ok::<_, WorkloadError>((report, WantedSpecs::Attacks(wanted)));
        }
        let mut wanted: Vec<FaultSpec> = Vec::new();
        let report =
            cell.campaign().run_shard_with(&image, &golden, snaps, shard_index, |spec, r| {
                if forensics && ForensicsBundle::wanted(r) {
                    wanted.push(spec);
                }
            })?;
        Ok::<_, WorkloadError>((report, WantedSpecs::Faults(wanted)))
    }));
    match result {
        Ok(Ok((report, wanted))) => {
            let bundles = match &wanted {
                WantedSpecs::Faults(specs) => specs
                    .iter()
                    .take(MAX_FORENSICS_PER_SHARD)
                    .filter_map(|&spec| {
                        ForensicsBundle::capture_with(
                            &image,
                            &cell.config,
                            spec,
                            &golden,
                            DEFAULT_TRACE_WINDOW,
                            snaps,
                        )
                    })
                    .map(|b| b.to_json())
                    .collect(),
                WantedSpecs::Attacks(specs) => specs
                    .iter()
                    .take(MAX_FORENSICS_PER_SHARD)
                    .filter_map(|&spec| {
                        AttackForensics::capture_with(
                            &image,
                            &cell.config,
                            spec,
                            &golden,
                            DEFAULT_TRACE_WINDOW,
                            snaps,
                        )
                    })
                    .map(|b| b.to_json())
                    .collect(),
            };
            ShardRun {
                outcome: ShardOutcome::Ok(Box::new(ShardTallies::from_report(&report))),
                golden: Some((*golden).clone()),
                profile,
                forensics: bundles,
                forensics_wanted: wanted.len() as u64,
            }
        }
        Ok(Err(e)) => failed(format!("shard failed: {e}"), Some((*golden).clone())),
        Err(e) => failed(format!("shard panicked: {}", panic_message(&e)), Some((*golden).clone())),
    }
}

/// Runs (or resumes) a campaign matrix.
///
/// With a `store_path`, every finished shard is checkpointed to the JSONL
/// file there and persisted shards from a previous invocation are loaded
/// rather than re-executed; with `None` the run is ephemeral (pool only).
/// Returns the per-cell merged reports.
pub fn run_matrix(
    matrix: &CampaignMatrix,
    run_id: &str,
    store_path: Option<&Path>,
    options: &RunnerOptions,
) -> Result<RunSummary, String> {
    let run_timer = Instant::now();
    let cells = matrix.cells();
    let all_shards = CampaignMatrix::shards(&cells);
    let header = StoreHeader {
        run_id: run_id.to_string(),
        seed: matrix.seed,
        trials: matrix.trials,
        shard_trials: CampaignMatrix::shard_trials(),
        digest: CampaignMatrix::digest(&cells),
        total_shards: all_shards.len() as u64,
    };
    let mut store = match store_path {
        Some(path) => CampaignStore::open(path, &header)?,
        None => CampaignStore::in_memory(),
    };

    let mut pending: Vec<ShardTask> =
        all_shards.iter().copied().filter(|t| !store.done.contains_key(&t.key(&cells))).collect();
    let resumed_shards = (all_shards.len() - pending.len()) as u64;
    if let Some(max) = options.max_shards {
        pending.truncate(max);
    }
    let to_run = pending.len();
    let executed_trials: u64 =
        pending.iter().map(|t| cells[t.cell].campaign().shard_trials(t.shard_index)).sum();

    // Cell goldens observed during this run (from workers) — saves the
    // main thread recomputing them for report assembly.
    let mut goldens: BTreeMap<usize, Golden> = BTreeMap::new();
    let golden_cache = Arc::new(GoldenCache::new(options.snapshots, options.profile));
    let mut retried_attempts = 0u64;

    // The always-on flight recorder tees in front of the configured sink
    // (or stands alone when telemetry is off), so anomaly paths can attach
    // the recent-event window without changing what downstream sees.
    let flight = Arc::new(match options.telemetry.sink() {
        Some(inner) => FlightRecorder::tee(FLIGHT_WINDOW, inner),
        None => FlightRecorder::new(FLIGHT_WINDOW),
    });
    let telemetry = Telemetry::to(Arc::clone(&flight) as Arc<dyn EventSink>);

    let threads = options.resolved_threads().min(to_run.max(1)).max(1);
    if to_run > 0 {
        let queue = Mutex::new(pending.into_iter().collect::<std::collections::VecDeque<_>>());
        let (tx, rx) = mpsc::channel::<ShardDone>();
        let cells_ref = &cells;
        let queue_ref = &queue;
        let golden_cache_ref = &golden_cache;
        let forensics_on = options.forensics;
        let retry = options.retry;
        std::thread::scope(|scope| -> Result<(), String> {
            for _ in 0..threads {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut executor =
                        UnitExecutor::new(Arc::clone(golden_cache_ref), forensics_on);
                    loop {
                        let task = match queue_ref.lock().expect("queue poisoned").pop_front() {
                            Some(t) => t,
                            None => break,
                        };
                        let cell = &cells_ref[task.cell];
                        let (run, attempt_errors) =
                            executor.run_with_retry(cell, task.shard_index, &retry);
                        let outcome = match run.tallies {
                            Ok(tallies) => ShardOutcome::Ok(tallies),
                            Err(e) => ShardOutcome::Failed(e),
                        };
                        let done = ShardDone {
                            task,
                            key: task.key(cells_ref),
                            outcome,
                            attempt_errors,
                            golden: run.golden,
                            profile: run.profile,
                            forensics: run.forensics,
                            forensics_wanted: run.forensics_wanted,
                        };
                        if tx.send(done).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            // Main thread: single store writer, checkpointing as results land.
            let mut progress = ProgressLine::new(options.quiet);
            let mut received = 0usize;
            let mut failed = 0usize;
            for done in rx {
                received += 1;
                let ShardDone {
                    task,
                    key,
                    outcome,
                    attempt_errors,
                    golden,
                    profile,
                    forensics,
                    forensics_wanted,
                } = done;
                if let (Some(g), false) = (golden, goldens.contains_key(&task.cell)) {
                    goldens.insert(task.cell, g);
                }
                if let Some(p) = profile {
                    // Idempotent: only the first shard of a cell (and only
                    // on a run that doesn't already hold the record) writes.
                    let cell_key = cells_ref[task.cell].key();
                    if store.append_profile(&cell_key, &p)? {
                        telemetry.emit_with(|| {
                            let t = p.totals();
                            Event::new("profile")
                                .str("cell", &cell_key)
                                .u64("blocks", p.num_blocks() as u64)
                                .u64("payload_cycles", t.payload)
                                .u64("instr_cycles", t.instr())
                                .u64("other_cycles", t.other)
                        });
                    }
                }
                let done_attempts = attempt_errors.len() as u64 + 1;
                // Failed attempts that were retried: visible in telemetry
                // (one shard_failed per attempt), never in the store.
                for (attempt, err) in attempt_errors.iter().enumerate() {
                    retried_attempts += 1;
                    telemetry.emit_with(|| {
                        Event::new("shard_failed")
                            .str("shard", &key)
                            .str("error", err)
                            .u64("attempt", attempt as u64 + 1)
                            .u64("retried", 1)
                    });
                    if options.progress && !options.quiet {
                        progress.clear();
                        eprintln!(
                            "cfed-runner: shard {key} attempt {} failed, retrying: {err}",
                            attempt + 1
                        );
                    }
                }
                match outcome {
                    ShardOutcome::Ok(tallies) => {
                        if let Some(kind) = cells_ref[task.cell].attack {
                            // Attack cells additionally report per-outcome
                            // counters: the raw material of the detection
                            // frontier, queryable live from the event plane.
                            let mut sums = [0u64; 6];
                            for s in &tallies.stats {
                                sums[0] += s.detected_check;
                                sums[1] += s.detected_hw;
                                sums[2] += s.other_fault;
                                sums[3] += s.benign;
                                sums[4] += s.sdc;
                                sums[5] += s.timeout;
                            }
                            let skipped = tallies.skipped;
                            telemetry.emit_with(|| {
                                Event::new("attack_outcomes")
                                    .str("shard", &key)
                                    .str("attack", kind.name())
                                    .u64("detected_check", sums[0])
                                    .u64("detected_hw", sums[1])
                                    .u64("other_fault", sums[2])
                                    .u64("benign", sums[3])
                                    .u64("sdc", sums[4])
                                    .u64("timeout", sums[5])
                                    .u64("unplaced", skipped)
                            });
                        }
                        store.append_ok(&key, *tallies)?;
                        telemetry.emit_with(|| {
                            Event::new("shard_done")
                                .str("shard", &key)
                                .u64("done", received as u64)
                                .u64("of", to_run as u64)
                        });
                        if options.progress && !options.quiet {
                            progress.clear();
                            eprintln!("cfed-runner: [{received}/{to_run}] {key}");
                        }
                    }
                    ShardOutcome::Failed(err) => {
                        failed += 1;
                        store.append_failed(&key, &err)?;
                        telemetry.emit_with(|| {
                            Event::new("shard_failed")
                                .str("shard", &key)
                                .str("error", &err)
                                .u64("attempt", done_attempts)
                        });
                        progress.clear();
                        eprintln!(
                            "cfed-runner: shard {key} FAILED after {done_attempts} attempt(s): {err}"
                        );
                    }
                }
                let bundle_kind = if cells_ref[task.cell].attack.is_some() {
                    "attack_forensics"
                } else {
                    "forensics"
                };
                for bundle in forensics {
                    // SDC/timeout forensics carry the flight-recorder
                    // window: the recent events leading up to the anomaly.
                    // Emitted past the recorder (straight to the configured
                    // sink) so windows never nest inside later windows.
                    options.telemetry.emit_with(|| {
                        Event::new(bundle_kind)
                            .str("shard", &key)
                            .u64("wanted", forensics_wanted)
                            .json("bundle", bundle)
                            .u64("flight_dropped", flight.dropped())
                            .json("window", flight.recent_json())
                    });
                }
                progress.update(received, failed, to_run);
            }
            progress.finish();
            Ok(())
        })?;
    }

    let wall_s = run_timer.elapsed().as_secs_f64();
    let wall_ms = u64::try_from(run_timer.elapsed().as_millis()).unwrap_or(u64::MAX);
    let trials_per_sec = if wall_s > 0.0 { executed_trials as f64 / wall_s } else { 0.0 };
    let perf = RunPerf {
        wall_ms,
        executed_trials,
        trials_per_sec,
        snapshots_enabled: options.snapshots,
        snapshots: golden_cache.snapshot_stats(),
    };
    store.append_meta(
        "run",
        vec![
            ("run_id", Json::Str(run_id.to_string())),
            ("executed", Json::UInt(to_run as u64)),
            ("resumed", Json::UInt(resumed_shards)),
            ("threads", Json::UInt(threads as u64)),
            ("wall_ms", Json::UInt(wall_ms)),
        ],
    )?;
    telemetry.emit_with(|| {
        Event::new("run_done")
            .str("run_id", run_id)
            .u64("executed", to_run as u64)
            .u64("resumed", resumed_shards)
            .u64("retried", retried_attempts)
            .u64("threads", threads as u64)
            .u64("wall_ms", wall_ms)
            .u64("flight_recorded", flight.recorded())
            .u64("flight_dropped", flight.dropped())
    });
    telemetry.emit_with(|| {
        // No float type in the event subset: the rate rides as millitrials
        // per second (trials_per_sec × 1000).
        Event::new("campaign_perf")
            .str("run_id", run_id)
            .u64("wall_ms", perf.wall_ms)
            .u64("executed_trials", perf.executed_trials)
            .u64("trials_per_sec_milli", (perf.trials_per_sec * 1000.0).round() as u64)
            .u64("snapshots_enabled", u64::from(perf.snapshots_enabled))
            .u64("snapshot_sets", perf.snapshots.snapshot_sets)
            .u64("snapshots_held", perf.snapshots.snapshots)
            .u64("snapshot_bytes", perf.snapshots.bytes)
            .u64("restores", perf.snapshots.restores)
            .u64("misses", perf.snapshots.misses)
            .u64("branches_fast_forwarded", perf.snapshots.branches_fast_forwarded)
            .u64("branches_stepped", perf.snapshots.branches_stepped)
            .u64("benign_pruned", perf.snapshots.benign_pruned)
            .u64("insts_fused", perf.snapshots.insts_fused)
            .u64("insts_stepped", perf.snapshots.insts_stepped)
    });

    let mut cell_results = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        cell_results.push(assemble_cell(index, cell, &store, goldens.get(&index)));
    }
    Ok(RunSummary {
        cells: cell_results,
        executed_shards: to_run as u64,
        resumed_shards,
        retried_attempts,
        perf,
    })
}

/// Merges a cell's persisted shard tallies into one report, in shard-index
/// order (any order gives identical tallies; fixed order keeps it obvious).
fn assemble_cell(
    index: usize,
    cell: &CellSpec,
    store: &CampaignStore,
    observed_golden: Option<&Golden>,
) -> CellResult {
    let total_shards = cell.num_shards();
    let cell_key = cell.key();
    let mut failures: Vec<String> = store
        .failed
        .iter()
        .filter(|(k, _)| k.rsplit_once('#').map(|(c, _)| c) == Some(cell_key.as_str()))
        .map(|(k, e)| format!("{k}: {e}"))
        .collect();

    let mut done: Vec<(u64, ShardTallies)> = Vec::new();
    for shard_index in 0..total_shards {
        let key = format!("{cell_key}#{shard_index}");
        if let Some(t) = store.done.get(&key) {
            done.push((shard_index, t.clone()));
        }
    }
    if done.is_empty() {
        return CellResult {
            cell: index,
            key: cell_key,
            report: None,
            done_shards: 0,
            total_shards,
            failures,
        };
    }

    // A fully-resumed cell has tallies but no golden from this run's
    // workers; recompute it here (cheap relative to a campaign — report
    // assembly needs only the golden, not snapshots).
    let golden = match observed_golden.cloned() {
        Some(g) => Some(g),
        None => match cell
            .workload
            .image()
            .and_then(|img| prepare_golden(&img, &cell.config, false, false))
            .map(|p| (*p.golden).clone())
        {
            Ok(g) => Some(g),
            Err(e) => {
                failures.push(format!("{cell_key}: {e}"));
                None
            }
        },
    };
    let report = golden.map(|g| {
        let mut report = CampaignReport::new(g.clone());
        for (_, tallies) in &done {
            report.merge(&tallies.to_report(g.clone()));
        }
        report
    });
    CellResult {
        cell: index,
        key: cell_key,
        report,
        done_shards: done.len() as u64,
        total_shards,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::WorkloadSpec;
    use cfed_core::TechniqueKind;
    use cfed_dbt::{CheckPolicy, UpdateStyle};

    const PROGRAM: &str = r#"
        fn main() {
            let i = 0;
            let acc = 3;
            while (i < 30) {
                if (i % 3 == 0) { acc = acc * 2 + 1; } else { acc = acc + i; }
                i = i + 1;
            }
            out(acc);
        }
    "#;

    fn tiny_matrix(trials: u64, seed: u64) -> CampaignMatrix {
        CampaignMatrix {
            workloads: vec![WorkloadSpec::inline("tiny", PROGRAM)],
            techniques: vec![None, Some(TechniqueKind::EdgCf), Some(TechniqueKind::Rcf)],
            styles: vec![UpdateStyle::Jcc],
            policies: vec![CheckPolicy::AllBb],
            trials,
            seed,
            attacks: vec![None],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cfed-pool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("run.jsonl")
    }

    #[test]
    fn parallel_map_is_in_order_and_complete() {
        for threads in [0usize, 1, 2, 7] {
            for n in [0usize, 1, 2, 5, 64] {
                let got = parallel_map(n, threads, |i| i * i + 1);
                let want: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
                assert_eq!(got, want, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn parallel_matches_serial_campaign() {
        use cfed_core::Category;
        for seed in [0u64, 1, 0xCFED_2006] {
            let matrix = tiny_matrix(150, seed);
            let path = tmp(&format!("eq-{seed}"));
            let options = RunnerOptions { threads: 4, ..Default::default() };
            let summary = run_matrix(&matrix, "eq", Some(&path), &options).unwrap();
            assert!(summary.complete());
            for (cell, result) in matrix.cells().iter().zip(&summary.cells) {
                let image = cell.workload.image().unwrap();
                let serial = cell.campaign().run(&image).unwrap();
                let parallel = result.report.as_ref().expect("cell completed");
                for c in Category::ALL {
                    assert_eq!(
                        serial.category(c),
                        parallel.category(c),
                        "seed {seed}, {}",
                        result.key
                    );
                }
                assert_eq!(serial.skipped, parallel.skipped);
                assert_eq!(serial.latency_totals(), parallel.latency_totals());
                assert_eq!(serial.golden, parallel.golden);
            }
        }
    }

    #[test]
    fn resume_skips_persisted_shards() {
        let matrix = tiny_matrix(200, 5);
        let path = tmp("resume");
        let options = RunnerOptions { threads: 2, max_shards: Some(4), ..Default::default() };
        let partial = run_matrix(&matrix, "resume", Some(&path), &options).unwrap();
        assert!(!partial.complete());
        assert_eq!(partial.executed_shards, 4);

        let finish = RunnerOptions { threads: 2, ..Default::default() };
        let full = run_matrix(&matrix, "resume", Some(&path), &finish).unwrap();
        assert!(full.complete());
        assert_eq!(full.resumed_shards, 4);
        assert_eq!(full.executed_shards + full.resumed_shards, 200u64.div_ceil(64) * 3);
    }

    #[test]
    fn broken_workload_fails_cell_not_pool() {
        let mut matrix = tiny_matrix(64, 0);
        matrix.workloads.push(WorkloadSpec::inline("broken", "fn main() { this is not minic"));
        let path = tmp("broken");
        let summary = run_matrix(
            &matrix,
            "broken",
            Some(&path),
            &RunnerOptions { threads: 2, ..Default::default() },
        )
        .unwrap();
        let broken: Vec<_> =
            summary.cells.iter().filter(|c| c.key.contains("inline:broken")).collect();
        assert_eq!(broken.len(), 3);
        for cell in &broken {
            assert!(cell.report.is_none());
            assert!(!cell.failures.is_empty());
        }
        // The healthy workload still completed.
        assert!(summary
            .cells
            .iter()
            .filter(|c| c.key.contains("inline:tiny"))
            .all(|c| c.complete()));
    }
}
