//! In-process campaign execution: [`run_matrix`] runs a campaign matrix's
//! shards on `std::thread` [`UnitExecutor`]s, scheduled by the one
//! [`Scheduler`] over an `mpsc` channel transport.
//!
//! Each executor keeps its own compiled-image cache; golden runs and their
//! fast-forward [`SnapshotSet`]s live in one shared [`GoldenCache`], so one
//! translated code cache per `(image, config)` serves every thread. Shard
//! panics and fault-free-run failures are caught and reported as failed
//! attempts instead of taking the pool down.
//!
//! Determinism: a shard's tallies depend only on `(cell, shard index)` —
//! see [`crate::matrix`] — so the merged per-cell reports are bit-identical
//! to the serial [`cfed_fault::Campaign::run`] path for any thread count.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cfed_asm::Image;
use cfed_core::RunConfig;
use cfed_fault::{
    golden_pass, CampaignReport, ForensicsBundle, Golden, SnapshotSet, SnapshotStats,
    DEFAULT_TRACE_WINDOW,
};
use cfed_telemetry::{Event, Profile, Telemetry};

use crate::json::Json;
use crate::matrix::{CampaignMatrix, CellSpec};
use crate::report::{by_cell, summarize, CellSummary};
use crate::retry::RetryPolicy;
use crate::scheduler::{Lease, Msg, Scheduler, Transport, UnitDone};
use crate::store::ShardTallies;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Stop after executing this many shards (in addition to any already
    /// persisted). Used by tests to simulate a killed run; `None` runs to
    /// completion.
    pub max_shards: Option<usize>,
    /// Suppress all stderr progress output (the live status line;
    /// failures are still reported).
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
    /// Bounded retry with backoff for failed shards: the scheduler
    /// re-queues a failed attempt until the policy's budget is spent. Each
    /// failed attempt is reported via `shard_failed` telemetry; only the
    /// final outcome reaches the store.
    pub retry: RetryPolicy,
    /// Collect a per-cell execution profile (payload vs instrumentation
    /// cycle attribution) from each cell's golden pass
    /// ([`cfed_fault::golden_pass`]) and persist it as an idempotent store
    /// record.
    pub profile: bool,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            threads: 0,
            max_shards: None,
            quiet: false,
            telemetry: Telemetry::off(),
            forensics: false,
            snapshots: true,
            retry: RetryPolicy::default(),
            profile: false,
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
/// This is the shared harness the `figures` binary uses to fan per-workload
/// runs out across cores while keeping its figures byte-identical to a
/// serial run (the fuzzer fans its cases out the same way).
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

    /// The golden run of `cell`: the one this cache prepared, or — for a
    /// cell no unit of this cache ran — a golden-only pass (no snapshots,
    /// no profile) that is not cached.
    fn golden(&self, cell: &CellSpec) -> Result<Golden, String> {
        let cached =
            self.prepared.lock().expect("golden cache poisoned").get(&cell.golden_key()).cloned();
        let prepared = match cached {
            Some(hit) => hit,
            None => cell
                .workload
                .image()
                .and_then(|img| prepare_golden(&img, &cell.config, false, false)),
        };
        prepared.map(|p| (*p.golden).clone())
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

/// Executes single work units against a shared [`GoldenCache`] — what the
/// in-process executor threads and the `cfed-serve` worker processes share.
/// One executor per thread; the image cache inside is thread-local, the
/// golden/snapshot cache is whatever the caller shares.
pub struct UnitExecutor {
    /// Compiled images by workload key (compilation is cheap; sharing it
    /// across threads isn't worth a lock on the hot path).
    images: HashMap<String, Arc<Image>>,
    goldens: Arc<GoldenCache>,
    forensics: bool,
}

impl UnitExecutor {
    /// An executor over `goldens`; `forensics` re-injects interesting
    /// trials with a tracer and captures bundles.
    pub fn new(goldens: Arc<GoldenCache>, forensics: bool) -> UnitExecutor {
        UnitExecutor { images: HashMap::new(), goldens, forensics }
    }

    /// Runs shard `shard_index` of `cell`. Deterministic in
    /// `(cell, shard_index)`: any executor on any host produces identical
    /// tallies. Panics anywhere in the unit — compiling the workload,
    /// the golden run, the trials — are caught and surface as `Err`.
    pub fn run(&mut self, cell: &CellSpec, shard_index: u64) -> UnitRun {
        let (images, goldens, forensics) = (&mut self.images, &self.goldens, self.forensics);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let image = match images.entry(cell.workload.key()) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(e) => Arc::clone(e.insert(Arc::new(cell.workload.image()?))),
            };
            let PreparedGolden { golden, snapshots, profile } = goldens.get(cell, &image)?;
            let (snaps, config, window) =
                (snapshots.as_deref(), &cell.config, DEFAULT_TRACE_WINDOW);
            // Forensics re-runs the trials that warranted a bundle with a
            // tracer attached.
            let mut specs = Vec::new();
            let report = cell
                .campaign()
                .run_shard_with(&image, &golden, snaps, shard_index, |s, r| {
                    if forensics && ForensicsBundle::wanted(r) {
                        specs.push(s);
                    }
                })
                .map_err(|e| format!("shard failed: {e}"))?;
            let bundles = specs.iter().take(MAX_FORENSICS_PER_SHARD).filter_map(|&s| {
                ForensicsBundle::capture_with(&image, config, s, &golden, window, snaps)
            });
            Ok::<_, String>(UnitRun {
                tallies: Ok(Box::new(ShardTallies::from_report(&report))),
                profile,
                forensics: bundles.map(|b| b.to_json()).collect(),
                forensics_wanted: specs.len() as u64,
            })
        }));
        let error = match result {
            Ok(Ok(run)) => return run,
            Ok(Err(e)) => e,
            Err(e) => format!("shard panicked: {}", panic_message(&e)),
        };
        UnitRun { tallies: Err(error), profile: None, forensics: Vec::new(), forensics_wanted: 0 }
    }

    /// Runs `lease` (a unit of `cell`) and reports the outcome as the
    /// scheduler message a worker sends back (as worker `0`, the in-process
    /// transport's only worker; the TCP transport substitutes its own id).
    pub fn execute(&mut self, cell: &CellSpec, lease: Lease) -> Msg {
        let started = Instant::now();
        let run = self.run(cell, lease.task.shard_index);
        let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        match run.tallies {
            Ok(tallies) => Msg::Done(Box::new(UnitDone {
                worker: 0,
                phase: lease.phase,
                key: lease.key,
                ms,
                tallies: *tallies,
                profile: run.profile,
                forensics: run.forensics,
                forensics_wanted: run.forensics_wanted,
            })),
            Err(error) => Msg::Failed { phase: lease.phase, key: lease.key, error },
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
        golden_pass(image, config, snapshots, profile).map(|(golden, snapshots, profile)| {
            PreparedGolden {
                golden: Arc::new(golden),
                snapshots: snapshots.map(Arc::new),
                profile: profile.map(Arc::new),
            }
        })
    }));
    match run {
        Ok(Ok(prepared)) => Ok(prepared),
        Ok(Err(e)) => Err(format!("golden run failed: {e}")),
        Err(e) => Err(format!("golden run panicked: {}", panic_message(&e))),
    }
}

/// A lease with what an executor needs to run it.
pub struct Job {
    /// The phase's cells; the lease's cell index points here.
    pub cells: Arc<Vec<CellSpec>>,
    /// The phase's golden cache.
    pub goldens: Arc<GoldenCache>,
    /// The unit to run.
    pub lease: Lease,
}

/// Spawns `threads` executor threads that run jobs from `jobs` until it
/// closes and send each outcome to `out` — the executor pool of in-process
/// runs and of `cfed-serve` worker processes. Each thread keeps one
/// [`UnitExecutor`] per phase (private image cache, the phase's shared
/// golden cache).
pub fn spawn_executors<M: From<Msg> + Send + 'static>(
    threads: usize,
    forensics: bool,
    jobs: mpsc::Receiver<Job>,
    out: &mpsc::Sender<M>,
) -> Vec<JoinHandle<()>> {
    let jobs = Arc::new(Mutex::new(jobs));
    let spawn = |_| {
        let (jobs, out) = (Arc::clone(&jobs), out.clone());
        std::thread::spawn(move || {
            let mut executors: HashMap<usize, UnitExecutor> = HashMap::new();
            loop {
                // The guard drops before the unit runs.
                let job = jobs.lock().expect("job queue poisoned").recv();
                let Ok(Job { cells, goldens, lease }) = job else { break };
                let executor = executors
                    .entry(lease.phase)
                    .or_insert_with(|| UnitExecutor::new(goldens, forensics));
                if out.send(M::from(executor.execute(&cells[lease.task.cell], lease))).is_err() {
                    break;
                }
            }
        })
    };
    (0..threads).map(spawn).collect()
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

/// Leases per executor thread: one running, one queued, so no executor
/// idles while the scheduler appends the previous result.
const LEASES_PER_THREAD: usize = 2;

/// The in-process transport: one worker whose executor threads share a
/// job queue and report back over a channel.
struct Local {
    jobs: mpsc::Sender<Job>,
    cells: Arc<Vec<CellSpec>>,
    goldens: Arc<GoldenCache>,
    results: mpsc::Receiver<Msg>,
}

impl Transport for Local {
    fn lease(&mut self, _worker: usize, lease: &Lease) -> bool {
        let (cells, goldens) = (Arc::clone(&self.cells), Arc::clone(&self.goldens));
        self.jobs.send(Job { cells, goldens, lease: lease.clone() }).is_ok()
    }

    fn recv(&mut self, wake: Option<Instant>) -> Result<Option<Msg>, String> {
        let wait = wake.map_or(Duration::MAX, |at| at.saturating_duration_since(Instant::now()));
        match self.results.recv_timeout(wait) {
            Ok(msg) => Ok(Some(msg)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err("every executor thread exited".to_string())
            }
        }
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
    let mut scheduler = Scheduler::new(options.retry, &options.telemetry, options.quiet);
    let mut phase = scheduler.open_phase(run_id, 0, matrix, store_path, options.max_shards)?;
    let to_run = phase.queued as usize;
    let executed_trials = phase.queued_trials();
    let golden_cache = Arc::new(GoldenCache::new(options.snapshots, options.profile));

    let threads = options.resolved_threads().min(to_run.max(1)).max(1);
    if to_run > 0 {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (msg_tx, results) = mpsc::channel::<Msg>();
        let _ = msg_tx.send(Msg::Capacity { worker: 0, slots: threads * LEASES_PER_THREAD });
        let executors = spawn_executors(threads, options.forensics, job_rx, &msg_tx);
        drop(msg_tx);
        let cells = Arc::new(phase.cells.clone());
        let goldens = Arc::clone(&golden_cache);
        let mut local = Local { jobs, cells, goldens, results };
        let run = scheduler.run_phase(&mut phase, &mut local, &AtomicBool::new(false));
        drop(local); // closes the job queue: the executors exit
        for handle in executors {
            handle.join().expect("executors catch unit panics");
        }
        run?;
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
    phase.append_meta(
        "run",
        vec![
            ("run_id", Json::Str(run_id.to_string())),
            ("executed", Json::UInt(to_run as u64)),
            ("resumed", Json::UInt(phase.resumed)),
            ("threads", Json::UInt(threads as u64)),
            ("wall_ms", Json::UInt(wall_ms)),
        ],
    )?;
    let (telemetry, flight) = (scheduler.telemetry(), scheduler.flight());
    telemetry.emit_with(|| {
        Event::new("run_done")
            .str("run_id", run_id)
            .u64("executed", to_run as u64)
            .u64("resumed", phase.resumed)
            .u64("retried", phase.retried)
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
            .u64("full_restores", perf.snapshots.full_restores)
            .u64("pages_restored", perf.snapshots.pages_restored)
            .u64("misses", perf.snapshots.misses)
            .u64("branches_fast_forwarded", perf.snapshots.branches_fast_forwarded)
            .u64("branches_stepped", perf.snapshots.branches_stepped)
            .u64("benign_pruned", perf.snapshots.benign_pruned)
            .u64("insts_fused", perf.snapshots.insts_fused)
            .u64("insts_stepped", perf.snapshots.insts_stepped)
            .u64("insts_native", perf.snapshots.insts_native)
            .u64("native_compiles", perf.snapshots.native_compiles)
    });

    let summaries = summarize(&phase.store.done);
    let failed = by_cell(&phase.store.failed);
    let cells = phase
        .cells
        .iter()
        .enumerate()
        .map(|(index, cell)| assemble_cell(index, cell, &summaries, &failed, &golden_cache))
        .collect();
    Ok(RunSummary {
        cells,
        executed_shards: to_run as u64,
        resumed_shards: phase.resumed,
        retried_attempts: phase.retried,
        perf,
    })
}

/// A cell's result from the store grouped by cell (`summaries` sorted by
/// key, as [`summarize`] returns them), around the golden from the run's
/// own cache.
fn assemble_cell(
    index: usize,
    cell: &CellSpec,
    summaries: &[CellSummary],
    failed: &BTreeMap<&str, Vec<(&str, &String)>>,
    goldens: &GoldenCache,
) -> CellResult {
    let key = cell.key();
    let summary =
        summaries.binary_search_by(|s| s.key.as_str().cmp(&key)).ok().map(|i| &summaries[i]);
    let failed = failed.get(key.as_str()).into_iter().flatten();
    let mut failures: Vec<String> = failed.map(|(k, e)| format!("{k}: {e}")).collect();
    let report = summary.and_then(|summary| match goldens.golden(cell) {
        Ok(golden) => Some(summary.tallies.to_report(golden)),
        Err(e) => {
            failures.push(format!("{key}: {e}"));
            None
        }
    });
    CellResult {
        cell: index,
        key,
        report,
        done_shards: summary.map_or(0, |s| s.shards_done),
        total_shards: cell.num_shards(),
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

    /// Forensics re-runs are observers: turning them on changes neither the
    /// store's records nor the fast path's trial counters.
    #[test]
    fn forensics_leave_store_and_snapshot_counters_unchanged() {
        use cfed_telemetry::MemorySink;

        let matrix = tiny_matrix(192, 11);
        let run = |forensics: bool| {
            let path = tmp(&format!("forensics-{forensics}"));
            let sink = Arc::new(MemorySink::new());
            let options = RunnerOptions {
                threads: 2,
                quiet: true,
                forensics,
                telemetry: Telemetry::to(sink.clone()),
                ..Default::default()
            };
            let summary = run_matrix(&matrix, "forensics", Some(&path), &options).unwrap();
            assert!(summary.complete());
            let text = std::fs::read_to_string(&path).unwrap();
            // Only the run's own timing record may differ between runs.
            let mut records: Vec<&str> =
                text.lines().filter(|l| !l.contains(r#""meta":"run""#)).collect();
            records.sort_unstable();
            let records: Vec<String> = records.into_iter().map(str::to_string).collect();
            // Native compiles, full restores and restored pages depend on
            // which trials each worker's JIT and resident machine ran
            // before, which thread scheduling decides; traced re-runs never
            // run native code or use a resident machine.
            let stats = SnapshotStats {
                native_compiles: 0,
                full_restores: 0,
                pages_restored: 0,
                ..summary.perf.snapshots
            };
            (stats, records, sink.of_kind("forensics").len())
        };
        let (plain_stats, plain_records, no_bundles) = run(false);
        let (traced_stats, traced_records, bundles) = run(true);
        assert_eq!(no_bundles, 0);
        assert!(bundles > 0, "the matrix must capture at least one forensics bundle");
        assert_eq!(traced_stats, plain_stats);
        assert_eq!(traced_records, plain_records);
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

    /// A unit that fails every attempt is re-queued by the scheduler until
    /// the default policy's budget is spent: every failed attempt but the
    /// last is reported as retried, only the last reaches the store, and
    /// the healthy cells complete meanwhile.
    #[test]
    fn failing_units_are_retried_then_recorded_once() {
        use cfed_telemetry::MemorySink;

        let mut matrix = tiny_matrix(128, 3);
        matrix.workloads.push(WorkloadSpec::inline("broken", "fn main() { this is not minic"));
        let path = tmp("retry");
        let sink = Arc::new(MemorySink::new());
        let options = RunnerOptions {
            threads: 2,
            quiet: true,
            telemetry: Telemetry::to(sink.clone()),
            ..Default::default()
        };
        let summary = run_matrix(&matrix, "retry", Some(&path), &options).unwrap();

        let attempts = u64::from(RetryPolicy::default().max_attempts);
        let failing: Vec<String> = CampaignMatrix::shards(&matrix.cells())
            .iter()
            .map(|t| t.key(&matrix.cells()))
            .filter(|k| k.contains("inline:broken"))
            .collect();
        assert_eq!(failing.len(), 6, "three broken cells of two shards");
        assert_eq!(summary.retried_attempts, (attempts - 1) * failing.len() as u64);

        let events = sink.events();
        let (_, _, failed_records) = crate::store::read_store(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for key in &failing {
            let failed: Vec<_> = events
                .iter()
                .filter(|e| e.kind() == "shard_failed")
                .filter(|e| e.get("shard").and_then(Json::as_str) == Some(key.as_str()))
                .collect();
            assert_eq!(failed.len() as u64, attempts, "{key}: one event per attempt");
            for (i, e) in (1..).zip(&failed) {
                assert_eq!(e.get("attempt").and_then(Json::as_u64), Some(i), "{key}");
                let retried = e.get("retried").and_then(Json::as_u64);
                assert_eq!(retried, (i < attempts).then_some(1), "{key} attempt {i}");
            }
            assert!(failed_records.contains_key(key), "{key}");
            let records = text
                .lines()
                .filter_map(|l| crate::json::parse(l).ok())
                .filter(|r| r.get("shard").and_then(Json::as_str) == Some(key.as_str()))
                .count();
            assert_eq!(records, 1, "{key}: exactly one failed record in the store");
        }
        assert!(summary
            .cells
            .iter()
            .filter(|c| c.key.contains("inline:tiny"))
            .all(|c| c.complete()));
        assert_eq!(summary.cells.iter().filter(|c| !c.complete()).count(), 3);
    }
}
