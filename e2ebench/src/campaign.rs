//! The `seu-campaign` and `attack-campaign` workloads.
//!
//! The untraced run is what `cfed-campaign` and `cfed-campaign attack` do:
//! the study's phase plan through `run_matrix` into file stores, followed by
//! the store's report. The traced run executes the same cells and shards on
//! the same number of worker threads, but drives them through the layers'
//! public functions itself, so that each call can be timed.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use cfed_asm::Image;
use cfed_core::{profile_dbt, run_dbt, run_dbt_native, run_dbt_tiered, RunConfig};
use cfed_dbt::{Dbt, DbtStep, Instrumenter, NullInstrumenter, DEFAULT_COMPILE_THRESHOLD};
use cfed_fault::{Golden, SnapshotSet, SnapshotStats};
use cfed_runner::matrix::{CampaignMatrix, CellSpec, ShardTask};
use cfed_runner::pool::{parallel_map, run_matrix, GoldenCache, RunnerOptions, UnitExecutor};
use cfed_runner::report::{render_attack_frontier, render_report};
use cfed_runner::store::{read_store, CampaignStore, ShardTallies, StoreHeader};
use cfed_serve::proto::{read_frame, write_frame};
use cfed_serve::{attack_phases, campaign_phases, PhasePlan};
use cfed_sim::{ExitReason, Machine};
use cfed_telemetry::json::{obj, parse, Json};
use cfed_telemetry::Profile;

use crate::host;
use crate::trace::{self, percentile, SpanId, Trace};
use crate::Checks;

/// Trials per cell of `seu-campaign`, the size `cfed-campaign --trials 300`
/// runs; a measured run of the benchmark is several such campaigns.
pub const SEU_TRIALS: u64 = 300;
/// Trials per cell of `attack-campaign`: one shard per cell.
pub const ATTACK_TRIALS: u64 = 64;
/// Shards re-run from scratch per phase by the output check.
const SAMPLED_SHARDS: usize = 2;
const RUN_ID: &str = "bench";

/// Which study a campaign workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    Seu,
    Attack,
}

/// A campaign workload's inputs.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub study: Study,
    pub trials: u64,
    /// How many of the six campaign workloads to keep (tests run fewer).
    pub workloads: usize,
    pub seed: u64,
    pub threads: usize,
}

impl Campaign {
    pub fn new(study: Study, seed: u64, threads: usize) -> Campaign {
        let trials = match study {
            Study::Seu => SEU_TRIALS,
            Study::Attack => ATTACK_TRIALS,
        };
        Campaign { study, trials, workloads: 6, seed, threads }
    }

    /// The study's phases, exactly as `cfed-campaign` plans them, with
    /// their stores under `dir`.
    pub fn phases(&self, dir: &Path) -> Vec<PhasePlan> {
        let mut phases = match self.study {
            Study::Seu => campaign_phases(self.trials, self.seed, dir, RUN_ID),
            Study::Attack => attack_phases(&[], self.trials, self.seed, dir, RUN_ID),
        };
        for plan in &mut phases {
            plan.matrix.workloads.truncate(self.workloads);
        }
        phases
    }

    /// `cfed-campaign` profiles the SEU study and not the attack study.
    fn profile(&self) -> bool {
        self.study == Study::Seu
    }

    fn render(&self, store: &Path) -> Result<String, String> {
        match self.study {
            Study::Seu => render_report(store),
            Study::Attack => render_attack_frontier(store),
        }
    }
}

/// One cell per distinct golden key, in plan order.
fn distinct_goldens(phases: &[PhasePlan]) -> Vec<CellSpec> {
    let mut seen = HashSet::new();
    phases.iter().flat_map(|p| p.matrix.cells()).filter(|c| seen.insert(c.golden_key())).collect()
}

/// The compiled images of the cells' workloads, by workload key.
fn compile_all(cells: &[CellSpec], threads: usize) -> Result<HashMap<String, Image>, String> {
    let mut seen = HashSet::new();
    let specs: Vec<_> =
        cells.iter().map(|c| c.workload.clone()).filter(|w| seen.insert(w.key())).collect();
    let images = parallel_map(specs.len(), threads, |i| specs[i].image());
    specs.iter().zip(images).map(|(s, img)| Ok((s.key(), img?))).collect()
}

/// Set-up: compiles every workload image, then runs the golden run with
/// checkpoint capture (and, for the SEU study, the profile) of each
/// distinct golden key, on the workload's threads. Returns the seconds it
/// took.
pub fn setup(c: &Campaign, dir: &Path) -> Result<f64, String> {
    let cells = distinct_goldens(&c.phases(dir));
    let start = Instant::now();
    let images = compile_all(&cells, c.threads)?;
    let prepared = parallel_map(cells.len(), c.threads, |i| {
        let cell = &cells[i];
        let image = &images[&cell.workload.key()];
        let captured = SnapshotSet::capture(image, &cell.config).map_err(|e| e.to_string())?;
        let profile = c.profile().then(|| profile_dbt(image, &cell.config));
        Ok::<_, String>((captured, profile))
    });
    let secs = start.elapsed().as_secs_f64();
    for p in prepared {
        p?;
    }
    Ok(secs)
}

/// Output and exit code of each workload image on the decoded interpreter,
/// the reference every golden run must agree with.
pub struct Reference {
    outputs: HashMap<String, (Vec<u64>, u64)>,
    /// Instructions retired and nanoseconds taken over all images.
    pub insts: u64,
    pub ns: u64,
    pub decode_hits: u64,
    pub decode_misses: u64,
}

/// One image on the decoded interpreter: output, exit code (`None` when it
/// did not halt), instructions, nanoseconds and decode-cache counters.
pub struct Interpreted {
    pub output: Vec<u64>,
    pub exit: Option<u64>,
    pub insts: u64,
    pub cycles: u64,
    pub ns: u64,
    pub decode_hits: u64,
    pub decode_misses: u64,
}

/// Runs `image` on the decoded interpreter (`Machine::run`).
pub fn interpret(image: &Image, max_insts: u64) -> Interpreted {
    let start = Instant::now();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let exit = match m.run(max_insts) {
        ExitReason::Halted { code } => Some(code),
        ExitReason::Trapped(_) | ExitReason::StepLimit => None,
    };
    let ns = start.elapsed().as_nanos() as u64;
    let stats = m.decode_cache_stats().unwrap_or_default();
    Interpreted {
        output: m.cpu.take_output(),
        exit,
        insts: m.cpu.stats().insts,
        cycles: m.cpu.stats().cycles,
        ns,
        decode_hits: stats.hits,
        decode_misses: stats.misses,
    }
}

impl Reference {
    pub fn new(c: &Campaign, dir: &Path) -> Result<Reference, String> {
        let cells = distinct_goldens(&c.phases(dir));
        let images = compile_all(&cells, c.threads)?;
        let max_insts = RunConfig::default().max_insts;
        let mut r = Reference {
            outputs: HashMap::new(),
            insts: 0,
            ns: 0,
            decode_hits: 0,
            decode_misses: 0,
        };
        for (key, image) in &images {
            let run = interpret(image, max_insts);
            r.insts += run.insts;
            r.ns += run.ns;
            r.decode_hits += run.decode_hits;
            r.decode_misses += run.decode_misses;
            let exit = run.exit.ok_or_else(|| format!("{key} does not halt when interpreted"))?;
            r.outputs.insert(key.clone(), (run.output, exit));
        }
        Ok(r)
    }

    /// Whether `golden` (of a cell on workload `key`) matches the reference.
    fn agrees(&self, key: &str, golden: &Golden) -> bool {
        self.outputs
            .get(key)
            .is_some_and(|(out, code)| *out == golden.output && *code == golden.exit_code)
    }
}

/// The measurements of one untraced run.
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Seconds inside `run_matrix`.
    pub campaign_s: f64,
    pub trials: u64,
    pub units: u64,
    pub failed_units: u64,
}

/// One untraced run with its stores under `dir`, then the check of every
/// golden against `reference`.
pub fn run_once(
    c: &Campaign,
    dir: &Path,
    reference: &Reference,
    checks: &mut Checks,
) -> Result<Iteration, String> {
    let phases = c.phases(dir);
    let options = RunnerOptions {
        threads: c.threads,
        quiet: true,
        profile: c.profile(),
        ..Default::default()
    };
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let mut summaries = Vec::with_capacity(phases.len());
    for plan in &phases {
        summaries.push(run_matrix(&plan.matrix, RUN_ID, Some(&plan.store), &options)?);
    }
    let campaign_s = start.elapsed().as_secs_f64();
    for plan in &phases {
        std::hint::black_box(c.render(&plan.store)?);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu;

    let mut it = Iteration { wall_s, cpu_s, campaign_s, trials: 0, units: 0, failed_units: 0 };
    for summary in &summaries {
        it.trials += summary.perf.executed_trials;
        for cell in &summary.cells {
            it.units += cell.total_shards;
            it.failed_units += cell.total_shards - cell.done_shards;
        }
    }
    for (plan, summary) in phases.iter().zip(&summaries) {
        let cells = plan.matrix.cells();
        for result in &summary.cells {
            let Some(report) = &result.report else { continue };
            let key = cells[result.cell].workload.key();
            checks.expect(reference.agrees(&key, &report.golden), || {
                format!("golden of {} differs from the decoded interpreter", result.key)
            });
        }
    }
    Ok(it)
}

/// Re-runs a seeded sample of each phase's shards of the run whose stores
/// are under `dir` (see [`check_sample`]).
pub fn check_samples(c: &Campaign, dir: &Path, checks: &mut Checks) -> Result<(), String> {
    for (i, plan) in c.phases(dir).iter().enumerate() {
        check_sample(c, plan, i as u64, checks)?;
    }
    Ok(())
}

/// splitmix64, for drawing seeds and sampled shards from the seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Re-runs a seeded sample of the phase's shards on the from-scratch
/// reference path (`snapshots: false`) and compares their tallies with the
/// stored ones.
fn check_sample(
    c: &Campaign,
    plan: &PhasePlan,
    phase: u64,
    checks: &mut Checks,
) -> Result<(), String> {
    let cells = plan.matrix.cells();
    let shards = CampaignMatrix::shards(&cells);
    let mut state = c.seed ^ phase.wrapping_mul(0xA24B_AED4_963E_E407);
    let picks: Vec<ShardTask> = (0..SAMPLED_SHARDS)
        .map(|_| shards[(splitmix64(&mut state) % shards.len() as u64) as usize])
        .collect();
    let (_, stored, _) = read_store(&plan.store)?;
    let goldens = Arc::new(GoldenCache::new(false, false));
    let rerun = parallel_map(picks.len(), c.threads, |i| {
        let task = picks[i];
        UnitExecutor::new(Arc::clone(&goldens), false)
            .run(&cells[task.cell], task.shard_index)
            .tallies
    });
    for (task, tallies) in picks.iter().zip(rerun) {
        let key = task.key(&cells);
        let same = matches!((&tallies, stored.get(&key)), (Ok(a), Some(b)) if **a == *b);
        checks.expect(same, || format!("shard {key} differs when re-run without snapshots"));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Traced run
// ----------------------------------------------------------------------

/// Container spans: the benchmark's own structure, not a layer call.
pub const CONTAINERS: [&str; 3] = ["workload", "runner.phase", "runner.worker"];

struct Prepared {
    golden: Golden,
    snapshots: SnapshotSet,
    profile: Option<Arc<Profile>>,
}

/// Hands out units in plan order, never two of one golden key at once, so
/// that a trial's change to its snapshot set's counters is its own.
struct Scheduler {
    state: Mutex<(VecDeque<ShardTask>, HashSet<String>)>,
    freed: Condvar,
}

impl Scheduler {
    fn take(&self, cells: &[CellSpec]) -> Option<ShardTask> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        loop {
            let (queue, busy) = &mut *state;
            if queue.is_empty() {
                return None;
            }
            if let Some(i) = queue.iter().position(|t| !busy.contains(&cells[t.cell].golden_key()))
            {
                let task = queue.remove(i).expect("position is in range");
                busy.insert(cells[task.cell].golden_key());
                return Some(task);
            }
            state = self.freed.wait(state).expect("scheduler poisoned");
        }
    }

    fn release(&self, golden_key: &str) {
        self.state.lock().expect("scheduler poisoned").1.remove(golden_key);
        self.freed.notify_all();
    }
}

/// One finished unit, sent to the store writer.
struct UnitDone {
    key: String,
    cell_key: String,
    tallies: Result<ShardTallies, String>,
    profile: Option<Arc<Profile>>,
}

/// What the traced run counts besides its spans.
#[derive(Default)]
struct Counts {
    /// Per placed trial: nanoseconds since the previous trial ended (or the
    /// shard began), and whether convergence pruning ended it.
    trial_samples: Vec<(u64, bool)>,
    trials: u64,
    skipped: u64,
    golden_insts: u64,
    snapshots: SnapshotStats,
    store_bytes: u64,
    records: Vec<Json>,
    /// Golden configurations with their images, for the engine probes.
    configs: Vec<(Arc<Image>, RunConfig, Golden)>,
}

/// The outcome of a traced run.
pub struct Traced {
    pub wall_s: f64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Tail-percentile notes for the summary.
    pub notes: Vec<String>,
}

fn instrumenter(image: &Image, cfg: &RunConfig) -> Box<dyn Instrumenter> {
    match cfg.technique {
        Some(kind) => kind.instrumenter_for(image, cfg.policy),
        None => Box::new(NullInstrumenter),
    }
}

/// The traced run, its stores under `dir`. Checks that every shard's
/// tallies equal the untraced run's (`expected`, by shard key), then probes
/// the layers the run does not time directly.
pub fn run_traced(
    c: &Campaign,
    name: &'static str,
    dir: &Path,
    reference: &Reference,
    expected: &BTreeMap<String, ShardTallies>,
    untraced_wall_s: f64,
    checks: &mut Checks,
) -> Result<Traced, String> {
    let phases = c.phases(dir);
    let trace = Trace::new(name);
    let counts = Mutex::new(Counts::default());
    let start = Instant::now();
    let mut tallies: BTreeMap<String, ShardTallies> = BTreeMap::new();
    trace.span("workload", None, |root| {
        for plan in &phases {
            trace.span("runner.phase", Some(root), |phase| {
                run_phase_traced(c, plan, &trace, phase, &counts, &mut tallies)
            })?;
            trace.span("runner.report", Some(root), |_| {
                c.render(&plan.store).map(std::hint::black_box)
            })?;
        }
        Ok::<_, String>(())
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let spans = trace.finish();
    let mut counts = counts.into_inner().expect("a traced thread panicked");
    for plan in &phases {
        counts.store_bytes += std::fs::metadata(&plan.store).map_err(|e| e.to_string())?.len();
    }
    for (key, want) in expected {
        checks.expect(tallies.get(key) == Some(want), || {
            format!("shard {key} differs between the traced and untraced runs")
        });
    }
    checks.expect(tallies.len() == expected.len(), || {
        format!("traced run stored {} shards, untraced {}", tallies.len(), expected.len())
    });

    let mut metrics = BTreeMap::new();
    let mut notes = Vec::new();
    let ms = |name: &str| trace::total_ms(&spans, name);
    metrics.insert("lang.compile_ms", ms("lang.compile"));
    metrics.insert("core.instrumenter_ms", ms("core.instrumenter"));
    if c.profile() {
        metrics.insert("core.profile_ms", ms("core.profile"));
    }
    metrics.insert("fault.capture_ms", ms("fault.capture"));
    metrics.insert("fault.golden_mips", counts.golden_insts as f64 / (ms("fault.capture") * 1e3));
    metrics.insert("fault.snapshot_mb", counts.snapshots.bytes as f64 / 1e6);
    let trials = counts.trials.max(1) as f64;
    metrics.insert("fault.trials", counts.trials as f64);
    let all: Vec<u64> = counts.trial_samples.iter().map(|s| s.0).collect();
    let pruned: Vec<u64> = counts.trial_samples.iter().filter(|s| s.1).map(|s| s.0).collect();
    let full: Vec<u64> = counts.trial_samples.iter().filter(|s| !s.1).map(|s| s.0).collect();
    let us = |samples: &[u64], q| percentile(samples, q) as f64 / 1e3;
    metrics.insert("fault.trial_us.p50", us(&all, 500));
    metrics.insert("fault.trial_us.p99", us(&all, 990));
    metrics.insert(
        "fault.stepped_branches_per_trial",
        counts.snapshots.branches_stepped as f64 / trials,
    );
    metrics.insert("fault.pruned_frac", counts.snapshots.benign_pruned as f64 / trials);
    if c.study == Study::Seu {
        metrics.insert("fault.pruned_trial_us.p50", us(&pruned, 500));
    }
    metrics.insert("fault.full_trial_us.p50", us(&full, 500));
    metrics.insert("fault.skipped_frac", counts.skipped as f64 / trials);

    let units = trace::durations_ns(&spans, "runner.unit");
    metrics.insert("runner.units", units.len() as f64);
    metrics.insert("runner.unit_ms.p50", percentile(&units, 500) as f64 / 1e6);
    metrics.insert("runner.unit_ms.p90", percentile(&units, 900) as f64 / 1e6);
    let phase_ns: u64 = trace::durations_ns(&spans, "runner.phase").iter().sum();
    metrics.insert(
        "runner.busy_frac",
        units.iter().sum::<u64>() as f64 / (c.threads as f64 * phase_ns as f64),
    );
    let appends = trace::durations_ns(&spans, "runner.store_append");
    metrics.insert("runner.store_append_us.p50", percentile(&appends, 500) as f64 / 1e3);
    metrics.insert("runner.store_kb", counts.store_bytes as f64 / 1024.0);
    metrics.insert("runner.report_ms", ms("runner.report"));
    metrics.insert("trace.overhead_frac", wall_s / untraced_wall_s - 1.0);
    metrics.insert("trace.unattributed_frac", trace::unattributed_frac(&spans, &CONTAINERS));
    notes.push(trace::tail_note("fault.trial_us", &all, 1e3));
    notes.push(trace::tail_note("runner.unit_ms", &units, 1e6));

    probe_wire(&counts.records, &mut metrics)?;
    probe_engines(c, &counts.configs, reference, &mut metrics, checks);
    Ok(Traced { wall_s, metrics, notes })
}

fn run_phase_traced(
    c: &Campaign,
    plan: &PhasePlan,
    trace: &Trace,
    phase: SpanId,
    counts: &Mutex<Counts>,
    tallies: &mut BTreeMap<String, ShardTallies>,
) -> Result<(), String> {
    let cells = plan.matrix.cells();
    let tasks = CampaignMatrix::shards(&cells);
    let header = StoreHeader {
        run_id: RUN_ID.to_string(),
        seed: plan.matrix.seed,
        trials: plan.matrix.trials,
        shard_trials: CampaignMatrix::shard_trials(),
        digest: CampaignMatrix::digest(&cells),
        total_shards: tasks.len() as u64,
    };
    let mut store = CampaignStore::open(&plan.store, &header)?;
    let scheduler = Scheduler {
        state: Mutex::new((tasks.into_iter().collect(), HashSet::new())),
        freed: Condvar::new(),
    };
    let goldens: Mutex<HashMap<String, Arc<Prepared>>> = Mutex::default();
    let (tx, rx) = mpsc::channel::<UnitDone>();
    std::thread::scope(|scope| {
        for _ in 0..c.threads {
            let tx = tx.clone();
            let (cells, scheduler, goldens) = (&cells, &scheduler, &goldens);
            scope.spawn(move || {
                trace.span("runner.worker", Some(phase), |worker| {
                    let mut images: HashMap<String, Arc<Image>> = HashMap::new();
                    while let Some(task) = scheduler.take(cells) {
                        let cell = &cells[task.cell];
                        // As in the runner, a panicking unit is a failed unit.
                        let done = trace.span("runner.unit", Some(worker), |unit| {
                            catch_unwind(AssertUnwindSafe(|| {
                                run_unit_traced(
                                    c,
                                    cell,
                                    task,
                                    trace,
                                    unit,
                                    &mut images,
                                    goldens,
                                    counts,
                                )
                            }))
                            .unwrap_or_else(|_| (Err("unit panicked".to_string()), None))
                        });
                        scheduler.release(&cell.golden_key());
                        let done = UnitDone {
                            key: task.key(cells),
                            cell_key: cell.key(),
                            tallies: done.0,
                            profile: done.1,
                        };
                        if tx.send(done).is_err() {
                            break;
                        }
                    }
                });
            });
        }
        drop(tx);
        for done in rx {
            let UnitDone { key, cell_key, tallies: result, profile } = done;
            trace.span("runner.store_append", Some(phase), |_| {
                if let Some(p) = &profile {
                    store.append_profile(&cell_key, p)?;
                }
                match &result {
                    Ok(t) => store.append_ok(&key, t.clone()),
                    Err(e) => store.append_failed(&key, e),
                }
            })?;
            if let Ok(t) = result {
                counts.lock().expect("counts poisoned").records.push(t.to_json(&key));
                tallies.insert(key, t);
            }
        }
        Ok::<_, String>(())
    })?;
    let mut counts = counts.lock().expect("counts poisoned");
    for prepared in goldens.into_inner().expect("golden cache poisoned").values() {
        counts.snapshots.absorb(&prepared.snapshots.stats());
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_unit_traced(
    c: &Campaign,
    cell: &CellSpec,
    task: ShardTask,
    trace: &Trace,
    unit: SpanId,
    images: &mut HashMap<String, Arc<Image>>,
    goldens: &Mutex<HashMap<String, Arc<Prepared>>>,
    counts: &Mutex<Counts>,
) -> (Result<ShardTallies, String>, Option<Arc<Profile>>) {
    let key = cell.workload.key();
    let image = match images.get(&key) {
        Some(image) => Arc::clone(image),
        None => match trace.span("lang.compile", Some(unit), |_| cell.workload.image()) {
            Ok(image) => {
                let image = Arc::new(image);
                images.insert(key, Arc::clone(&image));
                image
            }
            Err(e) => return (Err(e), None),
        },
    };
    let golden_key = cell.golden_key();
    let cached = goldens.lock().expect("golden cache poisoned").get(&golden_key).cloned();
    let prepared = match cached {
        Some(p) => p,
        None => {
            // The capture builds its own instrumenter; this call times that
            // construction (CFG recovery included) on its own.
            trace.span("core.instrumenter", Some(unit), |_| {
                std::hint::black_box(instrumenter(&image, &cell.config));
            });
            let captured = trace
                .span("fault.capture", Some(unit), |_| SnapshotSet::capture(&image, &cell.config));
            let (golden, snapshots) = match captured {
                Ok(c) => c,
                Err(e) => return (Err(format!("golden run failed: {e}")), None),
            };
            let profile = c.profile().then(|| {
                Arc::new(
                    trace.span("core.profile", Some(unit), |_| profile_dbt(&image, &cell.config)).1,
                )
            });
            let mut counts = counts.lock().expect("counts poisoned");
            counts.golden_insts += golden.insts;
            counts.configs.push((Arc::clone(&image), cell.config, golden.clone()));
            drop(counts);
            let p = Arc::new(Prepared { golden, snapshots, profile });
            goldens.lock().expect("golden cache poisoned").insert(golden_key, Arc::clone(&p));
            p
        }
    };

    let snapshots = &prepared.snapshots;
    let mut samples = Vec::with_capacity(CampaignMatrix::shard_trials() as usize);
    let report = trace.span("fault.shard", Some(unit), |shard| {
        let mut last = Instant::now();
        let mut pruned = snapshots.stats().benign_pruned;
        let mut observe = || {
            let now = Instant::now();
            let p = snapshots.stats().benign_pruned;
            trace.record("fault.trial", Some(shard), last, now);
            samples.push(((now - last).as_nanos() as u64, p > pruned));
            (last, pruned) = (now, p);
        };
        let shard_index = task.shard_index;
        match cell.attack_campaign() {
            Some(a) => {
                a.run_shard_with(&image, &prepared.golden, Some(snapshots), shard_index, |_, _| {
                    observe()
                })
            }
            None => cell.campaign().run_shard_with(
                &image,
                &prepared.golden,
                Some(snapshots),
                shard_index,
                |_, _| observe(),
            ),
        }
    });
    let mut counts = counts.lock().expect("counts poisoned");
    counts.trial_samples.extend(samples);
    counts.trials += cell.campaign().shard_trials(task.shard_index);
    match report {
        Ok(report) => {
            counts.skipped += report.skipped;
            (Ok(ShardTallies::from_report(&report)), prepared.profile.clone())
        }
        Err(e) => (Err(format!("shard failed: {e}")), None),
    }
}

/// Encodes and decodes every stored record as JSON, and round-trips each
/// through a `cfed-serve` result frame, as a worker would send it.
fn probe_wire(records: &[Json], metrics: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let (mut bytes, mut encode_ns, mut decode_ns) = (0u64, 0u64, 0u64);
    let mut rtt = Vec::with_capacity(records.len());
    let mut frame_bytes = Vec::with_capacity(records.len());
    for record in records {
        let t = Instant::now();
        let text = std::hint::black_box(record.render());
        let encoded = Instant::now();
        let back = parse(&text)?;
        decode_ns += encoded.elapsed().as_nanos() as u64;
        encode_ns += (encoded - t).as_nanos() as u64;
        bytes += text.len() as u64;
        if back != *record {
            return Err("a store record changed in a JSON round trip".to_string());
        }
        let frame = obj(vec![
            ("t", Json::Str("result".to_string())),
            ("phase", Json::UInt(0)),
            ("key", record.get("shard").cloned().unwrap_or(Json::Null)),
            ("ms", Json::UInt(0)),
            ("dropped", Json::UInt(0)),
            ("record", record.clone()),
        ]);
        let t = Instant::now();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame)?;
        let read = read_frame(&mut Cursor::new(&wire))?;
        rtt.push(t.elapsed().as_nanos() as u64);
        frame_bytes.push(wire.len() as u64);
        if read.as_ref() != Some(&frame) {
            return Err("a result frame changed in a wire round trip".to_string());
        }
    }
    let mb_s = |ns: u64| bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9);
    metrics.insert("telemetry.json_encode_mb_s", mb_s(encode_ns));
    metrics.insert("telemetry.json_decode_mb_s", mb_s(decode_ns));
    metrics.insert("serve.frame_rtt_us.p50", percentile(&rtt, 500) as f64 / 1e3);
    metrics.insert("serve.frame_bytes.p50", percentile(&frame_bytes, 500) as f64);
    Ok(())
}

/// Runs `image` under `cfg` on the single-step DBT engine (`Dbt::step`, as
/// the golden run and the trials advance), returning the output and the
/// instructions retired.
fn run_step(image: &Image, cfg: &RunConfig) -> (Vec<u64>, u64) {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(instrumenter(image, cfg), cfg.style, &mut m);
    if dbt.attach(&mut m).is_ok() {
        while m.cpu.stats().insts < cfg.max_insts {
            if !matches!(dbt.step(&mut m), DbtStep::Continue) {
                break;
            }
        }
    }
    let insts = m.cpu.stats().insts;
    (m.cpu.take_output(), insts)
}

/// Runs every golden configuration on each DBT engine, for the engines'
/// speed; each run's output must equal its golden output.
fn probe_engines(
    c: &Campaign,
    configs: &[(Arc<Image>, RunConfig, Golden)],
    reference: &Reference,
    metrics: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    const ENGINES: [&str; 4] = ["step", "fused", "native", "tier"];
    let runs = parallel_map(configs.len() * ENGINES.len(), c.threads, |i| {
        let (image, cfg, _) = &configs[i / ENGINES.len()];
        let t = Instant::now();
        let (output, insts, stats) = match i % ENGINES.len() {
            0 => {
                let (output, insts) = run_step(image, cfg);
                (output, insts, None)
            }
            1 => {
                let r = run_dbt(image, cfg);
                (r.output, r.insts, Some(r.dbt))
            }
            2 => {
                let r = run_dbt_native(image, cfg);
                (r.output, r.insts, None)
            }
            _ => {
                let r = run_dbt_tiered(image, cfg, DEFAULT_COMPILE_THRESHOLD);
                (r.output, r.insts, None)
            }
        };
        (t.elapsed().as_nanos() as u64, output, insts, stats)
    });
    let mut insts = [0u64; 4];
    let mut ns = [0u64; 4];
    let (mut guest, mut cache, mut dispatches, mut hits) = (0u64, 0u64, 0u64, 0u64);
    for (i, (t, output, n, stats)) in runs.into_iter().enumerate() {
        let (_, _, golden) = &configs[i / ENGINES.len()];
        let engine = i % ENGINES.len();
        checks.expect(output == golden.output, || {
            format!("the {} engine's output differs from the golden run's", ENGINES[engine])
        });
        insts[engine] += n;
        ns[engine] += t;
        if let Some(s) = stats {
            guest += s.guest_insts;
            cache += s.cache_insts;
            dispatches += s.dispatches;
            hits += s.dispatch_ic_hits;
        }
    }
    let mips = |e: usize| insts[e] as f64 / (ns[e].max(1) as f64 / 1e3);
    metrics.insert("dbt.step_mips", mips(0));
    metrics.insert("dbt.fused_mips", mips(1));
    metrics.insert("dbt.native_mips", mips(2));
    metrics.insert("dbt.tier_mips", mips(3));
    metrics.insert("dbt.cache_insts_per_guest_inst", cache as f64 / guest.max(1) as f64);
    metrics.insert("dbt.dispatch_ic_hit_frac", hits as f64 / dispatches.max(1) as f64);
    metrics.insert("sim.decoded_mips", reference.insts as f64 / (reference.ns.max(1) as f64 / 1e3));
    let lookups = reference.decode_hits + reference.decode_misses;
    metrics.insert("sim.decode_hit_frac", reference.decode_hits as f64 / lookups.max(1) as f64);
}

/// The shard tallies of the stores under `dir`, by shard key.
pub fn stored_tallies(c: &Campaign, dir: &Path) -> Result<BTreeMap<String, ShardTallies>, String> {
    let mut all = BTreeMap::new();
    for plan in c.phases(dir) {
        all.extend(read_store(&plan.store)?.1);
    }
    Ok(all)
}
