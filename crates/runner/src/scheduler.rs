//! The unit scheduler: the one loop that turns a campaign phase into store
//! records, whatever carries its units to the workers.
//!
//! A work unit is one shard of one matrix cell, keyed exactly like the
//! JSONL store (`{cell key}#{shard index}`), so units are idempotent: a
//! resumed store skips persisted units, duplicate results are dropped by
//! key, and the merged report is byte-identical for any worker count,
//! schedule, or crash/retry history.
//!
//! The scheduler opens the store from the [`StoreHeader`], owns the pending
//! queue, leases and [`RetryPolicy`] re-queue, drops duplicates, is the
//! single writer of shard and profile records, and emits the per-unit
//! telemetry (`shard_done`, `shard_failed`, `profile`, `attack_outcomes`,
//! forensics bundles) through its flight-recorder tee. A [`Transport`]
//! carries leases out and typed [`Msg`]s back: in-process executor threads
//! over channels ([`crate::pool::run_matrix`]), or worker processes over
//! TCP (`cfed-serve`), which adds lease deadlines, strikes and quarantine.
//! In-process leases need no deadline: a thread cannot vanish silently (a
//! panicking unit is caught and reported as failed).
//!
//! ```text
//! pending ──lease──▶ leased ──done──▶ appended (terminal)
//!    ▲                  │
//!    │   failed / worker gone (the transport reports lease expiry as failed)
//!    └── attempts < max? re-queue after backoff : failed (appended)
//! ```

use std::collections::{HashMap, VecDeque};
use std::io::IsTerminal as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cfed_fault::CategoryStats;
use cfed_telemetry::json::Json;
use cfed_telemetry::{Event, EventSink, FlightRecorder, Profile, Telemetry};

use crate::matrix::{cell_of, CampaignMatrix, CellSpec, ShardTask};
use crate::retry::RetryPolicy;
use crate::store::{CampaignStore, ShardTallies, StoreHeader};

/// Flight-recorder window: the recent events attached to each forensics
/// bundle and `flight_dump` event (enough context to see the units and
/// retries leading up to an anomaly without unbounded history).
const FLIGHT_WINDOW: usize = 64;

/// One unit handed to a worker.
#[derive(Debug, Clone)]
pub struct Lease {
    /// Index of the phase the unit belongs to.
    pub phase: usize,
    /// The unit's cell and shard index.
    pub task: ShardTask,
    /// The unit's store key.
    pub key: String,
}

/// A unit a worker finished.
#[derive(Debug)]
pub struct UnitDone {
    /// The transport's id of the worker that ran the unit.
    pub worker: usize,
    /// Phase index the unit was leased under.
    pub phase: usize,
    /// The unit's store key.
    pub key: String,
    /// Wall-clock milliseconds the unit took.
    pub ms: u64,
    /// The unit's tallies.
    pub tallies: ShardTallies,
    /// The cell's execution profile (profiling on); appended once per cell,
    /// even when the result itself turns out to be a duplicate.
    pub profile: Option<Arc<Profile>>,
    /// Serialized forensics bundles captured for the unit.
    pub forensics: Vec<Json>,
    /// Trials that warranted a bundle (may exceed `forensics.len()`).
    pub forensics_wanted: u64,
}

/// What a transport reports to the scheduler. Workers are named by
/// transport-assigned ids; phases by index.
#[derive(Debug)]
pub enum Msg {
    /// How many leases `worker` may hold at once: its slots when it joins,
    /// `0` once it leaves or is quarantined (results it still delivers are
    /// accepted).
    Capacity { worker: usize, slots: usize },
    /// A unit finished.
    Done(Box<UnitDone>),
    /// A unit attempt failed (error, refused lease, expired lease).
    Failed { phase: usize, key: String, error: String },
    /// `worker` vanished; its outstanding leases are failed attempts.
    Gone { worker: usize },
}

/// How the scheduler resolved a message, for a transport's live views and
/// counters.
#[derive(Debug)]
pub enum Note<'a> {
    /// A unit's result was appended.
    Done { worker: usize, key: &'a str, ms: u64, tallies: &'a ShardTallies },
    /// A result for a unit already resolved, or of another phase, was
    /// dropped.
    Duplicate,
    /// A failed attempt was re-queued.
    Retried,
    /// A unit exhausted its attempts and was appended as failed.
    Failed { key: &'a str, error: &'a str },
    /// A cell's execution profile was appended.
    Profile(&'a Profile),
}

/// Carries leases to workers and their outcomes back.
pub trait Transport {
    /// Hands `lease` to `worker`; `false` when the worker is unreachable
    /// (the scheduler re-queues the unit and stops leasing to it).
    fn lease(&mut self, worker: usize, lease: &Lease) -> bool;

    /// The next message. `Ok(None)` when `wake` passes first (`None` waits
    /// for a message); `Err` when no message can ever arrive again.
    ///
    /// # Errors
    ///
    /// Returns a message when the transport has lost every worker for good.
    fn recv(&mut self, wake: Option<Instant>) -> Result<Option<Msg>, String>;

    /// Observes how a message was resolved. Ignored by default.
    fn note(&mut self, _note: Note<'_>) {}
}

/// A unit waiting to be leased.
struct Pending {
    task: ShardTask,
    key: String,
    /// Not leased before this instant (retry backoff).
    ready_at: Instant,
}

/// One phase: a matrix and its open store, from
/// [`Scheduler::open_phase`] through [`Scheduler::run_phase`].
pub struct Phase {
    /// Phase index (tags leases, so late results of an earlier phase are
    /// recognised as duplicates).
    pub(crate) index: usize,
    pub(crate) cells: Vec<CellSpec>,
    /// The store's header.
    pub header: StoreHeader,
    /// Written only through [`Phase::settle`] and [`Phase::append_meta`].
    pub(crate) store: CampaignStore,
    /// Units the store already held when the phase opened.
    pub resumed: u64,
    /// Units queued by this invocation.
    pub(crate) queued: u64,
    /// Failed attempts that were re-queued.
    pub(crate) retried: u64,
    pending: VecDeque<Pending>,
    /// Outstanding leases: unit key → (worker, unit).
    leases: HashMap<String, (usize, ShardTask)>,
    attempts: HashMap<String, u32>,
    /// Queued units not yet resolved (appended done or failed).
    remaining: u64,
    /// Units this invocation appended as failed.
    failed: u64,
    progress: ProgressLine,
}

impl Phase {
    /// The phase's store, read-only: the scheduler writes its shard records.
    pub fn store(&self) -> &CampaignStore {
        &self.store
    }

    /// Appends a meta record to the phase's store (see
    /// [`CampaignStore::append_meta`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the store cannot be written.
    pub fn append_meta(
        &mut self,
        kind: &str,
        fields: Vec<(&'static str, Json)>,
    ) -> Result<(), String> {
        self.store.append_meta(kind, fields)
    }

    /// Appends a unit's final record, done or failed: the one place shard
    /// results reach the store.
    fn settle(&mut self, key: &str, outcome: Result<ShardTallies, &str>) -> Result<(), String> {
        self.remaining -= 1;
        match outcome {
            Ok(tallies) => self.store.append_ok(key, tallies),
            Err(error) => {
                self.failed += 1;
                self.store.append_failed(key, error)
            }
        }
    }

    /// Injection trials across the queued units.
    pub(crate) fn queued_trials(&self) -> u64 {
        self.pending
            .iter()
            .map(|u| self.cells[u.task.cell].campaign().shard_trials(u.task.shard_index))
            .sum()
    }
}

/// The scheduler; see the module docs. Workers persist across phases.
pub struct Scheduler {
    retry: RetryPolicy,
    quiet: bool,
    /// The configured sink: flight dumps and forensics bypass the ring so
    /// windows never nest inside later windows.
    sink: Telemetry,
    /// Scheduler events, teed through the flight recorder.
    telemetry: Telemetry,
    flight: Arc<FlightRecorder>,
    /// Lease capacity per worker (`0` once retired).
    workers: HashMap<usize, usize>,
}

impl Scheduler {
    /// A scheduler emitting to `telemetry`. `quiet` silences stderr except
    /// final failures.
    pub fn new(retry: RetryPolicy, telemetry: &Telemetry, quiet: bool) -> Scheduler {
        // Always on: tee in front of the configured sink (or stand alone
        // when telemetry is off), so anomaly paths can attach the recent
        // window without changing what downstream sees.
        let flight = Arc::new(match telemetry.sink() {
            Some(inner) => FlightRecorder::tee(FLIGHT_WINDOW, inner),
            None => FlightRecorder::new(FLIGHT_WINDOW),
        });
        Scheduler {
            retry,
            quiet,
            sink: telemetry.clone(),
            telemetry: Telemetry::to(Arc::clone(&flight) as Arc<dyn EventSink>),
            flight,
            workers: HashMap::new(),
        }
    }

    /// The event handle teed through the flight recorder.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The flight recorder behind [`Scheduler::telemetry`].
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Opens phase `index` of run `run_id`: the store at `store` (in memory
    /// when `None`), created or resumed against the matrix's header, and
    /// the queue of units it does not hold yet — at most `limit` of them.
    ///
    /// # Errors
    ///
    /// Returns a message when the store cannot be opened or belongs to a
    /// different campaign.
    pub fn open_phase(
        &self,
        run_id: &str,
        index: usize,
        matrix: &CampaignMatrix,
        store: Option<&Path>,
        limit: Option<usize>,
    ) -> Result<Phase, String> {
        let cells = matrix.cells();
        let units = CampaignMatrix::shards(&cells);
        let header = StoreHeader {
            run_id: run_id.to_string(),
            seed: matrix.seed,
            trials: matrix.trials,
            shard_trials: CampaignMatrix::shard_trials(),
            digest: CampaignMatrix::digest(&cells),
            total_shards: units.len() as u64,
        };
        let store = match store {
            Some(path) => CampaignStore::open(path, &header)?,
            None => CampaignStore::in_memory(),
        };
        let now = Instant::now();
        let mut pending: VecDeque<Pending> = units
            .iter()
            .map(|&task| Pending { task, key: task.key(&cells), ready_at: now })
            .filter(|u| !store.done.contains_key(&u.key))
            .collect();
        let resumed = (units.len() - pending.len()) as u64;
        if let Some(limit) = limit {
            pending.truncate(limit);
        }
        let queued = pending.len() as u64;
        Ok(Phase {
            index,
            cells,
            header,
            store,
            resumed,
            queued,
            retried: 0,
            pending,
            leases: HashMap::new(),
            attempts: HashMap::new(),
            remaining: queued,
            failed: 0,
            progress: ProgressLine::new(self.quiet),
        })
    }

    /// Runs `phase` over `transport` until every queued unit is appended,
    /// or — once `stop` is set — until the in-flight units drain (the
    /// store stays checkpointed for a later resume). Returns whether a
    /// stop request ended the phase.
    ///
    /// # Errors
    ///
    /// Returns a message on store I/O errors or when the transport is gone.
    pub fn run_phase(
        &mut self,
        phase: &mut Phase,
        transport: &mut impl Transport,
        stop: &AtomicBool,
    ) -> Result<bool, String> {
        let mut stopped = false;
        while phase.remaining > 0 {
            if !stopped && stop.load(Ordering::Relaxed) {
                stopped = true;
                self.sink.emit_with(|| self.flight.dump_event("sigint"));
                if !self.quiet {
                    phase.progress.clear();
                    eprintln!(
                        "cfed-runner: stop requested — draining {} in-flight unit(s)",
                        phase.leases.len()
                    );
                }
            }
            if stopped && phase.leases.is_empty() {
                break;
            }
            if !stopped {
                self.assign(phase, transport);
            }
            // Wake for the next unit leaving retry backoff; otherwise only
            // a message can make progress.
            let now = Instant::now();
            let wake = phase.pending.iter().map(|u| u.ready_at).filter(|&t| t > now).min();
            if let Some(msg) = transport.recv(wake)? {
                self.handle(msg, phase, transport)?;
            }
        }
        phase.progress.finish();
        Ok(stopped)
    }

    /// Leases ready units to the least-loaded workers with a free slot.
    fn assign(&mut self, phase: &mut Phase, transport: &mut impl Transport) {
        let now = Instant::now();
        while let Some(pos) = phase.pending.iter().position(|u| u.ready_at <= now) {
            let load = |w: usize| phase.leases.values().filter(|&&(holder, _)| holder == w).count();
            let Some(worker) = self
                .workers
                .iter()
                .filter(|&(&w, &slots)| load(w) < slots)
                .min_by_key(|&(&w, _)| load(w))
                .map(|(&w, _)| w)
            else {
                return;
            };
            let unit = phase.pending.remove(pos).expect("position valid");
            let lease = Lease { phase: phase.index, task: unit.task, key: unit.key };
            if transport.lease(worker, &lease) {
                phase.leases.insert(lease.key, (worker, lease.task));
            } else {
                self.workers.insert(worker, 0);
                phase.pending.push_front(Pending { task: lease.task, key: lease.key, ..unit });
            }
        }
    }

    fn handle(
        &mut self,
        msg: Msg,
        phase: &mut Phase,
        transport: &mut impl Transport,
    ) -> Result<(), String> {
        match msg {
            Msg::Capacity { worker, slots } => {
                self.workers.insert(worker, slots);
            }
            Msg::Gone { worker } => {
                self.workers.remove(&worker);
                let lost: Vec<String> = phase
                    .leases
                    .iter()
                    .filter(|(_, &(holder, _))| holder == worker)
                    .map(|(k, _)| k.clone())
                    .collect();
                for key in lost {
                    self.retry_or_fail(phase, transport, &key, "worker disconnected mid-unit")?;
                }
            }
            Msg::Failed { phase: index, key, error } => {
                if index == phase.index {
                    self.retry_or_fail(phase, transport, &key, &error)?;
                }
            }
            Msg::Done(done) => self.done(*done, phase, transport)?,
        }
        Ok(())
    }

    fn done(
        &mut self,
        done: UnitDone,
        phase: &mut Phase,
        transport: &mut impl Transport,
    ) -> Result<(), String> {
        let UnitDone { worker, phase: index, key, ms, tallies, profile, .. } = done;
        if index != phase.index {
            transport.note(Note::Duplicate);
            return Ok(());
        }
        if let Some((profile, cell_key)) = profile.zip(cell_of(&key)) {
            // Idempotent, and accepted even with a duplicate result: the
            // sender ships a cell's profile only once.
            if !phase.store.profiles.contains_key(cell_key)
                && phase.cells.iter().any(|c| c.key() == cell_key)
                && phase.store.append_profile(cell_key, &profile)?
            {
                transport.note(Note::Profile(&profile));
                self.telemetry.emit_with(|| {
                    let t = profile.totals();
                    Event::new("profile")
                        .str("cell", cell_key)
                        .u64("blocks", profile.num_blocks() as u64)
                        .u64("payload_cycles", t.payload)
                        .u64("instr_cycles", t.instr())
                        .u64("other_cycles", t.other)
                });
            }
        }
        // Appended only if currently leased, or back in the queue after a
        // failed attempt, and not already in the store.
        let tracked = if phase.store.done.contains_key(&key) {
            None
        } else if let Some((_, task)) = phase.leases.remove(&key) {
            Some(task)
        } else {
            let pos = phase.pending.iter().position(|u| u.key == key);
            pos.and_then(|pos| phase.pending.remove(pos)).map(|u| u.task)
        };
        let Some(task) = tracked else {
            transport.note(Note::Duplicate);
            return Ok(());
        };
        let attack = phase.cells[task.cell].attack;
        if let Some(kind) = attack {
            // Per-outcome counters: the raw material of the detection
            // frontier, queryable live from the event plane.
            let sum = |f: fn(&CategoryStats) -> u64| tallies.stats.iter().map(f).sum::<u64>();
            self.telemetry.emit_with(|| {
                Event::new("attack_outcomes")
                    .str("shard", &key)
                    .str("attack", kind.name())
                    .u64("detected_check", sum(|s| s.detected_check))
                    .u64("detected_hw", sum(|s| s.detected_hw))
                    .u64("other_fault", sum(|s| s.other_fault))
                    .u64("benign", sum(|s| s.benign))
                    .u64("sdc", sum(|s| s.sdc))
                    .u64("timeout", sum(|s| s.timeout))
                    .u64("unplaced", tallies.skipped)
            });
        }
        phase.settle(&key, Ok(tallies))?;
        transport.note(Note::Done { worker, key: &key, ms, tallies: &phase.store.done[&key] });
        let (stored, total) = (phase.store.done.len() as u64, phase.header.total_shards);
        self.telemetry.emit_with(|| {
            Event::new("shard_done").str("shard", &key).u64("done", stored).u64("of", total)
        });
        let bundle_kind = if attack.is_some() { "attack_forensics" } else { "forensics" };
        for bundle in done.forensics {
            // SDC/timeout forensics carry the flight-recorder window: the
            // recent events leading up to the anomaly.
            self.sink.emit_with(|| {
                Event::new(bundle_kind)
                    .str("shard", &key)
                    .u64("wanted", done.forensics_wanted)
                    .json("bundle", bundle)
                    .u64("flight_dropped", self.flight.dropped())
                    .json("window", self.flight.recent_json())
            });
        }
        let completed = phase.queued - phase.remaining - phase.failed;
        phase.progress.update(completed, phase.failed, phase.queued);
        Ok(())
    }

    /// A leased unit's attempt failed: re-queue it with backoff while the
    /// retry budget lasts, else append it as failed. Unleased keys (stale
    /// or unknown) are ignored.
    fn retry_or_fail(
        &mut self,
        phase: &mut Phase,
        transport: &mut impl Transport,
        key: &str,
        error: &str,
    ) -> Result<(), String> {
        let Some((_, task)) = phase.leases.remove(key) else { return Ok(()) };
        let attempts = phase.attempts.entry(key.to_string()).or_insert(0);
        *attempts += 1;
        let attempts = *attempts;
        let event = || {
            let e = Event::new("shard_failed").str("shard", key).str("error", error);
            e.u64("attempt", u64::from(attempts))
        };
        phase.progress.clear();
        if self.retry.allows(attempts) {
            phase.retried += 1;
            transport.note(Note::Retried);
            self.telemetry.emit_with(|| event().u64("retried", 1));
            if !self.quiet {
                eprintln!("cfed-runner: shard {key} attempt {attempts} failed, retrying: {error}");
            }
            phase.pending.push_back(Pending {
                task,
                key: key.to_string(),
                ready_at: Instant::now() + self.retry.backoff(attempts),
            });
        } else {
            phase.settle(key, Err(error))?;
            transport.note(Note::Failed { key, error });
            self.telemetry.emit_with(event);
            eprintln!("cfed-runner: shard {key} FAILED after {attempts} attempt(s): {error}");
        }
        Ok(())
    }
}

/// The live stderr status line (`done/total | shards/s | ETA`).
///
/// Shown only when stderr is a terminal, and colored only when
/// `NO_COLOR` is unset (per the no-color convention, any non-empty value
/// disables color). The result store has its own file writer, so progress
/// output can never interleave with store records.
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

    fn update(&mut self, done: u64, failed: u64, total: u64) {
        if !self.live {
            return;
        }
        let rate = done as f64 / self.start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let eta = if rate > 0.0 {
            format!("{}s", (total.saturating_sub(done) as f64 / rate).round() as u64)
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
        if std::mem::take(&mut self.open) {
            eprint!(
                "{}",
                if self.color { "\r\x1b[2K".to_string() } else { format!("\r{:<78}\r", "") }
            );
        }
    }

    fn finish(&mut self) {
        if std::mem::take(&mut self.open) {
            eprintln!();
        }
    }
}
