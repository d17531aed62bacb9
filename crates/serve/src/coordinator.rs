//! The campaign coordinator: the TCP transport of the runner's unit
//! scheduler ([`cfed_runner::scheduler`]).
//!
//! The scheduler decides everything that reaches the store — queue,
//! retry, duplicate filtering, appends, per-unit telemetry — and the
//! result is byte-identical to a single-process run for any worker count,
//! schedule, or crash/retry history. This module adds what only a network
//! needs: the acceptor and per-connection reader threads, translation
//! between frames and scheduler messages, lease deadlines, strikes and
//! quarantine, the forwarded worker events, and the live view and
//! `serve_stats` counters.
//!
//! A lease not answered before its deadline is reported to the scheduler
//! as a failed attempt and strikes its worker. A worker that accumulates
//! [`MAX_STRIKES`] expired leases is quarantined: its connection stays
//! open (late results are still accepted) but it is never leased to again.
//!
//! ## Backpressure
//!
//! Each worker holds at most `min(its advertised slots, max_inflight)`
//! outstanding leases; results and control frames are never dropped.
//! Telemetry events stream through the *worker's* bounded queue
//! ([`cfed_telemetry::ChannelSink`]) — when a slow coordinator link fills
//! it, events are dropped and counted there, and the cumulative drop
//! count rides back on every result frame into [`ServeStats`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cfed_runner::matrix::{cell_of, CampaignMatrix};
use cfed_runner::retry::RetryPolicy;
use cfed_runner::scheduler::{Lease, Msg, Note, Scheduler, Transport, UnitDone};
use cfed_runner::store::ShardTallies;
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{Event, FlightRecorder, Profile, Telemetry};

use crate::http::LiveView;
use crate::proto::{matrix_to_json, read_frame, tag, write_frame};
use crate::stats::ServeStats;

/// Expired leases a worker may accumulate before the coordinator stops
/// leasing to it (its connection stays open for late results).
pub const MAX_STRIKES: u32 = 2;

/// How often the transport wakes without a frame: lease deadlines, the
/// stop flag and the live counters are checked at this granularity.
const POLL: Duration = Duration::from_millis(25);

/// One phase of a campaign: a matrix persisted to its own store file.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Phase label (progress and `serve_stats` reporting).
    pub label: String,
    /// The matrix to execute.
    pub matrix: CampaignMatrix,
    /// The JSONL store path (created or resumed).
    pub store: PathBuf,
}

/// Coordinator configuration.
#[derive(Clone)]
pub struct CoordinatorOptions {
    /// TCP listen address for workers (e.g. `127.0.0.1:0`).
    pub listen: String,
    /// Optional HTTP listen address for `/report`, `/progress`, `/healthz`.
    pub http: Option<String>,
    /// Lease deadline: a unit not answered within this window is treated
    /// as failed and re-queued under the retry policy.
    pub lease_ms: u64,
    /// Bounded retry with backoff for failed/expired units (the
    /// scheduler's re-queue).
    pub retry: RetryPolicy,
    /// Hard cap on outstanding leases per worker (backpressure), applied
    /// on top of each worker's advertised slot count.
    pub max_inflight: usize,
    /// Suppress stderr progress output.
    pub quiet: bool,
    /// Structured-event handle; receives `shard_done`, `shard_failed`,
    /// `serve_stats`, and forwarded worker events (as `worker_event`).
    pub telemetry: Telemetry,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            listen: "127.0.0.1:0".to_string(),
            http: None,
            lease_ms: 60_000,
            retry: RetryPolicy::default(),
            max_inflight: 4,
            quiet: false,
            telemetry: Telemetry::off(),
        }
    }
}

/// Per-phase outcome.
#[derive(Debug)]
pub struct PhaseSummary {
    /// Phase label.
    pub label: String,
    /// Total units in the phase.
    pub total_units: u64,
    /// Units persisted as done (including resumed ones).
    pub done_units: u64,
    /// Units persisted as permanently failed.
    pub failed_units: u64,
    /// Units skipped because the store already held them.
    pub resumed_units: u64,
}

impl PhaseSummary {
    /// Whether every unit completed successfully.
    pub fn complete(&self) -> bool {
        self.done_units == self.total_units
    }
}

/// Outcome of a coordinator run.
#[derive(Debug)]
pub struct CoordinatorSummary {
    /// One entry per phase, in plan order.
    pub phases: Vec<PhaseSummary>,
    /// Service counters summed over all phases.
    pub stats: ServeStats,
    /// Whether the run was stopped early (stop flag / SIGINT drain).
    pub stopped: bool,
}

impl CoordinatorSummary {
    /// Whether every phase completed every unit.
    pub fn complete(&self) -> bool {
        !self.stopped && self.phases.iter().all(PhaseSummary::complete)
    }
}

/// A bound coordinator: listeners are open (so the address is known and
/// workers may already connect) but no campaign runs until
/// [`Coordinator::run`].
pub struct Coordinator {
    listener: TcpListener,
    addr: String,
    http_addr: Option<String>,
    http_handle: Option<std::thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    live: Arc<LiveView>,
    options: CoordinatorOptions,
}

impl Coordinator {
    /// Binds the worker listener (and the HTTP listener, when configured).
    ///
    /// # Errors
    ///
    /// Returns a message when an address cannot be bound.
    pub fn bind(options: CoordinatorOptions) -> Result<Coordinator, String> {
        let listener = TcpListener::bind(&options.listen)
            .map_err(|e| format!("binding {}: {e}", options.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("resolving listen address: {e}"))?
            .to_string();
        let live = Arc::new(LiveView::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (http_addr, http_handle) = match &options.http {
            Some(http) => {
                let http_listener =
                    TcpListener::bind(http).map_err(|e| format!("binding http {http}: {e}"))?;
                let bound = http_listener
                    .local_addr()
                    .map_err(|e| format!("resolving http address: {e}"))?
                    .to_string();
                let handle =
                    crate::http::spawn(http_listener, Arc::clone(&live), Arc::clone(&shutdown));
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };
        Ok(Coordinator { listener, addr, http_addr, http_handle, shutdown, live, options })
    }

    /// The bound worker address (resolves `:0` to the actual port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The bound HTTP address, when HTTP is enabled.
    pub fn http_addr(&self) -> Option<&str> {
        self.http_addr.as_deref()
    }

    /// Runs the campaign phases to completion (or until `stop` is set:
    /// leasing halts, in-flight units drain, and the stores are left
    /// checkpointed for a later resume).
    ///
    /// # Errors
    ///
    /// Returns a message on store I/O errors; worker failures are handled
    /// by the retry machinery, not surfaced here.
    pub fn run(
        mut self,
        run_id: &str,
        phases: &[PhasePlan],
        stop: Option<Arc<AtomicBool>>,
    ) -> Result<CoordinatorSummary, String> {
        let (tx, rx) = mpsc::channel::<CoordMsg>();
        let accept_handle = spawn_acceptor(
            self.listener.try_clone().map_err(|e| format!("cloning listener: {e}"))?,
            tx.clone(),
            Arc::clone(&self.shutdown),
        );
        let options = &self.options;
        let mut scheduler = Scheduler::new(options.retry, &options.telemetry, options.quiet);
        let mut net = Net {
            rx,
            conns: HashMap::new(),
            deadlines: HashMap::new(),
            outbox: VecDeque::new(),
            run_id: run_id.to_string(),
            phase: 0,
            announce: Json::Null,
            stats: ServeStats::default(),
            stats_total: ServeStats::default(),
            live: Arc::clone(&self.live),
            options: options.clone(),
            telemetry: scheduler.telemetry().clone(),
            flight: Arc::clone(scheduler.flight()),
        };
        let stop_flag = stop.unwrap_or_else(|| Arc::new(AtomicBool::new(false)));

        let mut summaries = Vec::with_capacity(phases.len());
        let mut stopped = false;
        for (index, plan) in phases.iter().enumerate() {
            let mut phase =
                scheduler.open_phase(run_id, index, &plan.matrix, Some(&plan.store), None)?;
            self.live.begin_phase(
                run_id,
                &plan.label,
                phase.header.clone(),
                phase.store().done.clone(),
                phase.store().failed.clone(),
            );
            if !options.quiet {
                eprintln!(
                    "cfed-serve: phase {} — {} units ({} resumed), store {}",
                    plan.label,
                    phase.header.total_shards,
                    phase.resumed,
                    plan.store.display()
                );
            }
            net.begin_phase(index, plan);
            stopped = scheduler.run_phase(&mut phase, &mut net, &stop_flag)?;

            // Phase accounting: persist the service counters as a meta
            // record (invisible to the report) and emit the serve_stats
            // event.
            let stats = std::mem::take(&mut net.stats);
            phase.append_meta("serve_stats", stats.to_meta_fields())?;
            scheduler.telemetry().emit_with(|| stats.to_event());
            net.stats_total.absorb(&stats);
            self.live.set_stats(net.stats_total.clone());
            let summary = PhaseSummary {
                label: plan.label.clone(),
                total_units: phase.header.total_shards,
                done_units: phase.store().done.len() as u64,
                failed_units: phase.store().failed.len() as u64,
                resumed_units: phase.resumed,
            };
            if !options.quiet {
                eprintln!(
                    "cfed-serve: phase {} {} — {}/{} units done ({} failed, {} retried attempt(s))",
                    plan.label,
                    if stopped { "checkpointed" } else { "complete" },
                    summary.done_units,
                    summary.total_units,
                    summary.failed_units,
                    stats.retried,
                );
            }
            summaries.push(summary);
            if stopped {
                break;
            }
        }

        // Campaign over: tell every worker to drain and exit, then tear
        // down the listener threads and reader sockets.
        for conn in net.conns.values_mut() {
            if conn.hello && conn.alive {
                let _ =
                    write_frame(&mut conn.writer, &obj(vec![("t", Json::Str("bye".to_string()))]));
            }
        }
        self.live.finish();
        self.shutdown.store(true, Ordering::Relaxed);
        for conn in net.conns.values() {
            let _ = conn.writer.shutdown(std::net::Shutdown::Both);
        }
        drop(tx);
        let _ = accept_handle.join();
        if let Some(handle) = self.http_handle.take() {
            let _ = handle.join();
        }
        Ok(CoordinatorSummary { phases: summaries, stats: net.stats_total, stopped })
    }
}

fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<CoordMsg>,
    shutdown: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let _ = listener.set_nonblocking(true);
    std::thread::spawn(move || {
        let mut next_conn = 0usize;
        loop {
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let conn = next_conn;
                    next_conn += 1;
                    let Ok(read_half) = stream.try_clone() else { continue };
                    if tx.send(CoordMsg::Connected { conn, writer: stream }).is_err() {
                        break;
                    }
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut read_half = read_half;
                        while let Ok(Some(frame)) = read_frame(&mut read_half) {
                            if tx.send(CoordMsg::Frame { conn, frame }).is_err() {
                                break;
                            }
                        }
                        let _ = tx.send(CoordMsg::Gone { conn });
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(_) => break,
            }
        }
    })
}

enum CoordMsg {
    /// A connection appeared; its write half is registered eagerly so the
    /// transport can answer its `hello`.
    Connected { conn: usize, writer: TcpStream },
    /// A frame arrived from a connection.
    Frame { conn: usize, frame: Json },
    /// The connection closed or its reader failed.
    Gone { conn: usize },
}

struct Conn {
    writer: TcpStream,
    name: String,
    /// Expired leases; at [`MAX_STRIKES`] the worker is quarantined.
    strikes: u32,
    alive: bool,
    hello: bool,
    /// Last cumulative event-drop count reported by the worker.
    dropped_seen: u64,
    /// A `profile` frame waiting for the result frame it precedes.
    profile: Option<(String, Arc<Profile>)>,
}

/// The TCP transport: connection ids are the scheduler's worker ids.
struct Net {
    rx: Receiver<CoordMsg>,
    conns: HashMap<usize, Conn>,
    /// Outstanding leases: unit key → (connection, deadline).
    deadlines: HashMap<String, (usize, Instant)>,
    /// Messages produced beyond the one `recv` returns (expiries).
    outbox: VecDeque<Msg>,
    run_id: String,
    phase: usize,
    /// The `phase` frame announced to present and future workers.
    announce: Json,
    /// This phase's counters, and the earlier phases' sum.
    stats: ServeStats,
    stats_total: ServeStats,
    live: Arc<LiveView>,
    options: CoordinatorOptions,
    /// The scheduler's flight-recorder tee (forwarded worker events).
    telemetry: Telemetry,
    flight: Arc<FlightRecorder>,
}

impl Net {
    /// Announces phase `index` to every joined worker.
    fn begin_phase(&mut self, index: usize, plan: &PhasePlan) {
        self.phase = index;
        // A phase ends only once nothing is leased, but an expired lease
        // answered late may have left a stale deadline behind.
        self.deadlines.clear();
        self.announce = obj(vec![
            ("t", Json::Str("phase".to_string())),
            ("phase", Json::UInt(index as u64)),
            ("label", Json::Str(plan.label.clone())),
            ("matrix", matrix_to_json(&plan.matrix)),
        ]);
        for conn in self.conns.values_mut() {
            if conn.hello && conn.alive && write_frame(&mut conn.writer, &self.announce).is_err() {
                conn.alive = false;
            }
        }
    }

    fn name(&self, conn: usize) -> String {
        self.conns.get(&conn).map_or("?", |c| c.name.as_str()).to_string()
    }

    /// Turns a connection event into at most one scheduler message.
    fn translate(&mut self, msg: CoordMsg) -> Option<Msg> {
        match msg {
            CoordMsg::Connected { conn, writer } => {
                let name = format!("w{conn}");
                let c = Conn {
                    writer,
                    name,
                    strikes: 0,
                    alive: true,
                    hello: false,
                    dropped_seen: 0,
                    profile: None,
                };
                self.conns.insert(conn, c);
                None
            }
            CoordMsg::Gone { conn } => {
                let worker = self.conns.get_mut(&conn)?;
                worker.alive = false;
                let name = worker.name.clone();
                let before = self.deadlines.len();
                self.deadlines.retain(|_, (holder, _)| *holder != conn);
                let lost = (before - self.deadlines.len()) as u64;
                if lost > 0 {
                    // A worker died mid-unit (killed, crashed, or cut off):
                    // dump the recent-event window past the recorder so
                    // the trail survives though the worker cannot report.
                    self.stats.expired += lost;
                    self.options.telemetry.emit_with(|| {
                        self.flight
                            .dump_event("worker_lost")
                            .str("worker", &name)
                            .u64("lost_leases", lost)
                    });
                }
                Some(Msg::Gone { worker: conn })
            }
            CoordMsg::Frame { conn, frame } => self.frame(conn, &frame),
        }
    }

    fn frame(&mut self, conn: usize, frame: &Json) -> Option<Msg> {
        let str_of = |k: &str| frame.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        // Frames without a phase never match one.
        let phase = frame.get("phase").and_then(Json::as_u64).map_or(usize::MAX, |p| p as usize);
        // Junk frames are tolerated rather than dying on them.
        match tag(frame).ok()? {
            "hello" => {
                let declared = str_of("name");
                let taken = !declared.is_empty()
                    && self.conns.values().any(|w| w.hello && w.name == declared);
                let slots = frame.get("slots").and_then(Json::as_u64).unwrap_or(1).clamp(1, 256);
                let worker = self.conns.get_mut(&conn)?;
                worker.hello = true;
                if !declared.is_empty() {
                    worker.name = if taken { format!("{declared}-{conn}") } else { declared };
                }
                let welcome = obj(vec![
                    ("t", Json::Str("welcome".to_string())),
                    ("run_id", Json::Str(self.run_id.clone())),
                    ("worker", Json::Str(worker.name.clone())),
                ]);
                if write_frame(&mut worker.writer, &welcome).is_err()
                    || write_frame(&mut worker.writer, &self.announce).is_err()
                {
                    worker.alive = false;
                }
                let slots = (slots as usize).min(self.options.max_inflight.max(1));
                Some(Msg::Capacity { worker: conn, slots })
            }
            "result" => {
                let key = str_of("key");
                self.release(conn, &key);
                let worker = self.conns.get_mut(&conn)?;
                // Cumulative drop counter from the worker's bounded event
                // queue.
                let dropped = frame.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                if dropped > worker.dropped_seen {
                    self.stats.events_dropped += dropped - worker.dropped_seen;
                    worker.dropped_seen = dropped;
                }
                let profile = worker
                    .profile
                    .take()
                    .and_then(|(cell, p)| (cell_of(&key) == Some(cell.as_str())).then_some(p));
                let record = frame.get("record").ok_or("result frame missing record".to_string());
                match record.and_then(ShardTallies::from_json) {
                    Ok(tallies) => Some(Msg::Done(Box::new(UnitDone {
                        worker: conn,
                        phase,
                        key,
                        ms: frame.get("ms").and_then(Json::as_u64).unwrap_or(0),
                        tallies,
                        profile,
                        forensics: Vec::new(),
                        forensics_wanted: 0,
                    }))),
                    // A malformed record counts as a failed attempt.
                    Err(e) => {
                        Some(Msg::Failed { phase, key, error: format!("malformed result: {e}") })
                    }
                }
            }
            "fail" => {
                let key = str_of("key");
                self.release(conn, &key);
                let error = frame.get("error").and_then(Json::as_str);
                let error = error.unwrap_or("worker reported failure").to_string();
                Some(Msg::Failed { phase, key, error })
            }
            "event" => {
                self.stats.events_forwarded += 1;
                let worker = self.name(conn);
                let payload = frame.get("ev").cloned().unwrap_or(Json::Null);
                self.live.record_event(&worker, payload.clone());
                self.telemetry.emit_with(|| {
                    Event::new("worker_event").str("worker", &worker).json("event", payload)
                });
                None
            }
            "profile" => {
                // Rides on the worker's next result frame; the scheduler
                // appends it once per cell.
                let cell = str_of("cell");
                match frame.get("profile").map(Profile::from_json) {
                    Some(Ok(p)) => self.conns.get_mut(&conn)?.profile = Some((cell, Arc::new(p))),
                    Some(Err(e)) if !self.options.quiet => {
                        eprintln!("cfed-serve: bad profile frame for {cell}: {e}");
                    }
                    _ => {}
                }
                None
            }
            "bye" => {
                self.conns.get_mut(&conn)?.alive = false;
                Some(Msg::Capacity { worker: conn, slots: 0 })
            }
            _ => None,
        }
    }

    /// Clears `key`'s deadline when `conn` holds the lease: a late answer
    /// from an earlier holder leaves the current holder's deadline armed.
    fn release(&mut self, conn: usize, key: &str) {
        if self.deadlines.get(key).is_some_and(|&(holder, _)| holder == conn) {
            self.deadlines.remove(key);
        }
    }

    /// Fails leases past their deadline, striking (and at the limit
    /// quarantining) their workers.
    fn expire(&mut self) {
        let now = Instant::now();
        let (expired, pending): (HashMap<_, _>, _) =
            self.deadlines.drain().partition(|(_, (_, deadline))| *deadline <= now);
        self.deadlines = pending;
        for (key, (conn, _)) in expired {
            self.stats.expired += 1;
            if let Some(worker) = self.conns.get_mut(&conn) {
                worker.strikes += 1;
                if worker.strikes == MAX_STRIKES {
                    self.stats.quarantined += 1;
                    self.options.telemetry.emit_with(|| {
                        self.flight.dump_event("quarantine").str("worker", &worker.name)
                    });
                    if !self.options.quiet {
                        eprintln!(
                            "cfed-serve: worker {} quarantined after {} expired leases",
                            worker.name, worker.strikes
                        );
                    }
                    // Before the failure, so the unit is not re-leased to it.
                    self.outbox.push_back(Msg::Capacity { worker: conn, slots: 0 });
                }
            }
            let error = "lease expired".to_string();
            self.outbox.push_back(Msg::Failed { phase: self.phase, key, error });
        }
    }

    /// Keeps `/progress` and `/metrics` current mid-phase: run-so-far
    /// counters, live workers and their outstanding leases.
    fn publish(&self) {
        let mut stats = self.stats_total.clone();
        stats.absorb(&self.stats);
        self.live.set_stats(stats);
        let inflight: BTreeMap<String, u64> = self
            .conns
            .iter()
            .filter(|(_, w)| w.hello && w.alive)
            .map(|(&conn, w)| {
                let held = self.deadlines.values().filter(|(holder, _)| *holder == conn).count();
                (w.name.clone(), held as u64)
            })
            .collect();
        self.live.set_workers(self.conns.values().filter(|w| w.hello && w.alive).count());
        self.live.set_inflight(inflight);
    }
}

impl Transport for Net {
    fn lease(&mut self, worker: usize, lease: &Lease) -> bool {
        let Some(conn) = self.conns.get_mut(&worker) else { return false };
        let frame = obj(vec![
            ("t", Json::Str("lease".to_string())),
            ("phase", Json::UInt(lease.phase as u64)),
            ("cell", Json::UInt(lease.task.cell as u64)),
            ("shard", Json::UInt(lease.task.shard_index)),
            ("key", Json::Str(lease.key.clone())),
        ]);
        if write_frame(&mut conn.writer, &frame).is_err() {
            conn.alive = false;
            return false;
        }
        self.stats.leased += 1;
        let deadline = Instant::now() + Duration::from_millis(self.options.lease_ms.max(1));
        self.deadlines.insert(lease.key.clone(), (worker, deadline));
        true
    }

    fn recv(&mut self, wake: Option<Instant>) -> Result<Option<Msg>, String> {
        if let Some(msg) = self.outbox.pop_front() {
            return Ok(Some(msg));
        }
        let until = wake.map_or(POLL, |at| at.saturating_duration_since(Instant::now()).min(POLL));
        let msg = match self.rx.recv_timeout(until) {
            Ok(msg) => self.translate(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return Err("acceptor exited".to_string()),
        };
        self.expire();
        self.publish();
        Ok(msg.or_else(|| self.outbox.pop_front()))
    }

    fn note(&mut self, note: Note<'_>) {
        match note {
            Note::Done { worker, key, ms, tallies } => {
                self.stats.record_unit(&self.name(worker), ms);
                self.live.record_done(key, tallies.clone());
            }
            Note::Duplicate => self.stats.duplicates += 1,
            Note::Retried => self.stats.retried += 1,
            Note::Failed { key, error } => {
                self.stats.failed += 1;
                self.live.record_failed(key, error);
            }
            Note::Profile(profile) => self.live.record_profile(&profile.totals()),
        }
    }
}
