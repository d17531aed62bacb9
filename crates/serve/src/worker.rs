//! The campaign worker: connects to a coordinator, executes leased units
//! on the shared runner-pool executor (per-thread image caches, shared
//! golden cache with snapshot fast-forward), and streams results and
//! telemetry back over the wire.
//!
//! Safety property: a worker never trusts a lease blindly. It recomputes
//! the unit's store key from its own reconstruction of the phase matrix
//! and refuses leases whose key disagrees — a serialization or version
//! mismatch between coordinator and worker fails loudly instead of
//! appending tallies under the wrong key.
//!
//! Telemetry events (`unit_done`, `unit_failed`) pass through a bounded
//! [`ChannelSink`]: a slow coordinator link drops events (counted,
//! reported on every result frame) rather than stalling execution.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use cfed_runner::matrix::{cell_of, CellSpec, ShardTask};
use cfed_runner::pool::{spawn_executors, GoldenCache, Job, RunnerOptions};
use cfed_runner::scheduler::{Lease, Msg};
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{ChannelSink, Event, EventSink};

use crate::proto::{matrix_from_json, read_frame, tag, write_frame};

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, e.g. `127.0.0.1:7171`.
    pub connect: String,
    /// Advertised worker name (the coordinator de-duplicates collisions).
    pub name: String,
    /// Executor threads — also the lease slot count advertised in `hello`.
    /// `0` means `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Whether golden runs carry snapshot fast-forward sets.
    pub snapshots: bool,
    /// Whether golden preparation also runs the sampling profiler, shipping
    /// one per-cell execution profile back to the coordinator (first worker
    /// to finish a unit of the cell wins; profiles are deterministic, so
    /// which worker sends it cannot change the stored bytes).
    pub profile: bool,
    /// Capacity of the bounded outbound telemetry queue; overflow is
    /// dropped and counted, never blocking unit execution.
    pub event_queue: usize,
    /// Suppress stderr progress output.
    pub quiet: bool,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            connect: "127.0.0.1:7171".to_string(),
            name: String::new(),
            threads: 0,
            snapshots: true,
            profile: true,
            event_queue: 1024,
            quiet: false,
        }
    }
}

/// Outcome of a worker session.
#[derive(Debug, Default)]
pub struct WorkerSummary {
    /// Name the coordinator addressed this worker by.
    pub worker: String,
    /// Units completed successfully.
    pub units_done: u64,
    /// Unit attempts that failed (reported via `fail` frames).
    pub units_failed: u64,
    /// Leases refused because their key disagreed with the worker's own
    /// reconstruction of the matrix.
    pub leases_refused: u64,
    /// Telemetry events dropped at the bounded outbound queue.
    pub events_dropped: u64,
}

/// One phase as the worker sees it: the reconstructed cell list plus a
/// golden cache shared by all executor threads.
type PhaseCtx = (Arc<Vec<CellSpec>>, Arc<GoldenCache>);

enum WorkerMsg {
    /// A frame from the coordinator.
    Frame(Json),
    /// The coordinator connection closed or failed.
    Disconnected(String),
    /// An executor thread finished a unit (done or failed).
    Unit(Msg),
}

impl From<Msg> for WorkerMsg {
    fn from(msg: Msg) -> WorkerMsg {
        WorkerMsg::Unit(msg)
    }
}

/// Connects to the coordinator and serves until it says `bye`, the
/// connection drops, or `stop` is set (drain in-flight units, announce
/// `bye`, exit — leased-but-unfinished units simply expire and are
/// re-leased elsewhere).
///
/// # Errors
///
/// Returns a message when the connection cannot be established; once
/// serving, coordinator loss is a normal exit, not an error.
pub fn work(
    options: &WorkerOptions,
    stop: Option<Arc<AtomicBool>>,
) -> Result<WorkerSummary, String> {
    let stream = TcpStream::connect(&options.connect)
        .map_err(|e| format!("connecting to coordinator {}: {e}", options.connect))?;
    let _ = stream.set_nodelay(true);
    serve_connection(stream, options, stop)
}

fn serve_connection(
    stream: TcpStream,
    options: &WorkerOptions,
    stop: Option<Arc<AtomicBool>>,
) -> Result<WorkerSummary, String> {
    let threads =
        RunnerOptions { threads: options.threads, ..Default::default() }.resolved_threads();
    let stop = stop.unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let (msg_tx, msg_rx) = mpsc::channel::<WorkerMsg>();

    // Reader thread: blocking frame reads, forwarded to the main loop.
    // The main thread owns all writes, so frames never interleave.
    let reader = {
        let tx = msg_tx.clone();
        let mut read_half = stream.try_clone().map_err(|e| format!("cloning connection: {e}"))?;
        std::thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(Some(frame)) => {
                    if tx.send(WorkerMsg::Frame(frame)).is_err() {
                        break;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(WorkerMsg::Disconnected("coordinator closed".to_string()));
                    break;
                }
                Err(e) => {
                    let _ = tx.send(WorkerMsg::Disconnected(e));
                    break;
                }
            }
        })
    };

    // Executor pool: threads pull jobs from a shared channel and report
    // into the main loop.
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let executor_handles = spawn_executors(threads, false, job_rx, &msg_tx);

    let sink = ChannelSink::new(options.event_queue);
    let mut write_half = stream;
    let mut summary = WorkerSummary::default();
    let mut phases: HashMap<usize, PhaseCtx> = HashMap::new();
    let mut profiles_sent: HashSet<(usize, String)> = HashSet::new();
    let mut inflight: u64 = 0;
    let mut leaving = false; // bye sent or stop requested: no new leases

    let hello = obj(vec![
        ("t", Json::Str("hello".to_string())),
        ("name", Json::Str(options.name.clone())),
        ("slots", Json::UInt(threads as u64)),
    ]);
    write_frame(&mut write_half, &hello)?;

    loop {
        if stop.load(std::sync::atomic::Ordering::Relaxed) && !leaving {
            leaving = true;
            if !options.quiet {
                eprintln!(
                    "cfed-serve worker: stop requested — draining {inflight} in-flight unit(s)"
                );
            }
        }
        if leaving && inflight == 0 {
            let _ = write_frame(&mut write_half, &obj(vec![("t", Json::Str("bye".to_string()))]));
            break;
        }
        let msg = match msg_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(msg) => msg,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            WorkerMsg::Disconnected(reason) => {
                if !options.quiet {
                    eprintln!("cfed-serve worker: connection lost: {reason}");
                }
                break;
            }
            WorkerMsg::Unit(msg) => {
                inflight -= 1;
                let sent = match msg {
                    Msg::Done(done) => {
                        summary.units_done += 1;
                        let key = &done.key;
                        sink.emit(&Event::new("unit_done").str("unit", key).u64("ms", done.ms));
                        // Ship the cell's profile before the result frame,
                        // which the coordinator attaches it to.
                        let cell_key = cell_of(key).unwrap_or_default();
                        let profile = done
                            .profile
                            .as_ref()
                            .filter(|_| profiles_sent.insert((done.phase, cell_key.to_string())));
                        let profile_sent = profile.is_none_or(|p| {
                            let frame = obj(vec![
                                ("t", Json::Str("profile".to_string())),
                                ("phase", Json::UInt(done.phase as u64)),
                                ("cell", Json::Str(cell_key.to_string())),
                                ("profile", p.to_json()),
                            ]);
                            write_frame(&mut write_half, &frame).is_ok()
                        });
                        let frame = obj(vec![
                            ("t", Json::Str("result".to_string())),
                            ("phase", Json::UInt(done.phase as u64)),
                            ("key", Json::Str(key.clone())),
                            ("ms", Json::UInt(done.ms)),
                            ("dropped", Json::UInt(sink.dropped())),
                            ("record", done.tallies.to_json(key)),
                        ]);
                        profile_sent && write_frame(&mut write_half, &frame).is_ok()
                    }
                    Msg::Failed { phase, key, error } => {
                        summary.units_failed += 1;
                        sink.emit(
                            &Event::new("unit_failed").str("unit", &key).str("error", &error),
                        );
                        let frame = obj(vec![
                            ("t", Json::Str("fail".to_string())),
                            ("phase", Json::UInt(phase as u64)),
                            ("key", Json::Str(key)),
                            ("error", Json::Str(error)),
                        ]);
                        write_frame(&mut write_half, &frame).is_ok()
                    }
                    _ => true,
                };
                if !sent {
                    break;
                }
                if forward_events(&mut write_half, &sink).is_err() {
                    break;
                }
            }
            WorkerMsg::Frame(frame) => {
                let Ok(kind) = tag(&frame) else { continue };
                match kind {
                    "welcome" => {
                        if let Some(name) = frame.get("worker").and_then(Json::as_str) {
                            summary.worker = name.to_string();
                            if !options.quiet {
                                let run = frame.get("run_id").and_then(Json::as_str).unwrap_or("?");
                                eprintln!(
                                    "cfed-serve worker: joined run {run} as {name} ({threads} slot(s))"
                                );
                            }
                        }
                    }
                    "phase" => match parse_phase(&frame, options.snapshots, options.profile) {
                        Ok((index, ctx)) => {
                            phases.insert(index, ctx);
                        }
                        Err(e) => {
                            if !options.quiet {
                                eprintln!("cfed-serve worker: bad phase frame: {e}");
                            }
                        }
                    },
                    "lease" => {
                        let accepted = accept_lease(&frame, &phases, leaving).and_then(|task| {
                            job_tx.send(task).map_err(|_| "executor pool gone".to_string())
                        });
                        match accepted {
                            Ok(()) => inflight += 1,
                            Err(error) => {
                                summary.leases_refused += 1;
                                let key = frame
                                    .get("key")
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_string();
                                let fail = obj(vec![
                                    ("t", Json::Str("fail".to_string())),
                                    ("phase", frame.get("phase").cloned().unwrap_or(Json::UInt(0))),
                                    ("key", Json::Str(key)),
                                    ("error", Json::Str(error)),
                                ]);
                                if write_frame(&mut write_half, &fail).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    "bye" => {
                        leaving = true;
                    }
                    _ => {}
                }
            }
        }
    }

    summary.events_dropped = sink.dropped();
    // Tear down: close the socket (unblocks the reader), retire the
    // executor pool, and join everything.
    let _ = write_half.shutdown(std::net::Shutdown::Both);
    drop(job_tx);
    drop(msg_rx);
    for handle in executor_handles {
        let _ = handle.join();
    }
    let _ = reader.join();
    if !options.quiet {
        eprintln!(
            "cfed-serve worker: exiting — {} done, {} failed, {} refused, {} event(s) dropped",
            summary.units_done,
            summary.units_failed,
            summary.leases_refused,
            summary.events_dropped
        );
    }
    Ok(summary)
}

/// Parses a `phase` frame into the worker's execution context.
fn parse_phase(frame: &Json, snapshots: bool, profile: bool) -> Result<(usize, PhaseCtx), String> {
    let index = frame.get("phase").and_then(Json::as_u64).ok_or("phase frame missing index")?;
    let index = index as usize;
    let matrix = matrix_from_json(frame.get("matrix").ok_or("phase frame missing matrix")?)?;
    let cells = matrix.cells();
    Ok((index, (Arc::new(cells), Arc::new(GoldenCache::new(snapshots, profile)))))
}

/// Validates a lease against the worker's own matrix reconstruction and
/// produces the executor task.
fn accept_lease(
    frame: &Json,
    phases: &HashMap<usize, PhaseCtx>,
    leaving: bool,
) -> Result<Job, String> {
    if leaving {
        return Err("worker is draining".to_string());
    }
    let phase = frame.get("phase").and_then(Json::as_u64).ok_or("lease missing phase")? as usize;
    let cell = frame.get("cell").and_then(Json::as_u64).ok_or("lease missing cell")? as usize;
    let shard = frame.get("shard").and_then(Json::as_u64).ok_or("lease missing shard")?;
    let key = frame.get("key").and_then(Json::as_str).ok_or("lease missing key")?.to_string();
    let (cells, goldens) = phases.get(&phase).ok_or_else(|| format!("unknown phase {phase}"))?;
    if cell >= cells.len() {
        return Err(format!("cell index {cell} out of range ({} cells)", cells.len()));
    }
    let task = ShardTask { cell, shard_index: shard };
    let expected = task.key(cells);
    if expected != key {
        return Err(format!(
            "lease key mismatch: coordinator sent {key:?}, worker computes {expected:?}"
        ));
    }
    let (cells, goldens) = (Arc::clone(cells), Arc::clone(goldens));
    Ok(Job { cells, goldens, lease: Lease { phase, task, key } })
}

/// Drains the bounded event queue into `event` frames.
fn forward_events(w: &mut TcpStream, sink: &ChannelSink) -> Result<(), String> {
    for event in sink.drain() {
        let frame = obj(vec![("t", Json::Str("event".to_string())), ("ev", event.to_json())]);
        write_frame(w, &frame)?;
    }
    Ok(())
}
