//! Structured events, sinks, and the cheap-when-disabled [`Telemetry`]
//! handle.
//!
//! An [`Event`] is a kind tag plus ordered `(key, value)` fields in the
//! workspace JSON subset. Sinks receive fully-built events; the
//! [`Telemetry`] handle defers event *construction* behind a closure so
//! that instrumented hot paths pay a single branch when no sink is
//! attached — the property the `< 3%` overhead acceptance bound on the
//! `figures` binary's Figure 12 runs rests on.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json::{obj, Json};

/// One structured event: a kind tag plus ordered fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, Json)>,
}

impl Event {
    /// Starts an event of the given kind.
    pub fn new(kind: &'static str) -> Event {
        Event { kind, fields: Vec::new() }
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Event {
        self.fields.push((key, Json::UInt(value)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &'static str, value: &str) -> Event {
        self.fields.push((key, Json::Str(value.to_string())));
        self
    }

    /// Adds an arbitrary JSON field.
    pub fn json(mut self, key: &'static str, value: Json) -> Event {
        self.fields.push((key, value));
        self
    }

    /// The kind tag.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Serializes as `{"ev":kind, …fields}`.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::with_capacity(self.fields.len() + 1);
        pairs.push(("ev", Json::Str(self.kind.to_string())));
        pairs.extend(self.fields.iter().map(|(k, v)| (*k, v.clone())));
        obj(pairs)
    }
}

/// Receives built events. Implementations must be cheap to call from
/// worker threads (the JSONL sink serializes under a mutex).
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
}

/// Discards everything (useful as an explicit placeholder in tests).
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Appends each event as one JSON line to a file, flushing per event so a
/// killed process leaves at most one truncated line (the same durability
/// contract as the campaign result store).
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    emitted: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) the sink file, and its parent directories if
    /// they are missing.
    ///
    /// # Errors
    ///
    /// Returns the `std::io` error message if the file cannot be created.
    pub fn create(path: &Path) -> Result<JsonlSink, String> {
        let fail = |e| format!("cannot create event sink {}: {e}", path.display());
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let file = File::create(path).map_err(fail)?;
        Ok(JsonlSink { writer: Mutex::new(BufWriter::new(file)), emitted: AtomicU64::new(0) })
    }

    /// Events written so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = event.to_json().render();
        let mut writer = self.writer.lock().expect("event sink poisoned");
        let _ = writeln!(writer, "{line}");
        let _ = writer.flush();
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

/// A bounded in-memory event queue with drop counting — the backpressure
/// building block the `cfed-serve` worker uses to forward telemetry over
/// the wire without letting a slow connection stall shard execution.
/// `emit` never blocks: when the queue is at capacity the event is
/// dropped and counted instead.
#[derive(Debug)]
pub struct ChannelSink {
    queue: Mutex<std::collections::VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl ChannelSink {
    /// A sink holding at most `capacity` undrained events (minimum 1).
    pub fn new(capacity: usize) -> ChannelSink {
        ChannelSink {
            queue: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Removes and returns every queued event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.queue.lock().expect("channel sink poisoned").drain(..).collect()
    }

    /// Events discarded because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().expect("channel sink poisoned").len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for ChannelSink {
    fn emit(&self, event: &Event) {
        let mut queue = self.queue.lock().expect("channel sink poisoned");
        if queue.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            queue.push_back(event.clone());
        }
    }
}

/// Collects events in memory for assertions in tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of everything emitted so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Snapshot of events of one kind.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.events().into_iter().filter(|e| e.kind() == kind).collect()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("memory sink poisoned").push(event.clone());
    }
}

/// A cheaply-cloneable handle instrumented code holds. Disabled (the
/// default) it is a `None` and every emit site costs one branch; enabled
/// it forwards to a shared [`EventSink`].
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
    }
}

impl Telemetry {
    /// The disabled handle: every `emit_with` is a single branch.
    pub fn off() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A handle forwarding to `sink`.
    pub fn to(sink: Arc<dyn EventSink>) -> Telemetry {
        Telemetry { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached sink, if any — lets a harness interpose (e.g. tee a
    /// [`crate::FlightRecorder`] in front of the configured sink) without
    /// the handle growing mutation APIs.
    pub fn sink(&self) -> Option<Arc<dyn EventSink>> {
        self.sink.clone()
    }

    /// Emits the event built by `build` — the closure runs only when a
    /// sink is attached, so field formatting never burdens disabled runs.
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&build());
        }
    }
}

/// A span-style timer: start it, then observe the elapsed microseconds
/// into a histogram or an event field.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    pub fn start() -> Timer {
        Timer { start: Instant::now() }
    }

    /// Microseconds elapsed since `start`, saturating at `u64::MAX`.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records the elapsed microseconds into `hist` and returns them.
    pub fn observe_into(&self, hist: &mut Histogram) -> u64 {
        let us = self.elapsed_us();
        hist.record(us);
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn event_serializes_with_kind_first() {
        let e = Event::new("shard_done").str("shard", "cell#3").u64("trials", 64);
        assert_eq!(e.to_json().render(), r#"{"ev":"shard_done","shard":"cell#3","trials":64}"#);
        assert_eq!(e.get("trials").and_then(Json::as_u64), Some(64));
    }

    #[test]
    fn disabled_telemetry_never_builds_events() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        t.emit_with(|| panic!("must not build when disabled"));
    }

    #[test]
    fn memory_sink_collects_by_kind() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::to(sink.clone());
        assert!(t.enabled());
        t.emit_with(|| Event::new("a").u64("x", 1));
        t.emit_with(|| Event::new("b"));
        t.emit_with(|| Event::new("a").u64("x", 2));
        assert_eq!(sink.events().len(), 3);
        let a = sink.of_kind("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].get("x").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("cfed-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let t = Telemetry::to(sink.clone());
        t.emit_with(|| Event::new("run_meta").u64("trials", 30));
        t.emit_with(|| Event::new("shard_done").str("shard", "k#0"));
        assert_eq!(sink.emitted(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = parse(line).unwrap();
            assert!(v.get("ev").and_then(Json::as_str).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn channel_sink_bounds_and_counts_drops() {
        let sink = ChannelSink::new(2);
        assert!(sink.is_empty());
        sink.emit(&Event::new("a").u64("x", 0));
        sink.emit(&Event::new("a").u64("x", 1));
        sink.emit(&Event::new("a").u64("x", 2)); // over capacity — dropped
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].get("x").and_then(Json::as_u64), Some(0));
        assert_eq!(drained[1].get("x").and_then(Json::as_u64), Some(1));
        assert!(sink.is_empty());
        // Capacity frees up after a drain.
        sink.emit(&Event::new("a").u64("x", 3));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn timer_observes_into_histogram() {
        let timer = Timer::start();
        let mut h = Histogram::new();
        let us = timer.observe_into(&mut h);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), us);
    }
}
