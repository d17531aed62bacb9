//! In-memory spans for the traced run, and the statistics drawn from them.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, parent, start, end and workload. Spans stay in
//! memory until the run ends. A span's self time is its duration minus the
//! part of its interval that its children cover; children may run on other
//! threads and overlap each other, so the covered part is the length of the
//! union of their intervals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One finished span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run. Shared by reference across the
/// worker threads.
pub struct Trace {
    epoch: Instant,
    workload: &'static str,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(workload: &'static str) -> Trace {
        Trace { epoch: Instant::now(), workload, next: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// Reserves an id for a span whose children start before it ends.
    pub fn open(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a previously reserved id.
    pub fn close(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            workload: self.workload,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans.lock().expect("a traced thread panicked").push(span);
    }

    /// Records a span that has already ended and has no children.
    pub fn record(&self, name: &'static str, parent: Option<SpanId>, start: Instant, end: Instant) {
        self.close(self.open(), name, parent, start, end);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.close(id, name, parent, start, Instant::now());
        out
    }

    /// The recorded spans, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a traced thread panicked");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// The self time of every span, in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The share of all span self time that falls in `containers` — the
/// benchmark's own structure (workload, phases, workers, tasks) — rather
/// than in a call into a layer.
pub fn unattributed_frac(spans: &[Span], containers: &[&str]) -> f64 {
    let selfs = self_times(spans);
    let total: u64 = selfs.iter().sum();
    let own: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| containers.contains(&s.name))
        .map(|(_, t)| t)
        .sum();
    own as f64 / total.max(1) as f64
}

/// Sum of the durations of the spans named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns()).sum::<u64>() as f64 / 1e6
}

/// Durations of the spans named `name`, in nanoseconds.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
}

/// The percentiles the benchmark may report, as parts per thousand.
const LADDER: [u64; 4] = [500, 900, 990, 999];

/// The highest percentile of [`LADDER`] (in parts per thousand) that leaves
/// at least ten of `n` samples beyond it, by the nearest-rank rule; `None`
/// when even the median does not.
pub fn highest_supported_permille(n: usize) -> Option<u64> {
    LADDER.iter().rev().copied().find(|&q| n >= 10 && n - rank(n, q) >= 10)
}

/// The 1-based nearest rank of percentile `q` (parts per thousand) among
/// `n` samples.
fn rank(n: usize, q: u64) -> usize {
    ((n as u64 * q).div_ceil(1000) as usize).max(1)
}

/// Percentile `q` (parts per thousand) of `samples` by the nearest-rank
/// rule; 0 for no samples.
pub fn percentile(samples: &[u64], q: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[rank(sorted.len(), q) - 1]
}

/// A summary of `samples` (nanoseconds, shown divided by `per_unit`): the
/// count, the median and the highest percentile the count supports.
pub fn tail_note(name: &str, samples: &[u64], per_unit: f64) -> String {
    let value = |q| percentile(samples, q) as f64 / per_unit;
    match highest_supported_permille(samples.len()) {
        Some(q) => format!(
            "{name}: n={} p50={:.3} p{}={:.3}",
            samples.len(),
            value(500),
            q as f64 / 10.0,
            value(q)
        ),
        None => format!("{name}: n={} (too few samples for a percentile)", samples.len()),
    }
}

/// The median of `values`; 0 for none. Even counts average the middle two.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", workload: "test", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,40) > b [20,30); c [50,60) under root.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 20, 30),
            span(4, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Two children on different threads overlap in [30,50); a third
        // sticks out past the parent's end and is clipped.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn spans_recorded_on_two_threads_in_parallel_share_the_parent() {
        let trace = Trace::new("test");
        let barrier = Barrier::new(2);
        let root = trace.span("root", None, |root| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        trace.span("child", Some(root), |_| {
                            // Both children are open at the same time.
                            barrier.wait();
                            std::thread::sleep(Duration::from_millis(20));
                            barrier.wait();
                        });
                    });
                }
            });
            root
        });
        let spans = trace.finish();
        assert_eq!(spans.len(), 3);
        let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(root)).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids[0].start_ns < kids[1].end_ns && kids[1].start_ns < kids[0].end_ns);
        let selfs = self_times(&spans);
        let i = spans.iter().position(|s| s.id == root).unwrap();
        let union = kids.iter().map(|k| k.end_ns).max().unwrap()
            - kids.iter().map(|k| k.start_ns).min().unwrap();
        assert_eq!(selfs[i], spans[i].duration_ns() - union);
        // Parallel children cover less than the sum of their durations.
        assert!(union < kids.iter().map(|k| k.duration_ns()).sum::<u64>());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_permille(0), None);
        assert_eq!(highest_supported_permille(19), None);
        assert_eq!(highest_supported_permille(20), Some(500));
        assert_eq!(highest_supported_permille(99), Some(500));
        assert_eq!(highest_supported_permille(100), Some(900));
        assert_eq!(highest_supported_permille(999), Some(900));
        assert_eq!(highest_supported_permille(1000), Some(990));
        assert_eq!(highest_supported_permille(10_000), Some(999));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 500), 50);
        assert_eq!(percentile(&samples, 900), 90);
        assert_eq!(percentile(&samples, 990), 99);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
