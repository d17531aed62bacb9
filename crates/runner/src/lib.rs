//! # cfed-runner — sharded parallel campaign engine
//!
//! Fault-injection campaigns are embarrassingly parallel — every trial is
//! an independent whole-program run — but naive parallelism loses the
//! property the rest of the workspace leans on: campaigns are
//! deterministic given a seed. This crate keeps both:
//!
//! * [`matrix`] — a campaign matrix (workload × technique × update style ×
//!   policy) exploded into fixed-size shards whose RNG seeds depend only
//!   on `(campaign seed, shard index)`;
//! * [`scheduler`] — the one unit scheduler: store opening and resume,
//!   pending queue, leases, retry re-queue, duplicate filtering, the single
//!   store writer and the per-unit telemetry, over a pluggable transport
//!   (in-process channels here, TCP in `cfed-serve`);
//! * [`pool`] — in-process execution: `std::thread` unit executors with
//!   per-thread image caches, a shared golden cache and panic isolation;
//!   merged per-cell tallies are bit-identical to the serial
//!   [`cfed_fault::Campaign::run`] path for any thread count or schedule;
//! * [`retry`] — the bounded-retry/backoff policy the scheduler applies to
//!   failed units;
//! * [`store`] — a checkpointed JSONL result store: every finished shard
//!   is appended and flushed, so a killed run resumes by skipping
//!   persisted shards (half-written trailing lines are detected and
//!   dropped);
//! * [`json`] — re-export of the hand-rolled JSON subset, which now lives
//!   in `cfed-telemetry` so event sinks and the store share one writer
//!   and one corruption-detecting parser;
//! * [`report`] — offline renderer for a finished (or resumed) store:
//!   per-category coverage tables and detection-latency percentiles,
//!   byte-identical regardless of interruption or thread count;
//! * [`cli`] — the tiny friendly flag parser shared by the workspace
//!   binaries.
//!
//! The `cfed-campaign` binary drives the full coverage + latency study
//! through this machinery.
//!
//! ## Example
//!
//! ```
//! use cfed_core::TechniqueKind;
//! use cfed_dbt::{CheckPolicy, UpdateStyle};
//! use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
//! use cfed_runner::pool::{run_matrix, RunnerOptions};
//!
//! let matrix = CampaignMatrix {
//!     workloads: vec![WorkloadSpec::inline(
//!         "demo",
//!         "fn main() { let i = 0; while (i < 20) { i = i + 1; } out(i); }",
//!     )],
//!     techniques: vec![Some(TechniqueKind::EdgCf)],
//!     styles: vec![UpdateStyle::CMov],
//!     policies: vec![CheckPolicy::AllBb],
//!     trials: 64,
//!     seed: 1,
//!     attacks: vec![None],
//! };
//! let options = RunnerOptions { threads: 2, ..Default::default() };
//! let summary = run_matrix(&matrix, "demo", None, &options)?;
//! assert!(summary.complete());
//! # Ok::<(), String>(())
//! ```

pub mod cli;
pub mod matrix;
pub mod pool;
pub mod report;
pub mod retry;
pub mod scheduler;
pub mod store;

pub use cfed_telemetry::json;

pub use matrix::{cell_of, CampaignMatrix, CellKey, CellSpec, ShardTask, WorkloadSpec};
pub use pool::{
    parallel_map, run_matrix, CellResult, GoldenCache, RunSummary, RunnerOptions, UnitExecutor,
    UnitRun,
};
pub use retry::RetryPolicy;
pub use store::{read_meta, read_profiles, read_store, CampaignStore, ShardTallies, StoreHeader};
