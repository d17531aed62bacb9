//! # cfed-fault — error model, fault injection, and attack generation
//!
//! Three experiment engines for the CGO'06 reproduction:
//!
//! * [`error_model`] — the single-bit-flip branch-error probability model of
//!   paper §2, regenerating the Figure 2 table and the Figure 3
//!   SDC-restricted view;
//! * [`mod@inject`] / [`campaign`] — actual soft-error injection into
//!   DBT-translated code (the study the paper names as future work),
//!   measuring per-category detection coverage of each technique;
//! * [`mod@attack`] — adversarial control-flow corruptions (seven
//!   archetypes, from branch flips to data-segment pivots), classified
//!   into the same A–F taxonomy and run through the same trial loop and
//!   [`Campaign`] to measure the security detection frontier (DESIGN.md §
//!   "Attack model").
//!
//! ## Example
//!
//! ```
//! use cfed_fault::error_model::analyze_image;
//! use cfed_lang::compile;
//!
//! let image = compile("fn main() { let i = 0; while (i < 20) { i = i + 1; } }")?;
//! let report = analyze_image(&image, 1_000_000);
//! let total: f64 = cfed_core::Category::ALL
//!     .iter()
//!     .map(|&c| report.table.prob_total(c))
//!     .sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! # Ok::<(), cfed_lang::CompileError>(())
//! ```

pub mod attack;
pub mod campaign;
pub mod error_model;
pub mod forensics;
pub mod inject;
pub mod snapshot;

pub use attack::{AttackKind, AttackModel, AttackProvenance, AttackSpec, AttackSurface};
pub use campaign::{
    detection_latency, Campaign, CampaignReport, CategoryStats, ExhaustiveSweep, LatencyGrid,
    SHARD_TRIALS,
};
pub use error_model::{analyze_image, ErrorModelReport, ErrorModelTable, FaultSide};
pub use forensics::{ForensicsBundle, DEFAULT_TRACE_WINDOW};
pub use inject::{
    advance_to_branch, golden_pass, golden_run, inject, inject_traced, Advance, FaultSpec, Golden,
    InjectionResult, Outcome, TrialSpec, WorkloadError,
};
pub use snapshot::{SnapshotSet, SnapshotStats};
