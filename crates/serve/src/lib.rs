//! # cfed-serve — coordinator/worker campaign service
//!
//! Distributes a fault-injection campaign across worker *processes* over
//! TCP, extending the in-process `cfed-runner` pool to multiple hosts
//! while preserving its core guarantee: the merged report is **byte-
//! identical** to a single-process run, whatever the worker count,
//! schedule, crashes, or retries.
//!
//! The pieces:
//!
//! * [`proto`] — length-prefixed JSON frames and the matrix wire format;
//! * [`coordinator`] — the TCP transport of the runner's unit scheduler
//!   ([`cfed_runner::scheduler`], which owns the queue, retries and the
//!   single store writer): frame translation, lease deadlines, strikes
//!   and quarantine;
//! * [`worker`] — runs leased units on the runner's executor pool
//!   ([`cfed_runner::pool::spawn_executors`]: golden-run cache + snapshot
//!   fast-forward) and streams results and telemetry back;
//! * [`http`] — live `/report`, `/progress`, `/healthz` endpoints reusing
//!   the offline report renderer;
//! * [`stats`] — `serve_stats` counters persisted as store meta records
//!   and emitted as telemetry.
//!
//! The `cfed-campaign` binary (this crate) fronts all of it: the classic
//! single-process study plus `serve coordinate` / `serve work`
//! subcommands. See DESIGN.md § "Campaign service".

pub mod coordinator;
pub mod http;
pub mod proto;
pub mod stats;
pub mod worker;

use std::path::Path;

use cfed_core::TechniqueKind;
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec, CAMPAIGN_WORKLOADS};
use cfed_workloads::Scale;

pub use coordinator::{
    Coordinator, CoordinatorOptions, CoordinatorSummary, PhasePlan, PhaseSummary,
};
pub use stats::{ServeStats, WorkerStats};
pub use worker::{work, WorkerOptions, WorkerSummary};

/// The standard two-phase campaign study — **the** phase list both the
/// single-process `cfed-campaign` run and `serve coordinate` execute, so
/// their stores (and therefore reports) are interchangeable:
///
/// 1. `coverage` — baseline + five techniques × both update styles over
///    the six campaign workloads (ALLBB policy), stored at
///    `{out}/{run_id}-coverage.jsonl`;
/// 2. `latency` — EdgCF/CMOVcc under the four checking policies, stored
///    at `{out}/{run_id}-latency.jsonl`.
pub fn campaign_phases(trials: u64, seed: u64, out: &Path, run_id: &str) -> Vec<PhasePlan> {
    let workloads: Vec<WorkloadSpec> =
        CAMPAIGN_WORKLOADS.iter().map(|name| WorkloadSpec::named(name, Scale::Test)).collect();
    let mut techniques: Vec<Option<TechniqueKind>> = vec![None];
    techniques.extend(TechniqueKind::ALL_FIVE.into_iter().map(Some));
    vec![
        PhasePlan {
            label: "coverage".to_string(),
            matrix: CampaignMatrix {
                workloads: workloads.clone(),
                techniques,
                styles: vec![UpdateStyle::CMov, UpdateStyle::Jcc],
                policies: vec![CheckPolicy::AllBb],
                trials,
                seed,
                attacks: vec![None],
            },
            store: out.join(format!("{run_id}-coverage.jsonl")),
        },
        PhasePlan {
            label: "latency".to_string(),
            matrix: CampaignMatrix {
                workloads,
                techniques: vec![Some(TechniqueKind::EdgCf)],
                styles: vec![UpdateStyle::CMov],
                policies: CheckPolicy::ALL.to_vec(),
                trials,
                seed,
                attacks: vec![None],
            },
            store: out.join(format!("{run_id}-latency.jsonl")),
        },
    ]
}

/// The adversarial campaign study: one phase, every attack archetype
/// against baseline + the five techniques over `workloads` (defaults to
/// the six campaign workloads when empty), stored at
/// `{out}/{run_id}-attacks.jsonl`. Single-process `cfed-campaign attack`
/// and `serve coordinate --attacks` both execute exactly this plan, so
/// their stores — and the `report --attacks` frontier — are
/// interchangeable.
pub fn attack_phases(
    workloads: &[String],
    trials: u64,
    seed: u64,
    out: &Path,
    run_id: &str,
) -> Vec<PhasePlan> {
    let names: Vec<&str> = if workloads.is_empty() {
        CAMPAIGN_WORKLOADS.to_vec()
    } else {
        workloads.iter().map(String::as_str).collect()
    };
    let specs: Vec<WorkloadSpec> =
        names.iter().map(|name| WorkloadSpec::named(name, Scale::Test)).collect();
    vec![PhasePlan {
        label: "attacks".to_string(),
        matrix: CampaignMatrix::attacks(specs, trials, seed),
        store: out.join(format!("{run_id}-attacks.jsonl")),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_phases_cover_every_archetype_and_technique() {
        let phases = attack_phases(&[], 128, 7, Path::new("results/campaigns"), "r2");
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].label, "attacks");
        // 7 archetypes x 6 configurations x 6 workloads.
        assert_eq!(phases[0].matrix.cells().len(), 7 * 6 * 6);
        assert!(phases[0].store.ends_with("r2-attacks.jsonl"));

        let narrowed = attack_phases(&["164.gzip".to_string()], 128, 7, Path::new("out"), "r3");
        assert_eq!(narrowed[0].matrix.cells().len(), 7 * 6);
    }

    #[test]
    fn campaign_phases_match_the_classic_stores() {
        let phases = campaign_phases(500, 42, Path::new("results/campaigns"), "r1");
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].label, "coverage");
        assert_eq!(phases[0].matrix.cells().len(), 6 * 6 * 2);
        assert!(phases[0].store.ends_with("r1-coverage.jsonl"));
        assert_eq!(phases[1].label, "latency");
        assert_eq!(phases[1].matrix.cells().len(), 6 * 4);
        assert!(phases[1].store.ends_with("r1-latency.jsonl"));
    }
}
