//! The one-pass contract: a campaign's single fault-free pass per
//! `(workload, configuration)` yields the same golden as [`golden_run`] and
//! the same execution profile as the standalone profiled run
//! [`profile_dbt`], whether or not it also captures fast-forward
//! checkpoints — over every configuration the SEU campaign's coverage and
//! latency phases run.

use cfed_core::{profile_dbt, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::{golden_pass, golden_run};
use cfed_workloads::{by_name, Scale};

/// The coverage phase (baseline and the five techniques under both update
/// styles, ALLBB) and the latency phase (EdgCF, CMOVcc, every policy).
fn campaign_configs() -> Vec<RunConfig> {
    let mut configs = Vec::new();
    let techniques = std::iter::once(None).chain(TechniqueKind::ALL_FIVE.map(Some));
    for technique in techniques {
        for style in [UpdateStyle::CMov, UpdateStyle::Jcc] {
            configs.push(RunConfig { technique, style, ..RunConfig::default() });
        }
    }
    for policy in CheckPolicy::ALL {
        configs.push(RunConfig {
            technique: Some(TechniqueKind::EdgCf),
            style: UpdateStyle::CMov,
            policy,
            ..RunConfig::default()
        });
    }
    configs
}

#[test]
fn golden_pass_matches_golden_run_and_profile_dbt() {
    for name in ["164.gzip", "171.swim"] {
        let image = by_name(name).expect("campaign workload").image(Scale::Test).expect("compiles");
        for cfg in campaign_configs() {
            let golden = golden_run(&image, &cfg).expect("fault-free run halts");
            let (_, profile) = profile_dbt(&image, &cfg);
            for snapshots in [false, true] {
                let (g, set, p) = golden_pass(&image, &cfg, snapshots, true).expect("halts");
                let what = format!("{name} {cfg:?} snapshots={snapshots}");
                assert_eq!(g, golden, "golden of {what}");
                assert_eq!(set.is_some(), snapshots, "snapshot set of {what}");
                let p = p.expect("profile requested");
                assert_eq!(p, profile, "profile of {what}");
                assert_eq!(p.to_json().render(), profile.to_json().render(), "{what}");
            }
        }
    }
}
