//! Cross-crate integration tests: constants that must agree across crate
//! boundaries, whole-pipeline behaviour on real workloads, and the paper's
//! coverage claims validated by actual fault injection.

use cfed::core::{run_dbt, run_native, Category, RunConfig, TechniqueKind};
use cfed::dbt::{CheckPolicy, UpdateStyle};
use cfed::fault::{Campaign, Outcome};
use cfed::sim::{ExitReason, Layout};
use cfed::workloads::{by_name, Scale};

#[test]
fn cross_crate_constants_agree() {
    // The assembler links for the simulator's default layout.
    let layout = Layout::default();
    assert_eq!(cfed::asm::DEFAULT_CODE_BASE, layout.code_base);
    assert_eq!(cfed::asm::DEFAULT_DATA_BASE, layout.data_base);
    // MiniC's assert trap code is the simulator's GUEST_ASSERT.
    assert_eq!(cfed::lang::codegen::GUEST_ASSERT_CODE, cfed::sim::trap_codes::GUEST_ASSERT);
}

#[test]
fn workloads_transparent_under_every_technique() {
    for name in ["164.gzip", "171.swim", "254.gap"] {
        let image = by_name(name).unwrap().image(Scale::Test).unwrap();
        let native = run_native(&image, u64::MAX);
        for kind in TechniqueKind::ALL {
            for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
                let cfg = RunConfig { technique: Some(kind), style, ..RunConfig::default() };
                let got = run_dbt(&image, &cfg);
                assert_eq!(got.exit, native.exit, "{name} under {kind}/{style}");
                assert_eq!(got.output, native.output, "{name} under {kind}/{style}");
            }
        }
    }
}

#[test]
fn policies_trade_checking_for_speed_on_a_real_workload() {
    let image = by_name("176.gcc").unwrap().image(Scale::Test).unwrap();
    let mut last = u64::MAX;
    for policy in CheckPolicy::ALL {
        let cfg = RunConfig { technique: Some(TechniqueKind::Rcf), policy, ..RunConfig::default() };
        let out = run_dbt(&image, &cfg);
        assert!(matches!(out.exit, ExitReason::Halted { .. }));
        assert!(out.cycles <= last, "{policy} should not cost more than its stricter neighbour");
        last = out.cycles;
    }
}

#[test]
fn injected_coverage_matches_paper_claims_cmov() {
    // Under the safe (CMOVcc) configuration:
    //  * RCF and EdgCF produce no SDC at all,
    //  * any ECF SDC is category C (its only theoretical gap),
    //  * the uninstrumented baseline does produce SDC.
    let image = by_name("181.mcf").unwrap().image(Scale::Test).unwrap();
    let campaign = |technique| {
        let cfg = RunConfig { technique, style: UpdateStyle::CMov, ..RunConfig::default() };
        Campaign::new(cfg, 120).run(&image).expect("workload is well-behaved")
    };

    let base = campaign(None);
    assert!(base.sdc_prone_total().sdc > 0, "baseline should let SDC through");

    for kind in [TechniqueKind::EdgCf, TechniqueKind::Rcf] {
        let rep = campaign(Some(kind));
        assert_eq!(rep.sdc_prone_total().sdc, 0, "{kind} must prevent all SDC");
        assert_eq!(rep.sdc_prone_total().timeout, 0, "{kind} must not hang");
    }

    let ecf = campaign(Some(TechniqueKind::Ecf));
    for c in Category::SDC_PRONE {
        if c != Category::C {
            assert_eq!(ecf.category(c).sdc, 0, "ECF may only miss category C, leaked {c}");
        }
    }
}

#[test]
fn rcf_jcc_beats_edgcf_jcc_on_inserted_branch_errors() {
    // The Figure 14 safety claim: with branch-style updates, EdgCF's
    // inserted branches are unprotected; RCF's regions protect them. Over a
    // seeded campaign, EdgCF-Jcc leaks at least as much SDC as RCF-Jcc, and
    // RCF-Jcc leaks none outside category A (pre-selector flag faults are
    // data-equivalent faults, outside any signature technique's reach).
    let image = by_name("176.gcc").unwrap().image(Scale::Test).unwrap();
    let run = |kind| {
        let cfg =
            RunConfig { technique: Some(kind), style: UpdateStyle::Jcc, ..RunConfig::default() };
        Campaign::new(cfg, 250).run(&image).expect("workload is well-behaved")
    };
    let edg = run(TechniqueKind::EdgCf);
    let rcf = run(TechniqueKind::Rcf);
    for c in [Category::B, Category::C, Category::D, Category::E] {
        assert_eq!(rcf.category(c).sdc, 0, "RCF-Jcc leaked category {c}");
    }
    let edg_sdc: u64 = Category::SDC_PRONE.iter().map(|&c| edg.category(c).sdc).sum();
    let rcf_sdc: u64 = Category::SDC_PRONE.iter().map(|&c| rcf.category(c).sdc).sum();
    assert!(
        rcf_sdc <= edg_sdc,
        "RCF-Jcc ({rcf_sdc}) must not leak more than EdgCF-Jcc ({edg_sdc})"
    );
}

#[test]
fn detection_latency_grows_with_relaxed_policies() {
    // Less frequent checking = longer delay to report (paper §6).
    let image = by_name("164.gzip").unwrap().image(Scale::Test).unwrap();
    let latency = |policy| {
        let cfg =
            RunConfig { technique: Some(TechniqueKind::EdgCf), policy, ..RunConfig::default() };
        Campaign::new(cfg, 200)
            .run(&image)
            .expect("workload is well-behaved")
            .mean_detection_latency()
    };
    let allbb = latency(CheckPolicy::AllBb).expect("ALLBB detects something");
    let end = latency(CheckPolicy::End).expect("END still detects at program end");
    assert!(end > allbb * 3.0, "END latency ({end:.0}) should far exceed ALLBB ({allbb:.0})");
}

#[test]
fn error_model_aggregates_are_probabilities() {
    let image = by_name("183.equake").unwrap().image(Scale::Test).unwrap();
    let report = cfed::fault::analyze_image(&image, 100_000_000);
    let sum: f64 = Category::ALL.iter().map(|&c| report.table.prob_total(c)).sum();
    assert!((sum - 1.0).abs() < 1e-9);
    // Category E dominates the SDC-prone mass (Figure 3's headline).
    let sdc = report.table.sdc_restricted();
    let e = sdc.iter().find(|(c, _)| *c == Category::E).unwrap().1;
    assert!(e > 0.5, "E carries most SDC-prone probability, got {e:.3}");
}

#[test]
fn campaign_outcomes_partition_cleanly() {
    let image = by_name("191.fma3d").unwrap().image(Scale::Test).unwrap();
    let rep = Campaign::new(RunConfig::technique(TechniqueKind::EdgCf), 80)
        .run(&image)
        .expect("workload is well-behaved");
    let mut total = rep.skipped;
    for c in Category::ALL {
        total += rep.category(c).total();
    }
    assert_eq!(total, 80);
    // NoError faults can never be "detected": they change nothing.
    let ne = rep.category(Category::NoError);
    assert_eq!(ne.detected_check + ne.detected_hw, 0);
    let _ = Outcome::Benign; // outcome enum is part of the public API
}
