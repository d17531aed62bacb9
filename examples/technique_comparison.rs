//! Compare the three DBT techniques (ECF, EdgCF, RCF) on one workload:
//! instrumentation expansion, runtime overhead under each checking policy,
//! and per-category detection coverage from a small fault-injection
//! campaign — a miniature of the paper's whole evaluation on a single
//! program.
//!
//! Run with: `cargo run --release --example technique_comparison`

use cfed::core::{run_dbt, RunConfig, TechniqueKind};
use cfed::dbt::{CheckPolicy, UpdateStyle};
use cfed::fault::Campaign;
use cfed::workloads::{by_name, Scale};

fn main() {
    let workload = by_name("181.mcf").expect("workload exists");
    let image = workload.image(Scale::Test).expect("compiles");
    println!("workload: {} ({})\n", workload.name, workload.suite);

    let base = run_dbt(&image, &RunConfig::baseline());
    println!("baseline DBT: {} cycles, {} blocks", base.cycles, base.dbt.blocks);

    // Overhead per technique × policy (the Figure 12 / Figure 15 axes),
    // including the CFG-dependent prior work (CFCSS, ECCA).
    println!(
        "\n{:>7} | {:>7} {:>7} {:>7} {:>7} | {:>9}",
        "", "ALLBB", "RET-BE", "RET", "END", "expansion"
    );
    for kind in TechniqueKind::ALL_FIVE {
        print!("{:>7} |", kind.to_string());
        let mut expansion = 0.0;
        for policy in CheckPolicy::ALL {
            let cfg = RunConfig { technique: Some(kind), policy, ..RunConfig::default() };
            let out = run_dbt(&image, &cfg);
            print!(" {:>7.3}", out.cycles as f64 / base.cycles as f64);
            if policy == CheckPolicy::AllBb {
                expansion = out.dbt.cache_insts as f64 / out.dbt.guest_insts as f64;
            }
        }
        println!(" | {expansion:>8.2}x");
    }

    // Jcc vs CMOVcc (the Figure 14 axis).
    println!("\nconditional-update style (ALLBB):");
    for kind in TechniqueKind::ALL {
        let s = |style| {
            let cfg = RunConfig { technique: Some(kind), style, ..RunConfig::default() };
            run_dbt(&image, &cfg).cycles as f64 / base.cycles as f64
        };
        println!(
            "  {:>6}: Jcc {:.3}  CMOVcc {:.3}",
            kind.to_string(),
            s(UpdateStyle::Jcc),
            s(UpdateStyle::CMov)
        );
    }

    // Coverage: small deterministic injection campaign per technique.
    println!("\nfault-injection coverage (120 faults each, CMOVcc style):");
    println!("{:>9} | {:>9} {:>9} {:>9} {:>9}", "", "detected", "benign", "SDC", "A–E cover");
    let mut configs = vec![None];
    configs.extend(TechniqueKind::ALL_FIVE.into_iter().rev().map(Some));
    for technique in configs {
        let cfg = RunConfig { technique, style: UpdateStyle::CMov, ..RunConfig::default() };
        let report = Campaign::new(cfg, 120).run(&image).expect("workload is well-behaved");
        let s = report.sdc_prone_total();
        let detected = s.detected_check + s.detected_hw + s.other_fault;
        println!(
            "{:>9} | {:>9} {:>9} {:>9} {:>8.1}%",
            technique.map_or("baseline".into(), |k| k.to_string()),
            detected,
            s.benign,
            s.sdc,
            100.0 * s.coverage()
        );
    }
    println!(
        "\n(the full 26-workload versions of these tables: cargo run --release -p cfed-bench --bin \
         figures; the per-category coverage tables: cargo run --release -p cfed-serve --bin \
         cfed-campaign)"
    );
}
