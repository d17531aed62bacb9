//! The campaign is a pure function of its seed: the same configuration
//! must produce a byte-identical report at any thread count. This is what
//! makes `cfed-fuzz run --seed N` a reproducible CI artifact and a corpus
//! entry a permanent one.

use cfed_fuzz::{run_fuzz, FuzzConfig, Mode, Tier};

fn config(threads: usize) -> FuzzConfig {
    FuzzConfig {
        seed: 0xC0FFEE,
        iters: 8,
        threads,
        mode: Mode::Both,
        tiers: vec![Tier::MiniC, Tier::Visa],
        detect_branches: 2,
        corpus_dir: None,
        ..FuzzConfig::default()
    }
}

#[test]
fn report_is_identical_across_thread_counts() {
    let one = run_fuzz(&config(1));
    let three = run_fuzz(&config(3));
    assert_eq!(one.text, three.text, "thread count leaked into the report");
    assert_eq!(one.cases, 8);
    assert_eq!(one.divergences, three.divergences);
    assert_eq!(one.sdc_violations, three.sdc_violations);
}

#[test]
fn campaign_smoke_is_clean() {
    let report = run_fuzz(&config(2));
    assert!(report.clean(), "fixed-seed smoke campaign found a real failure:\n{}", report.text);
}
