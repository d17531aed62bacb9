//! Quickstart: compile a MiniC program, run it natively, run it under the
//! DBT with the RCF technique, then inject a control-flow error and watch
//! the instrumentation catch it.
//!
//! Run with: `cargo run --example quickstart`

use cfed::core::{run_dbt, run_native, RunConfig, TechniqueKind};
use cfed::fault::{golden_run, inject, FaultSpec, Outcome};
use cfed::lang::compile;

fn main() {
    let source = r#"
        // Sum the proper divisors of each n and count perfect numbers.
        fn sum_divisors(n) {
            let s = 0;
            let d = 1;
            while (d < n) {
                if (n % d == 0) { s = s + d; }
                d = d + 1;
            }
            return s;
        }
        fn main() {
            let n = 2;
            let perfect = 0;
            while (n <= 500) {
                if (sum_divisors(n) == n) { perfect = perfect + 1; out(n); }
                n = n + 1;
            }
            out(perfect);
        }
    "#;

    let image = compile(source).expect("MiniC program compiles");
    println!("compiled: {} instructions", image.len());

    // 1. Native execution (plain interpreter).
    let native = run_native(&image, 100_000_000);
    println!("\nnative:    exit={:?}", native.exit);
    println!("           output={:?} ({} cycles)", native.output, native.cycles);

    // 2. Under the DBT with RCF instrumentation — same observable behaviour.
    let cfg = RunConfig::technique(TechniqueKind::Rcf);
    let rcf = run_dbt(&image, &cfg);
    println!("\nunder RCF: exit={:?}", rcf.exit);
    println!("           output={:?} ({} cycles)", rcf.output, rcf.cycles);
    assert_eq!(native.output, rcf.output, "instrumentation must be transparent");
    println!(
        "           blocks translated: {}, slowdown vs native: {:.2}x",
        rcf.dbt.blocks,
        rcf.cycles as f64 / native.cycles as f64
    );

    // 3. Inject a single-bit fault into a branch offset of the translated
    //    code and watch the signature check report it.
    let golden = golden_run(&image, &cfg).expect("fault-free run succeeds");
    println!("\ninjecting single-bit faults ({} dynamic branch sites)...", golden.branches);
    let mut detected = 0;
    let mut shown = 0;
    for nth in (0..golden.branches).step_by((golden.branches / 40).max(1) as usize) {
        let spec = FaultSpec::AddrBit { nth, bit: 4 }; // flip ±128 bytes
        if let Some(result) =
            inject(&image, &cfg, spec, &golden, None).expect("fault-free prefix succeeds")
        {
            if result.outcome == Outcome::DetectedByCheck {
                detected += 1;
                if shown < 3 {
                    println!(
                        "  fault at branch #{nth} (category {}): detected by RCF after {} insts",
                        result.category, result.latency_insts
                    );
                    shown += 1;
                }
            }
        }
    }
    println!("  ... {detected} faults detected by the signature checks");
    assert!(detected > 0, "expected at least one check-detected fault");
}
