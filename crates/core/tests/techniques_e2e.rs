//! End-to-end technique tests: every technique × policy × update style must
//! be transparent (identical program behaviour, no false positives), and
//! the instruction-count/cycle relationships the paper reports must hold.

use cfed_core::{geomean, run_dbt, run_native, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_lang::compile;
use cfed_sim::ExitReason;

const PROGRAMS: &[&str] = &[
    // Branchy, call-heavy (int-like).
    r#"
    fn collatz(n) {
        let steps = 0;
        while (n != 1) {
            if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
            steps = steps + 1;
        }
        return steps;
    }
    fn main() {
        let i = 1;
        let total = 0;
        while (i <= 40) { total = total + collatz(i); i = i + 1; }
        out(total);
    }
    "#,
    // Array/loop heavy (fp-like: big straight-line blocks).
    r#"
    global a[128];
    global b[128];
    fn main() {
        let i = 0;
        while (i < 128) { a[i] = i * 7 + 3; b[i] = i * i; i = i + 1; }
        let dot = 0;
        i = 0;
        while (i < 128) {
            dot = dot + a[i] * b[i] + a[i] * 2 + b[i] * 3 + (a[i] ^ b[i]) + (a[i] & 255);
            i = i + 1;
        }
        out(dot);
    }
    "#,
    // Recursion (ret-heavy: indirect control flow).
    r#"
    fn ack(m, n) {
        if (m == 0) { return n + 1; }
        if (n == 0) { return ack(m - 1, 1); }
        return ack(m - 1, ack(m, n - 1));
    }
    fn main() { out(ack(2, 3)); }
    "#,
];

#[test]
fn all_techniques_transparent_under_all_policies_and_styles() {
    for (pi, src) in PROGRAMS.iter().enumerate() {
        let image = compile(src).unwrap();
        let native = run_native(&image, 100_000_000);
        assert!(matches!(native.exit, ExitReason::Halted { .. }), "program {pi} broken natively");
        for kind in TechniqueKind::ALL {
            for policy in CheckPolicy::ALL {
                for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
                    let cfg =
                        RunConfig { technique: Some(kind), policy, style, max_insts: 200_000_000 };
                    let got = run_dbt(&image, &cfg);
                    assert_eq!(
                        got.exit, native.exit,
                        "program {pi} under {kind}/{policy}/{style}: exit mismatch"
                    );
                    assert_eq!(
                        got.output, native.output,
                        "program {pi} under {kind}/{policy}/{style}: output mismatch"
                    );
                }
            }
        }
    }
}

#[test]
fn rcf_is_slowest_edgcf_between() {
    // Paper Figure 12: RCF ≥ EdgCF on every benchmark (more updates per
    // block); both well above baseline.
    let mut rcf_s = Vec::new();
    let mut edg_s = Vec::new();
    let mut ecf_s = Vec::new();
    for src in PROGRAMS {
        let image = compile(src).unwrap();
        let base = run_dbt(&image, &RunConfig::baseline());
        let cyc = |kind| run_dbt(&image, &RunConfig::technique(kind)).cycles as f64;
        rcf_s.push(cyc(TechniqueKind::Rcf) / base.cycles as f64);
        edg_s.push(cyc(TechniqueKind::EdgCf) / base.cycles as f64);
        ecf_s.push(cyc(TechniqueKind::Ecf) / base.cycles as f64);
    }
    let (rcf, edg, ecf) = (geomean(&rcf_s), geomean(&edg_s), geomean(&ecf_s));
    assert!(rcf > edg, "RCF ({rcf:.3}) must be slower than EdgCF ({edg:.3})");
    assert!(rcf > 1.0 && edg > 1.0 && ecf > 1.0, "all techniques cost something");
    assert!(rcf < 3.0, "overhead should stay in a plausible band, got {rcf:.3}");
}

#[test]
fn cmov_style_costs_more_than_jcc() {
    // Paper Figure 14.
    for kind in TechniqueKind::ALL {
        let mut jcc = Vec::new();
        let mut cmov = Vec::new();
        for src in PROGRAMS {
            let image = compile(src).unwrap();
            let base = run_dbt(&image, &RunConfig::baseline()).cycles as f64;
            let mk = |style| RunConfig { technique: Some(kind), style, ..RunConfig::default() };
            jcc.push(run_dbt(&image, &mk(UpdateStyle::Jcc)).cycles as f64 / base);
            cmov.push(run_dbt(&image, &mk(UpdateStyle::CMov)).cycles as f64 / base);
        }
        assert!(
            geomean(&cmov) > geomean(&jcc),
            "{kind}: CMOVcc ({:.3}) must cost more than Jcc ({:.3})",
            geomean(&cmov),
            geomean(&jcc)
        );
    }
}

#[test]
fn relaxed_policies_reduce_overhead_monotonically() {
    // Paper Figure 15: ALLBB ≥ RET-BE ≥ RET ≥ END.
    let image = compile(PROGRAMS[0]).unwrap();
    let base = run_dbt(&image, &RunConfig::baseline()).cycles as f64;
    let mut prev = f64::INFINITY;
    for policy in CheckPolicy::ALL {
        let cfg = RunConfig { technique: Some(TechniqueKind::Rcf), policy, ..RunConfig::default() };
        let s = run_dbt(&image, &cfg).cycles as f64 / base;
        assert!(
            s <= prev + 1e-9,
            "policy {policy} ({s:.4}) must not cost more than the stricter one ({prev:.4})"
        );
        prev = s;
    }
}

#[test]
fn instrumentation_expansion_ordering() {
    // RCF emits more cache instructions per guest instruction than EdgCF.
    let image = compile(PROGRAMS[0]).unwrap();
    let expansion = |kind| {
        let out = run_dbt(&image, &RunConfig::technique(kind));
        out.dbt.cache_insts as f64 / out.dbt.guest_insts as f64
    };
    let base = {
        let out = run_dbt(&image, &RunConfig::baseline());
        out.dbt.cache_insts as f64 / out.dbt.guest_insts as f64
    };
    let rcf = expansion(TechniqueKind::Rcf);
    let edg = expansion(TechniqueKind::EdgCf);
    assert!(rcf > edg, "RCF expansion {rcf:.2} vs EdgCF {edg:.2}");
    assert!(edg > base, "EdgCF expansion {edg:.2} vs baseline {base:.2}");
}

#[test]
fn baseline_dbt_overhead_near_paper() {
    // Paper §6: "average slow down from the native code to running on DBT
    // is about 12%". Allow a generous band.
    let mut ratios = Vec::new();
    for src in PROGRAMS {
        let image = compile(src).unwrap();
        let native = run_native(&image, 200_000_000);
        let dbt = run_dbt(&image, &RunConfig::baseline());
        ratios.push(dbt.cycles as f64 / native.cycles as f64);
    }
    let g = geomean(&ratios);
    assert!((1.0..1.5).contains(&g), "baseline DBT overhead {g:.3} out of band");
}
