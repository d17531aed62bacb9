//! Property-based differential testing: randomly generated MiniC programs
//! must behave identically natively and under the DBT with every technique
//! — outputs, exit codes and traps all match. This is the "transparent" in
//! the paper's title, tested over a program space rather than hand-picked
//! examples.
//!
//! Programs are drawn from `cfed-fuzz`'s tier-one generator (the same
//! space the `cfed-fuzz` campaign and the regression corpus use), so a
//! construct added to the generator is picked up by every suite at once.

use cfed::core::{run_dbt, run_native, RunConfig, TechniqueKind};
use cfed::dbt::UpdateStyle;
use cfed::fuzz::gen::strategies::minic_source;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs behave identically under every technique/style.
    #[test]
    fn dbt_is_transparent_on_random_programs(src in minic_source()) {
        let image = cfed::lang::compile(&src).expect("generated programs are valid MiniC");
        let native = run_native(&image, 50_000_000);
        for kind in TechniqueKind::ALL {
            for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
                let cfg = RunConfig { technique: Some(kind), style, ..RunConfig::default() };
                let got = run_dbt(&image, &cfg);
                prop_assert_eq!(got.exit, native.exit, "{}/{}", kind, style);
                prop_assert_eq!(&got.output, &native.output, "{}/{}", kind, style);
            }
        }
    }

    /// The baseline DBT (no instrumentation) is transparent too, and no
    /// slower than the instrumented configurations.
    #[test]
    fn baseline_transparent_and_cheapest(src in minic_source()) {
        let image = cfed::lang::compile(&src).expect("valid");
        let native = run_native(&image, 50_000_000);
        let base = run_dbt(&image, &RunConfig::baseline());
        prop_assert_eq!(base.exit, native.exit);
        prop_assert_eq!(&base.output, &native.output);
        let rcf = run_dbt(&image, &RunConfig::technique(TechniqueKind::Rcf));
        prop_assert!(rcf.cycles >= base.cycles);
    }
}
