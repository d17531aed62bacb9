//! # cfed-core — comprehensive control-flow error detection
//!
//! The primary contribution of *"Software-Based Transparent and
//! Comprehensive Control-Flow Error Detection"* (Borin, Wang, Wu, Araujo —
//! CGO 2006), reproduced on the VISA/`cfed-sim`/`cfed-dbt` substrate:
//!
//! * the branch-error classification of §2 ([`Category`], [`classify`]);
//! * static CFG recovery ([`cfg::Cfg`]) for the error-model analyzer and
//!   the CFG-dependent prior techniques;
//! * the signature-monitoring techniques of §3 as DBT instrumentation
//!   ([`techniques`]): ECF (prior work), and the paper's **EdgCF** and
//!   **RCF**;
//! * the formal framework of §4 as executable semantics with exhaustive
//!   single-error enumeration ([`formal`]), covering CFCSS and ECCA
//!   abstractly as well;
//! * the signature-checking policies of §6 (re-exported [`CheckPolicy`]:
//!   ALLBB / RET-BE / RET / END) and the Jcc-vs-CMOVcc update styles of
//!   Figure 14 ([`UpdateStyle`]);
//! * a run harness ([`run_dbt`], [`run_native`]) producing the cycle
//!   counts the slowdown figures are computed from.
//!
//! ## Example: detect an injected control-flow error
//!
//! ```
//! use cfed_core::{run_dbt, RunConfig, TechniqueKind};
//! use cfed_lang::compile;
//!
//! let image = compile("fn main() { let i = 0; while (i < 9) { i = i + 1; } out(i); }")?;
//! let outcome = run_dbt(&image, &RunConfig::technique(TechniqueKind::Rcf));
//! assert_eq!(outcome.output, vec![9]); // instrumentation is transparent
//! # Ok::<(), cfed_lang::CompileError>(())
//! ```

pub mod category;
pub mod cfg;
pub mod classify;
pub mod formal;
pub mod profile;
pub mod run;
pub mod techniques;

pub use category::Category;
pub use cfed_dbt::{CheckPolicy, UpdateStyle};
pub use classify::{
    classify_addr_fault, classify_flag_fault, BlockLayout, BranchFault, CacheLayout, CachePart,
};
pub use profile::{fold_profile, profile_dbt};
pub use run::{
    geomean, run_dbt, run_dbt_native, run_dbt_native_enabled, run_dbt_telemetry, run_dbt_with,
    run_native, RunConfig, RunOutcome, DEFAULT_MAX_INSTS,
};
pub use techniques::{
    CfcssInstrumenter, EccaInstrumenter, EcfInstrumenter, EdgCfInstrumenter, RcfInstrumenter,
    TechniqueKind,
};

// Exists only so `e2ebench/` builds unchanged; there is no tier.
#[doc(hidden)]
pub fn run_dbt_tiered(image: &cfed_asm::Image, cfg: &RunConfig, _threshold: u32) -> RunOutcome {
    run_dbt_native(image, cfg)
}
