//! # cfed-workloads — SPEC2000-analog guest programs
//!
//! Twenty-six synthetic workloads written in MiniC, one per SPEC CPU2000
//! application the paper evaluates (12 integer + 14 floating point). They
//! are *structural* analogs, not ports: the integer programs are branchy and
//! call-heavy with small basic blocks; the "floating point" programs (fixed
//! point here — VISA is integer-only) are loop-dominated with long
//! straight-line bodies. Those are the properties the paper's results key
//! on: fp codes have larger blocks, hence lower instrumentation overhead
//! (Figures 12/15) and more category-C mass in the error model (Figure 2).
//!
//! Every workload is deterministic (LCG-generated data, fixed seeds) and
//! emits checksums through `out(..)`, the silent-data-corruption oracle of
//! the fault-injection experiments.
//!
//! ## Example
//!
//! ```
//! use cfed_workloads::{by_name, Scale};
//!
//! let w = by_name("164.gzip").unwrap();
//! let image = w.image(Scale::Test).unwrap();
//! assert!(image.len() > 50);
//! ```

pub mod fp_suite;
pub mod int_suite;
pub mod padding;

use cfed_asm::Image;
use cfed_lang::CompileError;
use std::fmt;

/// Which benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CINT2000 analogs.
    Int,
    /// SPEC CFP2000 analogs.
    Fp,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Int => f.write_str("SPEC-Int"),
            Suite::Fp => f.write_str("SPEC-Fp"),
        }
    }
}

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small instance for (debug-mode) tests.
    Test,
    /// Full instance for experiment harnesses.
    Full,
    /// Explicit scale factor.
    Custom(u64),
}

/// One SPEC2000-analog workload.
#[derive(Clone)]
pub struct Workload {
    /// SPEC-style name, e.g. `"164.gzip"`.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    gen: fn(u64) -> String,
    test_scale: u64,
    full_scale: u64,
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload").field("name", &self.name).field("suite", &self.suite).finish()
    }
}

/// Cold-code padding units appended at [`Scale::Full`] (≈ 48k instructions,
/// ≈ 380 KiB of code — the static footprint of a mid-sized application).
pub const FULL_PADDING_UNITS: usize = 800;

/// Cold-code padding units appended at [`Scale::Test`].
pub const TEST_PADDING_UNITS: usize = 24;

impl Workload {
    /// The MiniC source at a given scale, including the suite-flavoured
    /// cold-code padding that gives the image a realistic static footprint
    /// (see [`padding`]).
    pub fn source(&self, scale: Scale) -> String {
        let units = match scale {
            Scale::Test => TEST_PADDING_UNITS,
            Scale::Full => FULL_PADDING_UNITS,
            Scale::Custom(_) => TEST_PADDING_UNITS,
        };
        // Hot kernel in the middle of the image: half the cold code before,
        // half after, as in a real binary's function layout.
        let mut src = String::from(padding::sink_decl());
        src.push_str(&padding::cold_fns(self.suite, 0, units / 2));
        src.push_str(&(self.gen)(self.scale_factor(scale)));
        src.push_str(&padding::cold_fns(self.suite, units / 2, units));
        src
    }

    fn scale_factor(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Test => self.test_scale,
            Scale::Full => self.full_scale,
            Scale::Custom(n) => n,
        }
    }

    /// Compiles the workload to a VISA image.
    ///
    /// # Errors
    ///
    /// Propagates MiniC compilation errors (a failure indicates a bug in the
    /// workload source; all sources are covered by tests).
    pub fn image(&self, scale: Scale) -> Result<Image, CompileError> {
        cfed_lang::compile(&self.source(scale))
    }
}

macro_rules! workload {
    ($name:literal, $suite:ident, $gen:path, $test:literal, $full:literal) => {
        Workload {
            name: $name,
            suite: Suite::$suite,
            gen: $gen,
            test_scale: $test,
            full_scale: $full,
        }
    };
}

/// All 26 workloads: the 14 fp analogs first, then the 12 int analogs — the
/// left-to-right order of the paper's Figure 12.
pub const ALL: [Workload; 26] = [
    workload!("168.wupwise", Fp, fp_suite::wupwise, 2, 40),
    workload!("171.swim", Fp, fp_suite::swim, 2, 30),
    workload!("172.mgrid", Fp, fp_suite::mgrid, 2, 40),
    workload!("173.applu", Fp, fp_suite::applu, 2, 40),
    workload!("177.mesa", Fp, fp_suite::mesa, 2, 40),
    workload!("178.galgel", Fp, fp_suite::galgel, 2, 30),
    workload!("179.art", Fp, fp_suite::art, 2, 30),
    workload!("183.equake", Fp, fp_suite::equake, 2, 40),
    workload!("187.facerec", Fp, fp_suite::facerec, 1, 20),
    workload!("188.ammp", Fp, fp_suite::ammp, 2, 40),
    workload!("189.lucas", Fp, fp_suite::lucas, 2, 60),
    workload!("191.fma3d", Fp, fp_suite::fma3d, 2, 40),
    workload!("200.sixtrack", Fp, fp_suite::sixtrack, 2, 60),
    workload!("301.apsi", Fp, fp_suite::apsi, 2, 40),
    workload!("164.gzip", Int, int_suite::gzip, 2, 50),
    workload!("175.vpr", Int, int_suite::vpr, 2, 50),
    workload!("176.gcc", Int, int_suite::gcc, 2, 50),
    workload!("181.mcf", Int, int_suite::mcf, 2, 50),
    workload!("186.crafty", Int, int_suite::crafty, 2, 40),
    workload!("197.parser", Int, int_suite::parser, 2, 40),
    workload!("252.eon", Int, int_suite::eon, 2, 40),
    workload!("253.perlbmk", Int, int_suite::perlbmk, 2, 50),
    workload!("254.gap", Int, int_suite::gap, 2, 50),
    workload!("255.vortex", Int, int_suite::vortex, 2, 50),
    workload!("256.bzip2", Int, int_suite::bzip2, 2, 50),
    workload!("300.twolf", Int, int_suite::twolf, 2, 40),
];

/// The integer-suite workloads.
pub fn int_workloads() -> impl Iterator<Item = &'static Workload> {
    ALL.iter().filter(|w| w.suite == Suite::Int)
}

/// The fp-suite workloads.
pub fn fp_workloads() -> impl Iterator<Item = &'static Workload> {
    ALL.iter().filter(|w| w.suite == Suite::Fp)
}

/// Looks a workload up by its SPEC-style name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_spec2000() {
        assert_eq!(int_workloads().count(), 12);
        assert_eq!(fp_workloads().count(), 14);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = ALL.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("171.swim").is_some());
        assert!(by_name("999.nope").is_none());
    }

    #[test]
    fn all_sources_compile() {
        for w in &ALL {
            w.image(Scale::Test).unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name));
        }
    }
}
