//! The signature-monitoring control-flow checking techniques (paper §3).
//!
//! All three DBT-implementable techniques use the guest basic-block start
//! address as the block signature (unique, and free to compute for indirect
//! branches — §5) and the flag-preserving `GEN_SIG(x, y, z) = x − y + z`
//! arithmetic of §4.4/§5.1, realized with the `lea` instruction family:
//!
//! * [`EcfInstrumenter`] — ECF (Reis et al., SWIFT): a `(PC', RTS)` pair
//!   with a run-time adjusting signature. Covers A, B, D, E; misses C
//!   because its updates are assignments (re-executing them is idempotent).
//! * [`EdgCfInstrumenter`] — the paper's Edge Control-Flow checking: `PC'`
//!   holds the next block's signature on edges and zero inside blocks;
//!   updates are *relative* (non-idempotent), which is exactly why category
//!   C becomes detectable. Inserted checking branches are unprotected.
//! * [`RcfInstrumenter`] — the paper's Region-based Control-Flow checking:
//!   EdgCF plus distinct per-block regions (entrance / body / selector) so
//!   every *inserted* branch executes under a globally unique signature
//!   value, protecting the instrumentation itself.
//!
//! CFCSS and ECCA need a whole-program CFG and therefore cannot be
//! instrumented by a purely translate-on-demand DBT (the paper leaves them
//! out for that reason, §5). Here they get a hybrid path — signatures
//! assigned statically from the recovered CFG ([`CfcssInstrumenter`],
//! [`EccaInstrumenter`]), instrumentation still applied by the DBT — so the
//! fault-injection experiments can measure their misses next to the other
//! techniques; their abstract semantics also live in [`crate::formal`].

mod cfcss;
mod ecca;
mod ecf;
mod edgcf;
mod rcf;

pub use cfcss::CfcssInstrumenter;
pub use ecca::EccaInstrumenter;
pub use ecf::EcfInstrumenter;
pub use edgcf::EdgCfInstrumenter;
pub use rcf::RcfInstrumenter;

use cfed_asm::Image;
use cfed_dbt::{CheckPolicy, Instrumenter};
use std::fmt;

/// Converts a signature-space value (guest address ± small region offset)
/// into an instruction immediate.
///
/// # Panics
///
/// Panics if the value does not fit in 32 bits (guest code lives far below
/// 2³¹ under the default layout).
pub(crate) fn simm(v: i64) -> i32 {
    i32::try_from(v).expect("signature arithmetic fits imm32")
}

/// Selects a control-flow checking technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechniqueKind {
    /// Control-flow checking by software signatures (Oh et al.) —
    /// CFG-dependent, applied via the hybrid static-CFG path.
    Cfcss,
    /// Enhanced control-flow checking using assertions (Alkhalifa et al.) —
    /// CFG-dependent, div-based checks.
    Ecca,
    /// Enhanced control-flow checking (Reis et al.).
    Ecf,
    /// Edge control-flow checking (this paper).
    EdgCf,
    /// Region-based control-flow checking (this paper).
    Rcf,
}

impl TechniqueKind {
    /// The three DBT-implementable techniques the paper evaluates, in its
    /// presentation order (the paper could not run CFCSS/ECCA in its
    /// translate-on-demand DBT, §5).
    pub const ALL: [TechniqueKind; 3] =
        [TechniqueKind::Rcf, TechniqueKind::EdgCf, TechniqueKind::Ecf];

    /// All five techniques, including the CFG-dependent prior work.
    pub const ALL_FIVE: [TechniqueKind; 5] = [
        TechniqueKind::Rcf,
        TechniqueKind::EdgCf,
        TechniqueKind::Ecf,
        TechniqueKind::Ecca,
        TechniqueKind::Cfcss,
    ];

    /// Builds the instrumenter for this technique under a checking policy.
    ///
    /// # Panics
    ///
    /// Panics for the CFG-dependent techniques (CFCSS, ECCA); use
    /// [`TechniqueKind::instrumenter_for`] with the image instead.
    pub fn instrumenter(self, policy: CheckPolicy) -> Box<dyn Instrumenter> {
        match self {
            TechniqueKind::Ecf => Box::new(EcfInstrumenter::new(policy)),
            TechniqueKind::EdgCf => Box::new(EdgCfInstrumenter::new(policy)),
            TechniqueKind::Rcf => Box::new(RcfInstrumenter::new(policy)),
            other => panic!("{other} needs the program CFG; use instrumenter_for"),
        }
    }

    /// Builds the instrumenter, recovering the CFG from `image` when the
    /// technique requires it.
    pub fn instrumenter_for(self, image: &Image, policy: CheckPolicy) -> Box<dyn Instrumenter> {
        match self {
            TechniqueKind::Cfcss => Box::new(CfcssInstrumenter::from_image(image, policy)),
            TechniqueKind::Ecca => Box::new(EccaInstrumenter::from_image(image, policy)),
            other => other.instrumenter(policy),
        }
    }
}

impl fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechniqueKind::Cfcss => f.write_str("CFCSS"),
            TechniqueKind::Ecca => f.write_str("ECCA"),
            TechniqueKind::Ecf => f.write_str("ECF"),
            TechniqueKind::EdgCf => f.write_str("EdgCF"),
            TechniqueKind::Rcf => f.write_str("RCF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_distinct_instrumenters() {
        for kind in TechniqueKind::ALL {
            let i = kind.instrumenter(CheckPolicy::AllBb);
            assert_eq!(i.name(), kind.to_string());
            assert!(i.has_updates());
        }
    }

    #[test]
    #[should_panic(expected = "fits imm32")]
    fn simm_rejects_wide_values() {
        let _ = simm(1 << 40);
    }
}
