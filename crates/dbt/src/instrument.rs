//! The instrumentation pass API: how control-flow checking techniques plug
//! into block translation.
//!
//! The DBT owns block discovery, terminator translation, chaining and
//! dispatch; an [`Instrumenter`] contributes signature code at four points
//! (paper §4.2: the `GEN_SIG` / `CHECK_SIG` instrumentation points):
//!
//! * **head** of every translated block — `CHECK_SIG` and/or the head-block
//!   `GEN_SIG` (the `Bh` block of the paper's split-block formalization);
//! * **direct update** before an unconditional transfer to a known target;
//! * **conditional update** before a two-way branch — either branch-style
//!   (the update sits inside the taken/fall-through arms, the paper's "Jcc"
//!   configuration) or cmov-style (flag-conditional select, the "CMOVcc"
//!   configuration, Figure 8);
//! * **indirect update** before a `ret`/indirect jump, with the dynamic
//!   guest target in a register (Figure 7).
//!
//! Signatures are guest basic-block start addresses, which the paper also
//! uses ("the address of the first instruction in a basic block as the
//! signature", §5) — unique for free, and the indirect-target mapping costs
//! nothing.

use crate::cache::CacheAsm;
use cfed_isa::{Cond, Reg};

/// Registers reserved for instrumentation and DBT plumbing (the EM64T
/// registers that IA-32 guest code never uses, §5.1).
pub mod regs {
    use cfed_isa::Reg;

    /// The shadow program counter `PC'`.
    pub const PC_PRIME: Reg = Reg::R8;
    /// The run-time adjusting signature register of the ECF technique.
    pub const RTS: Reg = Reg::R9;
    /// Scratch used by cmov-style conditional updates (`AUX` in Figure 8).
    pub const AUX: Reg = Reg::R10;
    /// Scratch used by signature checks.
    pub const CHK: Reg = Reg::R11;
    /// Guest return-address scratch used by translated calls.
    pub const GRET: Reg = Reg::R12;
    /// Canonical register holding the dynamic guest target at indirect
    /// exits.
    pub const ITARGET: Reg = Reg::R13;
}

/// How conditional signature updates are implemented (paper Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateStyle {
    /// Branch-style: the update sits inside the branch arms. Cheap, but the
    /// arm-selecting branch itself is a new unprotected branch (the paper's
    /// "unsafe" configurations, shaded in Figure 14) — except under RCF.
    #[default]
    Jcc,
    /// Flag-conditional select via `cmov` (Figure 8). Safe for ECF/EdgCF but
    /// slower.
    CMov,
}

impl std::fmt::Display for UpdateStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateStyle::Jcc => f.write_str("Jcc"),
            UpdateStyle::CMov => f.write_str("CMOVcc"),
        }
    }
}

/// The signature checking policies of paper §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckPolicy {
    /// Check in every basic block.
    #[default]
    AllBb,
    /// Check in blocks with back edges and blocks with `ret` (bounds error
    /// latency and prevents undetected infinite loops).
    RetBe,
    /// Check only in blocks with `ret`.
    Ret,
    /// Check only at the end of the application.
    End,
}

impl CheckPolicy {
    /// All four policies in decreasing checking frequency.
    pub const ALL: [CheckPolicy; 4] =
        [CheckPolicy::AllBb, CheckPolicy::RetBe, CheckPolicy::Ret, CheckPolicy::End];

    /// Decides whether a block with the given shape gets a signature check.
    pub fn wants_check(self, block: &BlockView) -> bool {
        match self {
            CheckPolicy::AllBb => true,
            CheckPolicy::RetBe => {
                block.ends_with_ret || block.has_back_edge || block.ends_with_halt
            }
            CheckPolicy::Ret => block.ends_with_ret || block.ends_with_halt,
            CheckPolicy::End => block.ends_with_halt,
        }
    }
}

impl std::fmt::Display for CheckPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckPolicy::AllBb => f.write_str("ALLBB"),
            CheckPolicy::RetBe => f.write_str("RET-BE"),
            CheckPolicy::Ret => f.write_str("RET"),
            CheckPolicy::End => f.write_str("END"),
        }
    }
}

/// Shape summary of a guest block, given to [`CheckPolicy`] /
/// [`Instrumenter::wants_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockView {
    /// Guest address of the block's first instruction (= its signature).
    pub guest_start: u64,
    /// Terminator is `ret`.
    pub ends_with_ret: bool,
    /// Terminator is `halt` (program end).
    pub ends_with_halt: bool,
    /// Terminator is a direct branch whose target does not lie after the
    /// branch (a loop back edge).
    pub has_back_edge: bool,
}

/// A control-flow checking technique, invoked during block translation.
///
/// Implementations live in `cfed-core` (ECF, EdgCF, RCF); the
/// [`NullInstrumenter`] here is the uninstrumented baseline.
///
/// `Send + Sync` is a supertrait: instrumenters are stateless (running
/// signatures live in guest registers), and [`crate::Dbt`] clones inside
/// fault-injection snapshot sets share one instrumenter across worker
/// threads.
pub trait Instrumenter: Send + Sync {
    /// Short technique name for reports.
    fn name(&self) -> &'static str;

    /// Emits head-of-block code. `sig` is the guest block start address;
    /// `check` says whether the policy requests a signature check here;
    /// `err_stub` is the cache address of the shared report-error stub.
    fn emit_head(&self, a: &mut CacheAsm<'_>, sig: u64, check: bool, err_stub: u64);

    /// Emits the signature update for the edge `cur → next` (both guest
    /// block addresses).
    fn emit_update_direct(&self, a: &mut CacheAsm<'_>, cur: u64, next: u64);

    /// Emits the signature update for a dynamic edge out of `cur` whose
    /// guest target is in `target`.
    fn emit_update_indirect(&self, a: &mut CacheAsm<'_>, cur: u64, target: Reg);

    /// Emits a flag-conditional (cmov-style) update selecting between
    /// `taken` and `fall` according to `cc`, without branches and without
    /// touching the flags. Returns `false` when the technique does not
    /// support cmov-style updates (the DBT then uses branch-style arms).
    fn emit_update_cond_cmov(
        &self,
        a: &mut CacheAsm<'_>,
        cur: u64,
        taken: u64,
        fall: u64,
        cc: Cond,
    ) -> bool {
        let _ = (a, cur, taken, fall, cc);
        false
    }

    /// Whether the technique emits any update code at all. When `false`
    /// (the baseline), the DBT skips the conditional-update skeleton
    /// entirely.
    fn has_updates(&self) -> bool {
        true
    }

    /// Emitted immediately before the inserted selector branch of a
    /// branch-style conditional update. Techniques that protect their own
    /// inserted branches (RCF) transition into a dedicated region here;
    /// others leave it empty.
    fn emit_pre_selector(&self, a: &mut CacheAsm<'_>, cur: u64) {
        let _ = (a, cur);
    }

    /// Emits one arm of a branch-style conditional update: the signature
    /// update for the edge `cur → next`, executed after
    /// [`Instrumenter::emit_pre_selector`]. Defaults to the plain direct
    /// update.
    fn emit_selector_update(&self, a: &mut CacheAsm<'_>, cur: u64, next: u64) {
        self.emit_update_direct(a, cur, next);
    }

    /// Emitted immediately before a `halt`: the end-of-application check
    /// that every policy keeps (§6's END policy is exactly this check and
    /// nothing else). Implementations should check via `PC'` itself rather
    /// than a scratch register, so that an error landing *on* the check
    /// branch still finds a mismatching value.
    fn emit_end_check(&self, a: &mut CacheAsm<'_>, cur: u64, err_stub: u64) {
        let _ = (a, cur, err_stub);
    }

    /// Whether the translated block should include a signature check.
    fn wants_check(&self, block: &BlockView) -> bool;

    /// Extra instrumentation registers whose architectural state must be
    /// initialized before entering translated code; returns `(reg, value)`
    /// pairs given the entry block signature.
    fn initial_state(&self, entry_sig: u64) -> Vec<(Reg, u64)> {
        let _ = entry_sig;
        Vec::new()
    }
}

/// The uninstrumented baseline: no signature code at all (used to measure
/// raw DBT overhead, the paper's ~12% baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullInstrumenter;

impl Instrumenter for NullInstrumenter {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn emit_head(&self, _a: &mut CacheAsm<'_>, _sig: u64, _check: bool, _err: u64) {}

    fn emit_update_direct(&self, _a: &mut CacheAsm<'_>, _cur: u64, _next: u64) {}

    fn emit_update_indirect(&self, _a: &mut CacheAsm<'_>, _cur: u64, _target: Reg) {}

    fn has_updates(&self) -> bool {
        false
    }

    fn wants_check(&self, _block: &BlockView) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(ret: bool, halt: bool, back: bool) -> BlockView {
        BlockView {
            guest_start: 0x1_0000,
            ends_with_ret: ret,
            ends_with_halt: halt,
            has_back_edge: back,
        }
    }

    #[test]
    fn policy_frequency_ordering() {
        // ALLBB ⊇ RET-BE ⊇ RET ⊇ END on every block shape.
        let shapes = [
            view(false, false, false),
            view(true, false, false),
            view(false, true, false),
            view(false, false, true),
            view(true, false, true),
        ];
        for b in shapes {
            let all = CheckPolicy::AllBb.wants_check(&b);
            let retbe = CheckPolicy::RetBe.wants_check(&b);
            let ret = CheckPolicy::Ret.wants_check(&b);
            let end = CheckPolicy::End.wants_check(&b);
            assert!(all || !retbe);
            assert!(retbe || !ret);
            assert!(ret || !end);
        }
    }

    #[test]
    fn policy_specifics() {
        assert!(!CheckPolicy::RetBe.wants_check(&view(false, false, false)));
        assert!(CheckPolicy::RetBe.wants_check(&view(false, false, true)));
        assert!(CheckPolicy::Ret.wants_check(&view(true, false, false)));
        assert!(!CheckPolicy::Ret.wants_check(&view(false, false, true)));
        assert!(CheckPolicy::End.wants_check(&view(false, true, false)));
        assert!(!CheckPolicy::End.wants_check(&view(true, false, true)));
    }

    #[test]
    fn reserved_registers_distinct() {
        use regs::*;
        let all = [PC_PRIME, RTS, AUX, CHK, GRET, ITARGET];
        for (i, a) in all.iter().enumerate() {
            assert!(!a.is_guest_conventional(), "{a} must be DBT-reserved");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(CheckPolicy::AllBb.to_string(), "ALLBB");
        assert_eq!(CheckPolicy::RetBe.to_string(), "RET-BE");
        assert_eq!(UpdateStyle::CMov.to_string(), "CMOVcc");
    }
}
