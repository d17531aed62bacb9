//! The Edge Control-Flow checking technique (paper §3.1, Figures 5–8).

use super::simm;
use cfed_dbt::{regs, BlockView, CacheAsm, CheckPolicy, Instrumenter};
use cfed_isa::{Cond, Inst, Reg};

/// EdgCF: `PC'` carries the *next* block's signature across every edge and
/// is zero inside block bodies.
///
/// Invariants (with `sig(B)` = guest start address of block `B`):
///
/// * on the edge into `B`: `PC' == sig(B)`;
/// * inside `B`'s body: `PC' == 0`.
///
/// The head transforms `PC' -= sig(B)` and (per policy) checks `PC' == 0`
/// with the flag-free `jrnz` (the `jcxz` analog, §5.1); every exit adds the
/// successor's signature. Updates are **relative**: a control-flow error
/// leaves `PC'` permanently wrong (§6's "once the signature becomes wrong,
/// it will always be wrong"), so even checks far downstream still fire —
/// and re-executing an update (a category-C jump back into the same block)
/// corrupts `PC'` instead of being absorbed, which is exactly how EdgCF
/// covers the category ECF misses.
#[derive(Debug, Clone, Copy)]
pub struct EdgCfInstrumenter {
    policy: CheckPolicy,
}

impl EdgCfInstrumenter {
    /// Creates the technique under a signature-checking policy.
    pub fn new(policy: CheckPolicy) -> EdgCfInstrumenter {
        EdgCfInstrumenter { policy }
    }

    /// The active checking policy.
    pub fn policy(&self) -> CheckPolicy {
        self.policy
    }
}

impl Instrumenter for EdgCfInstrumenter {
    fn name(&self) -> &'static str {
        "EdgCF"
    }

    fn emit_head(&self, a: &mut CacheAsm<'_>, sig: u64, check: bool, err_stub: u64) {
        // PC' -= sig(B): zero on a correct edge (Figure 6, instruction 1;
        // `lea` instead of `xor` per §5.1).
        a.emit(Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp: simm(-(sig as i64)) });
        if check {
            // Figure 6, instructions 2–3, without clobbering EFLAGS.
            a.jrnz_abs(regs::PC_PRIME, err_stub);
        }
    }

    fn emit_update_direct(&self, a: &mut CacheAsm<'_>, _cur: u64, next: u64) {
        // PC' += sig(next) (Figure 6, instruction 5).
        a.emit(Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp: simm(next as i64) });
    }

    fn emit_update_indirect(&self, a: &mut CacheAsm<'_>, _cur: u64, target: Reg) {
        // PC' += dynamic target (Figure 7: signature = target address).
        a.emit(Inst::Lea2 { dst: regs::PC_PRIME, base: regs::PC_PRIME, index: target, disp: 0 });
    }

    fn emit_update_cond_cmov(
        &self,
        a: &mut CacheAsm<'_>,
        _cur: u64,
        taken: u64,
        fall: u64,
        cc: Cond,
    ) -> bool {
        // Figure 8, instructions 7–10: compute both candidate signatures and
        // select with cmov; nothing here touches the flags the original
        // branch will read.
        a.emit(Inst::MovRR { dst: regs::AUX, src: regs::PC_PRIME });
        a.emit(Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp: simm(fall as i64) });
        a.emit(Inst::Lea { dst: regs::AUX, base: regs::AUX, disp: simm(taken as i64) });
        a.emit(Inst::CMov { cc, dst: regs::PC_PRIME, src: regs::AUX });
        true
    }

    fn emit_end_check(&self, a: &mut CacheAsm<'_>, _cur: u64, err_stub: u64) {
        // Inside a body PC' is already zero; one flag-free test suffices.
        a.jrnz_abs(regs::PC_PRIME, err_stub);
    }

    fn wants_check(&self, block: &BlockView) -> bool {
        self.policy.wants_check(block)
    }

    fn initial_state(&self, entry_sig: u64) -> Vec<(Reg, u64)> {
        vec![(regs::PC_PRIME, entry_sig)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_sim::{Memory, Perms};

    fn emit_with(f: impl FnOnce(&mut CacheAsm<'_>)) -> Vec<Inst> {
        let mut mem = Memory::new(1 << 16);
        mem.map(0..0x8000, Perms::RX);
        let mut a = CacheAsm::new(&mut mem, 0x1000);
        f(&mut a);
        let end = a.finish();
        ((0x1000..end).step_by(8))
            .map(|addr| {
                let b: [u8; 8] = mem.peek(addr, 8).try_into().unwrap();
                Inst::decode(&b).unwrap()
            })
            .collect()
    }

    #[test]
    fn head_without_check_is_single_lea() {
        let insts = emit_with(|a| {
            EdgCfInstrumenter::new(CheckPolicy::AllBb).emit_head(a, 0x2000, false, 0x1000)
        });
        assert_eq!(insts.len(), 1);
        assert_eq!(
            insts[0],
            Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp: -0x2000 }
        );
    }

    #[test]
    fn head_with_check_adds_flag_free_branch() {
        let insts = emit_with(|a| {
            EdgCfInstrumenter::new(CheckPolicy::AllBb).emit_head(a, 0x2000, true, 0x1000)
        });
        assert_eq!(insts.len(), 2);
        assert!(matches!(insts[1], Inst::JRnz { src, .. } if src == regs::PC_PRIME));
        assert!(!insts[0].writes_flags() && !insts[1].writes_flags());
    }

    #[test]
    fn cmov_update_preserves_flags() {
        let t = EdgCfInstrumenter::new(CheckPolicy::AllBb);
        let insts = emit_with(|a| {
            assert!(t.emit_update_cond_cmov(a, 0x2000, 0x3000, 0x2800, Cond::Le));
        });
        assert_eq!(insts.len(), 4);
        for i in &insts {
            assert!(!i.writes_flags(), "{i} must not clobber flags before the branch");
        }
        assert!(matches!(insts[3], Inst::CMov { cc: Cond::Le, .. }));
    }

    #[test]
    fn initial_state_sets_pc_prime() {
        let t = EdgCfInstrumenter::new(CheckPolicy::AllBb);
        assert_eq!(t.initial_state(0x1_0000), vec![(regs::PC_PRIME, 0x1_0000)]);
    }
}
