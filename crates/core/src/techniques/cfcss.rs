//! CFCSS — control-flow checking by software signatures (Oh, Shirvani &
//! McCluskey [12]), as a *CFG-dependent* DBT instrumenter.
//!
//! The paper could not implement CFCSS inside its translate-on-demand DBT
//! because CFCSS assigns signatures from the whole-program CFG (§5). Our
//! static CFG recovery makes a hybrid possible: signatures are assigned
//! statically from the recovered CFG, and the DBT splices the (head-only)
//! instrumentation in at translation time. This lets the fault-injection
//! campaigns measure CFCSS's misses — categories A and C, plus the
//! aliasing introduced by its common-predecessor signature restriction —
//! next to the other techniques, rather than only in the abstract model of
//! [`crate::formal`].

use super::simm;
use crate::cfg::Cfg;
use cfed_asm::Image;
use cfed_dbt::{regs, BlockView, CacheAsm, CheckPolicy, Instrumenter};
use cfed_isa::{Inst, Reg};
use std::collections::{HashMap, HashSet};

/// CFCSS: one static signature per block, updated at block *entry* by the
/// difference from the (aliased) predecessor signature.
///
/// Faithful properties:
///
/// * signatures are updated at block heads only — there is no
///   branch-direction-dependent update, so mistaken branches (category A)
///   are invisible by construction;
/// * blocks that share a successor must share a signature (the
///   common-predecessor restriction), so control transfers between aliased
///   blocks escape detection (the paper's D/E caveat);
/// * interprocedural edges (call targets and return sites) *reseed* the
///   signature by assignment, as the original technique does for function
///   boundaries — re-executing a reseed is absorbed, which is also why
///   category C escapes.
///
/// The update arithmetic is the flag-free additive form
/// (`PC' += s(B) − s(pred)`) instead of the original xor, for the same
/// §5.1 EFLAGS reason the paper replaced `xor` with `lea`; the aliasing
/// algebra is unchanged.
#[derive(Debug, Clone)]
pub struct CfcssInstrumenter {
    policy: CheckPolicy,
    /// Block start → assigned signature.
    sigs: HashMap<u64, i32>,
    /// Block start → head update delta (s(B) − s(pred class)).
    diffs: HashMap<u64, i32>,
    /// Blocks entered through interprocedural edges: reseed by assignment.
    reseed: HashSet<u64>,
    entry_sig: i32,
}

impl CfcssInstrumenter {
    /// Assigns CFCSS signatures from the image's recovered CFG.
    pub fn from_image(image: &Image, policy: CheckPolicy) -> CfcssInstrumenter {
        let cfg = Cfg::recover(image);
        let n = cfg.blocks().len();

        // Union-find: blocks sharing a successor share a signature class.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, blk) in cfg.blocks().iter().enumerate() {
            for &s in &blk.successors {
                preds[s].push(b);
            }
        }
        for ps in &preds {
            for w in ps.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        // The DBT's translate-on-demand blocks fuse straight through static
        // leader splits (blocks with no terminator), skipping the head
        // update of the split-off half. Give both halves one signature so
        // the skipped update is the identity — CFCSS's block notion then
        // matches the blocks that actually execute.
        for (b, blk) in cfg.blocks().iter().enumerate() {
            if blk.terminator.is_none() {
                if let Some(&succ) = blk.successors.first() {
                    let (x, y) = (find(&mut parent, b), find(&mut parent, succ));
                    if x != y {
                        parent[x] = y;
                    }
                }
            }
        }

        let mut sigs = HashMap::new();
        let mut class_sig = vec![0i32; n];
        for (b, slot) in class_sig.iter_mut().enumerate() {
            let class = find(&mut parent, b);
            *slot = (class as i32 + 1) << 4;
            sigs.insert(cfg.blocks()[b].start, *slot);
        }

        // Interprocedural reseed points: call targets and return sites.
        let mut reseed = HashSet::new();
        reseed.insert(image.entry());
        for blk in cfg.blocks() {
            if let Some(term @ (Inst::Call { .. } | Inst::CallR { .. })) = blk.terminator {
                let term_addr = blk.end - cfed_isa::INST_SIZE_U64;
                if let Some(target) = term.direct_target(term_addr) {
                    reseed.insert(target);
                }
                reseed.insert(blk.end); // the return site
            }
        }

        // Head deltas: s(B) − s(any pred) (all preds alias by construction).
        let mut diffs = HashMap::new();
        for (b, blk) in cfg.blocks().iter().enumerate() {
            let d = match preds[b].first() {
                Some(&p) => class_sig[b].wrapping_sub(class_sig[p]),
                None => 0,
            };
            diffs.insert(blk.start, d);
        }

        let entry_sig = *sigs.get(&image.entry()).unwrap_or(&0);
        CfcssInstrumenter { policy, sigs, diffs, reseed, entry_sig }
    }

    /// Whether two blocks alias (share a signature class).
    pub fn aliases(&self, a: u64, b: u64) -> bool {
        match (self.sigs.get(&a), self.sigs.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

impl Instrumenter for CfcssInstrumenter {
    fn name(&self) -> &'static str {
        "CFCSS"
    }

    fn emit_head(&self, a: &mut CacheAsm<'_>, sig: u64, check: bool, err_stub: u64) {
        let (s, d, reseed) = match self.sigs.get(&sig) {
            Some(&s) => (s, self.diffs.get(&sig).copied().unwrap_or(0), self.reseed.contains(&sig)),
            // Dynamically discovered block outside the static CFG (does not
            // occur for MiniC-generated code): reseed with a derived value.
            None => ((sig as i32) | 1, 0, true),
        };
        if reseed {
            // Assignment reseed at interprocedural entries — the
            // CFCSS-characteristic absorbing update.
            a.emit(Inst::MovRI { dst: regs::PC_PRIME, imm: s });
        } else {
            // PC' += d(B): transforms the (aliased) predecessor signature
            // into this block's signature.
            a.emit(Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp: simm(d as i64) });
        }
        if check {
            a.emit(Inst::Lea { dst: regs::CHK, base: regs::PC_PRIME, disp: simm(-(s as i64)) });
            a.jrnz_abs(regs::CHK, err_stub);
        }
    }

    fn emit_update_direct(&self, _a: &mut CacheAsm<'_>, _cur: u64, _next: u64) {
        // CFCSS has no exit updates: successors transform the predecessor
        // signature themselves. This is exactly why the successors of a
        // branch "cannot distinguish if the last branch was mistaken" (§3).
    }

    fn emit_update_indirect(&self, _a: &mut CacheAsm<'_>, _cur: u64, _target: Reg) {
        // Indirect edges land on reseed blocks.
    }

    fn has_updates(&self) -> bool {
        // No conditional update skeleton needed at all.
        false
    }

    fn emit_end_check(&self, a: &mut CacheAsm<'_>, cur: u64, err_stub: u64) {
        let s = self.sigs.get(&cur).copied().unwrap_or((cur as i32) | 1);
        a.emit(Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp: simm(-(s as i64)) });
        a.jrnz_abs(regs::PC_PRIME, err_stub);
    }

    fn wants_check(&self, block: &BlockView) -> bool {
        self.policy.wants_check(block)
    }

    fn initial_state(&self, _entry_sig: u64) -> Vec<(Reg, u64)> {
        vec![(regs::PC_PRIME, self.entry_sig as u64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_dbt_with, run_native};
    use cfed_dbt::UpdateStyle;
    use cfed_lang::compile;

    fn image() -> Image {
        compile(
            r#"
            fn leaf(x) { if (x > 2) { return x * 2; } return x + 1; }
            fn main() {
                let i = 0;
                let acc = 0;
                while (i < 30) { acc = acc + leaf(i); i = i + 1; }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn transparent_execution() {
        let img = image();
        let native = run_native(&img, u64::MAX);
        let instr = CfcssInstrumenter::from_image(&img, CheckPolicy::AllBb);
        let got = run_dbt_with(&img, Box::new(instr), UpdateStyle::Jcc, 50_000_000);
        assert_eq!(got.exit, native.exit);
        assert_eq!(got.output, native.output);
    }

    #[test]
    fn common_successor_blocks_alias() {
        // Both arms of leaf()'s if/else flow to the common return-join; the
        // diamond arms must share a signature.
        let img = image();
        let cfg = Cfg::recover(&img);
        let instr = CfcssInstrumenter::from_image(&img, CheckPolicy::AllBb);
        let mut found_alias = false;
        for blk in cfg.blocks() {
            if blk.successors.len() == 1 {
                let succ = &cfg.blocks()[blk.successors[0]];
                for other in cfg.blocks() {
                    if other.start != blk.start
                        && other.successors.contains(&cfg.block_at(succ.start).unwrap())
                        && instr.aliases(blk.start, other.start)
                    {
                        found_alias = true;
                    }
                }
            }
        }
        assert!(found_alias, "common-predecessor aliasing must occur");
    }

    #[test]
    fn cheaper_than_edgcf() {
        // Head-only instrumentation: CFCSS must expand code less than EdgCF.
        let img = image();
        let cfcss = CfcssInstrumenter::from_image(&img, CheckPolicy::AllBb);
        let a = run_dbt_with(&img, Box::new(cfcss), UpdateStyle::Jcc, 50_000_000);
        let b = crate::run::run_dbt(
            &img,
            &crate::run::RunConfig::technique(crate::TechniqueKind::EdgCf),
        );
        let ea = a.dbt.cache_insts as f64 / a.dbt.guest_insts as f64;
        let eb = b.dbt.cache_insts as f64 / b.dbt.guest_insts as f64;
        assert!(ea < eb, "CFCSS expansion {ea:.2} should undercut EdgCF {eb:.2}");
    }
}
