//! The static per-instruction cycle-cost model.
//!
//! The paper reports *slowdowns* (instrumented vs. uninstrumented execution
//! under the same DBT) on one real machine. We replace wall-clock time with
//! one deterministic cycle model, [`cost()`]; the absolute values are a
//! documented assumption (DESIGN.md "Cycle-cost model") but the model
//! preserves the relationships the paper's results rest on: `cmov` costs
//! more than a well-predicted conditional branch (Figure 14's Jcc-vs-CMOVcc
//! gap), `div` is far more expensive than anything else (why ECCA-style div
//! checks are "prohibitive", §3.1), memory operations cost more than
//! register ALU ops, and floating-point-style long-latency work makes
//! instrumentation relatively cheaper (fp vs. int behaviour in Figures
//! 12/15).
//!
//! Every engine charges cycles through this one function: the stepped
//! interpreter directly, the fused interpreter through a per-class table
//! built from it at compile time, and the native backend by baking its
//! values into emitted code.

use crate::inst::{AluOp, Inst};

/// A taken branch (redirects fetch).
const BRANCH_TAKEN: u64 = 2;
/// Indirect jump/call redirect penalty, on top of the direct cost.
const INDIRECT_PENALTY: u64 = 2;
/// Call (push + redirect); return (pop + indirect redirect).
const CALL: u64 = 3;

/// Cycle cost of executing `inst`; `taken` reports whether a conditional
/// branch was taken (ignored for other instructions).
///
/// # Examples
///
/// ```
/// use cfed_isa::{cost, Inst, Reg};
///
/// let ld = Inst::Ld { dst: Reg::R0, base: Reg::SP, disp: 0 };
/// assert!(cost(&ld, false) > cost(&Inst::Nop, false));
/// ```
#[inline]
pub const fn cost(inst: &Inst, taken: bool) -> u64 {
    match inst {
        Inst::Nop | Inst::Halt | Inst::Trap { .. } | Inst::Out { .. } => 1,
        Inst::MovRR { .. }
        | Inst::MovRI { .. }
        | Inst::Lea { .. }
        | Inst::Lea2 { .. }
        | Inst::LeaSub { .. }
        | Inst::Neg { .. }
        | Inst::Not { .. } => 1,
        Inst::Ld { .. } | Inst::Ld8 { .. } => 3,
        // Stores, push/pop (one memory access plus pointer update) and
        // conditional moves (flag-reading, serializing on real cores).
        Inst::St { .. } | Inst::St8 { .. } | Inst::Push { .. } | Inst::Pop { .. } => 2,
        Inst::CMov { .. } => 2,
        Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
            AluOp::Mul => 3,
            AluOp::Div => 20,
            _ => 1,
        },
        Inst::Jmp { .. } => BRANCH_TAKEN,
        Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. } => {
            if taken {
                BRANCH_TAKEN
            } else {
                1
            }
        }
        Inst::Call { .. } | Inst::Ret => CALL,
        Inst::CallR { .. } => CALL + INDIRECT_PENALTY,
        Inst::JmpR { .. } => BRANCH_TAKEN + INDIRECT_PENALTY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Reg};

    #[test]
    fn orderings_required_by_the_paper() {
        let cmov = Inst::CMov { cc: Cond::Le, dst: Reg::R8, src: Reg::R9 };
        let jcc_nt = Inst::Jcc { cc: Cond::Le, offset: 8 };
        // CMOVcc update must be dearer than a (mostly not-taken) Jcc update.
        assert!(cost(&cmov, false) > cost(&jcc_nt, false));
        // div must dwarf everything (ECCA's check cost).
        let div = Inst::Alu { op: AluOp::Div, dst: Reg::R0, src: Reg::R1 };
        assert!(cost(&div, false) >= 10 * cost(&cmov, false));
        // lea is as cheap as xor (§5.1: "performance similar").
        let lea = Inst::Lea { dst: Reg::R8, base: Reg::R8, disp: 1 };
        let xor = Inst::Alu { op: AluOp::Xor, dst: Reg::R8, src: Reg::R8 };
        assert_eq!(cost(&lea, false), cost(&xor, false));
    }

    #[test]
    fn taken_branches_cost_more() {
        let j = Inst::Jcc { cc: Cond::E, offset: 8 };
        assert!(cost(&j, true) > cost(&j, false));
    }

    #[test]
    fn indirect_penalty_applied() {
        assert!(cost(&Inst::JmpR { target: Reg::R0 }, true) > cost(&Inst::Jmp { offset: 0 }, true));
    }
}
