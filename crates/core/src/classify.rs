//! Classification of faulty control transfers into branch-error categories.
//!
//! Classification is purely geometric (paper §2): where does the faulty
//! target land relative to the branch's own basic block and the code region?
//! It is shared by the error-model analyzer (which classifies hypothetical
//! single-bit faults against the static CFG) and the fault-injection
//! campaign (which classifies injected faults against the DBT's translated
//! block layout).

use crate::category::Category;
use crate::cfg::Cfg;
use cfed_dbt::{Dbt, TransBlock};
use std::ops::Range;

/// Answers "which block contains this address" for a particular notion of
/// code layout.
pub trait BlockLayout {
    /// The extent of the basic block containing `addr`, if any.
    fn block_of(&self, addr: u64) -> Option<Range<u64>>;
    /// Whether `addr` lies in executable memory (code region).
    fn is_code(&self, addr: u64) -> bool;
}

impl BlockLayout for Cfg {
    fn block_of(&self, addr: u64) -> Option<Range<u64>> {
        self.block_containing(addr).map(|id| self.blocks()[id].range())
    }

    fn is_code(&self, addr: u64) -> bool {
        self.code_range().contains(&addr)
    }
}

/// A borrowed view of a DBT's translated-block layout, used to classify
/// faults injected into code-cache branches: every lookup goes to the
/// engine's own block table ([`Dbt::block_containing`]).
///
/// The cache region counts as code (it is mapped executable, §5), so a
/// faulty target inside the cache but outside any block (e.g. the shared
/// error stub or an orphaned translation) classifies as E rather than F.
#[derive(Debug, Clone)]
pub struct CacheLayout<'a> {
    dbt: &'a Dbt,
    /// The guest image's exact code range (the engine's own guest range is
    /// page-rounded, which would change [`BlockLayout::is_code`]).
    guest_code: Range<u64>,
}

/// Which part of a translated block a cache address falls on — the
/// profiler's attribution buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePart {
    /// The instrumentation head emitted before the body (signature update
    /// plus check under the checking policies).
    Head,
    /// The 1:1 copy of the guest body — the original program's work.
    Payload,
    /// The terminator glue after the body: conditional selector updates,
    /// the translated terminator, end checks and exit stubs.
    Tail,
}

impl<'a> CacheLayout<'a> {
    /// The layout of `dbt`'s live translations; `guest_code` is the guest
    /// image's executable region.
    pub fn new(dbt: &'a Dbt, guest_code: Range<u64>) -> CacheLayout<'a> {
        CacheLayout { dbt, guest_code }
    }

    /// Whether `addr` falls on a translated block's *instrumentation* — the
    /// head check sequence or the terminator glue — rather than on a
    /// 1:1-copied guest instruction. Conservatively `false` for
    /// terminator-only blocks (empty body) and outside every block.
    pub fn is_instrumentation(&self, addr: u64) -> bool {
        self.dbt
            .block_containing(addr)
            .is_some_and(|b| b.body_len > 0 && !b.body_range().contains(&addr))
    }

    /// Attributes a cache address to `(guest block start, part)` — the
    /// profiler's per-sample classification. `None` outside every
    /// translated block (shared stubs, dead translations).
    pub fn attribute(&self, addr: u64) -> Option<(u64, CachePart)> {
        let b = self.dbt.block_containing(addr)?;
        let part = if addr < b.body_start {
            CachePart::Head
        } else if b.body_range().contains(&addr) {
            CachePart::Payload
        } else {
            CachePart::Tail
        };
        Some((b.guest_start, part))
    }
}

impl BlockLayout for CacheLayout<'_> {
    fn block_of(&self, addr: u64) -> Option<Range<u64>> {
        self.dbt.block_containing(addr).map(TransBlock::cache_range)
    }

    fn is_code(&self, addr: u64) -> bool {
        self.guest_code.contains(&addr) || self.dbt.cache_region().contains(&addr)
    }
}

/// A faulty control transfer to classify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchFault {
    /// Extent of the basic block containing the branch.
    pub branch_block: Range<u64>,
    /// The branch's fall-through address.
    pub fall_through: u64,
    /// The target the branch would reach without the fault.
    pub correct_target: u64,
    /// The target actually reached under the fault.
    pub faulty_target: u64,
}

/// Classifies an address-offset fault (paper §2, Figure 1).
///
/// # Examples
///
/// ```
/// use cfed_core::{classify_addr_fault, BranchFault, Category};
/// use cfed_core::classify::BlockLayout;
/// # struct OneBlock;
/// # impl BlockLayout for OneBlock {
/// #     fn block_of(&self, a: u64) -> Option<std::ops::Range<u64>> {
/// #         (64..128).contains(&a).then_some(64..128)
/// #     }
/// #     fn is_code(&self, a: u64) -> bool { (0..256).contains(&a) }
/// # }
/// let fault = BranchFault {
///     branch_block: 64..128,
///     fall_through: 128,
///     correct_target: 0,
///     faulty_target: 72, // middle of its own block
/// };
/// assert_eq!(classify_addr_fault(&fault, &OneBlock), Category::C);
/// ```
pub fn classify_addr_fault(fault: &BranchFault, layout: &impl BlockLayout) -> Category {
    if fault.faulty_target == fault.correct_target {
        return Category::NoError;
    }
    // Landing exactly on the fall-through behaves like a mistaken branch.
    if fault.faulty_target == fault.fall_through {
        return Category::A;
    }
    if !layout.is_code(fault.faulty_target) {
        return Category::F;
    }
    match layout.block_of(fault.faulty_target) {
        Some(b) if b == fault.branch_block => {
            if fault.faulty_target == b.start {
                Category::B
            } else {
                Category::C
            }
        }
        Some(b) => {
            if fault.faulty_target == b.start {
                Category::D
            } else {
                Category::E
            }
        }
        // Executable bytes outside any known block (cache stubs, padding):
        // the middle of "other" code.
        None => Category::E,
    }
}

/// Classifies a condition-flags fault: it either flips the branch direction
/// (category A) or does nothing.
pub fn classify_flag_fault(direction_changed: bool) -> Category {
    if direction_changed {
        Category::A
    } else {
        Category::NoError
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoBlocks;

    impl BlockLayout for TwoBlocks {
        fn block_of(&self, addr: u64) -> Option<Range<u64>> {
            if (0x100..0x140).contains(&addr) {
                Some(0x100..0x140)
            } else if (0x140..0x200).contains(&addr) {
                Some(0x140..0x200)
            } else {
                None
            }
        }
        fn is_code(&self, addr: u64) -> bool {
            (0x100..0x300).contains(&addr)
        }
    }

    fn fault(to: u64) -> BranchFault {
        BranchFault {
            branch_block: 0x100..0x140,
            fall_through: 0x140,
            correct_target: 0x180,
            faulty_target: to,
        }
    }

    #[test]
    fn each_category_reachable() {
        assert_eq!(classify_addr_fault(&fault(0x180), &TwoBlocks), Category::NoError);
        assert_eq!(classify_addr_fault(&fault(0x140), &TwoBlocks), Category::A); // fall-through
        assert_eq!(classify_addr_fault(&fault(0x100), &TwoBlocks), Category::B);
        assert_eq!(classify_addr_fault(&fault(0x120), &TwoBlocks), Category::C);
        assert_eq!(classify_addr_fault(&fault(0x120 + 3), &TwoBlocks), Category::C); // byte-granular
        assert_eq!(classify_addr_fault(&fault(0x1F0), &TwoBlocks), Category::E);
        assert_eq!(classify_addr_fault(&fault(0x250), &TwoBlocks), Category::E); // code, no block
        assert_eq!(classify_addr_fault(&fault(0x50), &TwoBlocks), Category::F);
        assert_eq!(classify_addr_fault(&fault(0x1000), &TwoBlocks), Category::F);
    }

    #[test]
    fn d_requires_exact_block_start() {
        let other_start = BranchFault { faulty_target: 0x140, correct_target: 0x180, ..fault(0) };
        // 0x140 is both the fall-through and another block's start; the
        // fall-through rule (category A) wins, as in the paper's taxonomy
        // where A is "mistaken branch".
        assert_eq!(classify_addr_fault(&other_start, &TwoBlocks), Category::A);
        // A non-fall-through other-block start is D.
        let f = BranchFault {
            branch_block: 0x140..0x200,
            fall_through: 0x200,
            correct_target: 0x148,
            faulty_target: 0x100,
        };
        assert_eq!(classify_addr_fault(&f, &TwoBlocks), Category::D);
    }

    #[test]
    fn flag_fault_classification() {
        assert_eq!(classify_flag_fault(true), Category::A);
        assert_eq!(classify_flag_fault(false), Category::NoError);
    }
}
