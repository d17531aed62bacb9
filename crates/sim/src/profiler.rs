//! Raw per-address execution profiling for the fused interpreter loop.
//!
//! An [`ExecProfiler`] tallies retirements and model cycles per instruction
//! slot, organized exactly like the decoded cache: one lazily-allocated
//! counter page per guest page, indexed by line. The fused runner resolves
//! the counter page once per burst entry (alongside the decoded page), so
//! the per-instruction cost of profiling is two array adds — and the cost
//! with profiling *off* is zero, because the unprofiled loop is a separate
//! monomorphization that contains no profiling code at all.
//!
//! A profiler may instead carry a [`BranchTally`]: dynamic executions of
//! each branch line, keyed by what decides its direction. The fused loop
//! updates it on branch lines only, and only when one is attached.
//!
//! The profiler is execution-state only: it never influences what the CPU
//! computes, and it counts *addresses as executed* (guest addresses under
//! interpretation, code-cache addresses under the DBT). Mapping those raw
//! addresses onto static blocks and instrumentation ranges is the job of
//! higher layers that know the code layout.

use crate::{Cpu, LINES_PER_PAGE};
use cfed_isa::{FxBuildHasher, Inst, INST_SIZE_U64};
use std::collections::HashMap;

/// Dynamic executions of each branch line, keyed by `(site, decoded
/// instruction, k)`. `k` is the flags bits for a `jcc`, whether a `jrz` or
/// `jrnz` is taken, and 1 for every other branch: so a key fixes the
/// branch's direction and, through the instruction, its target, even where
/// the code at the site was rewritten. A branch whose execution traps
/// counts too.
pub type BranchTally = HashMap<(u64, Inst, u8), u64, FxBuildHasher>;

/// Counts one execution of branch `inst` at `site` in `cpu`'s state before
/// it executes.
#[inline]
pub(crate) fn tally_branch(tally: &mut BranchTally, cpu: &Cpu, site: u64, inst: Inst) {
    let k = match inst {
        Inst::Jcc { .. } => cpu.flags().bits(),
        _ => cpu.would_take(&inst) as u8,
    };
    *tally.entry((site, inst, k)).or_insert(0) += 1;
}

/// Per-page counters: one `(hits, cycles)` pair per instruction slot.
#[derive(Clone)]
pub(crate) struct ProfPage {
    pub(crate) hits: Box<[u64; LINES_PER_PAGE]>,
    pub(crate) cycles: Box<[u64; LINES_PER_PAGE]>,
}

impl ProfPage {
    fn new() -> ProfPage {
        ProfPage { hits: Box::new([0; LINES_PER_PAGE]), cycles: Box::new([0; LINES_PER_PAGE]) }
    }
}

/// Per-address retirement/cycle tallies for one machine's execution, or
/// a branch tally.
#[derive(Clone, Default)]
pub struct ExecProfiler {
    pages: Vec<Option<ProfPage>>,
    /// The tally of a [`ExecProfiler::branches_only`] profiler.
    pub(crate) branches: Option<BranchTally>,
}

impl std::fmt::Debug for ExecProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecProfiler")
            .field("pages", &self.pages.iter().filter(|p| p.is_some()).count())
            .field("cycles", &self.attributed_cycles())
            .finish()
    }
}

impl ExecProfiler {
    /// An empty profiler (no counter pages allocated).
    pub fn new() -> ExecProfiler {
        ExecProfiler::default()
    }

    /// A profiler that tallies branches into an empty [`BranchTally`] and
    /// records no per-address retirements or cycles.
    pub fn branches_only() -> ExecProfiler {
        ExecProfiler { pages: Vec::new(), branches: Some(BranchTally::default()) }
    }

    /// The branch tally, if this profiler keeps one.
    pub fn into_branches(self) -> Option<BranchTally> {
        self.branches
    }

    /// The counter page for page index `pi`, allocated on first touch.
    #[inline]
    pub(crate) fn page_mut(&mut self, pi: usize) -> &mut ProfPage {
        if self.pages.len() <= pi {
            self.pages.resize_with(pi + 1, || None);
        }
        self.pages[pi].get_or_insert_with(ProfPage::new)
    }

    /// Records one retirement at `addr` costing `cycles` (slow-path entry
    /// for non-fused callers; the fused loop writes the page arrays
    /// directly). A branch-only profiler records nothing here.
    #[inline]
    pub fn record(&mut self, addr: u64, cycles: u64) {
        if self.branches.is_some() {
            return;
        }
        let pi = (addr / crate::mem::PAGE_SIZE) as usize;
        let li = ((addr % crate::mem::PAGE_SIZE) / INST_SIZE_U64) as usize;
        let page = self.page_mut(pi);
        page.hits[li] += 1;
        page.cycles[li] += cycles;
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.pages.iter().all(Option::is_none)
    }

    /// Total cycles recorded across every address.
    pub fn attributed_cycles(&self) -> u64 {
        self.samples().map(|(_, _, c)| c).sum()
    }

    /// Every nonzero `(addr, hits, cycles)` sample, address-ascending.
    pub fn samples(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.pages.iter().enumerate().filter_map(|(pi, p)| p.as_ref().map(|p| (pi, p))).flat_map(
            |(pi, page)| {
                let base = pi as u64 * crate::mem::PAGE_SIZE;
                (0..LINES_PER_PAGE).filter_map(move |li| {
                    let hits = page.hits[li];
                    (hits > 0).then(|| (base + li as u64 * INST_SIZE_U64, hits, page.cycles[li]))
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;

    #[test]
    fn records_and_iterates_in_address_order() {
        let mut p = ExecProfiler::new();
        assert!(p.is_empty());
        p.record(PAGE_SIZE + 16, 3);
        p.record(8, 2);
        p.record(8, 5);
        assert!(!p.is_empty());
        let samples: Vec<_> = p.samples().collect();
        assert_eq!(samples, vec![(8, 2, 7), (PAGE_SIZE + 16, 1, 3)]);
        assert_eq!(p.attributed_cycles(), 10);
    }

    #[test]
    fn pages_allocate_lazily() {
        let mut p = ExecProfiler::new();
        p.record(100 * PAGE_SIZE, 1);
        assert_eq!(p.pages.iter().filter(|x| x.is_some()).count(), 1);
    }
}
