//! Pre-decoded instruction cache: decode each guest instruction once, not
//! on every retirement.
//!
//! VISA instructions are fixed-size (8 bytes), so a 4 KiB page holds exactly
//! [`LINES_PER_PAGE`] instruction slots and a guest address maps to a
//! `(page, line)` pair with two shifts. The cache stores the decoded
//! [`Inst`] per slot and revalidates lazily against the memory's per-page
//! write-generation counters ([`Memory::page_gen`]): any store to a page —
//! guest stores, loader installs, DBT code emission and chain patching,
//! fault injection — bumps that page's generation, and the next fetch
//! through a stale page discards only that page's lines.
//!
//! Equivalence with the raw path is load-bearing: the fault-injection
//! campaigns, the snapshot fast-forward engine and the figure pipelines all
//! assume a retired instruction behaves identically whether it was decoded
//! this step or a million steps ago. [`DecodedCache::fetch`] therefore
//! reproduces `Memory::fetch` trap-for-trap (alignment, range, execute
//! permission, decode order) and never caches decode failures.

use crate::mem::{Memory, PAGE_SIZE};
use crate::Trap;
use cfed_isa::{cost, AluOp, Cond, Inst, Reg, INST_SIZE_U64};
use std::fmt;

/// Instruction slots per page (`PAGE_SIZE / INST_SIZE`).
pub const LINES_PER_PAGE: usize = (PAGE_SIZE / INST_SIZE_U64) as usize;

// Cost/statistics classes. One per rule of [`cost()`] (several rules share a
// value), so a decoded line can charge cycles and update branch counters
// with a table lookup instead of re-matching the instruction every
// retirement. Classes from [`C_JMP`] upward are exactly the control
// transfers ([`Inst::is_branch`]); [`C_COND`] is exactly
// [`Inst::is_cond_branch`]. `class_table_matches_cost_model` below pins the
// mapping to the authoritative [`cost()`].
pub(crate) const C_ONE: u8 = 0;
pub(crate) const C_OUT: u8 = 1;
pub(crate) const C_ALU: u8 = 2;
pub(crate) const C_MUL: u8 = 3;
pub(crate) const C_DIV: u8 = 4;
pub(crate) const C_LOAD: u8 = 5;
pub(crate) const C_STORE: u8 = 6;
pub(crate) const C_STACK: u8 = 7;
pub(crate) const C_CMOV: u8 = 8;
/// `Halt` alone, so the fused loop can detect retirement of a halt from the
/// cached class without reloading `Cpu::halted` every instruction.
pub(crate) const C_HALT: u8 = 9;
pub(crate) const C_JMP: u8 = 10;
pub(crate) const C_COND: u8 = 11;
pub(crate) const C_CALL: u8 = 12;
pub(crate) const C_CALLR: u8 = 13;
pub(crate) const C_JMPR: u8 = 14;
pub(crate) const C_RET: u8 = 15;
pub(crate) const N_CLASSES: usize = 16;
/// Sentinel class marking an undecoded line slot.
pub(crate) const CLASS_EMPTY: u8 = u8::MAX;

/// Cycle cost per class, indexed `[class][taken as usize]`, evaluated at
/// compile time from [`cost()`] on one instruction of each class. Only
/// [`C_COND`] distinguishes the two columns; every other class charges the
/// same either way, as [`cost()`] ignores `taken` for them.
pub(crate) const COST_TABLE: [[u64; 2]; N_CLASSES] = {
    const fn row(inst: Inst) -> [u64; 2] {
        [cost(&inst, false), cost(&inst, true)]
    }
    const R: Reg = Reg::R0;
    let mut t = [[0; 2]; N_CLASSES];
    t[C_ONE as usize] = row(Inst::Nop);
    t[C_OUT as usize] = row(Inst::Out { src: R });
    t[C_ALU as usize] = row(Inst::MovRR { dst: R, src: R });
    t[C_MUL as usize] = row(Inst::Alu { op: AluOp::Mul, dst: R, src: R });
    t[C_DIV as usize] = row(Inst::Alu { op: AluOp::Div, dst: R, src: R });
    t[C_LOAD as usize] = row(Inst::Ld { dst: R, base: R, disp: 0 });
    t[C_STORE as usize] = row(Inst::St { base: R, src: R, disp: 0 });
    t[C_STACK as usize] = row(Inst::Push { src: R });
    t[C_CMOV as usize] = row(Inst::CMov { cc: Cond::E, dst: R, src: R });
    t[C_HALT as usize] = row(Inst::Halt);
    t[C_JMP as usize] = row(Inst::Jmp { offset: 0 });
    t[C_COND as usize] = row(Inst::Jcc { cc: Cond::E, offset: 0 });
    t[C_CALL as usize] = row(Inst::Call { offset: 0 });
    t[C_CALLR as usize] = row(Inst::CallR { target: R });
    t[C_JMPR as usize] = row(Inst::JmpR { target: R });
    t[C_RET as usize] = row(Inst::Ret);
    t
};

/// One decoded line: the instruction plus everything about it that is fixed
/// per `(slot, bytes)` and would otherwise be recomputed every retirement —
/// its cost/stat class, whether it can write guest memory (and hence
/// invalidate decoded pages), and the absolute taken-target of direct
/// branches (a pure function of the slot address).
#[derive(Clone, Copy)]
pub(crate) struct Line {
    pub(crate) inst: Inst,
    pub(crate) class: u8,
    pub(crate) writes_mem: bool,
    pub(crate) target: u64,
}

impl Line {
    pub(crate) const EMPTY: Line =
        Line { inst: Inst::Nop, class: CLASS_EMPTY, writes_mem: false, target: 0 };

    /// Classifies `inst` decoded from address `addr`.
    pub(crate) fn new(inst: Inst, addr: u64) -> Line {
        let class = match inst {
            // `Trap` never retires (it aborts before the statistics
            // epilogue), so its class is never charged; C_ONE is arbitrary.
            Inst::Nop | Inst::Trap { .. } => C_ONE,
            Inst::Halt => C_HALT,
            Inst::Out { .. } => C_OUT,
            Inst::MovRR { .. }
            | Inst::MovRI { .. }
            | Inst::Lea { .. }
            | Inst::Lea2 { .. }
            | Inst::LeaSub { .. }
            | Inst::Neg { .. }
            | Inst::Not { .. } => C_ALU,
            Inst::Ld { .. } | Inst::Ld8 { .. } => C_LOAD,
            Inst::St { .. } | Inst::St8 { .. } => C_STORE,
            Inst::Push { .. } | Inst::Pop { .. } => C_STACK,
            Inst::CMov { .. } => C_CMOV,
            Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
                AluOp::Mul => C_MUL,
                AluOp::Div => C_DIV,
                _ => C_ALU,
            },
            Inst::Jmp { .. } => C_JMP,
            Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. } => C_COND,
            Inst::Call { .. } => C_CALL,
            Inst::CallR { .. } => C_CALLR,
            Inst::JmpR { .. } => C_JMPR,
            Inst::Ret => C_RET,
        };
        Line {
            inst,
            class,
            writes_mem: crate::cpu::inst_writes_mem(&inst),
            target: inst.direct_target(addr).unwrap_or(0),
        }
    }
}

/// Hit/miss/invalidation counters for a [`DecodedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Fetches served from an already-decoded line.
    pub hits: u64,
    /// Fetches that had to decode (cold line or freshly invalidated page).
    pub misses: u64,
    /// Page-granular invalidations: a cached page found stale (its
    /// write-generation moved) and discarded. Lazy — a written page is
    /// counted when next executed, not when written.
    pub invalidations: u64,
}

/// One page worth of decoded lines, valid while `gen` still matches the
/// memory's write-generation for the page.
#[derive(Clone)]
pub(crate) struct DecodedPage {
    gen: u64,
    pub(crate) lines: [Line; LINES_PER_PAGE],
}

impl DecodedPage {
    fn new(gen: u64) -> Box<DecodedPage> {
        Box::new(DecodedPage { gen, lines: [Line::EMPTY; LINES_PER_PAGE] })
    }
}

/// A decode-once instruction cache over one guest address space.
///
/// The cache holds no architectural state: attaching, detaching or clearing
/// it never changes what a [`crate::Cpu`] computes, only how fast. It is
/// private to one `Memory` — generations from a different address space
/// would validate meaninglessly — which the owning [`crate::Machine`]
/// guarantees by construction.
///
/// # Examples
///
/// ```
/// use cfed_isa::{encode_all, Inst, Reg};
/// use cfed_sim::{DecodedCache, Memory, Perms};
///
/// let mut mem = Memory::new(1 << 16);
/// mem.map(0..0x1000, Perms::RX);
/// mem.install(0, &encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 7 }]));
/// let mut cache = DecodedCache::new();
/// let first = cache.fetch(&mem, 0).unwrap();
/// let second = cache.fetch(&mem, 0).unwrap();
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Clone, Default)]
pub struct DecodedCache {
    pub(crate) pages: Vec<Option<Box<DecodedPage>>>,
    pub(crate) stats: DecodeCacheStats,
}

impl fmt::Debug for DecodedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodedCache")
            .field("cached_pages", &self.pages.iter().filter(|p| p.is_some()).count())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DecodedCache {
    /// Creates an empty cache. Pages are allocated lazily on first
    /// execution, so an idle cache costs nothing.
    pub fn new() -> DecodedCache {
        DecodedCache::default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }

    /// Returns the (re)validated decoded page for page index `pi`, clearing
    /// its lines if the remembered write-generation no longer matches
    /// `gen`. Lifetime is tied to `pages` alone so callers can keep using
    /// `stats` while holding the page.
    #[inline]
    pub(crate) fn validate_page<'a>(
        pages: &'a mut Vec<Option<Box<DecodedPage>>>,
        stats: &mut DecodeCacheStats,
        pi: usize,
        gen: u64,
    ) -> &'a mut DecodedPage {
        if pages.len() <= pi {
            pages.resize_with(pi + 1, || None);
        }
        match &mut pages[pi] {
            Some(page) if page.gen == gen => {}
            Some(page) => {
                page.lines = [Line::EMPTY; LINES_PER_PAGE];
                page.gen = gen;
                stats.invalidations += 1;
            }
            slot @ None => *slot = Some(DecodedPage::new(gen)),
        }
        pages[pi].as_mut().expect("just ensured")
    }

    /// Fetches and decodes the instruction at `addr` through the cache.
    ///
    /// Trap-for-trap identical to `mem.fetch(addr)` followed by
    /// `Inst::decode`: alignment, then range, then execute permission, then
    /// decode validity, with the same [`Trap`] payloads.
    ///
    /// # Errors
    ///
    /// [`Trap::UnalignedFetch`], [`Trap::OutOfRange`], [`Trap::PermExec`]
    /// or [`Trap::InvalidInst`], exactly as the raw fetch/decode path.
    pub fn fetch(&mut self, mem: &Memory, addr: u64) -> Result<Inst, Trap> {
        if !addr.is_multiple_of(INST_SIZE_U64) {
            return Err(Trap::UnalignedFetch { addr });
        }
        let pi = (addr / PAGE_SIZE) as usize;
        if pi >= mem.page_count() {
            return Err(Trap::OutOfRange { addr });
        }
        if !mem.perms_at(addr).can_exec() {
            return Err(Trap::PermExec { addr });
        }
        let page = Self::validate_page(&mut self.pages, &mut self.stats, pi, mem.page_gen(pi));
        let li = ((addr % PAGE_SIZE) / INST_SIZE_U64) as usize;
        let line = page.lines[li];
        if line.class != CLASS_EMPTY {
            self.stats.hits += 1;
            return Ok(line.inst);
        }
        let bytes: [u8; 8] = mem.peek(addr, 8).try_into().expect("aligned within page");
        let inst = Inst::decode(&bytes).map_err(|cause| Trap::InvalidInst { addr, cause })?;
        page.lines[li] = Line::new(inst, addr);
        self.stats.misses += 1;
        Ok(inst)
    }

    /// The decoded instruction at `addr` when its line is cached in a
    /// still-valid page and `addr` is executable; `None` otherwise. A pure
    /// lookup: it counts no hit or miss and inserts or revalidates nothing.
    pub(crate) fn peek(&self, mem: &Memory, addr: u64) -> Option<Inst> {
        if !addr.is_multiple_of(INST_SIZE_U64) || !mem.perms_at(addr).can_exec() {
            return None;
        }
        let pi = (addr / PAGE_SIZE) as usize;
        let page = self.pages.get(pi)?.as_ref().filter(|p| p.gen == mem.page_gen(pi))?;
        let line = page.lines[((addr % PAGE_SIZE) / INST_SIZE_U64) as usize];
        (line.class != CLASS_EMPTY).then_some(line.inst)
    }

    /// Number of currently valid decoded lines in the page containing
    /// `addr`: zero when the page was never executed or has been
    /// invalidated by a write (generation mismatch). Test/diagnostic
    /// helper.
    pub fn valid_lines(&self, mem: &Memory, addr: u64) -> usize {
        let pi = (addr / PAGE_SIZE) as usize;
        match self.pages.get(pi).and_then(Option::as_ref) {
            Some(page) if page.gen == mem.page_gen(pi) => {
                page.lines.iter().filter(|l| l.class != CLASS_EMPTY).count()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Perms;
    use cfed_isa::encode_all;

    fn code_mem(insts: &[Inst]) -> Memory {
        let mut mem = Memory::new(1 << 16);
        mem.map(0..2 * PAGE_SIZE, Perms::RWX);
        mem.install(0, &encode_all(insts));
        mem
    }

    /// One instruction per `Inst` variant (and per `AluOp` for the ALU
    /// forms), each with the class it must decode to, so class-based
    /// bookkeeping can be pinned to the authoritative per-instruction
    /// helpers exhaustively.
    fn representative_insts() -> Vec<(Inst, u8)> {
        let r = Reg::R1;
        let mut v = vec![
            (Inst::Nop, C_ONE),
            (Inst::Halt, C_HALT),
            (Inst::Trap { code: 3 }, C_ONE),
            (Inst::Out { src: r }, C_OUT),
            (Inst::MovRR { dst: r, src: Reg::R2 }, C_ALU),
            (Inst::MovRI { dst: r, imm: -5 }, C_ALU),
            (Inst::Ld { dst: r, base: Reg::SP, disp: 8 }, C_LOAD),
            (Inst::St { base: Reg::SP, src: r, disp: 8 }, C_STORE),
            (Inst::Ld8 { dst: r, base: Reg::SP, disp: 1 }, C_LOAD),
            (Inst::St8 { base: Reg::SP, src: r, disp: 1 }, C_STORE),
            (Inst::Push { src: r }, C_STACK),
            (Inst::Pop { dst: r }, C_STACK),
            (Inst::CMov { cc: Cond::E, dst: r, src: Reg::R2 }, C_CMOV),
            (Inst::Neg { dst: r }, C_ALU),
            (Inst::Not { dst: r }, C_ALU),
            (Inst::Lea { dst: r, base: Reg::R2, disp: 4 }, C_ALU),
            (Inst::Lea2 { dst: r, base: Reg::R2, index: Reg::R3, disp: 4 }, C_ALU),
            (Inst::LeaSub { dst: r, base: Reg::R2, index: Reg::R3, disp: 4 }, C_ALU),
            (Inst::Jmp { offset: 16 }, C_JMP),
            (Inst::Jcc { cc: Cond::Ne, offset: -16 }, C_COND),
            (Inst::JRz { src: r, offset: 24 }, C_COND),
            (Inst::JRnz { src: r, offset: 24 }, C_COND),
            (Inst::Call { offset: 32 }, C_CALL),
            (Inst::CallR { target: r }, C_CALLR),
            (Inst::JmpR { target: r }, C_JMPR),
            (Inst::Ret, C_RET),
        ];
        for (op, class) in [
            (AluOp::Add, C_ALU),
            (AluOp::Sub, C_ALU),
            (AluOp::And, C_ALU),
            (AluOp::Or, C_ALU),
            (AluOp::Xor, C_ALU),
            (AluOp::Shl, C_ALU),
            (AluOp::Shr, C_ALU),
            (AluOp::Sar, C_ALU),
            (AluOp::Mul, C_MUL),
            (AluOp::Div, C_DIV),
            (AluOp::Cmp, C_ALU),
            (AluOp::Test, C_ALU),
        ] {
            v.push((Inst::Alu { op, dst: r, src: Reg::R2 }, class));
            v.push((Inst::AluI { op, dst: r, imm: 3 }, class));
        }
        v
    }

    #[test]
    fn class_table_matches_cost_model() {
        // Several classes share a cost (load = mul = call = ret), so a line
        // put in the wrong class need not show as a cost mismatch: each
        // instruction's class is asserted explicitly, then its class row
        // is pinned to the authoritative `cost`.
        for (inst, class) in representative_insts() {
            let line = Line::new(inst, 0x100);
            assert_eq!(line.class, class, "class for {inst:?}");
            if matches!(inst, Inst::Trap { .. }) {
                continue; // never retires, class never charged
            }
            for taken in [false, true] {
                assert_eq!(
                    COST_TABLE[class as usize][taken as usize],
                    cost(&inst, taken),
                    "cost mismatch for {inst:?} taken={taken}"
                );
            }
            assert_eq!(class >= C_JMP, inst.is_branch(), "branch class for {inst:?}");
            assert_eq!(class == C_COND, inst.is_cond_branch(), "cond class for {inst:?}");
        }
    }

    #[test]
    fn line_metadata_matches_inst_helpers() {
        for (inst, _) in representative_insts() {
            let addr = 0x2000;
            let line = Line::new(inst, addr);
            assert_eq!(
                line.writes_mem,
                crate::cpu::inst_writes_mem(&inst),
                "writes_mem for {inst:?}"
            );
            assert_eq!(line.target, inst.direct_target(addr).unwrap_or(0), "target for {inst:?}");
        }
    }

    #[test]
    fn fetch_matches_raw_decode() {
        let mem = code_mem(&[Inst::MovRI { dst: Reg::R1, imm: 5 }, Inst::Halt]);
        let mut cache = DecodedCache::new();
        for addr in [0u64, 8, 0, 8] {
            let raw = Inst::decode(&mem.fetch(addr).unwrap()).unwrap();
            assert_eq!(cache.fetch(&mem, addr).unwrap(), raw);
        }
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn traps_identical_to_raw_fetch() {
        let mem = code_mem(&[Inst::Halt]);
        let mut cache = DecodedCache::new();
        // Misaligned, unmapped (no exec), out of range.
        for addr in [4u64, 3 * PAGE_SIZE, mem.size(), u64::MAX - 7] {
            let raw = mem.fetch(addr).map(|_| ()).unwrap_err();
            assert_eq!(cache.fetch(&mem, addr).unwrap_err(), raw);
        }
    }

    #[test]
    fn decode_failures_propagate_and_are_not_cached() {
        let mut mem = code_mem(&[]);
        mem.install(0, &[0xFF; 8]);
        let mut cache = DecodedCache::new();
        assert!(matches!(cache.fetch(&mem, 0), Err(Trap::InvalidInst { addr: 0, .. })));
        assert!(matches!(cache.fetch(&mem, 0), Err(Trap::InvalidInst { addr: 0, .. })));
        assert_eq!(cache.stats().misses, 0);
        // Overwriting with a valid instruction decodes fine afterwards.
        mem.install(0, &encode_all(&[Inst::Nop]));
        assert_eq!(cache.fetch(&mem, 0).unwrap(), Inst::Nop);
    }

    #[test]
    fn write_invalidates_exactly_that_page() {
        let insts = vec![Inst::Nop; 2 * LINES_PER_PAGE];
        let mut mem = code_mem(&insts);
        let mut cache = DecodedCache::new();
        // Warm one line in each of the two pages.
        cache.fetch(&mem, 0).unwrap();
        cache.fetch(&mem, PAGE_SIZE).unwrap();
        assert_eq!(cache.valid_lines(&mem, 0), 1);
        assert_eq!(cache.valid_lines(&mem, PAGE_SIZE), 1);
        // A write to the first (executable) page invalidates its lines and
        // only its lines.
        mem.write_u64(16, 0).unwrap();
        assert_eq!(cache.valid_lines(&mem, 0), 0, "written page must drop");
        assert_eq!(cache.valid_lines(&mem, PAGE_SIZE), 1, "other page must survive");
        // Re-fetch decodes the new contents and counts one invalidation.
        cache.fetch(&mem, 0).unwrap();
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.valid_lines(&mem, 0), 1);
    }

    #[test]
    fn install_also_invalidates() {
        let mut mem = code_mem(&[Inst::Nop]);
        let mut cache = DecodedCache::new();
        assert_eq!(cache.fetch(&mem, 0).unwrap(), Inst::Nop);
        mem.install(0, &encode_all(&[Inst::Halt]));
        assert_eq!(cache.fetch(&mem, 0).unwrap(), Inst::Halt, "stale line must not survive");
    }

    #[test]
    fn revoked_exec_permission_traps_despite_cached_line() {
        let mut mem = code_mem(&[Inst::Nop]);
        let mut cache = DecodedCache::new();
        cache.fetch(&mem, 0).unwrap();
        mem.map(0..PAGE_SIZE, Perms::RW);
        assert_eq!(cache.fetch(&mem, 0), Err(Trap::PermExec { addr: 0 }));
    }
}
