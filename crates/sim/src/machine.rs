//! A whole guest machine: CPU + memory + a conventional address-space
//! layout, with a loader for raw program images.

use crate::icache::{DecodeCacheStats, DecodedCache};
use crate::mem::PAGE_SIZE;
use crate::profiler::ExecProfiler;
use crate::{Cpu, ExitReason, Memory, Perms, Step, TraceEntry, Tracer, Trap};
use cfed_isa::Inst;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Address-space layout conventions shared by the assembler, loader, DBT and
/// fault-injection tooling.
///
/// The defaults give an 8 MiB guest with a guard page at 0, code at 64 KiB,
/// a data/heap region, a region reserved for the DBT's code cache (mapped by
/// the DBT itself, with execute permission — the paper places the code cache
/// in executable pages so category-F errors are still caught, §5), and a
/// stack below an unmapped guard page at the top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Total guest address-space size in bytes.
    pub mem_size: u64,
    /// Base address where program code is loaded.
    pub code_base: u64,
    /// Base address of the data/heap region.
    pub data_base: u64,
    /// Extent of the data/heap region.
    pub data_size: u64,
    /// Region reserved for the DBT code cache (not mapped by the loader).
    pub cache_region: Range<u64>,
    /// Mapped stack region; the initial stack pointer is `stack.end`.
    pub stack: Range<u64>,
}

impl Default for Layout {
    fn default() -> Layout {
        Layout {
            mem_size: 0x80_0000, // 8 MiB
            code_base: 0x1_0000,
            data_base: 0x20_0000,
            data_size: 0x20_0000, // 2 MiB data + heap
            cache_region: 0x50_0000..0x78_0000,
            stack: 0x78_0000..0x7F_F000,
        }
    }
}

impl Layout {
    /// The initial stack pointer (top of the stack region).
    pub fn initial_sp(&self) -> u64 {
        self.stack.end
    }
}

/// A loaded guest machine ready to run.
///
/// # Examples
///
/// ```
/// use cfed_isa::{encode_all, AluOp, Inst, Reg};
/// use cfed_sim::{ExitReason, Machine};
///
/// let code = encode_all(&[
///     Inst::MovRI { dst: Reg::R0, imm: 21 },
///     Inst::AluI { op: AluOp::Add, dst: Reg::R0, imm: 21 },
///     Inst::Halt,
/// ]);
/// let mut m = Machine::load(&code, &[], 0);
/// assert_eq!(m.run(1_000), ExitReason::Halted { code: 42 });
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// The processor.
    pub cpu: Cpu,
    /// The address space.
    pub mem: Memory,
    /// Optional execution tracer; when attached, every step through
    /// [`Machine::step_cpu`] is recorded (used by fault-injection
    /// forensics to capture the window before a detection).
    pub tracer: Option<Tracer>,
    /// Pre-decoded instruction cache (attached by default). Purely a
    /// speedup: execution through it is architecturally identical to raw
    /// fetch+decode; see [`DecodedCache`]. [`Machine::set_decode_cache`]
    /// disables it for raw-path benchmarking and equivalence testing.
    pub icache: Option<DecodedCache>,
    /// Optional execution profiler. When attached (and a decode cache is
    /// present), fused runs tally per-address retirements and cycles;
    /// detached (the default), the fused loop is the unprofiled
    /// monomorphization and pays nothing.
    pub profiler: Option<Box<ExecProfiler>>,
    layout: Layout,
    code_len: u64,
}

impl Machine {
    /// Builds a machine with the default [`Layout`], installs `code` at
    /// `code_base` (mapped RWX — guest code is writable so self-modifying
    /// code works until the DBT protects it) and `data` at `data_base`
    /// (mapped RW), and points the CPU at `code_base + entry_offset`.
    ///
    /// # Panics
    ///
    /// Panics if code or data do not fit their regions.
    pub fn load(code: &[u8], data: &[u8], entry_offset: u64) -> Machine {
        let layout = Layout::default();
        assert!(
            layout.code_base + code.len() as u64 <= layout.data_base,
            "code overflows its region ({} bytes)",
            code.len()
        );
        assert!(data.len() as u64 <= layout.data_size, "data overflows its region");
        let mut mem = Memory::new(layout.mem_size);
        // Map exactly the pages the code occupies: the executable footprint
        // defines the "code region" the error model classifies against.
        let code_end = layout.code_base + (code.len() as u64).max(1);
        mem.map(layout.code_base..code_end, Perms::RWX);
        mem.map(layout.data_base..layout.data_base + layout.data_size, Perms::RW);
        mem.map(layout.stack.clone(), Perms::RW);
        mem.install(layout.code_base, code);
        mem.install(layout.data_base, data);

        let mut cpu = Cpu::new();
        cpu.set_ip(layout.code_base + entry_offset);
        cpu.set_reg(cfed_isa::Reg::SP, layout.initial_sp());
        Machine {
            cpu,
            mem,
            tracer: None,
            icache: Some(DecodedCache::new()),
            profiler: None,
            layout,
            code_len: code.len() as u64,
        }
    }

    /// Attaches a fresh [`ExecProfiler`]; subsequent fused runs tally
    /// per-address retirements and cycles. Never changes what the machine
    /// computes.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Box::new(ExecProfiler::new()));
    }

    /// Detaches and returns the profiler (with everything it recorded),
    /// reverting fused runs to the unprofiled path.
    pub fn take_profiler(&mut self) -> Option<Box<ExecProfiler>> {
        self.profiler.take()
    }

    /// Enables (with a fresh, empty cache) or disables the pre-decoded
    /// instruction cache. Never changes what the machine computes — only
    /// whether execution pays a decode per retired instruction.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.icache = enabled.then(DecodedCache::new);
    }

    /// Whether a pre-decoded instruction cache is attached.
    pub fn has_decode_cache(&self) -> bool {
        self.icache.is_some()
    }

    /// Decode-cache hit/miss/invalidation counters, if a cache is attached.
    pub fn decode_cache_stats(&self) -> Option<DecodeCacheStats> {
        self.icache.as_ref().map(DecodedCache::stats)
    }

    /// Attaches a fresh [`Tracer`] keeping the last `capacity` instructions
    /// (replacing any previous tracer), with its retired-instruction counter
    /// pre-set to `retired` — for supervisors resuming execution from a
    /// mid-run snapshot, so the tracer's counter keeps matching the CPU's
    /// total instruction count rather than restarting from zero (pass `0`
    /// on a fresh machine). Supervisors that step the machine through
    /// [`Machine::step_cpu`] feed it automatically.
    pub fn attach_tracer_resumed(&mut self, capacity: usize, retired: u64) {
        self.tracer = Some(Tracer::resumed(capacity, retired));
    }

    /// Steps the CPU once, records the retired instruction into the
    /// attached tracer if any, and records its address and cycle cost into
    /// the attached profiler if any — so a profile does not depend on
    /// whether an instruction retired here or in a [`Machine::run_burst`].
    /// A trap records nothing, except that a profiler's branch tally counts
    /// a branch whose execution traps, as the fused loop does. Neither
    /// observer changes what the step computes or counts. Supervisors (the
    /// DBT runtime, fault harnesses) should prefer this over calling
    /// `cpu.step` directly so tracing and profiling stay transparent.
    ///
    /// # Errors
    ///
    /// Propagates the CPU's trap without committing state.
    pub fn step_cpu(&mut self) -> Result<Step, Trap> {
        if self.profiler.is_some() {
            return self.step_profiled();
        }
        if self.tracer.is_some() {
            return self.step_traced();
        }
        match &mut self.icache {
            Some(ic) => self.cpu.step_decoded(&mut self.mem, ic),
            None => self.cpu.step(&mut self.mem),
        }
    }

    /// [`Machine::step_cpu`] with a tracer attached. The entry is read through
    /// the statistics-neutral [`Machine::peek_inst`], so tracing fetches nothing.
    #[cold]
    fn step_traced(&mut self) -> Result<Step, Trap> {
        let mut tracer = self.tracer.take().expect("tracer attached");
        let entry = self.peek_inst().map(|inst| {
            let taken = inst.is_cond_branch().then(|| self.cpu.would_take(&inst));
            TraceEntry { addr: self.cpu.ip(), inst, taken }
        });
        let step = self.step_cpu();
        if let (Ok(_), Ok(entry)) = (&step, entry) {
            tracer.record(entry);
        }
        self.tracer = Some(tracer);
        step
    }

    /// [`Machine::step_cpu`] with a profiler attached. Kept out of line: the
    /// unprofiled step is the hot path of every stepped trial.
    #[cold]
    fn step_profiled(&mut self) -> Result<Step, Trap> {
        let mut profiler = self.profiler.take().expect("profiler attached");
        let (ip, cycles) = (self.cpu.ip(), self.cpu.stats().cycles);
        if let (Some(tally), Ok(inst)) = (profiler.branches.as_mut(), self.peek_inst()) {
            if inst.is_branch() {
                crate::profiler::tally_branch(tally, &self.cpu, ip, inst);
            }
        }
        let step = self.step_cpu();
        if step.is_ok() {
            profiler.record(ip, self.cpu.stats().cycles - cycles);
        }
        self.profiler = Some(profiler);
        step
    }

    /// Decodes (without executing) the instruction at the current `ip`:
    /// from a valid decoded-cache line when one is cached, else from raw
    /// memory. Same traps and statistics-neutrality as [`Cpu::peek_inst`]:
    /// the decode cache counts nothing and inserts nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as a fetch during [`Cpu::step`].
    pub fn peek_inst(&self) -> Result<Inst, Trap> {
        let ip = self.cpu.ip();
        match self.icache.as_ref().and_then(|ic| ic.peek(&self.mem, ip)) {
            Some(inst) => Ok(inst),
            None => self.cpu.peek_inst(&self.mem),
        }
    }

    /// Runs up to `max_steps` instructions through the fused decoded path
    /// (falling back to per-instruction stepping when no decode cache is
    /// attached), stopping early in front of a branch once
    /// [`ExecStats::branches`](crate::ExecStats::branches) has reached
    /// `stop_at` (`u64::MAX`: never). On `Ok(Step::Continue)` either
    /// `max_steps` instructions retired or `ip` is at a branch that has
    /// neither executed nor been fetched. The CPU and the decode cache's hit
    /// and miss counters read as if the machine had been stepped there; a
    /// page invalidation, being lazy, may be counted one fetch earlier.
    /// Returns the raw supervisor-level step result instead of an
    /// [`ExitReason`] — the DBT's dispatch loop wants the trap itself.
    /// The attached tracer, if any, is *not* fed (callers that trace must
    /// use [`Machine::step_cpu`]).
    ///
    /// # Errors
    ///
    /// The first trap raised, exactly as the equivalent individual steps.
    pub fn run_burst(&mut self, max_steps: u64, stop_at: u64) -> Result<Step, Trap> {
        match (&mut self.icache, &mut self.profiler) {
            (Some(ic), Some(p)) => {
                self.cpu.run_fused_impl::<true>(&mut self.mem, ic, max_steps, stop_at, p)
            }
            (Some(ic), None) => self.cpu.run_fused(&mut self.mem, ic, max_steps, stop_at),
            (None, _) => {
                let insts = self.cpu.stats().insts;
                while self.cpu.stats().insts - insts < max_steps {
                    if self.cpu.stats().branches >= stop_at
                        && self.cpu.peek_inst(&self.mem).is_ok_and(|inst| inst.is_branch())
                    {
                        break;
                    }
                    if self.cpu.step(&mut self.mem)? == Step::Halt {
                        return Ok(Step::Halt);
                    }
                }
                Ok(Step::Continue)
            }
        }
    }

    /// The machine's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The loaded code region `[code_base, code_base + len)`.
    pub fn code_range(&self) -> Range<u64> {
        self.layout.code_base..self.layout.code_base + self.code_len
    }

    /// Runs the CPU until halt, trap or step limit, through the decoded
    /// cache when one is attached.
    pub fn run(&mut self, max_steps: u64) -> ExitReason {
        match self.run_burst(max_steps, u64::MAX) {
            Ok(Step::Halt) => ExitReason::Halted { code: self.cpu.reg(cfed_isa::Reg::R0) },
            Ok(Step::Continue) => ExitReason::StepLimit,
            Err(trap) => ExitReason::Trapped(trap),
        }
    }
}

/// A compact, restorable copy of a [`Machine`]'s architectural state.
///
/// A full `Machine` clone duplicates the whole address space (8 MiB under
/// the default [`Layout`]); a snapshot keeps only the pages holding nonzero
/// bytes plus the per-page permission table, which for the workloads in
/// this repository is a few dozen KiB. A fresh address space is all-zero,
/// so [`MachineSnapshot::restore`] rebuilds a bit-identical machine by
/// re-installing just those pages, and [`MachineSnapshot::rewind`] brings
/// a machine that already exists there by rewriting only the pages that
/// can differ. The attached [`Tracer`] (if any) is *not* captured —
/// supervisors attach their own after restoring.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    cpu: Cpu,
    layout: Layout,
    code_len: u64,
    mem_size: u64,
    /// Page contents behind `Arc`, ascending by base: snapshots taken in
    /// sequence (see [`SnapshotTracker`]) share the pages that did not
    /// change between them.
    pages: Vec<(u64, Arc<[u8]>)>,
    perms: Vec<Perms>,
}

/// A page of zeros: what a snapshot holds where it holds no page.
const ZERO_PAGE: &[u8] = &[0u8; PAGE_SIZE as usize];

impl MachineSnapshot {
    /// Captures the machine's CPU, memory contents and page permissions.
    pub fn capture(m: &Machine) -> MachineSnapshot {
        MachineSnapshot {
            cpu: m.cpu.clone(),
            layout: m.layout.clone(),
            code_len: m.code_len,
            mem_size: m.mem.size(),
            pages: m.mem.nonzero_pages().map(|(base, bytes)| (base, Arc::from(bytes))).collect(),
            perms: m.mem.perms_table().to_vec(),
        }
    }

    /// Builds a new machine bit-identical to the captured one (with no
    /// tracer attached, and a fresh decode cache). Its dirty log holds
    /// every page it installed: as a `from` or `base` it stands for the
    /// all-zero address space (`None`).
    pub fn restore(&self) -> Machine {
        let mut mem = Memory::new(self.mem_size);
        for (base, bytes) in &self.pages {
            mem.install(*base, bytes);
        }
        mem.set_perms_table(&self.perms);
        Machine {
            cpu: self.cpu.clone(),
            mem,
            tracer: None,
            // A fresh (empty) decode cache: caches are derived state, so
            // restoring one is never needed for bit-identical behaviour.
            icache: Some(DecodedCache::new()),
            profiler: None,
            layout: self.layout.clone(),
            code_len: self.code_len,
        }
    }

    /// Rewinds `m` (an address space of the captured size) in place to
    /// the captured state and empties its dirty log, so the log then names
    /// exactly the pages written since this snapshot. Returns the pages it
    /// rewrote.
    ///
    /// With `from`, `m` must hold `from`'s state except on the pages its
    /// dirty log names (as after a rewind to `from`, or a
    /// [`MachineSnapshot::restore`] of it). Then only those pages and the
    /// ones whose `Arc` differs between `from` and this snapshot are
    /// rewritten: every other page holds the same bytes on both sides.
    /// Without `from` (a machine of unknown history) every page ever
    /// written is zeroed or overwritten. The CPU, permission table and
    /// layout are copied into the existing allocations. The decode cache
    /// stays: it revalidates each page by write generation, and every
    /// rewritten page gets a new one.
    pub fn rewind(&self, m: &mut Machine, from: Option<&MachineSnapshot>) -> u64 {
        debug_assert!(m.tracer.is_none() && m.profiler.is_none(), "rewind a bare machine");
        assert_eq!(m.mem.size(), self.mem_size, "rewind across address-space sizes");
        let mut written = 0;
        match from {
            Some(from) => {
                for base in differing_pages(&from.pages, &self.pages) {
                    // A dirty page is rewritten below, once.
                    if !m.mem.is_dirty(base) {
                        m.mem.rewrite_page(base, self.page(base));
                        written += 1;
                    }
                }
                written += m.mem.rewrite_dirty(|base| self.page(base));
            }
            None => {
                // A page never written is still zero.
                for page in 0..m.mem.page_count() {
                    let base = page as u64 * PAGE_SIZE;
                    if m.mem.page_gen(page) > 0
                        && m.mem.peek(base, PAGE_SIZE as usize) != self.page(base)
                    {
                        m.mem.rewrite_page(base, self.page(base));
                        written += 1;
                    }
                }
                for (base, bytes) in &self.pages {
                    if m.mem.page_gen((base / PAGE_SIZE) as usize) == 0 {
                        m.mem.rewrite_page(*base, bytes);
                        written += 1;
                    }
                }
                m.mem.clear_dirty();
            }
        }
        m.mem.set_perms_table(&self.perms);
        m.cpu.clone_from(&self.cpu);
        m.layout.clone_from(&self.layout);
        m.code_len = self.code_len;
        written
    }

    /// The captured CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The captured bytes of the page at `base` (zeros where none is held).
    fn page(&self, base: u64) -> &[u8] {
        self.pages.binary_search_by_key(&base, |&(b, _)| b).map_or(ZERO_PAGE, |i| &self.pages[i].1)
    }

    /// Whether `m`'s architectural state (CPU including counters, memory
    /// contents, page permissions) is bit-identical to the captured one.
    /// Since execution is deterministic, a match means `m`'s future is
    /// exactly the captured machine's future — the basis for convergence
    /// pruning in fault injection.
    ///
    /// `base` is the snapshot `m`'s dirty log started from (its last
    /// [`MachineSnapshot::rewind`]); `None` when the log covers every page
    /// written since the machine was all-zero (a loaded or restored
    /// machine). Only the dirty pages and the pages whose `Arc` differs
    /// between `base` and this snapshot are compared: every other page
    /// holds `base`'s bytes on `m` and the same bytes here. Cheap when
    /// states differ: the CPU compare rejects first.
    pub fn matches(&self, m: &Machine, base: Option<&MachineSnapshot>) -> bool {
        if self.cpu != m.cpu || self.mem_size != m.mem.size() || self.perms != m.mem.perms_table() {
            return false;
        }
        let same = |page: u64| m.mem.peek(page, PAGE_SIZE as usize) == self.page(page);
        m.mem.dirty_bases().all(same)
            && differing_pages(base.map_or(&[], |b| &b.pages), &self.pages)
                .filter(|&page| !m.mem.is_dirty(page))
                .all(same)
    }

    /// Heap bytes a group of snapshots retains together: each distinct
    /// page once, however many of them share it, plus every permission
    /// table.
    pub fn retained_bytes<'a>(snapshots: impl IntoIterator<Item = &'a MachineSnapshot>) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let mut bytes = 0;
        for snap in snapshots {
            bytes += snap.perms.len() as u64;
            for (_, page) in &snap.pages {
                if seen.insert(Arc::as_ptr(page) as *const u8) {
                    bytes += page.len() as u64;
                }
            }
        }
        bytes
    }
}

/// Bases of the pages that `a` and `b` (ascending by base) do not share:
/// held by one side only, or by both behind different `Arc`s.
fn differing_pages<'a>(
    a: &'a [(u64, Arc<[u8]>)],
    b: &'a [(u64, Arc<[u8]>)],
) -> impl Iterator<Item = u64> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || loop {
        let base = match (a.get(i), b.get(j)) {
            (None, None) => return None,
            (Some((x, p)), Some((y, q))) if x == y => {
                i += 1;
                j += 1;
                if Arc::ptr_eq(p, q) {
                    continue;
                }
                *x
            }
            (Some((x, _)), Some((y, _))) if x < y => {
                i += 1;
                *x
            }
            (Some((x, _)), None) => {
                i += 1;
                *x
            }
            (_, Some((y, _))) => {
                j += 1;
                *y
            }
        };
        return Some(base);
    })
}

/// Incremental snapshot capture over a machine's dirty-page log.
///
/// [`MachineSnapshot::capture`] scans the whole address space for nonzero
/// pages — fine once, wasteful for the periodic checkpoints a fault-
/// injection golden run takes. A tracker instead keeps a running map of
/// every page the machine has written (fed by [`Memory::drain_dirty`]) and
/// copies only the pages dirtied since the previous capture; untouched
/// pages are shared between consecutive snapshots via `Arc`.
///
/// The tracker must observe the machine from its creation (before the
/// first guest store) and drains the dirty log at every capture, so one
/// machine supports one tracker at a time.
#[derive(Debug, Default)]
pub struct SnapshotTracker {
    pages: BTreeMap<u64, Arc<[u8]>>,
}

impl SnapshotTracker {
    /// Creates an empty tracker. Attach it to a machine by simply passing
    /// that machine to every [`SnapshotTracker::capture`] call.
    pub fn new() -> SnapshotTracker {
        SnapshotTracker::default()
    }

    /// Captures a snapshot, copying only the pages written since the last
    /// capture. Equivalent to [`MachineSnapshot::capture`] (restores are
    /// bit-identical) when the tracker has seen the machine since its
    /// creation.
    pub fn capture(&mut self, m: &mut Machine) -> MachineSnapshot {
        for base in m.mem.drain_dirty() {
            self.pages.insert(base, Arc::from(m.mem.peek(base, PAGE_SIZE as usize)));
        }
        MachineSnapshot {
            cpu: m.cpu.clone(),
            layout: m.layout.clone(),
            code_len: m.code_len,
            mem_size: m.mem.size(),
            pages: self.pages.iter().map(|(&base, data)| (base, Arc::clone(data))).collect(),
            perms: m.mem.perms_table().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trap;
    use cfed_isa::{encode_all, Inst, Reg};

    #[test]
    fn default_layout_is_consistent() {
        let l = Layout::default();
        assert!(l.code_base < l.data_base);
        assert!(l.data_base + l.data_size <= l.cache_region.start);
        assert!(l.cache_region.end <= l.stack.start);
        assert!(l.stack.end < l.mem_size);
        assert_eq!(l.initial_sp() % 8, 0);
    }

    #[test]
    fn load_and_run() {
        let code = encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 5 }, Inst::Halt]);
        let mut m = Machine::load(&code, &[], 0);
        assert_eq!(m.run(10), ExitReason::Halted { code: 5 });
    }

    #[test]
    fn data_visible_to_guest() {
        let l = Layout::default();
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R1, imm: l.data_base as i32 },
            Inst::Ld { dst: Reg::R0, base: Reg::R1, disp: 0 },
            Inst::Halt,
        ]);
        let mut m = Machine::load(&code, &99u64.to_le_bytes(), 0);
        assert_eq!(m.run(10), ExitReason::Halted { code: 99 });
    }

    #[test]
    fn entry_offset_respected() {
        let code = encode_all(&[
            Inst::Halt,                           // offset 0: not the entry
            Inst::MovRI { dst: Reg::R0, imm: 3 }, // offset 8: entry
            Inst::Halt,
        ]);
        let mut m = Machine::load(&code, &[], 8);
        assert_eq!(m.run(10), ExitReason::Halted { code: 3 });
    }

    #[test]
    fn guard_page_at_zero_catches_null_deref() {
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R1, imm: 0 },
            Inst::Ld { dst: Reg::R0, base: Reg::R1, disp: 0 },
        ]);
        let mut m = Machine::load(&code, &[], 0);
        assert_eq!(m.run(10), ExitReason::Trapped(Trap::PermRead { addr: 0 }));
    }

    #[test]
    fn stack_usable_immediately() {
        let code =
            encode_all(&[Inst::Push { src: Reg::R0 }, Inst::Pop { dst: Reg::R1 }, Inst::Halt]);
        let mut m = Machine::load(&code, &[], 0);
        assert_eq!(m.run(10), ExitReason::Halted { code: 0 });
    }

    #[test]
    fn code_range_matches_image() {
        let code = encode_all(&[Inst::Halt, Inst::Halt, Inst::Halt]);
        let m = Machine::load(&code, &[], 0);
        assert_eq!(m.code_range().end - m.code_range().start, 24);
        assert!(m.mem.is_code(m.code_range().start));
    }

    #[test]
    #[should_panic(expected = "code overflows")]
    fn oversized_code_rejected() {
        let huge = vec![0u8; 0x20_0000];
        let _ = Machine::load(&huge, &[], 0);
    }

    #[test]
    fn snapshot_restores_bit_identical_state() {
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R0, imm: 11 },
            Inst::Push { src: Reg::R0 },
            Inst::MovRI { dst: Reg::R0, imm: 0 },
            Inst::Pop { dst: Reg::R1 },
            Inst::Halt,
        ]);
        let mut m = Machine::load(&code, &7u64.to_le_bytes(), 0);
        // Run partway so registers, stack memory and stats are non-trivial.
        assert_eq!(m.step_cpu(), Ok(Step::Continue));
        assert_eq!(m.step_cpu(), Ok(Step::Continue));
        let snap = MachineSnapshot::capture(&m);
        assert_eq!(snap.cpu().stats().insts, 2);
        assert!(MachineSnapshot::retained_bytes([&snap]) < m.mem.size(), "snapshot must be sparse");
        let mut r = snap.restore();
        assert_eq!(r.cpu, m.cpu);
        assert_eq!(r.code_range(), m.code_range());
        for (a, b) in r.mem.nonzero_pages().zip(m.mem.nonzero_pages()) {
            assert_eq!(a, b);
        }
        assert_eq!(r.mem.perms_table(), m.mem.perms_table());
        // Both machines finish identically.
        assert_eq!(m.run(10), ExitReason::Halted { code: 0 });
        assert_eq!(r.run(10), ExitReason::Halted { code: 0 });
        assert_eq!(r.cpu.reg(Reg::R1), 11);
    }

    #[test]
    fn tracker_capture_matches_full_scan() {
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R0, imm: 3 },
            Inst::Push { src: Reg::R0 },
            Inst::MovRI { dst: Reg::R0, imm: 9 },
            Inst::Push { src: Reg::R0 },
            Inst::Pop { dst: Reg::R1 },
            Inst::Pop { dst: Reg::R2 },
            Inst::Halt,
        ]);
        let mut m = Machine::load(&code, &5u64.to_le_bytes(), 0);
        let mut tracker = SnapshotTracker::new();
        // Capture after every step; each must restore to the same machine
        // a full-scan capture rebuilds.
        while m.step_cpu() == Ok(Step::Continue) {
            let incremental = tracker.capture(&mut m).restore();
            let full = MachineSnapshot::capture(&m).restore();
            assert_eq!(incremental.cpu, full.cpu);
            assert_eq!(incremental.cpu, m.cpu);
            for (a, b) in incremental.mem.nonzero_pages().zip(full.mem.nonzero_pages()) {
                assert_eq!(a, b);
            }
            assert_eq!(incremental.mem.perms_table(), full.mem.perms_table());
        }
    }

    #[test]
    fn profiled_run_is_architecturally_identical_and_accounts_every_cycle() {
        use cfed_isa::AluOp;
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R0, imm: 5 },
            Inst::MovRI { dst: Reg::R1, imm: 0 },
            Inst::Alu { op: AluOp::Add, dst: Reg::R1, src: Reg::R0 },
            Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
            Inst::Jcc { cc: cfed_isa::Cond::Ne, offset: -24 },
            Inst::Out { src: Reg::R1 },
            Inst::Halt,
        ]);
        let mut plain = Machine::load(&code, &[], 0);
        let plain_exit = plain.run(1_000);

        let mut prof = Machine::load(&code, &[], 0);
        prof.enable_profiler();
        let prof_exit = prof.run(1_000);
        assert_eq!(prof_exit, plain_exit);
        assert_eq!(prof.cpu, plain.cpu, "profiling must not change architectural state");

        let p = prof.take_profiler().expect("profiler attached");
        assert_eq!(p.attributed_cycles(), prof.cpu.stats().cycles);
        let insts: u64 = p.samples().map(|(_, hits, _)| hits).sum();
        assert_eq!(insts, prof.cpu.stats().insts);
        // The loop body addresses are the hottest samples.
        let add_addr = prof.layout().code_base + 16;
        let (_, hits, _) = p.samples().find(|&(a, _, _)| a == add_addr).expect("loop body sampled");
        assert_eq!(hits, 5);
    }

    #[test]
    fn stepped_and_burst_profiles_agree() {
        use cfed_isa::AluOp;
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R0, imm: 4 },
            Inst::MovRI { dst: Reg::R1, imm: 0 },
            Inst::Alu { op: AluOp::Mul, dst: Reg::R1, src: Reg::R0 },
            Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
            Inst::Jcc { cc: cfed_isa::Cond::Ne, offset: -24 },
            Inst::Out { src: Reg::R1 },
            Inst::Halt,
        ]);
        let mut burst = Machine::load(&code, &[], 0);
        burst.enable_profiler();
        assert_eq!(burst.run_burst(1_000, u64::MAX), Ok(Step::Halt));

        let mut stepped = Machine::load(&code, &[], 0);
        stepped.enable_profiler();
        while stepped.step_cpu() == Ok(Step::Continue) {}
        assert_eq!(stepped.cpu, burst.cpu);

        let samples = |m: &mut Machine| -> Vec<_> {
            m.take_profiler().expect("profiler attached").samples().collect()
        };
        let expected = samples(&mut burst);
        assert!(!expected.is_empty());
        assert_eq!(samples(&mut stepped), expected);

        // So do branch tallies; the loop's `jcc` ran four times.
        burst = Machine::load(&code, &[], 0);
        burst.profiler = Some(Box::new(ExecProfiler::branches_only()));
        assert_eq!(burst.run_burst(1_000, u64::MAX), Ok(Step::Halt));
        stepped = Machine::load(&code, &[], 0);
        stepped.profiler = Some(Box::new(ExecProfiler::branches_only()));
        while stepped.step_cpu() == Ok(Step::Continue) {}
        let tally = |m: &mut Machine| m.take_profiler().and_then(|p| p.into_branches());
        let expected = tally(&mut burst).expect("tally attached");
        assert_eq!(expected.values().sum::<u64>(), 4);
        assert_eq!(tally(&mut stepped), Some(expected));
    }

    /// The reference for [`Machine::run_burst`]: single steps until the
    /// budget, a halt, a trap, or a branch about to execute once `stop_at`
    /// branches have retired, peeking with the statistics-neutral raw
    /// decoder.
    fn step_to_branch(m: &mut Machine, max_steps: u64, stop_at: u64) -> Result<Step, Trap> {
        let insts = m.cpu.stats().insts;
        while m.cpu.stats().insts - insts < max_steps {
            if m.cpu.stats().branches >= stop_at
                && m.cpu.peek_inst(&m.mem).is_ok_and(|inst| inst.is_branch())
            {
                break;
            }
            if m.step_cpu()? == Step::Halt {
                return Ok(Step::Halt);
            }
        }
        Ok(Step::Continue)
    }

    /// Runs `code` one leg per `(budget, k)` in `legs`, each stopping in
    /// front of the branch `k` branches on, by burst (with and without a
    /// decode cache) and by single steps, stepping a branch the previous
    /// leg stopped at first; the machines must agree after every leg.
    /// Returns the burst machine and its last result.
    fn burst_matches_steps(code: &[u8], data: &[u8], legs: &[(u64, u64)]) -> (Machine, Step) {
        let mut burst = Machine::load(code, data, 0);
        let mut raw = Machine::load(code, data, 0);
        raw.set_decode_cache(false);
        let mut stepped = Machine::load(code, data, 0);
        let mut last = Ok(Step::Continue);
        for &(budget, k) in legs {
            if burst.cpu.peek_inst(&burst.mem).is_ok_and(|inst| inst.is_branch()) {
                let step = stepped.step_cpu();
                assert_eq!(burst.step_cpu(), step);
                assert_eq!(raw.step_cpu(), step);
            }
            let stop_at = burst.cpu.stats().branches + k;
            last = burst.run_burst(budget, stop_at);
            assert_eq!(last, step_to_branch(&mut stepped, budget, stop_at), "leg ({budget}, {k})");
            assert_eq!(raw.run_burst(budget, stop_at), last, "no decode cache");
            assert_eq!(burst.cpu, stepped.cpu, "registers, flags, ip and stats");
            assert_eq!(raw.cpu, stepped.cpu, "no decode cache");
            let fetches = |m: &Machine| m.decode_cache_stats().map(|s| (s.hits, s.misses));
            assert_eq!(fetches(&burst), fetches(&stepped), "decode-cache hits and misses");
        }
        (burst, last.unwrap_or_else(|t| panic!("unexpected trap {t:?}")))
    }

    #[test]
    fn run_burst_stops_where_single_steps_do() {
        use cfed_isa::{AluOp, Cond};
        let base = Layout::default().code_base;

        // A budget that runs out mid-straight-line, on the third lap of a
        // loop (its body is then a decode-cache hit).
        let looped = encode_all(&[
            Inst::MovRI { dst: Reg::R0, imm: 3 },
            Inst::MovRI { dst: Reg::R1, imm: 0 },
            Inst::Alu { op: AluOp::Add, dst: Reg::R1, src: Reg::R0 },
            Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
            Inst::Jcc { cc: Cond::Ne, offset: -24 },
            Inst::Halt,
        ]);
        let (m, step) = burst_matches_steps(&looped, &[], &[(100, 0), (100, 0), (1, 0)]);
        assert_eq!(step, Step::Continue);
        assert_eq!(m.cpu.ip(), base + 24, "one instruction into the third lap");
        assert_eq!(m.cpu.stats().branches, 2);
        assert!(m.decode_cache_stats().unwrap().hits > 0);

        // Two whole laps in one burst: it runs through two branches and
        // stops in front of the third.
        let (m, step) = burst_matches_steps(&looped, &[], &[(100, 2)]);
        assert_eq!(step, Step::Continue);
        assert_eq!(m.cpu.ip(), base + 32, "in front of the third lap's jcc");
        assert_eq!(m.cpu.stats().branches, 2);

        // A trap before any branch.
        let trapping = encode_all(&[
            Inst::MovRI { dst: Reg::R0, imm: 10 },
            Inst::Alu { op: AluOp::Div, dst: Reg::R0, src: Reg::R1 },
            Inst::Jmp { offset: 0 },
        ]);
        let mut burst = Machine::load(&trapping, &[], 0);
        let mut stepped = Machine::load(&trapping, &[], 0);
        let trap = Trap::DivByZero { addr: base + 8 };
        let mut raw = Machine::load(&trapping, &[], 0);
        raw.set_decode_cache(false);
        assert_eq!(burst.run_burst(100, 0), Err(trap));
        assert_eq!(raw.run_burst(100, 0), Err(trap));
        assert_eq!(step_to_branch(&mut stepped, 100, 0), Err(trap));
        assert_eq!(burst.cpu, stepped.cpu);
        assert_eq!(raw.cpu, stepped.cpu);
        assert_eq!(burst.cpu.stats().traps, 1);
        assert_eq!(burst.decode_cache_stats(), stepped.decode_cache_stats());

        // A store that rewrites the next instruction, a `nop` an earlier lap
        // decoded and executed, into a branch: the burst must drop the
        // stale line and stop at the planted `jcc` without executing it.
        let planted = Inst::Jcc { cc: Cond::E, offset: 8 };
        let smc = encode_all(&[
            Inst::MovRI { dst: Reg::R3, imm: Layout::default().data_base as i32 },
            Inst::Ld { dst: Reg::R2, base: Reg::R3, disp: 0 },
            Inst::MovRI { dst: Reg::R4, imm: base as i32 },
            Inst::JRz { src: Reg::R5, offset: 8 },
            Inst::St { base: Reg::R4, src: Reg::R2, disp: 40 },
            Inst::Nop,
            Inst::MovRI { dst: Reg::R5, imm: 1 },
            Inst::Jmp { offset: -40 },
        ]);
        let (m, step) = burst_matches_steps(&smc, &planted.encode(), &[(100, 0); 4]);
        assert_eq!(step, Step::Continue);
        assert_eq!(m.cpu.ip(), base + 40, "stopped at the planted jcc");
        assert_eq!(m.cpu.stats().branches, 3);
        assert_eq!(m.decode_cache_stats().unwrap().invalidations, 1);
    }

    #[test]
    fn peek_inst_leaves_decode_cache_stats_as_stepping_alone() {
        use cfed_isa::{AluOp, Cond};
        // `mov; halt` peeks only cold lines; the loop's second and third
        // iterations peek lines the first one decoded.
        let cold = encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 1 }, Inst::Halt]);
        let warm = encode_all(&[
            Inst::MovRI { dst: Reg::R1, imm: 3 },
            Inst::AluI { op: AluOp::Sub, dst: Reg::R1, imm: 1 },
            Inst::Jcc { cc: Cond::Ne, offset: -16 },
            Inst::Halt,
        ]);
        for code in [cold, warm] {
            let mut stepped = Machine::load(&code, &[], 0);
            let mut peeked = Machine::load(&code, &[], 0);
            loop {
                let inst = peeked.peek_inst().unwrap();
                assert_eq!(inst, peeked.cpu.peek_inst(&peeked.mem).unwrap());
                let step = stepped.step_cpu().unwrap();
                assert_eq!(peeked.step_cpu().unwrap(), step);
                assert_eq!(peeked.decode_cache_stats(), stepped.decode_cache_stats());
                if step == Step::Halt {
                    break;
                }
            }
        }
    }

    #[test]
    fn tracer_leaves_stats_and_state_as_stepping_alone() {
        use cfed_isa::{AluOp, Cond};
        let l = Layout::default();
        // Three laps over a line the loop's store rewrites on every lap:
        // `mov r0, 1` at +32 becomes the planted `add r0, 5` after lap one.
        let planted = Inst::AluI { op: AluOp::Add, dst: Reg::R0, imm: 5 };
        let code = encode_all(&[
            Inst::MovRI { dst: Reg::R3, imm: l.data_base as i32 },
            Inst::Ld { dst: Reg::R2, base: Reg::R3, disp: 0 },
            Inst::MovRI { dst: Reg::R4, imm: l.code_base as i32 },
            Inst::MovRI { dst: Reg::R1, imm: 3 },
            Inst::MovRI { dst: Reg::R0, imm: 1 },
            Inst::St { base: Reg::R4, src: Reg::R2, disp: 32 },
            Inst::AluI { op: AluOp::Sub, dst: Reg::R1, imm: 1 },
            Inst::Jcc { cc: Cond::Ne, offset: -32 },
            Inst::Halt,
        ]);
        for cached in [true, false] {
            let mut plain = Machine::load(&code, &planted.encode(), 0);
            let mut traced = Machine::load(&code, &planted.encode(), 0);
            plain.set_decode_cache(cached);
            traced.set_decode_cache(cached);
            traced.attach_tracer_resumed(64, 0);
            while plain.step_cpu().unwrap() == Step::Continue {}
            while traced.step_cpu().unwrap() == Step::Continue {}
            assert_eq!(plain.cpu.reg(Reg::R0), 11, "the planted add ran twice");
            assert_eq!(
                plain.decode_cache_stats().map(|s| s.invalidations > 0),
                cached.then_some(true)
            );
            assert_eq!(traced.cpu.stats(), plain.cpu.stats());
            assert_eq!(traced.decode_cache_stats(), plain.decode_cache_stats());
            assert_eq!(traced.cpu, plain.cpu);
            let tracer = traced.tracer.as_ref().unwrap();
            assert_eq!(tracer.retired(), plain.cpu.stats().insts);
            assert_eq!(tracer.branches().count(), 3);
        }
    }

    #[test]
    fn rewinds_equal_restores_in_any_order() {
        use crate::PAGE_SIZE;
        // Pushes walk the stack down across a page boundary, so later
        // snapshots hold pages earlier ones lack.
        let mut insts = vec![Inst::MovRI { dst: Reg::R0, imm: 3 }];
        insts.extend([Inst::Push { src: Reg::R0 }; 600]);
        insts.push(Inst::Halt);
        let mut m = Machine::load(&encode_all(&insts), &[], 0);
        let mut tracker = SnapshotTracker::new();
        let mut snaps = vec![tracker.capture(&mut m)];
        for _ in 0..6 {
            for _ in 0..100 {
                m.step_cpu().unwrap();
            }
            snaps.push(tracker.capture(&mut m));
        }
        let state = |m: &Machine| {
            let pages: Vec<(u64, Vec<u8>)> =
                m.mem.nonzero_pages().map(|(b, p)| (b, p.to_vec())).collect();
            (m.cpu.clone(), pages, m.mem.perms_table().to_vec())
        };
        let mut resident = snaps[0].restore();
        let mut from = None;
        for (i, j) in [(6, true), (2, true), (5, true), (0, false), (3, true), (3, true), (1, true)]
        {
            let snap = &snaps[i];
            snap.rewind(&mut resident, from.filter(|_| j).map(|k: usize| &snaps[k]));
            assert_eq!(state(&resident), state(&snap.restore()), "rewind to {i}");
            assert!(resident.mem.dirty_pages().is_empty());
            // A store after the rewind: the next rewind must undo it.
            resident.mem.write_u64(resident.layout().stack.start + PAGE_SIZE, 7).unwrap();
            from = Some(i);
        }
    }

    #[test]
    fn snapshot_preserves_page_protection() {
        let code = encode_all(&[Inst::Halt]);
        let mut m = Machine::load(&code, &[], 0);
        let base = m.layout().code_base;
        m.mem.protect_page(base);
        let r = MachineSnapshot::capture(&m).restore();
        assert!(!r.mem.perms_at(base).can_write());
        assert!(r.mem.perms_at(base).can_exec());
    }
}
