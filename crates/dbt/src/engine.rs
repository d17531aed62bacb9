//! The dynamic binary translator engine.
//!
//! Mirrors the architecture of the paper's DBT (§5): translation happens on
//! demand, one basic block at a time, into a code cache mapped with execute
//! permission; translated blocks chain to each other directly once both
//! sides exist; indirect branches (`ret`, register jumps/calls) exit to a
//! dispatcher; guest pages are write-protected after translation so
//! self-modifying code raises a fault that invalidates stale translations.
//!
//! Control transfers out of not-yet-chained blocks are implemented as
//! software-trap *exit stubs*: the trap suspends simulated execution with
//! all state intact, the runtime translates the target and patches the stub
//! into a direct jump, and execution resumes at the patched site.

use crate::cache::{patch_inst, CacheAsm};
use crate::instrument::{regs, BlockView, Instrumenter, UpdateStyle};
use cfed_isa::{Inst, INST_SIZE_U64};
use cfed_sim::{trap_codes, ExitReason, Machine, Memory, Perms, Trap, PAGE_SIZE};
use cfed_telemetry::{Event, Histogram, Telemetry, Timer};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Cycles charged per indirect-branch dispatch, modeling the inline hash
/// lookup a production DBT performs (our runtime does the lookup natively).
pub const DEFAULT_DISPATCH_CYCLES: u64 = 12;

/// Maximum guest instructions per translated block.
const MAX_BLOCK_INSTS: usize = 512;

/// Headroom the cache keeps free for the next translation: when the cursor
/// gets within this of the usable end, the whole cache is evicted first (a
/// single translation is bounded well below this by [`MAX_BLOCK_INSTS`]).
pub(crate) const EVICT_RESERVE: u64 = 64 * 1024;

/// Entries in the indirect-branch dispatcher's inline cache (direct-mapped
/// on the guest target address).
pub(crate) const DISPATCH_IC_SIZE: usize = 16;

/// Result of one supervised execution step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbtStep {
    /// Execution continues (possibly after the runtime serviced an exit).
    Continue,
    /// The guest executed `halt`.
    Halted,
    /// A program-level trap surfaced (guest fault, hardware control-flow
    /// error detection, or an instrumentation error report).
    Exit(Trap),
}

/// Execution statistics for a DBT session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbtStats {
    /// Blocks translated.
    pub blocks: u64,
    /// Guest instructions consumed by translation.
    pub guest_insts: u64,
    /// Cache instructions emitted (instrumentation expansion shows here).
    pub cache_insts: u64,
    /// Exit stubs patched into direct chains.
    pub chains: u64,
    /// Indirect-branch dispatches serviced.
    pub dispatches: u64,
    /// Self-modifying-code flushes.
    pub smc_flushes: u64,
    /// Full code-cache evictions (cache pressure flushed every block).
    pub cache_evictions: u64,
    /// Blocks translated again after their translation was discarded by an
    /// eviction or an SMC flush.
    pub retranslations: u64,
    /// Indirect dispatches answered by the dispatcher's inline cache
    /// (subset of `dispatches`; these skip the block-table lookup).
    pub dispatch_ic_hits: u64,
}

/// A translated block's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransBlock {
    /// Guest address of the first instruction (the block's signature).
    pub guest_start: u64,
    /// Guest bytes covered.
    pub guest_len: u64,
    /// First cache address of the translation.
    pub cache_start: u64,
    /// One past the last cache address.
    pub cache_end: u64,
    /// Cache address where the 1:1 copy of the guest body begins (right
    /// after the instrumentation head).
    pub body_start: u64,
    /// Bytes of 1:1-copied body (excludes the translated terminator and its
    /// glue).
    pub body_len: u64,
    /// The block's exit descriptors: `exits[.0...1]` of its generation.
    pub(crate) exits: (u32, u32),
}

impl TransBlock {
    /// The cache address range occupied by the translation.
    pub fn cache_range(&self) -> Range<u64> {
        self.cache_start..self.cache_end
    }

    /// The cache address range of the 1:1-copied guest body (empty for
    /// terminator-only blocks).
    pub fn body_range(&self) -> Range<u64> {
        self.body_start..self.body_start + self.body_len
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ExitKind {
    /// Patchable direct transfer to a guest target.
    Direct { guest_target: u64, site: u64 },
    /// Indirect transfer; dynamic guest target in `regs::ITARGET`.
    Indirect,
    /// Translation-time fault to surface when reached.
    Abort { trap: Trap },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitDesc {
    pub(crate) kind: ExitKind,
    pub(crate) patched: bool,
}

/// The dynamic binary translator.
///
/// # Examples
///
/// ```
/// use cfed_dbt::{Dbt, NullInstrumenter, UpdateStyle};
/// use cfed_isa::{encode_all, Inst, Reg};
/// use cfed_sim::{ExitReason, Machine};
///
/// let code = encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 9 }, Inst::Halt]);
/// let mut m = Machine::load(&code, &[], 0);
/// let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
/// assert_eq!(dbt.run(&mut m, 1_000), ExitReason::Halted { code: 9 });
/// ```
///
/// # Cloning
///
/// `Dbt` is `Clone`: the clone duplicates all translation bookkeeping
/// (block table, exit descriptors with their chain state, the per-page
/// block index, statistics) and shares the instrumenter, which is stateless — every
/// [`Instrumenter`] hook takes `&self`; signature state lives in guest
/// registers, never in the instrumenter. A clone is only meaningful paired
/// with a `Machine` whose memory holds the matching code-cache contents
/// (e.g. a [`cfed_sim::MachineSnapshot`] captured at the same moment):
/// the bookkeeping describes translations physically present in that
/// memory, and restoring either half alone desynchronizes cursor, block
/// table and cache bytes. [`Clone::clone_from`] refreshes an engine in
/// place, reusing its tables' allocations.
pub struct Dbt {
    instr: Arc<dyn Instrumenter>,
    style: UpdateStyle,
    cache: Range<u64>,
    cursor: u64,
    err_stub: u64,
    guest_code: Range<u64>,
    /// The block table: live translations in ascending `cache_start` order.
    /// Emission appends at the cursor, which only grows until an eviction
    /// empties the table, and SMC flushes only remove entries, so the order
    /// holds without sorting.
    blocks: Vec<TransBlock>,
    /// Guest block start → cache start of its live translation. A start
    /// whose translation an eviction or SMC flush discarded stays as `None`,
    /// so translating it again counts as a retranslation.
    by_guest: HashMap<u64, Option<u64>>,
    pub(crate) exits: Vec<ExitDesc>,
    /// Guest page → starts of the blocks translated from it; its key set is
    /// the set of pages this engine write-protected.
    blocks_by_page: HashMap<u64, Vec<u64>>,
    pub(crate) stats: DbtStats,
    attached: bool,
    /// Usable cache end; `set_cache_limit` lowers it to force eviction.
    cache_limit: u64,
    /// Cursor value right after the shared stubs — the reset point for a
    /// full eviction.
    base_cursor: u64,
    /// Bumped by every full eviction; exit indices and patch sites from an
    /// older generation are invalid.
    pub(crate) flush_gen: u64,
    /// Direct-mapped inline cache for the indirect-branch dispatcher:
    /// `(guest target, cache entry)` pairs, cleared wholesale whenever any
    /// translation dies (full eviction or SMC flush).
    pub(crate) dispatch_ic: [Option<(u64, u64)>; DISPATCH_IC_SIZE],
    trans_us: Histogram,
    telemetry: Telemetry,
}

impl Clone for Dbt {
    fn clone(&self) -> Dbt {
        Dbt {
            instr: Arc::clone(&self.instr),
            style: self.style,
            cache: self.cache.clone(),
            cursor: self.cursor,
            err_stub: self.err_stub,
            guest_code: self.guest_code.clone(),
            blocks: self.blocks.clone(),
            by_guest: self.by_guest.clone(),
            exits: self.exits.clone(),
            blocks_by_page: self.blocks_by_page.clone(),
            stats: self.stats,
            attached: self.attached,
            cache_limit: self.cache_limit,
            base_cursor: self.base_cursor,
            flush_gen: self.flush_gen,
            dispatch_ic: self.dispatch_ic,
            trans_us: self.trans_us.clone(),
            telemetry: self.telemetry.clone(),
        }
    }

    fn clone_from(&mut self, source: &Dbt) {
        let Dbt {
            instr,
            style,
            cache,
            cursor,
            err_stub,
            guest_code,
            blocks,
            by_guest,
            exits,
            blocks_by_page,
            stats,
            attached,
            cache_limit,
            base_cursor,
            flush_gen,
            dispatch_ic,
            trans_us,
            telemetry,
        } = source;
        self.instr.clone_from(instr);
        self.style = *style;
        self.cache.clone_from(cache);
        self.cursor = *cursor;
        self.err_stub = *err_stub;
        self.guest_code.clone_from(guest_code);
        self.blocks.clone_from(blocks);
        self.by_guest.clone_from(by_guest);
        self.exits.clone_from(exits);
        self.blocks_by_page.clone_from(blocks_by_page);
        self.stats = *stats;
        self.attached = *attached;
        self.cache_limit = *cache_limit;
        self.base_cursor = *base_cursor;
        self.flush_gen = *flush_gen;
        self.dispatch_ic = *dispatch_ic;
        self.trans_us.clone_from(trans_us);
        self.telemetry.clone_from(telemetry);
    }
}

impl std::fmt::Debug for Dbt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dbt")
            .field("technique", &self.instr.name())
            .field("style", &self.style)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl Dbt {
    /// Creates a DBT for the loaded machine, maps the code-cache region, and
    /// emits the shared report-error stub.
    pub fn new(instr: Box<dyn Instrumenter>, style: UpdateStyle, m: &mut Machine) -> Dbt {
        let cache = m.layout().cache_region.clone();
        m.mem.map(cache.clone(), Perms::R | Perms::X);
        let mut a = CacheAsm::new(&mut m.mem, cache.start);
        // The `.report_error` target of every signature check.
        let err_stub = a.emit(Inst::Trap { code: trap_codes::CFE_DETECTED });
        let cursor = a.finish();
        let cache_limit = cache.end;
        // Execute permission is enforced at page granularity (the
        // execute-disable bit), so the padding tail of the last code page is
        // fetchable and must fault as InvalidInst exactly as it does on the
        // bare machine — only beyond the page boundary is PermExec correct.
        let code = m.code_range();
        let guest_code = code.start..Memory::page_base(code.end + PAGE_SIZE - 1);
        Dbt {
            instr: Arc::from(instr),
            style,
            cache,
            cursor,
            err_stub,
            guest_code,
            blocks: Vec::new(),
            by_guest: HashMap::new(),
            exits: Vec::new(),
            blocks_by_page: HashMap::new(),
            stats: DbtStats::default(),
            attached: false,
            cache_limit,
            base_cursor: cursor,
            flush_gen: 0,
            dispatch_ic: [None; DISPATCH_IC_SIZE],
            trans_us: Histogram::new(),
            telemetry: Telemetry::off(),
        }
    }

    /// Cache-content generation key consumed by the native backend: a full
    /// eviction or an SMC flush each rewrite cache bytes under previously
    /// compiled host code.
    pub(crate) fn gen_key(&self) -> (u64, u64) {
        (self.flush_gen, self.stats.smc_flushes)
    }

    /// Where the next translation will be emitted: every live block of this
    /// generation lies below it.
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The exit-trap codec, encoding half: exit descriptor `idx` raises the
    /// software trap `DBT_EXIT_BASE + idx` until it is chained.
    pub(crate) fn exit_trap(idx: usize) -> Inst {
        Inst::Trap { code: trap_codes::DBT_EXIT_BASE + idx as u32 }
    }

    /// The exit-trap codec, decoding half: the exit descriptor a software
    /// trap code names, or `None` for a guest trap.
    pub(crate) fn exit_index(&self, code: u32) -> Option<usize> {
        let idx = code.checked_sub(trap_codes::DBT_EXIT_BASE)? as usize;
        (idx < self.exits.len()).then_some(idx)
    }

    /// The run-end rule: a halt or a surfaced trap ends the run with its
    /// [`ExitReason`] and a `dbt_stats` event; `Continue` does not end it.
    pub(crate) fn run_end(&self, m: &Machine, step: DbtStep) -> Option<ExitReason> {
        let end = match step {
            DbtStep::Continue => return None,
            DbtStep::Halted => ExitReason::Halted { code: m.cpu.reg(cfed_isa::Reg::R0) },
            DbtStep::Exit(t) => ExitReason::Trapped(t),
        };
        self.emit_stats();
        Some(end)
    }

    /// Lowers the usable cache end to force eviction under test-sized
    /// workloads (clamped to leave room for the shared stubs plus one
    /// translation's reserve).
    pub fn set_cache_limit(&mut self, limit_end: u64) {
        self.cache_limit = limit_end.clamp(self.base_cursor + EVICT_RESERVE, self.cache.end);
    }

    /// Attaches a telemetry handle; [`Dbt::emit_stats`] and run-end
    /// reporting go through it. Disabled handles cost one branch per emit
    /// site, never per executed instruction.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Emits a `dbt_stats` event carrying every counter and the
    /// translation-time histogram. Called automatically when [`Dbt::run`]
    /// finishes; call it directly when driving [`Dbt::step`] by hand.
    pub fn emit_stats(&self) {
        let s = self.stats;
        self.telemetry.emit_with(|| {
            Event::new("dbt_stats")
                .str("technique", self.instr.name())
                .u64("blocks", s.blocks)
                .u64("guest_insts", s.guest_insts)
                .u64("cache_insts", s.cache_insts)
                .u64("chains", s.chains)
                .u64("dispatches", s.dispatches)
                .u64("smc_flushes", s.smc_flushes)
                .u64("cache_evictions", s.cache_evictions)
                .u64("retranslations", s.retranslations)
                .u64("dispatch_ic_hits", s.dispatch_ic_hits)
                .json("translate_us", self.trans_us.to_json())
        });
    }

    /// Statistics so far.
    pub fn stats(&self) -> DbtStats {
        self.stats
    }

    /// The cache region.
    pub fn cache_region(&self) -> Range<u64> {
        self.cache.clone()
    }

    /// Cache address of the shared report-error stub.
    pub fn err_stub(&self) -> u64 {
        self.err_stub
    }

    /// Live translated blocks, in ascending cache order.
    pub fn blocks(&self) -> impl Iterator<Item = &TransBlock> {
        self.blocks.iter()
    }

    /// Looks up the translation of a guest block start address.
    pub fn lookup(&self, guest_addr: u64) -> Option<&TransBlock> {
        self.block_containing((*self.by_guest.get(&guest_addr)?)?)
    }

    /// Finds the live translated block whose cache range contains `addr`
    /// (a binary search of the block table).
    pub fn block_containing(&self, addr: u64) -> Option<&TransBlock> {
        let after = self.blocks.partition_point(|b| b.cache_start <= addr);
        self.blocks[..after].last().filter(|b| addr < b.cache_end)
    }

    /// Maps a cache address inside a translation's 1:1-copied body back to
    /// the guest instruction it mirrors. `None` for instrumentation heads,
    /// translated terminators and exit glue.
    fn guest_body_ip(&self, cache_ip: u64) -> Option<u64> {
        let b = self.block_containing(cache_ip)?;
        let off = cache_ip.checked_sub(b.body_start)?;
        (off < b.body_len).then(|| b.guest_start + off)
    }

    /// Redirects the CPU from the guest entry point into translated code and
    /// initializes the instrumentation registers.
    ///
    /// # Errors
    ///
    /// Surfaces the hardware trap if the entry address is not translatable.
    pub fn attach(&mut self, m: &mut Machine) -> Result<(), Trap> {
        let entry = m.cpu.ip();
        let cache_entry = self.translate(m, entry)?;
        for (reg, value) in self.instr.initial_state(entry) {
            m.cpu.set_reg(reg, value);
        }
        m.cpu.set_ip(cache_entry);
        self.attached = true;
        Ok(())
    }

    /// Executes one instruction under DBT supervision, servicing runtime
    /// exits transparently.
    pub fn step(&mut self, m: &mut Machine) -> DbtStep {
        if !self.attached {
            if let Err(t) = self.attach(m) {
                return DbtStep::Exit(t);
            }
        }
        let step = m.step_cpu();
        self.supervise(m, step)
    }

    /// Executes one block-fused burst ([`Machine::run_burst`]) under DBT
    /// supervision: at most `max_insts` instructions, ending in front of a
    /// branch once `stop_at` branches have retired (`u64::MAX`: never),
    /// with the trap that ends a burst serviced exactly as [`Dbt::step`]
    /// services it. Architecturally
    /// identical to the equivalent run of single steps (the attached
    /// tracer, if any, is not fed — traced callers must use
    /// [`Dbt::step`]).
    pub fn burst(&mut self, m: &mut Machine, max_insts: u64, stop_at: u64) -> DbtStep {
        if !self.attached {
            if let Err(t) = self.attach(m) {
                return DbtStep::Exit(t);
            }
        }
        let step = m.run_burst(max_insts, stop_at);
        self.supervise(m, step)
    }

    /// Turns a raw step or burst result into a supervised one, servicing
    /// the trap that ended it.
    fn supervise(&mut self, m: &mut Machine, step: Result<cfed_sim::Step, Trap>) -> DbtStep {
        match step {
            Ok(cfed_sim::Step::Continue) => DbtStep::Continue,
            Ok(cfed_sim::Step::Halt) => DbtStep::Halted,
            Err(trap) => self.handle_trap(m, trap),
        }
    }

    /// Services a trap raised while executing translated code: runtime-exit
    /// software traps dispatch through [`Dbt::service_exit`], write faults on
    /// pages this engine protected trigger an SMC flush, and anything else
    /// surfaces to the caller.
    pub(crate) fn handle_trap(&mut self, m: &mut Machine, trap: Trap) -> DbtStep {
        match trap {
            Trap::Software { code, .. } => match self.exit_index(code) {
                Some(idx) => self.service_exit(m, idx),
                None => DbtStep::Exit(trap),
            },
            Trap::PermWrite { addr }
                if self.blocks_by_page.contains_key(&Memory::page_base(addr)) =>
            {
                // A store into a page backing live translations. Flushing
                // the page is not enough when the faulting store and its
                // victim share a translation: resuming in cache would run
                // the stale tail. Hop back to guest space instead — retire
                // the store by interpretation (the page is unprotected after
                // the flush), then re-attach at the next guest instruction
                // so everything downstream is retranslated from the patched
                // bytes.
                let resume = self.guest_body_ip(m.cpu.ip());
                self.smc_flush(m, Memory::page_base(addr));
                let Some(guest_store) = resume else {
                    // Store came from glue: it re-executes in cache against
                    // the now-unprotected page; only *other* translations
                    // could have been stale, and those were just flushed.
                    return DbtStep::Continue;
                };
                m.cpu.set_ip(guest_store);
                match m.step_cpu() {
                    Ok(cfed_sim::Step::Continue) => {}
                    Ok(cfed_sim::Step::Halt) => return DbtStep::Halted,
                    Err(t) => return DbtStep::Exit(t),
                }
                let next = m.cpu.ip();
                for (reg, value) in self.instr.initial_state(next) {
                    m.cpu.set_reg(reg, value);
                }
                match self.translate(m, next) {
                    Ok(cache_next) => {
                        m.cpu.set_ip(cache_next);
                        DbtStep::Continue
                    }
                    Err(t) => DbtStep::Exit(t),
                }
            }
            other => DbtStep::Exit(other),
        }
    }

    /// Runs under supervision until halt, surfaced trap, or `max_insts`
    /// retired guest+instrumentation instructions.
    ///
    /// When the machine has a decode cache and no tracer attached, execution
    /// proceeds in block-fused bursts ([`Machine::run_burst`]): translated
    /// code re-validates its decoded page once on block entry and then runs
    /// straight-line without per-instruction cache lookups, falling back to
    /// this engine only at traps (runtime exits, SMC faults). Architectural
    /// results are bit-identical to the per-step path.
    pub fn run(&mut self, m: &mut Machine, max_insts: u64) -> ExitReason {
        let start = m.cpu.stats().insts;
        let fused = m.tracer.is_none() && m.has_decode_cache();
        loop {
            let used = m.cpu.stats().insts - start;
            if used >= max_insts {
                self.emit_stats();
                return ExitReason::StepLimit;
            }
            let step = if fused { self.burst(m, max_insts - used, u64::MAX) } else { self.step(m) };
            if let Some(end) = self.run_end(m, step) {
                return end;
            }
        }
    }

    fn service_exit(&mut self, m: &mut Machine, idx: usize) -> DbtStep {
        match self.exits[idx].kind {
            ExitKind::Direct { guest_target, site } => {
                let gen = self.flush_gen;
                let cache_target = match self.translate(m, guest_target) {
                    Ok(c) => c,
                    Err(t) => return DbtStep::Exit(t),
                };
                if self.flush_gen != gen {
                    // Translating evicted the cache; the exit site (and its
                    // descriptor index) died with the old generation. Enter
                    // the fresh translation directly instead of patching.
                    m.cpu.set_ip(cache_target);
                    return DbtStep::Continue;
                }
                patch_inst(
                    &mut m.mem,
                    site,
                    Inst::Jmp { offset: CacheAsm::rel(site, cache_target) },
                );
                self.exits[idx].patched = true;
                self.stats.chains += 1;
                // ip still addresses the (now patched) site; resuming
                // executes the chain jump.
                DbtStep::Continue
            }
            ExitKind::Indirect => {
                let guest_target = m.cpu.reg(regs::ITARGET);
                m.cpu.add_cycles(DEFAULT_DISPATCH_CYCLES);
                self.stats.dispatches += 1;
                let slot = (guest_target / INST_SIZE_U64) as usize % DISPATCH_IC_SIZE;
                if let Some((tag, cached)) = self.dispatch_ic[slot] {
                    if tag == guest_target {
                        self.stats.dispatch_ic_hits += 1;
                        m.cpu.set_ip(cached);
                        return DbtStep::Continue;
                    }
                }
                match self.translate(m, guest_target) {
                    Ok(c) => {
                        self.dispatch_ic[slot] = Some((guest_target, c));
                        m.cpu.set_ip(c);
                        DbtStep::Continue
                    }
                    Err(t) => DbtStep::Exit(t),
                }
            }
            ExitKind::Abort { trap } => DbtStep::Exit(trap),
        }
    }

    /// Translates the guest block starting at `guest_addr` (or returns the
    /// existing translation).
    ///
    /// # Errors
    ///
    /// Returns the hardware trap a real machine would raise for the target:
    /// [`Trap::UnalignedFetch`] for misaligned addresses,
    /// [`Trap::PermExec`] for targets outside the guest code region.
    pub fn translate(&mut self, m: &mut Machine, guest_addr: u64) -> Result<u64, Trap> {
        let seen = match self.by_guest.get(&guest_addr) {
            Some(&Some(cache_start)) => return Ok(cache_start),
            Some(None) => true,
            None => false,
        };
        if !guest_addr.is_multiple_of(INST_SIZE_U64) {
            return Err(Trap::UnalignedFetch { addr: guest_addr });
        }
        if !self.guest_code.contains(&guest_addr) {
            return Err(Trap::PermExec { addr: guest_addr });
        }
        if self.cursor + EVICT_RESERVE > self.cache_limit {
            self.evict_all(m);
        }
        if seen {
            self.stats.retranslations += 1;
        }
        let timer = Timer::start();

        // ---- decode the guest block ----
        let mut insts = Vec::new();
        let mut addr = guest_addr;
        let mut abort: Option<Trap> = None;
        let terminator = loop {
            if !self.guest_code.contains(&addr) {
                abort = Some(Trap::PermExec { addr });
                break None;
            }
            let bytes: [u8; 8] = m.mem.peek(addr, 8).try_into().expect("guest code in range");
            match Inst::decode(&bytes) {
                Ok(inst) if inst.is_terminator() => break Some((inst, addr)),
                Ok(inst) => {
                    insts.push(inst);
                    addr += INST_SIZE_U64;
                    if insts.len() >= MAX_BLOCK_INSTS {
                        break None; // split: synthetic fall-through edge
                    }
                }
                Err(cause) => {
                    abort = Some(Trap::InvalidInst { addr, cause });
                    break None;
                }
            }
        };
        let guest_end = terminator.map_or(addr, |(_, taddr)| taddr + INST_SIZE_U64);
        // The guest range covered; used for page protection.
        let range = guest_addr..guest_end.max(guest_addr + INST_SIZE_U64);
        self.stats.guest_insts += insts.len() as u64 + terminator.is_some() as u64;

        let view = BlockView {
            guest_start: guest_addr,
            ends_with_ret: matches!(terminator, Some((Inst::Ret, _))),
            ends_with_halt: matches!(terminator, Some((Inst::Halt, _))),
            has_back_edge: match terminator {
                Some((t, taddr)) => t.direct_target(taddr).is_some_and(|tgt| tgt <= taddr),
                None => false,
            },
        };
        let check = self.instr.wants_check(&view);

        // ---- emit the translation ----
        let cache_start = self.cursor;
        // Collect exit descriptors created during emission; allocated after
        // emission because sites are only known then.
        let mut new_exits: Vec<(u64, ExitKind)> = Vec::new(); // (site, kind)

        let mut a = CacheAsm::new(&mut m.mem, cache_start);
        self.instr.emit_head(&mut a, guest_addr, check, self.err_stub);
        let body_start = a.here();
        for inst in &insts {
            a.emit(*inst);
        }

        let cur = guest_addr;
        match terminator {
            Some((inst @ Inst::Jmp { .. }, taddr)) => {
                let target = inst.direct_target(taddr).expect("direct");
                self.instr.emit_update_direct(&mut a, cur, target);
                Self::emit_exit_direct(&self.by_guest, &mut a, target, &mut new_exits);
            }
            Some((inst @ (Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. }), taddr)) => {
                let taken = inst.direct_target(taddr).expect("direct");
                let fall = taddr + INST_SIZE_U64;
                // Conditional signature update, emitted BEFORE the original
                // branch (the temporal separation that lets the techniques
                // catch mistaken-branch errors, category A). Two flavors:
                // cmov-style (Figure 8) or branch-style via an inserted
                // selector branch mirroring the condition (the paper's
                // "Jcc" configuration, Figure 14).
                if self.instr.has_updates() {
                    let cmov_done = match (self.style, inst) {
                        (UpdateStyle::CMov, Inst::Jcc { cc, .. }) => {
                            self.instr.emit_update_cond_cmov(&mut a, cur, taken, fall, cc)
                        }
                        _ => false,
                    };
                    if !cmov_done {
                        self.instr.emit_pre_selector(&mut a, cur);
                        let lu = a.new_label();
                        let lj = a.new_label();
                        match inst {
                            Inst::Jcc { cc, .. } => a.jcc_to(cc, lu),
                            Inst::JRz { src, .. } => a.jrz_to(src, lu),
                            Inst::JRnz { src, .. } => a.jrnz_to(src, lu),
                            _ => unreachable!(),
                        };
                        self.instr.emit_selector_update(&mut a, cur, fall);
                        a.jmp_to(lj);
                        a.bind(lu);
                        self.instr.emit_selector_update(&mut a, cur, taken);
                        a.bind(lj);
                    }
                }
                // The original branch, translated to target the exit sites.
                let lt = a.new_label();
                match inst {
                    Inst::Jcc { cc, .. } => a.jcc_to(cc, lt),
                    Inst::JRz { src, .. } => a.jrz_to(src, lt),
                    Inst::JRnz { src, .. } => a.jrnz_to(src, lt),
                    _ => unreachable!(),
                };
                Self::emit_exit_direct(&self.by_guest, &mut a, fall, &mut new_exits);
                a.bind(lt);
                Self::emit_exit_direct(&self.by_guest, &mut a, taken, &mut new_exits);
            }
            Some((inst @ Inst::Call { .. }, taddr)) => {
                let target = inst.direct_target(taddr).expect("direct");
                let guest_ret = taddr + INST_SIZE_U64;
                a.emit(Inst::MovRI { dst: regs::GRET, imm: guest_ret as i32 });
                a.emit(Inst::Push { src: regs::GRET });
                self.instr.emit_update_direct(&mut a, cur, target);
                Self::emit_exit_direct(&self.by_guest, &mut a, target, &mut new_exits);
            }
            Some((Inst::CallR { target }, taddr)) => {
                let guest_ret = taddr + INST_SIZE_U64;
                a.emit(Inst::MovRR { dst: regs::ITARGET, src: target });
                a.emit(Inst::MovRI { dst: regs::GRET, imm: guest_ret as i32 });
                a.emit(Inst::Push { src: regs::GRET });
                self.instr.emit_update_indirect(&mut a, cur, regs::ITARGET);
                let site = a.here();
                a.emit(Inst::Nop); // placeholder, rewritten below
                new_exits.push((site, ExitKind::Indirect));
            }
            Some((Inst::JmpR { target }, _)) => {
                a.emit(Inst::MovRR { dst: regs::ITARGET, src: target });
                self.instr.emit_update_indirect(&mut a, cur, regs::ITARGET);
                let site = a.here();
                a.emit(Inst::Nop);
                new_exits.push((site, ExitKind::Indirect));
            }
            Some((Inst::Ret, _)) => {
                a.emit(Inst::Pop { dst: regs::ITARGET });
                self.instr.emit_update_indirect(&mut a, cur, regs::ITARGET);
                let site = a.here();
                a.emit(Inst::Nop);
                new_exits.push((site, ExitKind::Indirect));
            }
            Some((Inst::Halt, _)) => {
                self.instr.emit_end_check(&mut a, cur, self.err_stub);
                a.emit(Inst::Halt);
            }
            Some((Inst::Trap { code }, _)) => {
                a.emit(Inst::Trap { code });
            }
            Some((other, taddr)) => {
                unreachable!("non-terminator {other:?} at {taddr:#x} ended block")
            }
            None => match abort {
                Some(trap) => {
                    let site = a.here();
                    a.emit(Inst::Nop);
                    new_exits.push((site, ExitKind::Abort { trap }));
                }
                None => {
                    // Block split at MAX_BLOCK_INSTS: synthetic fall-through.
                    self.instr.emit_update_direct(&mut a, cur, addr);
                    Self::emit_exit_direct(&self.by_guest, &mut a, addr, &mut new_exits);
                }
            },
        }
        let cache_end = a.finish();
        let first_exit = self.exits.len() as u32;
        self.register_exits(m, new_exits);

        // Record the block and protect its guest pages (SMC detection).
        let block = TransBlock {
            guest_start: guest_addr,
            guest_len: range.end - range.start,
            cache_start,
            cache_end,
            body_start,
            body_len: insts.len() as u64 * INST_SIZE_U64,
            exits: (first_exit, self.exits.len() as u32),
        };
        self.stats.blocks += 1;
        self.stats.cache_insts += (cache_end - cache_start) / INST_SIZE_U64;
        debug_assert!(self.blocks.last().is_none_or(|last| last.cache_end <= cache_start));
        self.blocks.push(block);
        self.by_guest.insert(guest_addr, Some(cache_start));
        self.protect_range(m, guest_addr, range);

        self.cursor = cache_end;
        assert!(self.cursor <= self.cache_limit, "code cache exhausted");
        timer.observe_into(&mut self.trans_us);
        Ok(cache_start)
    }

    /// Discards every translation: clears the block index, exit
    /// descriptors, chain records and page protections, and resets the
    /// cursor to just past the shared stubs. Bumps the flush generation so
    /// in-flight exit servicing knows its descriptor index is stale. The
    /// old cache bytes stay in memory but become unreachable — nothing
    /// chains into them and the dispatcher only enters fresh translations.
    fn evict_all(&mut self, m: &mut Machine) {
        for (page, _) in self.blocks_by_page.drain() {
            m.mem.unprotect_page(page);
        }
        self.blocks.clear();
        self.by_guest.values_mut().for_each(|c| *c = None);
        self.exits.clear();
        self.dispatch_ic = [None; DISPATCH_IC_SIZE];
        self.cursor = self.base_cursor;
        self.flush_gen += 1;
        self.stats.cache_evictions += 1;
    }

    /// Materializes exit descriptors and their trap stubs after an emission.
    fn register_exits(&mut self, m: &mut Machine, new_exits: Vec<(u64, ExitKind)>) {
        for (site, kind) in new_exits {
            let idx = self.exits.len();
            let patched = matches!(kind, ExitKind::Direct { .. })
                && matches!(read_inst(&m.mem, site), Inst::Jmp { .. });
            if patched {
                self.stats.chains += 1;
            } else {
                patch_inst(&mut m.mem, site, Self::exit_trap(idx));
            }
            self.exits.push(ExitDesc { kind, patched });
        }
    }

    /// Registers `guest_start` under every page the range covers and write-
    /// protects newly covered pages (SMC detection).
    fn protect_range(&mut self, m: &mut Machine, guest_start: u64, range: Range<u64>) {
        let mut page = Memory::page_base(range.start);
        while page < range.end {
            match self.blocks_by_page.entry(page) {
                Entry::Occupied(mut starts) => starts.get_mut().push(guest_start),
                Entry::Vacant(slot) => {
                    slot.insert(vec![guest_start]);
                    m.mem.protect_page(page);
                }
            }
            page += PAGE_SIZE;
        }
    }

    /// Emits the transfer to a guest target: a direct chain jump when the
    /// target is already translated, otherwise a patchable exit site.
    fn emit_exit_direct(
        by_guest: &HashMap<u64, Option<u64>>,
        a: &mut CacheAsm<'_>,
        guest_target: u64,
        new_exits: &mut Vec<(u64, ExitKind)>,
    ) {
        let site = a.here();
        if let Some(&Some(cache_start)) = by_guest.get(&guest_target) {
            a.jmp_abs(cache_start);
        } else {
            a.emit(Inst::Nop); // becomes the trap stub once idx is known
        }
        new_exits.push((site, ExitKind::Direct { guest_target, site }));
    }

    /// Invalidates every translation sourced from `page` and unchains jumps
    /// into them; the guest page becomes writable again.
    fn smc_flush(&mut self, m: &mut Machine, page: u64) {
        let Some(starts) = self.blocks_by_page.remove(&page) else {
            return;
        };
        // A block spanning several pages stays listed under the others
        // after its first flush; only starts still live are flushed here.
        let flushed: Vec<u64> = starts
            .into_iter()
            .filter(|g| self.by_guest.get_mut(g).is_some_and(|c| c.take().is_some()))
            .collect();
        self.blocks.retain(|b| !flushed.contains(&b.guest_start));
        // Unchain every patched jump into a flushed block (SMC flushes are
        // rare, so scanning the exits beats indexing them by target).
        for (idx, exit) in self.exits.iter_mut().enumerate() {
            if let ExitKind::Direct { guest_target, site } = exit.kind {
                if exit.patched && flushed.contains(&guest_target) {
                    patch_inst(&mut m.mem, site, Self::exit_trap(idx));
                    exit.patched = false;
                }
            }
        }
        // The dispatcher's inline cache may hold entries into the flushed
        // translations; drop it wholesale rather than tracking provenance.
        self.dispatch_ic = [None; DISPATCH_IC_SIZE];
        m.mem.unprotect_page(page);
        self.stats.smc_flushes += 1;
    }
}

fn read_inst(mem: &Memory, addr: u64) -> Inst {
    let bytes: [u8; 8] = mem.peek(addr, 8).try_into().expect("aligned slot");
    Inst::decode(&bytes).expect("cache instruction decodes")
}
