//! The VISA CPU interpreter.
//!
//! A straightforward fetch–decode–execute interpreter with deterministic
//! cycle accounting. Traps abort the faulting instruction *before* any state
//! commits, so a supervisor (the DBT runtime, or a fault-injection harness)
//! can inspect and repair state and resume execution.

use crate::icache::{self, DecodedCache};
use crate::mem::PAGE_SIZE;
use crate::profiler::ExecProfiler;
use crate::LINES_PER_PAGE;
use crate::{Memory, Trap};
use cfed_isa::{cost, flags, AluOp, Flags, Inst, Reg, INST_SIZE_U64};

/// Execution statistics accumulated by a [`Cpu`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub insts: u64,
    /// Cycles accumulated under the fixed cycle model, [`cost()`].
    pub cycles: u64,
    /// Control-transfer instructions retired.
    pub branches: u64,
    /// Of those, how many redirected control (taken conditionals plus all
    /// unconditional transfers).
    pub branches_taken: u64,
    /// Traps raised. The faulting instruction never commits, so a trap that
    /// a supervisor services and resumes (e.g. a DBT exit stub) counts here
    /// but not in `insts`.
    pub traps: u64,
}

/// Result of a single successful [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The instruction retired; execution continues.
    Continue,
    /// A `halt` retired; the machine is stopped.
    Halt,
}

/// Reason a [`Cpu::run`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The program executed `halt`; the code is taken from `r0`.
    Halted { code: u64 },
    /// A trap was raised and no supervisor consumed it.
    Trapped(Trap),
    /// The step budget was exhausted (used to bound faulty runs that enter
    /// infinite loops).
    StepLimit,
}

/// The simulated processor.
///
/// # Examples
///
/// ```
/// use cfed_isa::{encode_all, Inst, Reg};
/// use cfed_sim::{Cpu, ExitReason, Memory, Perms};
///
/// let code = encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 7 }, Inst::Halt]);
/// let mut mem = Memory::new(1 << 16);
/// mem.map(0..0x1000, Perms::RX);
/// mem.install(0, &code);
/// let mut cpu = Cpu::new();
/// cpu.set_ip(0);
/// assert_eq!(cpu.run(&mut mem, 100), ExitReason::Halted { code: 7 });
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Cpu {
    regs: [u64; Reg::COUNT],
    flags: Flags,
    ip: u64,
    halted: bool,
    stats: ExecStats,
    output: Vec<u64>,
}

impl Clone for Cpu {
    fn clone(&self) -> Cpu {
        let mut cpu = Cpu::new();
        cpu.clone_from(self);
        cpu
    }

    /// Reuses the output stream's allocation.
    fn clone_from(&mut self, source: &Cpu) {
        let Cpu { regs, flags, ip, halted, stats, output } = source;
        self.regs = *regs;
        self.flags = *flags;
        self.ip = *ip;
        self.halted = *halted;
        self.stats = *stats;
        self.output.clone_from(output);
    }
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a CPU with zeroed registers.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; Reg::COUNT],
            flags: Flags::empty(),
            ip: 0,
            halted: false,
            stats: ExecStats::default(),
            output: Vec::new(),
        }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// The condition flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Overwrites the condition flags (used by flag-fault injection).
    pub fn set_flags(&mut self, f: Flags) {
        self.flags = f;
    }

    /// The instruction pointer.
    pub fn ip(&self) -> u64 {
        self.ip
    }

    /// Sets the instruction pointer (supervisor-level redirect).
    pub fn set_ip(&mut self, ip: u64) {
        self.ip = ip;
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Charges extra cycles to the running total — used by supervisors to
    /// model costs that happen outside simulated code (e.g. the DBT's
    /// indirect-branch dispatcher).
    pub fn add_cycles(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// The values emitted by `out` so far — the observable program output
    /// compared against a golden run to detect silent data corruption.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// Takes ownership of the output stream, leaving it empty.
    pub fn take_output(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.output)
    }

    /// The program's exit code (`r0` at `halt`), if halted.
    pub fn exit_code(&self) -> Option<u64> {
        self.halted.then(|| self.reg(Reg::R0))
    }

    /// Folds the statistics deltas accumulated by a burst of natively
    /// executed guest code into this CPU, as if each instruction had
    /// retired through [`Cpu::step`].
    pub fn apply_native_delta(
        &mut self,
        insts: u64,
        cycles: u64,
        branches: u64,
        branches_taken: u64,
        traps: u64,
    ) {
        self.stats.insts += insts;
        self.stats.cycles += cycles;
        self.stats.branches += branches;
        self.stats.branches_taken += branches_taken;
        self.stats.traps += traps;
    }

    /// Appends one value to the observable output stream — the reporting
    /// path for natively executed `out` instructions.
    pub fn push_output(&mut self, value: u64) {
        self.output.push(value);
    }

    /// Latches the halted state without retiring an instruction — used by
    /// supervisors whose emitted code already accounted the `halt`.
    pub fn set_halted(&mut self) {
        self.halted = true;
    }

    #[inline(always)]
    fn push(&mut self, mem: &mut Memory, value: u64) -> Result<(), Trap> {
        let sp = self.reg(Reg::SP).wrapping_sub(8);
        mem.write_u64(sp, value)?;
        self.set_reg(Reg::SP, sp);
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self, mem: &Memory) -> Result<u64, Trap> {
        let sp = self.reg(Reg::SP);
        let value = mem.read_u64(sp)?;
        self.set_reg(Reg::SP, sp.wrapping_add(8));
        Ok(value)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] without committing any architectural state (the
    /// instruction pointer still addresses the faulting instruction); only
    /// the `traps` statistic advances.
    pub fn step(&mut self, mem: &mut Memory) -> Result<Step, Trap> {
        let result = self.step_inner(mem);
        if result.is_err() {
            self.stats.traps += 1;
        }
        result
    }

    fn step_inner(&mut self, mem: &mut Memory) -> Result<Step, Trap> {
        debug_assert!(!self.halted, "stepping a halted cpu");
        let addr = self.ip;
        let bytes = mem.fetch(addr)?;
        let inst = Inst::decode(&bytes).map_err(|cause| Trap::InvalidInst { addr, cause })?;
        self.exec_inst(mem, addr, inst)
    }

    /// Executes an already-fetched-and-decoded `inst` taken from `addr`.
    /// The single execute stage shared by the raw and decoded paths, so the
    /// two are equivalent by construction.
    fn exec_inst(&mut self, mem: &mut Memory, addr: u64, inst: Inst) -> Result<Step, Trap> {
        self.exec_inst_impl::<false>(mem, addr, inst, 0).map(|(step, _, _)| step)
    }

    /// The execute stage proper. Both instantiations share every arm, so
    /// raw and pre-decoded execution agree by construction:
    ///
    /// * `PRE = false` (raw [`Cpu::step`]): direct branch targets are
    ///   computed here and the statistics epilogue (instruction, cycle and
    ///   branch counters) runs before returning.
    /// * `PRE = true` ([`Cpu::run_fused`]): `target` supplies the
    ///   precomputed absolute taken-target of direct branches (a pure
    ///   function of the instruction and its fixed address) and the caller
    ///   takes over the epilogue using the returned `taken` and the line's
    ///   cached cost class.
    #[inline(always)]
    fn exec_inst_impl<const PRE: bool>(
        &mut self,
        mem: &mut Memory,
        addr: u64,
        inst: Inst,
        target: u64,
    ) -> Result<(Step, bool, u64), Trap> {
        let next = addr.wrapping_add(INST_SIZE_U64);
        macro_rules! taken_target {
            () => {
                if PRE {
                    target
                } else {
                    inst.direct_target(addr).expect("direct")
                }
            };
        }

        // `taken` is meaningful only for conditional branches. `new_ip` is
        // committed to `self.ip` after the match (for `PRE`, by the caller
        // at burst exit), which preserves the trap contract: a trapping
        // instruction leaves `self.ip` untouched.
        let mut taken = false;
        let new_ip;
        match inst {
            Inst::Nop => new_ip = next,
            Inst::Halt => {
                self.halted = true;
                new_ip = next;
            }
            Inst::Out { src } => {
                self.output.push(self.reg(src));
                new_ip = next;
            }
            Inst::Trap { code } => return Err(Trap::Software { addr, code }),

            Inst::MovRR { dst, src } => {
                let v = self.reg(src);
                self.set_reg(dst, v);
                new_ip = next;
            }
            Inst::MovRI { dst, imm } => {
                self.set_reg(dst, imm as i64 as u64);
                new_ip = next;
            }
            Inst::Ld { dst, base, disp } => {
                let a = self.reg(base).wrapping_add(disp as i64 as u64);
                let v = mem.read_u64(a)?;
                self.set_reg(dst, v);
                new_ip = next;
            }
            Inst::St { base, src, disp } => {
                let a = self.reg(base).wrapping_add(disp as i64 as u64);
                mem.write_u64(a, self.reg(src))?;
                new_ip = next;
            }
            Inst::Ld8 { dst, base, disp } => {
                let a = self.reg(base).wrapping_add(disp as i64 as u64);
                let v = mem.read_u8(a)?;
                self.set_reg(dst, v as u64);
                new_ip = next;
            }
            Inst::St8 { base, src, disp } => {
                let a = self.reg(base).wrapping_add(disp as i64 as u64);
                mem.write_u8(a, self.reg(src) as u8)?;
                new_ip = next;
            }
            Inst::Push { src } => {
                let v = self.reg(src);
                self.push(mem, v)?;
                new_ip = next;
            }
            Inst::Pop { dst } => {
                let v = self.pop(mem)?;
                self.set_reg(dst, v);
                new_ip = next;
            }
            Inst::CMov { cc, dst, src } => {
                if cc.eval(self.flags) {
                    let v = self.reg(src);
                    self.set_reg(dst, v);
                }
                new_ip = next;
            }

            Inst::Alu { op, dst, src } => {
                self.exec_alu(op, dst, self.reg(src), addr)?;
                new_ip = next;
            }
            Inst::AluI { op, dst, imm } => {
                self.exec_alu(op, dst, imm as i64 as u64, addr)?;
                new_ip = next;
            }
            Inst::Neg { dst } => {
                let (r, f) = flags::sub_with_flags(0, self.reg(dst));
                self.set_reg(dst, r);
                self.flags = f;
                new_ip = next;
            }
            Inst::Not { dst } => {
                let r = !self.reg(dst);
                self.set_reg(dst, r);
                self.flags = flags::logic_flags(r);
                new_ip = next;
            }

            Inst::Lea { dst, base, disp } => {
                let v = self.reg(base).wrapping_add(disp as i64 as u64);
                self.set_reg(dst, v);
                new_ip = next;
            }
            Inst::Lea2 { dst, base, index, disp } => {
                let v =
                    self.reg(base).wrapping_add(self.reg(index)).wrapping_add(disp as i64 as u64);
                self.set_reg(dst, v);
                new_ip = next;
            }
            Inst::LeaSub { dst, base, index, disp } => {
                let v =
                    self.reg(base).wrapping_sub(self.reg(index)).wrapping_add(disp as i64 as u64);
                self.set_reg(dst, v);
                new_ip = next;
            }

            Inst::Jmp { .. } => {
                new_ip = taken_target!();
            }
            Inst::Jcc { cc, .. } => {
                taken = cc.eval(self.flags);
                new_ip = if taken { taken_target!() } else { next };
            }
            Inst::JRz { src, .. } => {
                taken = self.reg(src) == 0;
                new_ip = if taken { taken_target!() } else { next };
            }
            Inst::JRnz { src, .. } => {
                taken = self.reg(src) != 0;
                new_ip = if taken { taken_target!() } else { next };
            }
            Inst::Call { .. } => {
                self.push(mem, next)?;
                new_ip = taken_target!();
            }
            Inst::CallR { target } => {
                let t = self.reg(target);
                self.push(mem, next)?;
                new_ip = t;
            }
            Inst::JmpR { target } => {
                new_ip = self.reg(target);
            }
            Inst::Ret => {
                new_ip = self.pop(mem)?;
            }
        }

        if !PRE {
            self.ip = new_ip;
            self.stats.insts += 1;
            self.stats.cycles += cost(&inst, taken);
            if inst.is_branch() {
                self.stats.branches += 1;
                let redirected = taken || !inst.is_cond_branch();
                if redirected {
                    self.stats.branches_taken += 1;
                }
            }
        }
        // `PRE` callers keep `self.ip` in a register across the burst and
        // detect halts from the cached class, so neither field is touched.
        let step = if !PRE && self.halted { Step::Halt } else { Step::Continue };
        Ok((step, taken, new_ip))
    }

    #[inline(always)]
    fn exec_alu(&mut self, op: AluOp, dst: Reg, rhs: u64, addr: u64) -> Result<(), Trap> {
        let lhs = self.reg(dst);
        let (result, f) = match op {
            AluOp::Add => flags::add_with_flags(lhs, rhs),
            AluOp::Sub | AluOp::Cmp => flags::sub_with_flags(lhs, rhs),
            AluOp::And | AluOp::Test => {
                let r = lhs & rhs;
                (r, flags::logic_flags(r))
            }
            AluOp::Or => {
                let r = lhs | rhs;
                (r, flags::logic_flags(r))
            }
            AluOp::Xor => {
                let r = lhs ^ rhs;
                (r, flags::logic_flags(r))
            }
            AluOp::Shl => flags::shl_with_flags(lhs, rhs),
            AluOp::Shr => flags::shr_with_flags(lhs, rhs),
            AluOp::Sar => flags::sar_with_flags(lhs, rhs),
            AluOp::Mul => flags::mul_with_flags(lhs, rhs),
            AluOp::Div => {
                if rhs == 0 {
                    return Err(Trap::DivByZero { addr });
                }
                let r = lhs / rhs;
                (r, flags::logic_flags(r))
            }
        };
        if !op.is_compare() {
            self.set_reg(dst, result);
        }
        self.flags = f;
        Ok(())
    }

    /// Runs until halt, trap, or `max_steps` retired instructions.
    pub fn run(&mut self, mem: &mut Memory, max_steps: u64) -> ExitReason {
        for _ in 0..max_steps {
            match self.step(mem) {
                Ok(Step::Continue) => {}
                Ok(Step::Halt) => {
                    return ExitReason::Halted { code: self.reg(Reg::R0) };
                }
                Err(trap) => return ExitReason::Trapped(trap),
            }
        }
        ExitReason::StepLimit
    }

    /// As [`Cpu::step`], but fetching through a pre-decoded instruction
    /// cache instead of raw fetch+decode. Architecturally equivalent
    /// (identical results, traps, stats and dirty-log behaviour); only the
    /// decode work is saved.
    ///
    /// # Errors
    ///
    /// Same conditions and guarantees as [`Cpu::step`].
    pub fn step_decoded(
        &mut self,
        mem: &mut Memory,
        icache: &mut DecodedCache,
    ) -> Result<Step, Trap> {
        let result = self.step_decoded_inner(mem, icache);
        if result.is_err() {
            self.stats.traps += 1;
        }
        result
    }

    fn step_decoded_inner(
        &mut self,
        mem: &mut Memory,
        icache: &mut DecodedCache,
    ) -> Result<Step, Trap> {
        debug_assert!(!self.halted, "stepping a halted cpu");
        let addr = self.ip;
        let inst = icache.fetch(mem, addr)?;
        self.exec_inst(mem, addr, inst)
    }

    /// Executes up to `max` instructions from the decoded cache in fused
    /// bursts: the fetch checks (alignment, range, execute permission) and
    /// cache-page validation are hoisted to burst entry, and runs within
    /// the page execute with a single array read per instruction. Control
    /// transfers that stay on the page (to an aligned slot) keep the burst
    /// alive — permissions and mapping are host-controlled and cannot
    /// change mid-run — so tight loops execute whole iterations fused. A
    /// burst ends — forcing revalidation — when a memory write moves the
    /// executing page's write generation, at any transfer off the page or
    /// to an unaligned target, on halt, trap or the budget.
    ///
    /// The burst also ends *in front of* a branch once
    /// [`ExecStats::branches`] has reached `stop_at` (`u64::MAX`: never),
    /// so supervisors can stop just before a chosen dynamic branch without
    /// inspecting every instruction. The line about to execute is
    /// classified after the page-generation check, so a store that rewrites
    /// a line ahead of `ip` into a branch stops the burst there. A branch
    /// stopped at is neither executed, cached nor counted as a fetch.
    ///
    /// Equivalent to calling [`Cpu::step`] up to `max` times, stopping in
    /// front of the first branch met once `stop_at` branches have retired:
    /// same architectural state, same statistics, and the same trap at the
    /// same instruction (with `traps` advanced and nothing committed).
    /// Returns `Ok(Step::Continue)` when the budget is exhausted or the
    /// burst stopped at a branch, `Ok(Step::Halt)` when a `halt` retires.
    ///
    /// # Errors
    ///
    /// The first trap any of the executed instructions raises.
    pub fn run_fused(
        &mut self,
        mem: &mut Memory,
        icache: &mut DecodedCache,
        max: u64,
        stop_at: u64,
    ) -> Result<Step, Trap> {
        // The scratch profiler is never touched: the `PROF = false`
        // instantiation contains no profiling code, so this path is the
        // exact pre-profiler loop.
        self.run_fused_impl::<false>(mem, icache, max, stop_at, &mut ExecProfiler::new())
    }

    /// The fused loop behind [`Cpu::run_fused`]. With `PROF`, every
    /// retirement's address and cycle cost is also recorded into `prof`:
    /// architecturally identical to the unprofiled path (the profiler
    /// observes, never influences); the per-instruction cost is two array
    /// adds, with the counter page resolved once per burst entry alongside
    /// the decoded page. A branch-only profiler instead counts each branch
    /// line about to execute in its tally.
    pub(crate) fn run_fused_impl<const PROF: bool>(
        &mut self,
        mem: &mut Memory,
        icache: &mut DecodedCache,
        max: u64,
        stop_at: u64,
        prof: &mut ExecProfiler,
    ) -> Result<Step, Trap> {
        let mut retired: u64 = 0;
        let mut misses: u64 = 0;
        // One extra fetch was classified (hit or miss) but not retired:
        // set when an executed instruction traps after a successful fetch.
        let mut trapped_fetch: u64 = 0;
        // Retirement statistics accumulate in locals and flush once at the
        // end, keeping per-instruction bookkeeping in registers.
        let mut d_cycles: u64 = 0;
        let mut d_branches: u64 = 0;
        let mut d_taken: u64 = 0;
        // Branches this burst may retire before it stops in front of the
        // next one.
        let stop = stop_at.saturating_sub(self.stats.branches);
        // The instruction pointer lives in `ip` for the whole call — the
        // execute stage returns the successor instead of storing it — and
        // is committed to `self.ip` once at the end. On a trap `ip` is the
        // trapping instruction's address, exactly where the raw path leaves
        // `self.ip` (a trapping instruction never commits its successor).
        let mut ip = self.ip;
        // Moved out for the call, so it is updated beside the counter page.
        let mut tally = if PROF { prof.branches.take() } else { None };
        let result = 'outer: loop {
            if retired >= max {
                break Ok(Step::Continue);
            }
            debug_assert!(!self.halted, "stepping a halted cpu");
            // Burst-entry checks, trap-for-trap identical to `Memory::fetch`
            // (an aligned in-range page fetch can never straddle pages, so
            // page-level checks cover the full 8 bytes).
            if !ip.is_multiple_of(INST_SIZE_U64) {
                self.stats.traps += 1;
                break Err(Trap::UnalignedFetch { addr: ip });
            }
            let pi = (ip / PAGE_SIZE) as usize;
            if pi >= mem.page_count() {
                self.stats.traps += 1;
                break Err(Trap::OutOfRange { addr: ip });
            }
            if !mem.perms_at(ip).can_exec() {
                self.stats.traps += 1;
                break Err(Trap::PermExec { addr: ip });
            }
            let page_base = pi as u64 * PAGE_SIZE;
            let gen = mem.page_gen(pi);
            let page = DecodedCache::validate_page(&mut icache.pages, &mut icache.stats, pi, gen);
            // Profiling counter page, resolved once per burst like the
            // decoded page. `None` (and dead code below) when `!PROF`, and
            // for a branch-only profiler.
            let mut pp = (PROF && tally.is_none()).then(|| prof.page_mut(pi));
            // Fused run within the validated page. The line index is masked
            // into range so the hot loop carries no bounds checks.
            let mut li = ((ip & (PAGE_SIZE - 1)) / INST_SIZE_U64) as usize;
            loop {
                let mut line = page.lines[li & (LINES_PER_PAGE - 1)];
                if line.class == icache::CLASS_EMPTY {
                    let bytes: [u8; 8] = mem.peek(ip, 8).try_into().expect("aligned within page");
                    match Inst::decode(&bytes) {
                        Ok(inst) => {
                            line = icache::Line::new(inst, ip);
                            if line.class >= icache::C_JMP && d_branches >= stop {
                                break 'outer Ok(Step::Continue);
                            }
                            misses += 1;
                            page.lines[li & (LINES_PER_PAGE - 1)] = line;
                        }
                        Err(cause) => {
                            self.stats.traps += 1;
                            break 'outer Err(Trap::InvalidInst { addr: ip, cause });
                        }
                    }
                }
                if line.class >= icache::C_JMP && d_branches >= stop {
                    break 'outer Ok(Step::Continue);
                }
                if PROF && line.class >= icache::C_JMP {
                    if let Some(tally) = tally.as_mut() {
                        crate::profiler::tally_branch(tally, self, ip, line.inst);
                    }
                }
                let (_, taken, next) =
                    match self.exec_inst_impl::<true>(mem, ip, line.inst, line.target) {
                        Ok(r) => r,
                        Err(trap) => {
                            self.stats.traps += 1;
                            trapped_fetch = 1;
                            break 'outer Err(trap);
                        }
                    };
                // Statistics epilogue via the cached class — equivalent to
                // the `PRE = false` epilogue inside `exec_inst_impl`
                // (pinned by `class_table_matches_cost_model`).
                let cycles = icache::COST_TABLE[line.class as usize][taken as usize];
                d_cycles += cycles;
                if let Some(pp) = pp.as_mut() {
                    pp.hits[li & (LINES_PER_PAGE - 1)] += 1;
                    pp.cycles[li & (LINES_PER_PAGE - 1)] += cycles;
                }
                if line.class >= icache::C_JMP {
                    d_branches += 1;
                    if taken || line.class != icache::C_COND {
                        d_taken += 1;
                    }
                }
                retired += 1;
                if line.class == icache::C_HALT {
                    ip = next;
                    break 'outer Ok(Step::Halt);
                }
                if line.class < icache::C_JMP {
                    // Fall-through: `next == ip + 8`, so alignment and the
                    // page lower bound hold by construction; only the page
                    // end, the budget and a store that moved this page's
                    // write generation can end the burst.
                    ip = next;
                    if retired >= max
                        || (line.writes_mem && mem.page_gen(pi) != gen)
                        || next >= page_base + PAGE_SIZE
                    {
                        continue 'outer;
                    }
                    li += 1;
                } else {
                    ip = next;
                    if retired >= max
                        || (line.writes_mem && mem.page_gen(pi) != gen)
                        || !next.is_multiple_of(INST_SIZE_U64)
                        || next < page_base
                        || next >= page_base + PAGE_SIZE
                    {
                        continue 'outer;
                    }
                    li = ((ip & (PAGE_SIZE - 1)) / INST_SIZE_U64) as usize;
                }
            }
        };
        if PROF {
            prof.branches = tally;
        }
        self.ip = ip;
        self.stats.insts += retired;
        self.stats.cycles += d_cycles;
        self.stats.branches += d_branches;
        self.stats.branches_taken += d_taken;
        // Every classified fetch (the retired instructions, plus a final one
        // whose execution trapped) was either a hit or a decode miss.
        icache.stats.hits += retired + trapped_fetch - misses;
        icache.stats.misses += misses;
        result
    }

    /// Decodes (without executing) the instruction at the current `ip`.
    /// Observation helper for analyzers that need to inspect upcoming
    /// branches; does not affect statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as a fetch during [`Cpu::step`].
    pub fn peek_inst(&self, mem: &Memory) -> Result<Inst, Trap> {
        let bytes = mem.fetch(self.ip)?;
        Inst::decode(&bytes).map_err(|cause| Trap::InvalidInst { addr: self.ip, cause })
    }

    /// Evaluates whether the conditional branch `inst` would be taken in the
    /// current machine state.
    pub fn would_take(&self, inst: &Inst) -> bool {
        match *inst {
            Inst::Jcc { cc, .. } => cc.eval(self.flags),
            Inst::JRz { src, .. } => self.reg(src) == 0,
            Inst::JRnz { src, .. } => self.reg(src) != 0,
            _ => !inst.is_cond_branch() && inst.is_branch(),
        }
    }

    /// Evaluates whether `inst` would be taken under a hypothetical flags
    /// value — the flag-fault side of the error model (§2).
    pub fn would_take_with_flags(&self, inst: &Inst, f: Flags) -> bool {
        match *inst {
            Inst::Jcc { cc, .. } => cc.eval(f),
            _ => self.would_take(inst),
        }
    }
}

/// Whether `inst` can store to guest memory — the only way a retiring
/// instruction can invalidate decoded lines, so the fused runner must
/// revalidate its page after one of these.
pub(crate) fn inst_writes_mem(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::St { .. }
            | Inst::St8 { .. }
            | Inst::Push { .. }
            | Inst::Call { .. }
            | Inst::CallR { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Perms;
    use cfed_isa::{encode_all, Cond};

    fn machine(insts: &[Inst]) -> (Cpu, Memory) {
        let mut mem = Memory::new(1 << 20);
        mem.map(0..0x4000, Perms::RX);
        mem.map(0x4000..0x10000, Perms::RW); // data + stack
        mem.install(0, &encode_all(insts));
        let mut cpu = Cpu::new();
        cpu.set_ip(0);
        cpu.set_reg(Reg::SP, 0x10000);
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R0, imm: 6 },
            Inst::AluI { op: AluOp::Mul, dst: Reg::R0, imm: 7 },
            Inst::Halt,
        ]);
        assert_eq!(cpu.run(&mut mem, 10), ExitReason::Halted { code: 42 });
        assert_eq!(cpu.stats().insts, 3);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // r1 = 0; for r0 in 5..0 { r1 += r0 }  => r1 = 15
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R0, imm: 5 },
            Inst::MovRI { dst: Reg::R1, imm: 0 },
            Inst::Alu { op: AluOp::Add, dst: Reg::R1, src: Reg::R0 },
            Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
            Inst::Jcc { cc: Cond::Ne, offset: -24 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 100);
        assert_eq!(cpu.reg(Reg::R1), 15);
        assert_eq!(cpu.stats().branches, 5);
        assert_eq!(cpu.stats().branches_taken, 4);
    }

    #[test]
    fn call_and_ret() {
        let (mut cpu, mut mem) = machine(&[
            Inst::Call { offset: 16 },            // 0: call 0x18
            Inst::Halt,                           // 8
            Inst::Nop,                            // 16 (padding)
            Inst::MovRI { dst: Reg::R0, imm: 9 }, // 24: callee
            Inst::Ret,                            // 32
        ]);
        assert_eq!(cpu.run(&mut mem, 10), ExitReason::Halted { code: 9 });
    }

    #[test]
    fn push_pop_roundtrip() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R1, imm: 1234 },
            Inst::Push { src: Reg::R1 },
            Inst::Pop { dst: Reg::R2 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 10);
        assert_eq!(cpu.reg(Reg::R2), 1234);
        assert_eq!(cpu.reg(Reg::SP), 0x10000);
    }

    #[test]
    fn memory_ops_and_output() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R1, imm: 0x5000 },
            Inst::MovRI { dst: Reg::R2, imm: 77 },
            Inst::St { base: Reg::R1, src: Reg::R2, disp: 8 },
            Inst::Ld { dst: Reg::R3, base: Reg::R1, disp: 8 },
            Inst::Out { src: Reg::R3 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 10);
        assert_eq!(cpu.output(), &[77]);
    }

    #[test]
    fn byte_ops_zero_extend() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R1, imm: 0x5000 },
            Inst::MovRI { dst: Reg::R2, imm: -1 }, // 0xFF..FF
            Inst::St8 { base: Reg::R1, src: Reg::R2, disp: 0 },
            Inst::Ld8 { dst: Reg::R3, base: Reg::R1, disp: 0 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 10);
        assert_eq!(cpu.reg(Reg::R3), 0xFF);
    }

    #[test]
    fn cmov_obeys_condition() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R1, imm: 1 },
            Inst::MovRI { dst: Reg::R2, imm: 2 },
            Inst::AluI { op: AluOp::Cmp, dst: Reg::R1, imm: 1 }, // ZF=1
            Inst::CMov { cc: Cond::E, dst: Reg::R3, src: Reg::R2 },
            Inst::CMov { cc: Cond::Ne, dst: Reg::R4, src: Reg::R2 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 10);
        assert_eq!(cpu.reg(Reg::R3), 2);
        assert_eq!(cpu.reg(Reg::R4), 0);
    }

    #[test]
    fn lea_preserves_flags() {
        let (mut cpu, mut mem) = machine(&[
            Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 0 }, // ZF=1
            Inst::Lea { dst: Reg::R8, base: Reg::R8, disp: 100 },
            Inst::LeaSub { dst: Reg::R8, base: Reg::R8, index: Reg::R9, disp: 1 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 10);
        assert!(cpu.flags().zf(), "lea family must not clobber flags");
        assert_eq!(cpu.reg(Reg::R8), 101);
    }

    #[test]
    fn xor_clobbers_flags() {
        let (mut cpu, mut mem) = machine(&[
            Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 0 }, // ZF=1
            Inst::AluI { op: AluOp::Xor, dst: Reg::R8, imm: 5 },
            Inst::Halt,
        ]);
        cpu.run(&mut mem, 10);
        assert!(!cpu.flags().zf(), "xor writes flags (the §5.1 problem)");
    }

    #[test]
    fn jrz_jrnz_ignore_flags() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R8, imm: 0 },
            Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 1 }, // ZF=0
            Inst::JRz { src: Reg::R8, offset: 8 },               // taken: r8 == 0
            Inst::Halt,                                          // skipped
            Inst::MovRI { dst: Reg::R0, imm: 1 },
            Inst::Halt,
        ]);
        assert_eq!(cpu.run(&mut mem, 10), ExitReason::Halted { code: 1 });
        assert!(!cpu.flags().zf(), "jrz must not touch flags");
    }

    #[test]
    fn div_by_zero_traps_without_commit() {
        let (mut cpu, mut mem) = machine(&[
            Inst::MovRI { dst: Reg::R0, imm: 10 },
            Inst::Alu { op: AluOp::Div, dst: Reg::R0, src: Reg::R1 },
            Inst::Halt,
        ]);
        let r = cpu.run(&mut mem, 10);
        assert_eq!(r, ExitReason::Trapped(Trap::DivByZero { addr: 8 }));
        assert_eq!(cpu.ip(), 8, "ip must still address the faulting div");
        assert_eq!(cpu.reg(Reg::R0), 10, "dst not clobbered");
    }

    #[test]
    fn trap_instruction_reports_code() {
        let (mut cpu, mut mem) = machine(&[Inst::Trap { code: 0xC0DE_0001 }]);
        assert_eq!(
            cpu.run(&mut mem, 10),
            ExitReason::Trapped(Trap::Software { addr: 0, code: 0xC0DE_0001 })
        );
    }

    #[test]
    fn wild_jump_detected_at_fetch() {
        // Jump into the data region: next fetch raises PermExec (category F).
        let (mut cpu, mut mem) = machine(&[Inst::Jmp { offset: 0x4ff8 }]);
        assert_eq!(cpu.run(&mut mem, 10), ExitReason::Trapped(Trap::PermExec { addr: 0x5000 }));
    }

    #[test]
    fn misaligned_jump_detected_at_fetch() {
        let (mut cpu, mut mem) = machine(&[Inst::Jmp { offset: -4 }]);
        assert_eq!(cpu.run(&mut mem, 10), ExitReason::Trapped(Trap::UnalignedFetch { addr: 4 }));
    }

    #[test]
    fn step_limit_bounds_infinite_loops() {
        let (mut cpu, mut mem) = machine(&[Inst::Jmp { offset: -8 }]);
        assert_eq!(cpu.run(&mut mem, 50), ExitReason::StepLimit);
        assert_eq!(cpu.stats().insts, 50);
    }

    #[test]
    fn push_to_bad_stack_does_not_commit_sp() {
        let (mut cpu, mut mem) = machine(&[Inst::Push { src: Reg::R0 }]);
        cpu.set_reg(Reg::SP, 0x4000); // push writes to 0x3FF8 (code page, RX)
        let before = cpu.reg(Reg::SP);
        assert!(matches!(cpu.run(&mut mem, 10), ExitReason::Trapped(Trap::PermWrite { .. })));
        assert_eq!(cpu.reg(Reg::SP), before);
    }

    #[test]
    fn would_take_follows_flags() {
        let (mut cpu, mut mem) = machine(&[
            Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 0 },
            Inst::Jcc { cc: Cond::E, offset: 16 },
        ]);
        cpu.step(&mut mem).unwrap();
        let inst = cpu.peek_inst(&mem).unwrap();
        assert!(cpu.would_take(&inst));
        // Flipping ZF changes the hypothetical decision.
        let flipped = cpu.flags().with_bit_flipped(Flags::ZF);
        assert!(!cpu.would_take_with_flags(&inst, flipped));
    }

    #[test]
    fn stats_cycles_monotone() {
        let (mut cpu, mut mem) =
            machine(&[Inst::Ld { dst: Reg::R0, base: Reg::SP, disp: -8 }, Inst::Halt]);
        cpu.set_reg(Reg::SP, 0x6000);
        cpu.run(&mut mem, 10);
        assert!(cpu.stats().cycles > cpu.stats().insts, "loads cost > 1 cycle");
    }
}
