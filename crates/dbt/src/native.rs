//! Native x86-64 backend: compiles translated cache blocks to host code.
//!
//! The fused interpreter executes cache VISA one instruction at a time; this
//! backend lifts each already-translated [`TransBlock`] 1:1 into host x86-64
//! and runs it directly, keeping every architectural contract bit-identical:
//! same register/flag results, same trap addresses (cache addresses, as the
//! interpreter surfaces them), same `ExecStats` accounting, and same
//! [`DbtStats`](crate::DbtStats) (the runtime still services every
//! chain/dispatch event).
//! Instrumentation survives untouched because the *cache* program — with its
//! injected `GEN_SIG`/`CHECK_SIG` sequences — is the compilation source.
//!
//! Layout of a session: guest registers live in a `NativeCtx` pinned in
//! `rbp`; `rbx`/`r15`/`r14`/`r13` carry instruction/cycle/branch/taken
//! deltas that are folded into [`cfed_sim::Cpu`] stats when the session
//! exits. Loads, stores and stack ops run an inline fast path over raw
//! views of guest memory ([`cfed_sim::RawMemParts`]) — the same in-page +
//! permission check the interpreter's fast path performs, including
//! dirty-bit and write-generation bookkeeping — and fall back to outlined
//! `extern "C"` helpers into [`cfed_sim::Memory`] for anything the fast
//! path cannot prove safe, so permissions (including the SMC
//! write-protection that category-F coverage depends on) are enforced by
//! exactly the same code as the interpreter.
//!
//! Block exits reuse the translator's exit-site protocol: every direct exit,
//! chained or not, compiles to a chain site whose patchable 5-byte slot
//! raises the site's exit trap (the engine's exit-trap codec) while the
//! engine's exit is unpatched and enters a chain thunk (accounting for the
//! patched `Jmp`) once it is; the thunk's own jump ends the session at the
//! target until it is linked to the target's host code. So a block's host
//! code does not depend on chain state, and no block jumps into another
//! block's code but through a chain site. Indirect exits get an
//! inline-cache dispatcher in emitted code, kept strictly in sync with the
//! engine's `dispatch_ic` table so hit/miss counts agree with the
//! interpreter. Any cache invalidation (full eviction or SMC flush) nukes
//! all native code back to the shared-stub watermark — the translations it
//! mirrored died.
//!
//! The JIT keeps host entry code by block cache start (`None` for a block
//! it cannot compile) and its chain sites; everything else it reads from
//! the engine's block and exit tables. A session starts only at a block
//! head, where the budget check runs; a CPU stopped anywhere else
//! (mid-block after a step limit, on a chained exit, on a dispatch site)
//! takes interpreted [`Dbt::step`]s to the next head, which the engine
//! contract makes bit-identical.
//!
//! The burst stop rule ([`NativeDbt::burst`]: end in front of a branch once
//! `stop_at` branches have retired) is a second check at every block head:
//! the branch delta in `r14` plus the most branches one pass of the block
//! can retire must stay within the session's branch limit. A block that
//! could cross it ends the session before it runs, and the fused engine,
//! which stops on the exact branch, finishes the burst. A jump back to the
//! block head re-runs both checks.
//!
//! Each thread keeps one JIT and its code: a `NativeDbt` maps a code buffer
//! and builds the shared stubs only when the thread has none, and hands the
//! JIT back when it is dropped. [`NativeDbt::wrap`] empties it;
//! [`NativeDbt::rewind`] keeps, across the trials of one golden run, the
//! host code still right for the checkpoint a trial restored
//! (`Jit::rewind`).

use crate::codebuf::CodeBuf;
use crate::engine::{
    Dbt, DbtStep, ExitKind, TransBlock, DEFAULT_DISPATCH_CYCLES, DISPATCH_IC_SIZE,
};
use crate::instrument::{regs, Instrumenter, UpdateStyle};
use crate::x86::{
    self, cc, Alu, Asm, HostReg, Label, Shift, R12, R13, R14, R15, R8, RAX, RBP, RBX, RCX, RDI,
    RDX, RSI, RSP,
};
use cfed_isa::{cost, AluOp, Cond, Flags, Inst, Reg, INST_SIZE_U64};
use cfed_sim::{Cpu, ExitReason, Machine, Memory, Trap};
use cfed_telemetry::Telemetry;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// Below this remaining budget the tail is run by the fused interpreter so
/// the step limit lands on the exact instruction it would under
/// [`Dbt::burst`].
const NATIVE_MIN_BUDGET: u64 = 4096;
/// Cache-instruction ceiling per compiled block; also the session budget
/// margin (a block checks the budget only at entry, so one block body plus
/// its glue is the worst-case overshoot).
const MAX_BLOCK_CACHE_INSTS: usize = 2048;
/// Session budget margin: block body + chain-thunk glue.
const SESSION_MARGIN: u64 = MAX_BLOCK_CACHE_INSTS as u64 + 64;
/// RWX region size; the nuke-all protocol makes a fixed size fine.
const CODEBUF_CAPACITY: usize = 16 << 20;
/// Host code a rewind keeps at most: beyond it (blocks woken and recompiled
/// across many trials) the rewind nukes, which bounds each worker's buffer.
const SOFT_CODE_LIMIT: u64 = 1 << 20;
/// Inline-cache tag meaning "empty slot" (never a valid guest address here).
const EMPTY_TAG: u64 = u64::MAX;

// Session exit kinds written to `NativeCtx::exit_kind`.
const XK_HALT: u64 = 0;
const XK_TRAP: u64 = 1;
const XK_BUDGET: u64 = 2;
const XK_ENTER: u64 = 3;
/// The block at `exit_ip` could retire a branch past the burst's stop.
const XK_STOP: u64 = 4;
/// The chain thunk of the site at `exit_ip` retired its jump and is not
/// linked to the target's host code.
const XK_LINK: u64 = 5;

/// Per-session state shared between Rust and emitted code. `rbp` points at
/// this for the whole session; all offsets below are baked into the code.
#[repr(C)]
struct NativeCtx {
    /// Guest registers, spilled; emitted code works memory-to-register.
    regs: [u64; 16],
    /// Guest flags in *host* byte layout (see [`host_flags_byte`]).
    flags: u64,
    exit_kind: u64,
    /// Cache ip to resume at / report for the exit.
    exit_ip: u64,
    /// Encoded trap: 0 = none; see [`encode_trap`].
    trap_disc: u64,
    trap_a: u64,
    trap_b: u64,
    /// `XK_ENTER`: cache address the runtime should continue at.
    resume_ip: u64,
    d_insts: u64,
    d_cycles: u64,
    d_branches: u64,
    d_taken: u64,
    d_traps: u64,
    d_dispatches: u64,
    d_ic_hits: u64,
    /// Retired-instruction ceiling for this session (`rbx` compares against
    /// this at every block entry).
    session_limit: u64,
    /// Retired-branch ceiling for this session: a block runs only when `r14`
    /// plus its branches per pass stays within it (`u64::MAX`: no stop).
    stop_limit: u64,
    /// Raw `*mut Memory`, valid only inside the trampoline call.
    mem: u64,
    /// Raw `*mut Cpu`, valid only inside the trampoline call.
    cpu: u64,
    /// Raw views into guest memory (see [`cfed_sim::RawMemParts`]) for the
    /// inline load/store fast path; valid only inside the trampoline call.
    mem_bytes: u64,
    mem_perms: u64,
    mem_dirty: u64,
    mem_gens: u64,
    mem_pages: u64,
    /// Indirect-dispatch inline cache: guest-target tags...
    ic_tags: [u64; DISPATCH_IC_SIZE],
    /// ...and the matching compiled-entry host addresses.
    ic_vals: [u64; DISPATCH_IC_SIZE],
}

macro_rules! ctx_off {
    ($f:ident) => {
        std::mem::offset_of!(NativeCtx, $f) as i32
    };
}

const O_REGS: i32 = ctx_off!(regs);
const O_FLAGS: i32 = ctx_off!(flags);
const O_EXIT_KIND: i32 = ctx_off!(exit_kind);
const O_EXIT_IP: i32 = ctx_off!(exit_ip);
const O_TRAP_DISC: i32 = ctx_off!(trap_disc);
const O_TRAP_A: i32 = ctx_off!(trap_a);
const O_TRAP_B: i32 = ctx_off!(trap_b);
const O_RESUME_IP: i32 = ctx_off!(resume_ip);
const O_D_INSTS: i32 = ctx_off!(d_insts);
const O_D_CYCLES: i32 = ctx_off!(d_cycles);
const O_D_BRANCHES: i32 = ctx_off!(d_branches);
const O_D_TAKEN: i32 = ctx_off!(d_taken);
const O_D_TRAPS: i32 = ctx_off!(d_traps);
const O_D_DISPATCHES: i32 = ctx_off!(d_dispatches);
const O_D_IC_HITS: i32 = ctx_off!(d_ic_hits);
const O_SESSION_LIMIT: i32 = ctx_off!(session_limit);
const O_STOP_LIMIT: i32 = ctx_off!(stop_limit);
const O_MEM_BYTES: i32 = ctx_off!(mem_bytes);
const O_MEM_PERMS: i32 = ctx_off!(mem_perms);
const O_MEM_DIRTY: i32 = ctx_off!(mem_dirty);
const O_MEM_GENS: i32 = ctx_off!(mem_gens);
const O_MEM_PAGES: i32 = ctx_off!(mem_pages);
const O_IC_TAGS: i32 = ctx_off!(ic_tags);
const O_IC_VALS: i32 = ctx_off!(ic_vals);

/// `log2(PAGE_SIZE)` for the emitted page-index shift.
const PAGE_SHIFT: u8 = cfed_sim::PAGE_SIZE.trailing_zeros() as u8;
/// Largest in-page offset at which an 8-byte access cannot straddle.
const MAX_U64_OFFSET: i32 = (cfed_sim::PAGE_SIZE - 8) as i32;

impl NativeCtx {
    fn new() -> NativeCtx {
        NativeCtx {
            regs: [0; 16],
            flags: 0,
            exit_kind: 0,
            exit_ip: 0,
            trap_disc: 0,
            trap_a: 0,
            trap_b: 0,
            resume_ip: 0,
            d_insts: 0,
            d_cycles: 0,
            d_branches: 0,
            d_taken: 0,
            d_traps: 0,
            d_dispatches: 0,
            d_ic_hits: 0,
            session_limit: 0,
            stop_limit: u64::MAX,
            mem: 0,
            cpu: 0,
            mem_bytes: 0,
            mem_perms: 0,
            mem_dirty: 0,
            mem_gens: 0,
            mem_pages: 0,
            ic_tags: [EMPTY_TAG; DISPATCH_IC_SIZE],
            ic_vals: [0; DISPATCH_IC_SIZE],
        }
    }
}

/// Guest [`Flags`] → the byte layout `lahf`/`seto` produce: CF bit 0,
/// PF bit 2, AF bit 4, OF bit 5 (merged in by hand), ZF bit 6, SF bit 7.
/// Bits 1 and 3 are don't-care (lahf forces bit 1 set; the condition
/// tables are indexed over all 256 byte values so both encodings match).
fn host_flags_byte(f: Flags) -> u8 {
    let b = f.bits();
    (b & 1)
        | ((b >> 1) & 1) << 2
        | ((b >> 2) & 1) << 4
        | ((b >> 3) & 1) << 6
        | ((b >> 4) & 1) << 7
        | ((b >> 5) & 1) << 5
}

/// Inverse of [`host_flags_byte`], ignoring the don't-care bits.
fn flags_from_host(h: u8) -> Flags {
    Flags::from_bits(
        (h & 1)
            | ((h >> 2) & 1) << 1
            | ((h >> 4) & 1) << 2
            | ((h >> 6) & 1) << 3
            | ((h >> 7) & 1) << 4
            | ((h >> 5) & 1) << 5,
    )
}

/// Bytes per condition in [`cond_tables`]: one per host flags byte.
const COND_TABLE_STRIDE: usize = 256;

/// The condition truth tables the emitted code reads: byte `h` of table
/// `cc` (at `cc.encoding() * 256`) is 1 when `cc.eval(flags(h))`.
fn cond_tables() -> Vec<u8> {
    let mut tables = vec![0u8; Cond::ALL.len() * COND_TABLE_STRIDE];
    for cond in Cond::ALL {
        let base = cond.encoding() as usize * COND_TABLE_STRIDE;
        for h in 0..COND_TABLE_STRIDE {
            tables[base + h] = cond.eval(flags_from_host(h as u8)) as u8;
        }
    }
    tables
}

/// Encodes a trap for the ctx `trap_disc`/`trap_a`/`trap_b` slots.
fn encode_trap(t: &Trap) -> (u64, u64, u64) {
    match *t {
        Trap::Software { addr, code } => (1, addr, code as u64),
        Trap::DivByZero { addr } => (2, addr, 0),
        Trap::OutOfRange { addr } => (3, addr, 0),
        Trap::PermRead { addr } => (4, addr, 0),
        Trap::PermWrite { addr } => (5, addr, 0),
        Trap::PermExec { addr } => (6, addr, 0),
        Trap::UnalignedFetch { addr } => (7, addr, 0),
        // Never produced by the memory helpers (cache instructions decode by
        // construction); mapped conservatively so the encoding is total.
        Trap::InvalidInst { addr, .. } => (3, addr, 0),
    }
}

/// Decodes what [`encode_trap`] (or an emitted trap stub) stored.
fn decode_trap(disc: u64, a: u64, b: u64) -> Trap {
    match disc {
        1 => Trap::Software { addr: a, code: b as u32 },
        2 => Trap::DivByZero { addr: a },
        3 => Trap::OutOfRange { addr: a },
        4 => Trap::PermRead { addr: a },
        5 => Trap::PermWrite { addr: a },
        6 => Trap::PermExec { addr: a },
        7 => Trap::UnalignedFetch { addr: a },
        _ => unreachable!("bad native trap discriminant {disc}"),
    }
}

fn set_trap(ctx: &mut NativeCtx, t: &Trap, ip: u64) {
    let (d, a, b) = encode_trap(t);
    ctx.trap_disc = d;
    ctx.trap_a = a;
    ctx.trap_b = b;
    ctx.exit_ip = ip;
}

// Memory helpers called from emitted code (SysV: rdi, rsi, rdx, rcx). On a
// fault they record the trap in the ctx and the emitted trap check routes to
// the shared trap-exit stub; architectural state is committed only on
// success, mirroring the interpreter's no-commit-on-trap contract.

unsafe fn ctx_mem<'a>(ctx: *mut NativeCtx) -> &'a mut Memory {
    unsafe { &mut *((*ctx).mem as *mut Memory) }
}

extern "C" fn nh_read(ctx: *mut NativeCtx, addr: u64, ip: u64) -> u64 {
    unsafe {
        match ctx_mem(ctx).read_u64(addr) {
            Ok(v) => v,
            Err(t) => {
                set_trap(&mut *ctx, &t, ip);
                0
            }
        }
    }
}

extern "C" fn nh_read8(ctx: *mut NativeCtx, addr: u64, ip: u64) -> u64 {
    unsafe {
        match ctx_mem(ctx).read_u8(addr) {
            Ok(v) => v as u64,
            Err(t) => {
                set_trap(&mut *ctx, &t, ip);
                0
            }
        }
    }
}

extern "C" fn nh_write(ctx: *mut NativeCtx, addr: u64, value: u64, ip: u64) {
    unsafe {
        if let Err(t) = ctx_mem(ctx).write_u64(addr, value) {
            set_trap(&mut *ctx, &t, ip);
        }
    }
}

extern "C" fn nh_write8(ctx: *mut NativeCtx, addr: u64, value: u64, ip: u64) {
    unsafe {
        if let Err(t) = ctx_mem(ctx).write_u8(addr, value as u8) {
            set_trap(&mut *ctx, &t, ip);
        }
    }
}

extern "C" fn nh_push(ctx: *mut NativeCtx, value: u64, ip: u64) {
    unsafe {
        let sp = (*ctx).regs[Reg::SP.index()].wrapping_sub(8);
        match ctx_mem(ctx).write_u64(sp, value) {
            Ok(()) => (*ctx).regs[Reg::SP.index()] = sp,
            Err(t) => set_trap(&mut *ctx, &t, ip),
        }
    }
}

extern "C" fn nh_pop(ctx: *mut NativeCtx, ip: u64) -> u64 {
    unsafe {
        let sp = (*ctx).regs[Reg::SP.index()];
        match ctx_mem(ctx).read_u64(sp) {
            Ok(v) => {
                (*ctx).regs[Reg::SP.index()] = sp.wrapping_add(8);
                v
            }
            Err(t) => {
                set_trap(&mut *ctx, &t, ip);
                0
            }
        }
    }
}

extern "C" fn nh_out(ctx: *mut NativeCtx, value: u64) {
    unsafe {
        (*((*ctx).cpu as *mut Cpu)).push_output(value);
    }
}

/// Why a block could not be compiled.
enum CompileBail {
    /// Contains an instruction form the backend does not emit (never the
    /// case for translator output; defensive) or is oversized.
    Unsupported,
    /// The code buffer is full; nuke and retry.
    Full,
}

/// Native patch points for one direct exit site. Every direct exit compiles
/// to one, whether or not the engine has chained it yet, so a block's host
/// code does not depend on chain state: `slot` jumps to `stub` (raise the
/// exit trap) while the engine's exit is unpatched and to `thunk` once it
/// is, and the thunk, after retiring the patched `Jmp`, jumps to `link`
/// (end the session at the jump's target) until `thunk_jmp` is linked to
/// the target's host entry.
#[derive(Clone, Copy)]
struct ChainSite {
    /// Cache address of the exit site.
    site: u64,
    /// The engine's exit descriptor for the site.
    exit: usize,
    /// 5-byte jump slot inside the block.
    slot: u64,
    /// Chain thunk: accounting for the patched cache `Jmp`, then...
    thunk: u64,
    /// ...this 5-byte jump.
    thunk_jmp: u64,
    /// Raises the site's exit trap.
    stub: u64,
    /// Ends the session with `XK_LINK` at the site.
    link: u64,
    /// Whether `slot` jumps to `thunk`.
    chained: bool,
    /// While `thunk_jmp` enters host code: the cache word at `site` (the
    /// engine's patched `Jmp`) and that host entry.
    linked: Option<(u64, u64)>,
}

/// One allocation on the JIT's host-code stack: a compiled block, or a
/// block that failed to compile, which takes no bytes.
struct Alloc {
    /// Buffer cursor before the allocation: truncating here frees it and
    /// everything allocated after it.
    at: u64,
    /// Cache start of the block.
    cache: u64,
    /// Compiled from a block of the golden run (see [`Jit::rewind`]).
    golden: bool,
    /// Kept, but not entered, while the engine may not hold the block.
    asleep: bool,
    /// End of the allocation's chain sites in [`Jit::sites`].
    sites_end: usize,
}

thread_local! {
    /// This thread's spare JIT, mapped once and kept, with its code, between
    /// engines.
    static SPARE_JIT: Cell<Option<Box<Jit>>> = const { Cell::new(None) };
}

struct Jit {
    buf: CodeBuf,
    ctx: Box<NativeCtx>,
    /// `extern "C" fn(*mut NativeCtx, entry)` — saves host regs, seeds the
    /// delta registers and jumps to `entry`.
    trampoline: u64,
    /// Stores the delta registers back to the ctx and returns.
    epilogue: u64,
    /// Sets `exit_kind = XK_TRAP` and falls into the epilogue; every trap
    /// path (helper fault or emitted stub) jumps here.
    trap_exit: u64,
    /// The [`cond_tables`] bytes.
    cond_tables: u64,
    /// Bump-reset watermark right after the shared stubs.
    blocks_base: u64,
    /// Block cache start → host entry (with budget prologue), `None` for a
    /// block that failed to compile. Block heads are the only places a
    /// session starts.
    blocks: HashMap<u64, Option<u64>>,
    /// Direct exit sites in allocation order...
    sites: Vec<ChainSite>,
    /// ...and by cache address.
    site_at: HashMap<u64, usize>,
    /// The host-code stack: every allocation above `blocks_base`, in order.
    allocs: Vec<Alloc>,
    /// Mirror of `Dbt::dispatch_ic` as of the last sync.
    ic_shadow: [Option<(u64, u64)>; DISPATCH_IC_SIZE],
    /// [`Dbt::gen_key`] snapshot; any change nukes native code.
    gen: (u64, u64),
    /// `Dbt::stats.chains` as of the last chain resync.
    chains_shadow: u64,
    /// Nukes so far (tests read it to see the buffer run out).
    nukes: u64,
    /// The golden run whose checkpoints this JIT was last rewound to.
    lineage: Option<u64>,
    /// Whether the machine has run exactly as the golden run since the
    /// rewind, so every block the engine holds is the golden run's.
    lineage_open: bool,
    /// Otherwise, blocks starting below this cache address were translated
    /// by the golden run (0: none, after a generation change or without
    /// lineage).
    watermark: u64,
    /// Sleeping golden blocks by cache start → their allocation.
    sleeping: HashMap<u64, usize>,
    /// Blocks compiled since the JIT was acquired or rewound.
    compiles: u64,
    /// Blocks at or above the watermark entered once since the last rewind
    /// or nuke (see [`Jit::session_entry`]).
    seen: HashSet<u64>,
}

impl Jit {
    fn with_capacity(capacity: usize) -> Option<Box<Jit>> {
        let mut buf = CodeBuf::new(capacity)?;
        let cond_tables = buf.alloc(&cond_tables())?;

        // Epilogue: spill deltas, restore host regs, return.
        let mut a = Asm::new(buf.cursor_addr());
        a.store(RBP, O_D_INSTS, RBX);
        a.store(RBP, O_D_CYCLES, R15);
        a.store(RBP, O_D_BRANCHES, R14);
        a.store(RBP, O_D_TAKEN, R13);
        a.alu_ri(Alu::Add, RSP, 8);
        a.pop_r(R15);
        a.pop_r(R14);
        a.pop_r(R13);
        a.pop_r(R12);
        a.pop_r(RBX);
        a.pop_r(RBP);
        a.ret();
        let epilogue = buf.alloc(&a.finish())?;

        let mut a = Asm::new(buf.cursor_addr());
        a.store_imm32(RBP, O_EXIT_KIND, XK_TRAP as i32);
        a.jmp_abs(epilogue);
        let trap_exit = buf.alloc(&a.finish())?;

        // Trampoline: rdi = ctx, rsi = entry host address.
        let mut a = Asm::new(buf.cursor_addr());
        a.push_r(RBP);
        a.push_r(RBX);
        a.push_r(R12);
        a.push_r(R13);
        a.push_r(R14);
        a.push_r(R15);
        a.mov_rr(RBP, RDI);
        a.load(R12, RBP, O_SESSION_LIMIT);
        a.xor_r32(RBX);
        a.xor_r32(R15);
        a.xor_r32(R14);
        a.xor_r32(R13);
        a.alu_ri(Alu::Sub, RSP, 8); // 16-align rsp for helper calls
        a.jmp_r(RSI);
        let trampoline = buf.alloc(&a.finish())?;

        let blocks_base = buf.cursor_addr();
        Some(Box::new(Jit {
            buf,
            ctx: Box::new(NativeCtx::new()),
            trampoline,
            epilogue,
            trap_exit,
            cond_tables,
            blocks_base,
            blocks: HashMap::new(),
            sites: Vec::new(),
            site_at: HashMap::new(),
            allocs: Vec::new(),
            ic_shadow: [None; DISPATCH_IC_SIZE],
            gen: (0, 0),
            chains_shadow: 0,
            nukes: 0,
            lineage: None,
            lineage_open: false,
            watermark: 0,
            sleeping: HashMap::new(),
            compiles: 0,
            seen: HashSet::new(),
        }))
    }

    /// This thread's spare JIT, or a newly mapped one (`None` where the host
    /// cannot map executable memory).
    fn take_spare() -> Option<Box<Jit>> {
        SPARE_JIT.take().or_else(|| Jit::with_capacity(CODEBUF_CAPACITY))
    }

    /// The spare JIT emptied and in step with `dbt`: it holds no compiled
    /// code, so nothing the engine did so far needs mirroring.
    fn acquire(dbt: &Dbt) -> Option<Box<Jit>> {
        let mut jit = Jit::take_spare()?;
        jit.nuke();
        jit.lineage = None;
        jit.lineage_open = false;
        jit.watermark = 0;
        jit.compiles = 0;
        jit.gen = dbt.gen_key();
        jit.chains_shadow = dbt.stats.chains;
        Some(jit)
    }

    /// Keeps this JIT, code and all, as the thread's spare.
    fn release(self: Box<Self>) {
        // A thread tearing down its locals just unmaps it.
        let _ = SPARE_JIT.try_with(|spare| spare.set(Some(self)));
    }

    /// Discards every compiled block (cache invalidation or full buffer).
    fn nuke(&mut self) {
        self.buf.reset_to(self.blocks_base);
        self.blocks.clear();
        self.sites.clear();
        self.site_at.clear();
        self.allocs.clear();
        self.sleeping.clear();
        self.seen.clear();
        self.ctx.ic_tags = [EMPTY_TAG; DISPATCH_IC_SIZE];
        self.ctx.ic_vals = [0; DISPATCH_IC_SIZE];
        self.ic_shadow = [None; DISPATCH_IC_SIZE];
        self.nukes += 1;
    }

    /// Nukes when the engine invalidated any translation since last checked.
    fn check_gen(&mut self, dbt: &Dbt) {
        let gen = dbt.gen_key();
        if gen != self.gen {
            self.nuke();
            self.gen = gen;
            // The engine's translations are no longer the golden run's.
            self.watermark = 0;
        }
    }

    /// Puts this JIT in step with `dbt`, restored together with `m` from a
    /// checkpoint of the golden run `lineage` names, keeping the host code
    /// that is still right for it.
    ///
    /// Between two generation changes the golden run's block table only
    /// grows, and a block's cache bytes change only at its direct exit
    /// sites, which compile to chain sites whatever their state. So the
    /// host code of a block the golden run translated stays right for every
    /// checkpoint of that generation that holds the block: the ones whose
    /// cursor lies above it. Code compiled from a trial's own translations
    /// is dropped: host code is a stack, and the first such allocation
    /// truncates it and everything after. A golden block above the
    /// checkpoint's cursor sleeps until the trial, still on the golden
    /// run, translates it again ([`Jit::entry`]). Chain sites of the awake
    /// blocks then follow the checkpoint's exits: a slot is chained exactly
    /// when the engine has the exit patched, and a thunk stays linked only
    /// while its site holds the jump it was linked on and its target
    /// survived. The inline cache is mirrored afresh. Another lineage or
    /// generation, or more than [`SOFT_CODE_LIMIT`] bytes of host code,
    /// nukes.
    fn rewind(&mut self, dbt: &Dbt, m: &Machine, lineage: u64) {
        let live = dbt.cursor();
        let used = self.buf.cursor_addr() - self.blocks_base;
        if self.lineage != Some(lineage) || self.gen != dbt.gen_key() || used > SOFT_CODE_LIMIT {
            self.nuke();
            self.lineage = Some(lineage);
            self.gen = dbt.gen_key();
        } else {
            if let Some(first) = self.allocs.iter().position(|a| !a.golden) {
                self.truncate(first);
            }
            let live_end = self.buf.cursor_addr();
            let mut first_site = 0;
            for i in 0..self.allocs.len() {
                let a = &mut self.allocs[i];
                let sites = first_site..a.sites_end;
                first_site = a.sites_end;
                if a.asleep {
                    continue;
                }
                if a.cache >= live {
                    a.asleep = true;
                    if let Some(Some(_)) = self.blocks.remove(&a.cache) {
                        self.sleeping.insert(a.cache, i);
                    }
                    continue;
                }
                for j in sites {
                    let cs = self.sites[j];
                    let patched = dbt.exits[cs.exit].patched;
                    if cs.chained != patched {
                        self.set_chained(j, patched);
                    }
                    if let Some((word, host)) = cs.linked {
                        if !patched || host >= live_end || cache_word(m, cs.site) != word {
                            self.unlink(j);
                        }
                    }
                }
            }
            self.seen.clear();
        }
        self.lineage_open = true;
        self.watermark = live;
        self.compiles = 0;
        self.chains_shadow = dbt.stats.chains;
        self.mirror_ic(dbt);
    }

    /// Closes the stretch in which every block the engine translates is
    /// the golden run's (see [`NativeDbt::mark_lineage`]).
    fn mark_lineage(&mut self, dbt: &Dbt) {
        if self.lineage_open {
            self.lineage_open = false;
            self.watermark = dbt.cursor();
        }
    }

    /// Frees allocation `first` and everything after it.
    fn truncate(&mut self, first: usize) {
        self.buf.reset_to(self.allocs[first].at);
        for (i, a) in self.allocs.drain(first..).enumerate() {
            if !a.asleep {
                self.blocks.remove(&a.cache);
            } else if self.sleeping.get(&a.cache) == Some(&(first + i)) {
                self.sleeping.remove(&a.cache);
            }
        }
        let sites_end = self.allocs.last().map_or(0, |a| a.sites_end);
        for (i, cs) in self.sites.drain(sites_end..).enumerate() {
            if self.site_at.get(&cs.site) == Some(&(sites_end + i)) {
                self.site_at.remove(&cs.site);
            }
        }
    }

    /// Points chain site `i`'s slot at its thunk (`chained`) or its stub.
    fn set_chained(&mut self, i: usize, chained: bool) {
        let cs = &mut self.sites[i];
        let to = if chained { cs.thunk } else { cs.stub };
        self.buf.patch(cs.slot, &x86::jmp_rel32_bytes(cs.slot, to));
        cs.chained = chained;
    }

    /// Points chain site `i`'s thunk back at its link exit.
    fn unlink(&mut self, i: usize) {
        let cs = &mut self.sites[i];
        self.buf.patch(cs.thunk_jmp, &x86::jmp_rel32_bytes(cs.thunk_jmp, cs.link));
        cs.linked = None;
    }

    /// Links chain site `i`'s thunk to the host entry of the jump the
    /// engine patched at its site, if that block is compiled; returns the
    /// jump's target.
    fn link(&mut self, m: &Machine, i: usize) -> Option<u64> {
        let cs = self.sites[i];
        let word = cache_word(m, cs.site);
        let target = Inst::decode(&word.to_le_bytes()).ok()?.direct_target(cs.site)?;
        if let Some(&Some(host)) = self.blocks.get(&target) {
            self.buf.patch(cs.thunk_jmp, &x86::jmp_rel32_bytes(cs.thunk_jmp, host));
            self.sites[i].linked = Some((word, host));
        }
        Some(target)
    }

    /// Records an allocation at `at` for the block at `cache`.
    fn push_alloc(&mut self, at: u64, cache: u64) {
        let golden = self.lineage.is_some() && (self.lineage_open || cache < self.watermark);
        let sites_end = self.sites.len();
        self.allocs.push(Alloc { at, cache, golden, asleep: false, sites_end });
    }

    /// Wakes sleeping allocation `i` for the engine's block it was compiled
    /// from: its chain sites are synced with the engine from scratch.
    fn wake(&mut self, dbt: &Dbt, m: &Machine, i: usize) -> u64 {
        let a = &mut self.allocs[i];
        a.asleep = false;
        let (cache, host, sites_end) = (a.cache, a.at, a.sites_end);
        self.blocks.insert(cache, Some(host));
        let first_site = i.checked_sub(1).map_or(0, |p| self.allocs[p].sites_end);
        for j in first_site..sites_end {
            self.site_at.insert(self.sites[j].site, j);
            if self.sites[j].linked.is_some() {
                self.unlink(j);
            }
            let patched = dbt.exits[self.sites[j].exit].patched;
            self.set_chained(j, patched);
            if patched {
                self.link(m, j);
            }
        }
        host
    }

    /// Host entry of the live block that starts at cache address `cache`,
    /// compiling it on first use or waking the sleeping code an earlier
    /// trial compiled from it; `None` when no block starts there or the
    /// block cannot be compiled.
    fn entry(&mut self, dbt: &Dbt, m: &Machine, cache: u64) -> Option<u64> {
        if let Some(&host) = self.blocks.get(&cache) {
            return host;
        }
        let tb = *dbt.block_containing(cache).filter(|b| b.cache_start == cache)?;
        // Where the engine's blocks are the golden run's, a sleeping block
        // at this address was compiled from this very block.
        let golden = self.lineage_open || cache < self.watermark;
        let asleep = golden.then(|| self.sleeping.remove(&cache)).flatten();
        let host = match asleep {
            Some(i) => Some(self.wake(dbt, m, i)),
            None => match self.compile_block(dbt, m, &tb) {
                Err(CompileBail::Full) => {
                    self.nuke();
                    self.compile_block(dbt, m, &tb).ok()
                }
                compiled => compiled.ok(),
            },
        };
        match host {
            // Inline-cache slots naming this block can now hit natively.
            Some(host) if self.ic_shadow == dbt.dispatch_ic => {
                for (slot, entry) in dbt.dispatch_ic.iter().enumerate() {
                    if let Some((tag, _)) = entry.filter(|&(_, c)| c == cache) {
                        self.ctx.ic_tags[slot] = tag;
                        self.ctx.ic_vals[slot] = host;
                    }
                }
            }
            Some(_) => {}
            None => {
                self.blocks.insert(cache, None);
                self.push_alloc(self.buf.cursor_addr(), cache);
            }
        }
        host
    }

    /// [`Jit::entry`] for a session start, except that on a rewound JIT a
    /// block the trial translated after its strike compiles only when
    /// entered a second time: most of them run once.
    fn session_entry(&mut self, dbt: &Dbt, m: &Machine, cache: u64) -> Option<u64> {
        if self.lineage.is_some()
            && !self.lineage_open
            && cache >= self.watermark
            && !self.blocks.contains_key(&cache)
            && self.seen.insert(cache)
        {
            return None;
        }
        self.entry(dbt, m, cache)
    }

    /// Mirrors the engine's dispatcher inline cache into the ctx for the
    /// targets already compiled; [`Jit::entry`] fills a slot in when it
    /// compiles its target. Native tags are thus always a subset of the
    /// engine's, which is what makes native `dispatch_ic_hits` equal the
    /// interpreter's: a native miss that the engine would have hit routes
    /// through `service_exit`, which counts the hit there instead.
    fn resync_ic(&mut self, dbt: &Dbt) {
        if self.ic_shadow != dbt.dispatch_ic {
            self.mirror_ic(dbt);
        }
    }

    /// [`Jit::resync_ic`] without the shortcut for an unchanged engine cache.
    fn mirror_ic(&mut self, dbt: &Dbt) {
        for slot in 0..DISPATCH_IC_SIZE {
            let (tag, val) = match dbt.dispatch_ic[slot] {
                Some((tag, cache)) => match self.blocks.get(&cache) {
                    Some(&Some(host)) => (tag, host),
                    _ => (EMPTY_TAG, 0),
                },
                None => (EMPTY_TAG, 0),
            };
            self.ctx.ic_tags[slot] = tag;
            self.ctx.ic_vals[slot] = val;
        }
        self.ic_shadow = dbt.dispatch_ic;
    }

    /// Chains the native slot of every compiled exit site that the engine
    /// has chained (the engine may patch during interpreted stretches, and
    /// a block compiles with every slot unchained), linking its thunk when
    /// the target is compiled.
    fn chain_patched(&mut self, dbt: &Dbt, m: &Machine) {
        for i in 0..self.sites.len() {
            let cs = self.sites[i];
            if !cs.chained && dbt.exits.get(cs.exit).is_some_and(|e| e.patched) {
                self.set_chained(i, true);
                self.link(m, i);
            }
        }
    }

    /// Chains the native slot of exit `idx` once the engine has chained it.
    fn chain_exit(&mut self, dbt: &Dbt, m: &Machine, idx: usize) {
        let ExitKind::Direct { site, .. } = dbt.exits[idx].kind else {
            return;
        };
        let Some(&i) = self.site_at.get(&site) else {
            return;
        };
        if dbt.exits[idx].patched && !self.sites[i].chained {
            self.set_chained(i, true);
            self.link(m, i);
        }
    }

    /// Catches up with what the engine did outside native code (interpreted
    /// steps, or a previous run's interpreted tail): nukes on a generation
    /// change, chains the exits it patched and mirrors its inline cache.
    fn sync(&mut self, dbt: &Dbt, m: &Machine) {
        self.check_gen(dbt);
        if self.chains_shadow != dbt.stats.chains {
            self.chain_patched(dbt, m);
            self.chains_shadow = dbt.stats.chains;
        }
        self.resync_ic(dbt);
    }

    /// Runs one native session starting at host address `entry`, retiring
    /// about `remaining` instructions at most and no branch past
    /// `stop_limit` more; syncs the cpu in and out and folds the
    /// retired-work deltas into its stats.
    fn enter(&mut self, m: &mut Machine, entry: u64, remaining: u64, stop_limit: u64) {
        let ctx = &mut *self.ctx;
        for r in Reg::all() {
            ctx.regs[r.index()] = m.cpu.reg(r);
        }
        ctx.flags = host_flags_byte(m.cpu.flags()) as u64;
        ctx.exit_kind = XK_TRAP;
        ctx.exit_ip = 0;
        ctx.trap_disc = 0;
        ctx.trap_a = 0;
        ctx.trap_b = 0;
        ctx.resume_ip = 0;
        ctx.d_insts = 0;
        ctx.d_cycles = 0;
        ctx.d_branches = 0;
        ctx.d_taken = 0;
        ctx.d_traps = 0;
        ctx.d_dispatches = 0;
        ctx.d_ic_hits = 0;
        ctx.session_limit = remaining - SESSION_MARGIN;
        ctx.stop_limit = stop_limit;
        ctx.mem = &mut m.mem as *mut Memory as u64;
        ctx.cpu = &mut m.cpu as *mut Cpu as u64;
        let parts = m.mem.raw_parts();
        ctx.mem_bytes = parts.bytes as u64;
        ctx.mem_perms = parts.page_perms as u64;
        ctx.mem_dirty = parts.dirty as u64;
        ctx.mem_gens = parts.page_gens as u64;
        ctx.mem_pages = parts.pages;
        let tramp: extern "C" fn(*mut NativeCtx, u64) =
            unsafe { std::mem::transmute(self.trampoline as usize) };
        tramp(ctx as *mut NativeCtx, entry);
        ctx.mem = 0;
        ctx.cpu = 0;
        ctx.mem_bytes = 0;
        ctx.mem_perms = 0;
        ctx.mem_dirty = 0;
        ctx.mem_gens = 0;
        ctx.mem_pages = 0;
        for r in Reg::all() {
            m.cpu.set_reg(r, ctx.regs[r.index()]);
        }
        m.cpu.set_flags(flags_from_host(ctx.flags as u8));
        m.cpu.apply_native_delta(
            ctx.d_insts,
            ctx.d_cycles,
            ctx.d_branches,
            ctx.d_taken,
            ctx.d_traps,
        );
    }

    fn compile_block(
        &mut self,
        dbt: &Dbt,
        m: &Machine,
        tb: &TransBlock,
    ) -> Result<u64, CompileBail> {
        let mut insts = Vec::new();
        let mut addr = tb.cache_start;
        while addr < tb.cache_end {
            let bytes = m.mem.fetch(addr).map_err(|_| CompileBail::Unsupported)?;
            let inst = Inst::decode(&bytes).map_err(|_| CompileBail::Unsupported)?;
            insts.push((addr, inst));
            addr += INST_SIZE_U64;
        }
        if insts.len() > MAX_BLOCK_CACHE_INSTS {
            return Err(CompileBail::Unsupported);
        }
        // The block's direct exit sites, chained or not.
        let exits: Vec<(u64, usize)> = (tb.exits.0 as usize..tb.exits.1 as usize)
            .filter_map(|idx| match dbt.exits[idx].kind {
                ExitKind::Direct { site, .. } => Some((site, idx)),
                _ => None,
            })
            .collect();
        let exit_at = |addr: u64| exits.iter().find(|&&(site, _)| site == addr).map(|&(_, i)| i);

        // Intra-block branch targets become local labels. Control inside a
        // block only runs forward or back to its head, so one pass retires
        // each branch and each chained direct exit at most once.
        let range = tb.cache_range();
        let base = self.buf.cursor_addr();
        let mut a = Asm::new(base);
        let mut labels = HashMap::new();
        let mut branches = 0u64;
        for (addr, inst) in &insts {
            match inst {
                Inst::Jmp { .. } if exit_at(*addr).is_some() => branches += 1,
                Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. } => {
                    branches += 1;
                    let t = inst.direct_target(*addr).expect("direct branch");
                    // Misaligned in-range targets deliberately get no label:
                    // they must surface as UnalignedFetch via the runtime.
                    if range.contains(&t) && (t - tb.cache_start).is_multiple_of(INST_SIZE_U64) {
                        if t <= *addr && t != tb.cache_start {
                            return Err(CompileBail::Unsupported);
                        }
                        labels.entry(t).or_insert_with(|| a.new_label());
                    }
                }
                Inst::Trap { .. } => branches += exit_at(*addr).is_some() as u64,
                _ => {}
            }
        }

        let mut b = BlockAsm {
            a,
            dbt,
            cond_tables: self.cond_tables,
            epilogue: self.epilogue,
            trap_exit: self.trap_exit,
            labels,
            pend_insts: 0,
            pend_cycles: 0,
            outl: Vec::new(),
            sites: Vec::new(),
        };

        // A jump back to the block head must re-check the budget and the
        // stop, so its label binds before the prologue.
        if let Some(l) = b.label_at(tb.cache_start) {
            b.a.bind(l);
        }
        let l_budget = b.a.new_label();
        b.a.alu_rr(Alu::Cmp, RBX, R12);
        b.a.jcc(cc::AE, l_budget);
        b.outl.push(Outl::Exit { l: l_budget, kind: XK_BUDGET, resume: tb.cache_start });
        if branches != 0 {
            let l_stop = b.a.new_label();
            b.a.lea(RAX, R14, branches as i32);
            b.a.cmp_r_mem(RAX, RBP, O_STOP_LIMIT);
            b.a.jcc(cc::A, l_stop);
            b.outl.push(Outl::Exit { l: l_stop, kind: XK_STOP, resume: tb.cache_start });
        }

        for (addr, inst) in &insts {
            if *addr != tb.cache_start {
                if let Some(l) = b.label_at(*addr) {
                    b.flush();
                    b.a.bind(l);
                }
            }
            match exit_at(*addr) {
                Some(exit) => b.emit_chain_site(*addr, exit),
                None => b.emit_inst(*addr, *inst)?,
            }
        }
        // Defensive: translator blocks always end in a terminator; if one
        // ever does not, hand the fall-through back to the runtime.
        b.flush();
        b.emit_enter_exit(tb.cache_end);
        b.drain_outlined();

        let BlockAsm { a, sites, .. } = b;
        let bytes = a.finish();
        let host = self.buf.alloc(&bytes).ok_or(CompileBail::Full)?;
        debug_assert_eq!(host, base);
        self.blocks.insert(tb.cache_start, Some(host));
        for cs in sites {
            self.site_at.insert(cs.site, self.sites.len());
            self.sites.push(cs);
        }
        let first_site = self.allocs.last().map_or(0, |a| a.sites_end);
        self.push_alloc(host, tb.cache_start);
        for i in first_site..self.sites.len() {
            if dbt.exits[self.sites[i].exit].patched {
                self.set_chained(i, true);
                self.link(m, i);
            }
        }
        self.compiles += 1;
        Ok(host)
    }
}

/// The cache word at `addr` in `m`'s memory.
fn cache_word(m: &Machine, addr: u64) -> u64 {
    u64::from_le_bytes(m.mem.peek(addr, 8).try_into().expect("8 bytes"))
}

/// Which memory helper an outlined slow path calls.
#[derive(Clone, Copy)]
enum MemOp {
    Read,
    Read8,
    Write,
    Write8,
    Push,
    Pop,
}

/// Outlined code emitted after the straight-line block body.
enum Outl {
    /// Conditional-branch taken arm: accounting, then transfer.
    Taken { l: Label, cost: u64, target: u64 },
    /// Hand control to the runtime at cache address `target`.
    Enter { l: Label, target: u64 },
    /// Division-by-zero trap for the `Div` at cache address `ip`.
    Div0 { l: Label, ip: u64 },
    /// End the session with exit `kind` (budget exhausted, or the block
    /// could cross the stop); resume at cache address `resume`.
    Exit { l: Label, kind: u64, resume: u64 },
    /// Memory-access slow path: the inline page check failed (straddle,
    /// out of range, or permission), so call the helper that reproduces
    /// the interpreter's full semantics. `pend_*` snapshot the accounting
    /// pending at the access site: the slow path flushes it before the
    /// call (so a trap exits with prior instructions retired) and undoes
    /// the flush on success (the main line's own flush still runs later).
    MemSlow { l: Label, done: Label, op: MemOp, ip: u64, pend_insts: u64, pend_cycles: u64 },
}

/// Single-block code generator. Accounting is batched: straight-line
/// instruction/cycle counts accumulate at compile time (`pend_*`) and flush
/// to the delta registers before anything that can leave the block.
struct BlockAsm<'a> {
    a: Asm,
    dbt: &'a Dbt,
    cond_tables: u64,
    epilogue: u64,
    trap_exit: u64,
    /// Local labels by cache address.
    labels: HashMap<u64, Label>,
    pend_insts: u64,
    pend_cycles: u64,
    outl: Vec<Outl>,
    sites: Vec<ChainSite>,
}

fn rslot(r: Reg) -> i32 {
    O_REGS + (r.index() as i32) * 8
}

impl BlockAsm<'_> {
    /// The local label bound at cache address `addr`, if any.
    fn label_at(&self, addr: u64) -> Option<Label> {
        self.labels.get(&addr).copied()
    }

    fn pend(&mut self, inst: &Inst, taken: bool) {
        self.pend_insts += 1;
        self.pend_cycles += cost(inst, taken);
    }

    fn flush(&mut self) {
        if self.pend_insts != 0 {
            self.a.alu_ri(Alu::Add, RBX, self.pend_insts as i32);
            self.pend_insts = 0;
        }
        if self.pend_cycles != 0 {
            self.a.alu_ri(Alu::Add, R15, self.pend_cycles as i32);
            self.pend_cycles = 0;
        }
    }

    fn mov_imm(&mut self, r: HostReg, v: u64) {
        if v <= i32::MAX as u64 {
            self.a.mov_ri32(r, v as i32);
        } else {
            self.a.mov_ri64(r, v);
        }
    }

    fn store_ctx_imm(&mut self, off: i32, v: u64) {
        if v <= i32::MAX as u64 {
            self.a.store_imm32(RBP, off, v as i32);
        } else {
            self.a.mov_ri64(RAX, v);
            self.a.store(RBP, off, RAX);
        }
    }

    fn call_helper(&mut self, f: usize) {
        self.a.mov_ri64(RAX, f as u64);
        self.a.call_r(RAX);
    }

    /// After a helper call: route to the trap-exit stub if it faulted.
    fn trap_check(&mut self) {
        self.a.cmp_mem_imm8(RBP, O_TRAP_DISC, 0);
        self.a.jcc_abs(cc::NE, self.trap_exit);
    }

    /// Inline reproduction of [`Memory::in_page`] + the permission test:
    /// guest address in `rcx`, page index left in `rax`, branches to
    /// `l_slow` whenever the interpreter's general (slow) checks must run.
    /// Clobbers `rax`/`rsi`; preserves `rcx` (address) and `rdx` (value).
    fn emit_mem_check(&mut self, wide: bool, write: bool, l_slow: Label) {
        self.a.mov_rr(RAX, RCX);
        self.a.shift_imm(Shift::Shr, RAX, PAGE_SHIFT);
        self.a.cmp_r_mem(RAX, RBP, O_MEM_PAGES);
        self.a.jcc(cc::AE, l_slow);
        if wide {
            // An 8-byte access must not straddle the page boundary.
            self.a.mov_rr(RSI, RCX);
            self.a.alu_ri(Alu::And, RSI, (cfed_sim::PAGE_SIZE - 1) as i32);
            self.a.alu_ri(Alu::Cmp, RSI, MAX_U64_OFFSET);
            self.a.jcc(cc::A, l_slow);
        }
        self.a.load(RSI, RBP, O_MEM_PERMS);
        self.a.test_mem8_imm2(RSI, RAX, if write { 2 } else { 1 });
        self.a.jcc(cc::E, l_slow);
    }

    /// The write half of the fast path: dirty-bit and page-generation
    /// bookkeeping (bit-for-bit what [`Memory::write_u64`] does in-page),
    /// then the store itself. Page index in `rax`, address in `rcx`,
    /// value in `rdx`.
    fn emit_mem_commit_write(&mut self, wide: bool) {
        // Dirty bit: `dirty[page / 64] |= 1 << (page % 64)`.
        self.a.mov_rr(RSI, RAX);
        self.a.shift_imm(Shift::Shr, RSI, 6);
        self.a.shift_imm(Shift::Shl, RSI, 3);
        self.a.xor_r32(RDI);
        self.a.bts_rr(RDI, RAX);
        self.a.load(R8, RBP, O_MEM_DIRTY);
        self.a.or_mem2_r(R8, RSI, RDI);
        self.a.load(RSI, RBP, O_MEM_GENS);
        self.a.shift_imm(Shift::Shl, RAX, 3);
        self.a.inc_mem2(RSI, RAX, 0);
        self.a.load(RSI, RBP, O_MEM_BYTES);
        if wide {
            self.a.store2(RSI, RCX, 0, RDX);
        } else {
            self.a.store8_2(RSI, RCX, RDX);
        }
    }

    /// The read half of the fast path: address in `rcx`, value to `rax`.
    fn emit_mem_read(&mut self, wide: bool) {
        self.a.load(RSI, RBP, O_MEM_BYTES);
        if wide {
            self.a.load2(RAX, RSI, RCX, 0);
        } else {
            self.a.load8_2(RAX, RSI, RCX);
        }
    }

    /// Queues the outlined slow path for a memory access at cache address
    /// `ip`, snapshotting the accounting pending at this point.
    fn queue_mem_slow(&mut self, l: Label, done: Label, op: MemOp, ip: u64) {
        self.outl.push(Outl::MemSlow {
            l,
            done,
            op,
            ip,
            pend_insts: self.pend_insts,
            pend_cycles: self.pend_cycles,
        });
    }

    /// Sets host `NE` exactly when `cond.eval(guest flags)` holds.
    fn cond_test(&mut self, cond: Cond) {
        self.a.load_flags_al(O_FLAGS);
        let table = cond.encoding() as usize * COND_TABLE_STRIDE;
        self.a.mov_ri64(RCX, self.cond_tables + table as u64);
        self.a.cmp_mem8_imm2(RCX, RAX, 0);
    }

    /// Captures add/sub/cmp/neg-style flags (all six) from the host ALU op
    /// that just executed. Must run before anything clobbers host flags.
    fn capture_full(&mut self) {
        self.a.seto(RAX);
        self.a.lahf();
        self.a.shl_al_imm(5);
        self.a.or_ah_al();
        self.a.store_ah_rbp(O_FLAGS);
    }

    /// Captures logic-style flags (ZF/SF/PF of the value, rest zero) from
    /// the host flags as currently set.
    fn capture_logic(&mut self) {
        self.a.lahf();
        self.a.and_ah_imm(0xC4);
        self.a.store_ah_rbp(O_FLAGS);
    }

    /// Branch retirement accounting, written directly (never pending).
    fn branch_acct(&mut self, cycles: u64, taken: bool) {
        self.a.alu_ri(Alu::Add, RBX, 1);
        self.a.alu_ri(Alu::Add, R15, cycles as i32);
        self.a.alu_ri(Alu::Add, R14, 1);
        if taken {
            self.a.alu_ri(Alu::Add, R13, 1);
        }
    }

    /// Emits a transfer of control to cache address `target`: a jump
    /// inside the block, or a hand-back to the runtime. Only direct exits
    /// (chain sites) leave a block for another block, so host code never
    /// jumps into another block's code but through a chain site.
    fn transfer(&mut self, target: u64) {
        if let Some(l) = self.label_at(target) {
            self.a.jmp(l);
        } else {
            let l = self.a.new_label();
            self.a.jmp(l);
            self.outl.push(Outl::Enter { l, target });
        }
    }

    /// Emits an inline `XK_ENTER` exit: the runtime continues at `target`.
    fn emit_enter_exit(&mut self, target: u64) {
        self.store_ctx_imm(O_RESUME_IP, target);
        self.a.store_imm32(RBP, O_EXIT_KIND, XK_ENTER as i32);
        self.a.jmp_abs(self.epilogue);
    }

    /// Emits a trap stub: records the trap and exits the session.
    fn emit_trap_exit(&mut self, disc: u64, a_val: u64, b_val: u64, ip: u64) {
        self.store_ctx_imm(O_TRAP_A, a_val);
        if b_val != 0 {
            self.store_ctx_imm(O_TRAP_B, b_val);
        }
        self.store_ctx_imm(O_TRAP_DISC, disc);
        self.store_ctx_imm(O_EXIT_IP, ip);
        self.a.jmp_abs(self.trap_exit);
    }

    fn drain_outlined(&mut self) {
        while let Some(o) = self.outl.pop() {
            match o {
                Outl::Taken { l, cost, target } => {
                    self.a.bind(l);
                    self.branch_acct(cost, true);
                    self.transfer(target);
                }
                Outl::Enter { l, target } => {
                    self.a.bind(l);
                    self.emit_enter_exit(target);
                }
                Outl::Div0 { l, ip } => {
                    self.a.bind(l);
                    self.emit_trap_exit(2, ip, 0, ip);
                }
                Outl::Exit { l, kind, resume } => {
                    self.a.bind(l);
                    self.store_ctx_imm(O_EXIT_IP, resume);
                    self.a.store_imm32(RBP, O_EXIT_KIND, kind as i32);
                    self.a.jmp_abs(self.epilogue);
                }
                Outl::MemSlow { l, done, op, ip, pend_insts, pend_cycles } => {
                    self.a.bind(l);
                    if pend_insts != 0 {
                        self.a.alu_ri(Alu::Add, RBX, pend_insts as i32);
                    }
                    if pend_cycles != 0 {
                        self.a.alu_ri(Alu::Add, R15, pend_cycles as i32);
                    }
                    self.a.mov_rr(RDI, RBP);
                    match op {
                        MemOp::Read | MemOp::Read8 => {
                            self.a.mov_rr(RSI, RCX);
                            self.mov_imm(RDX, ip);
                            let f = if matches!(op, MemOp::Read) {
                                nh_read as *const () as usize
                            } else {
                                nh_read8 as *const () as usize
                            };
                            self.call_helper(f);
                        }
                        MemOp::Write | MemOp::Write8 => {
                            self.a.mov_rr(RSI, RCX);
                            self.mov_imm(RCX, ip);
                            let f = if matches!(op, MemOp::Write) {
                                nh_write as *const () as usize
                            } else {
                                nh_write8 as *const () as usize
                            };
                            self.call_helper(f);
                        }
                        MemOp::Push => {
                            self.a.mov_rr(RSI, RDX);
                            self.mov_imm(RDX, ip);
                            self.call_helper(nh_push as *const () as usize);
                        }
                        MemOp::Pop => {
                            self.mov_imm(RSI, ip);
                            self.call_helper(nh_pop as *const () as usize);
                        }
                    }
                    self.trap_check();
                    if pend_insts != 0 {
                        self.a.alu_ri(Alu::Sub, RBX, pend_insts as i32);
                    }
                    if pend_cycles != 0 {
                        self.a.alu_ri(Alu::Sub, R15, pend_cycles as i32);
                    }
                    self.a.jmp(done);
                }
            }
        }
    }

    /// Emits direct exit `exit`, whose site is at cache address `addr`, as
    /// a chain site (see [`ChainSite`]), whatever its state in the engine.
    fn emit_chain_site(&mut self, addr: u64, exit: usize) {
        self.flush();
        let slot = self.a.here_abs();
        let l_stub = self.a.new_label();
        self.a.jmp(l_stub);
        let thunk = self.a.here_abs();
        self.branch_acct(cost(&Inst::Jmp { offset: 0 }, true), true);
        let thunk_jmp = self.a.here_abs();
        let l_link = self.a.new_label();
        self.a.jmp(l_link);
        self.a.bind(l_stub);
        let stub = self.a.here_abs();
        let Inst::Trap { code } = Dbt::exit_trap(exit) else {
            unreachable!("exit traps are traps")
        };
        self.emit_trap_exit(1, addr, code as u64, addr);
        self.a.bind(l_link);
        let link = self.a.here_abs();
        self.store_ctx_imm(O_EXIT_IP, addr);
        self.a.store_imm32(RBP, O_EXIT_KIND, XK_LINK as i32);
        self.a.jmp_abs(self.epilogue);
        let (chained, linked) = (false, None);
        self.sites.push(ChainSite {
            site: addr,
            exit,
            slot,
            thunk,
            thunk_jmp,
            stub,
            link,
            chained,
            linked,
        });
    }

    /// Emits a cache `Trap` that is not a direct exit site: an indirect
    /// exit, an abort or a guest trap.
    fn emit_trap_site(&mut self, addr: u64, code: u32) {
        self.flush();
        match self.dbt.exit_index(code).map(|i| self.dbt.exits[i].kind) {
            Some(ExitKind::Indirect) => {
                // Inline-cache dispatch: tag-match on the guest target.
                self.a.load(RAX, RBP, rslot(regs::ITARGET));
                self.a.mov_rr(RCX, RAX);
                self.a.shift_imm(Shift::Shr, RCX, 3);
                self.a.and_ecx_imm8(15);
                self.a.shift_imm(Shift::Shl, RCX, 3);
                self.a.cmp_r_mem2(RAX, RBP, RCX, O_IC_TAGS);
                let l_miss = self.a.new_label();
                self.a.jcc(cc::NE, l_miss);
                // Hit: the interpreter's dispatch trap + service accounting.
                self.a.inc_mem(RBP, O_D_TRAPS);
                self.a.alu_ri(Alu::Add, R15, DEFAULT_DISPATCH_CYCLES as i32);
                self.a.inc_mem(RBP, O_D_DISPATCHES);
                self.a.inc_mem(RBP, O_D_IC_HITS);
                self.a.jmp_mem2(RBP, RCX, O_IC_VALS);
                self.a.bind(l_miss);
                self.emit_trap_exit(1, addr, code as u64, addr);
            }
            // Aborts and plain guest traps surface through the runtime.
            _ => self.emit_trap_exit(1, addr, code as u64, addr),
        }
    }

    fn emit_alu(&mut self, addr: u64, inst: &Inst, op: AluOp, dst: Reg) {
        match op {
            AluOp::Add | AluOp::Sub => {
                let host = if op == AluOp::Add { Alu::Add } else { Alu::Sub };
                self.a.alu_rr(host, RAX, RCX);
                self.a.store(RBP, rslot(dst), RAX);
                self.capture_full();
                self.pend(inst, false);
            }
            AluOp::Cmp => {
                self.a.alu_rr(Alu::Cmp, RAX, RCX);
                self.capture_full();
                self.pend(inst, false);
            }
            AluOp::And | AluOp::Or | AluOp::Xor => {
                let host = match op {
                    AluOp::And => Alu::And,
                    AluOp::Or => Alu::Or,
                    _ => Alu::Xor,
                };
                self.a.alu_rr(host, RAX, RCX);
                self.a.store(RBP, rslot(dst), RAX);
                self.capture_logic();
                self.pend(inst, false);
            }
            AluOp::Test => {
                self.a.test_rr(RAX, RCX);
                self.capture_logic();
                self.pend(inst, false);
            }
            AluOp::Shl | AluOp::Shr | AluOp::Sar => {
                let host = match op {
                    AluOp::Shl => Shift::Shl,
                    AluOp::Shr => Shift::Shr,
                    _ => Shift::Sar,
                };
                // Count 0 keeps the value and produces logic-style flags of
                // it (the ISA contract; host shifts leave flags unchanged).
                self.a.and_ecx_imm8(63);
                let l_zero = self.a.new_label();
                let l_done = self.a.new_label();
                self.a.jcc_short(cc::E, l_zero);
                self.a.shift_cl(host, RAX);
                self.a.store(RBP, rslot(dst), RAX);
                self.a.lahf();
                self.a.and_ah_imm(0xC5); // keep CF too
                self.a.jmp_short(l_done);
                self.a.bind(l_zero);
                self.a.store(RBP, rslot(dst), RAX);
                self.a.test_rr(RAX, RAX);
                self.a.lahf();
                self.a.and_ah_imm(0xC4);
                self.a.bind(l_done);
                self.a.store_ah_rbp(O_FLAGS);
                self.pend(inst, false);
            }
            AluOp::Mul => {
                // imul's CF=OF is exactly the ISA's signed-overflow bit;
                // ZF/SF/PF are recomputed from the result.
                self.a.imul_rr(RAX, RCX);
                self.a.seto(RCX);
                self.a.store(RBP, rslot(dst), RAX);
                self.a.test_rr(RAX, RAX);
                self.a.lahf();
                self.a.and_ah_imm(0xC4);
                self.a.movzx_ecx_cl();
                self.a.imul_ecx_imm8(0x21); // CF | OF bit positions
                self.a.or_ah_cl();
                self.a.store_ah_rbp(O_FLAGS);
                self.pend(inst, false);
            }
            AluOp::Div => {
                self.flush();
                self.a.test_rr(RCX, RCX);
                let l_zero = self.a.new_label();
                self.a.jcc(cc::E, l_zero);
                self.outl.push(Outl::Div0 { l: l_zero, ip: addr });
                self.a.xor_r32(RDX);
                self.a.div(RCX);
                self.a.store(RBP, rslot(dst), RAX);
                self.a.test_rr(RAX, RAX);
                self.a.lahf();
                self.a.and_ah_imm(0xC4);
                self.a.store_ah_rbp(O_FLAGS);
                self.pend(inst, false);
            }
        }
    }

    fn emit_inst(&mut self, addr: u64, inst: Inst) -> Result<(), CompileBail> {
        match inst {
            Inst::Nop => self.pend(&inst, false),
            Inst::Halt => {
                self.pend(&inst, false);
                self.flush();
                self.store_ctx_imm(O_EXIT_IP, addr + INST_SIZE_U64);
                self.a.store_imm32(RBP, O_EXIT_KIND, XK_HALT as i32);
                self.a.jmp_abs(self.epilogue);
            }
            Inst::Out { src } => {
                self.flush();
                self.a.mov_rr(RDI, RBP);
                self.a.load(RSI, RBP, rslot(src));
                self.call_helper(nh_out as *const () as usize);
                self.pend(&inst, false);
            }
            Inst::Trap { code } => self.emit_trap_site(addr, code),
            Inst::MovRR { dst, src } => {
                self.a.load(RAX, RBP, rslot(src));
                self.a.store(RBP, rslot(dst), RAX);
                self.pend(&inst, false);
            }
            Inst::MovRI { dst, imm } => {
                self.a.mov_ri32(RAX, imm);
                self.a.store(RBP, rslot(dst), RAX);
                self.pend(&inst, false);
            }
            Inst::Ld { dst, base, disp } | Inst::Ld8 { dst, base, disp } => {
                let wide = matches!(inst, Inst::Ld { .. });
                self.a.load(RCX, RBP, rslot(base));
                if disp != 0 {
                    self.a.lea(RCX, RCX, disp);
                }
                let l_slow = self.a.new_label();
                let l_done = self.a.new_label();
                self.emit_mem_check(wide, false, l_slow);
                self.emit_mem_read(wide);
                self.a.bind(l_done);
                self.a.store(RBP, rslot(dst), RAX);
                let op = if wide { MemOp::Read } else { MemOp::Read8 };
                self.queue_mem_slow(l_slow, l_done, op, addr);
                self.pend(&inst, false);
            }
            Inst::St { base, src, disp } | Inst::St8 { base, src, disp } => {
                let wide = matches!(inst, Inst::St { .. });
                self.a.load(RCX, RBP, rslot(base));
                if disp != 0 {
                    self.a.lea(RCX, RCX, disp);
                }
                self.a.load(RDX, RBP, rslot(src));
                let l_slow = self.a.new_label();
                let l_done = self.a.new_label();
                self.emit_mem_check(wide, true, l_slow);
                self.emit_mem_commit_write(wide);
                self.a.bind(l_done);
                let op = if wide { MemOp::Write } else { MemOp::Write8 };
                self.queue_mem_slow(l_slow, l_done, op, addr);
                self.pend(&inst, false);
            }
            Inst::Push { src } => {
                self.a.load(RCX, RBP, rslot(Reg::SP));
                self.a.lea(RCX, RCX, -8);
                self.a.load(RDX, RBP, rslot(src));
                let l_slow = self.a.new_label();
                let l_done = self.a.new_label();
                self.emit_mem_check(true, true, l_slow);
                self.emit_mem_commit_write(true);
                self.a.store(RBP, rslot(Reg::SP), RCX);
                self.a.bind(l_done);
                self.queue_mem_slow(l_slow, l_done, MemOp::Push, addr);
                self.pend(&inst, false);
            }
            Inst::Pop { dst } => {
                self.a.load(RCX, RBP, rslot(Reg::SP));
                let l_slow = self.a.new_label();
                let l_done = self.a.new_label();
                self.emit_mem_check(true, false, l_slow);
                self.emit_mem_read(true);
                self.a.lea(RCX, RCX, 8);
                self.a.store(RBP, rslot(Reg::SP), RCX);
                self.a.bind(l_done);
                self.a.store(RBP, rslot(dst), RAX);
                self.queue_mem_slow(l_slow, l_done, MemOp::Pop, addr);
                self.pend(&inst, false);
            }
            Inst::CMov { cc: cond, dst, src } => {
                self.cond_test(cond);
                self.a.load(RAX, RBP, rslot(src));
                self.a.load(RDX, RBP, rslot(dst));
                self.a.cmovcc(cc::NE, RDX, RAX);
                self.a.store(RBP, rslot(dst), RDX);
                self.pend(&inst, false);
            }
            Inst::Alu { op, dst, src } => {
                self.a.load(RAX, RBP, rslot(dst));
                self.a.load(RCX, RBP, rslot(src));
                self.emit_alu(addr, &inst, op, dst);
            }
            Inst::AluI { op, dst, imm } => {
                self.a.load(RAX, RBP, rslot(dst));
                self.a.mov_ri32(RCX, imm);
                self.emit_alu(addr, &inst, op, dst);
            }
            Inst::Neg { dst } => {
                self.a.load(RAX, RBP, rslot(dst));
                self.a.neg(RAX);
                self.a.store(RBP, rslot(dst), RAX);
                self.capture_full();
                self.pend(&inst, false);
            }
            Inst::Not { dst } => {
                self.a.load(RAX, RBP, rslot(dst));
                self.a.not(RAX);
                self.a.store(RBP, rslot(dst), RAX);
                self.a.test_rr(RAX, RAX);
                self.capture_logic();
                self.pend(&inst, false);
            }
            Inst::Lea { dst, base, disp } => {
                self.a.load(RAX, RBP, rslot(base));
                self.a.lea(RAX, RAX, disp);
                self.a.store(RBP, rslot(dst), RAX);
                self.pend(&inst, false);
            }
            Inst::Lea2 { dst, base, index, disp } => {
                self.a.load(RAX, RBP, rslot(base));
                self.a.load(RCX, RBP, rslot(index));
                self.a.lea2(RAX, RAX, RCX, disp);
                self.a.store(RBP, rslot(dst), RAX);
                self.pend(&inst, false);
            }
            Inst::LeaSub { dst, base, index, disp } => {
                // base - index + disp == base + !index + (disp + 1), which
                // keeps the whole thing flag-free lea arithmetic.
                self.a.load(RCX, RBP, rslot(index));
                self.a.not(RCX);
                self.a.load(RAX, RBP, rslot(base));
                if disp == i32::MAX {
                    self.a.lea2(RAX, RAX, RCX, disp);
                    self.a.lea(RAX, RAX, 1);
                } else {
                    self.a.lea2(RAX, RAX, RCX, disp + 1);
                }
                self.a.store(RBP, rslot(dst), RAX);
                self.pend(&inst, false);
            }
            Inst::Jmp { .. } => {
                let target = inst.direct_target(addr).expect("jmp target");
                self.flush();
                self.branch_acct(cost(&inst, true), true);
                self.transfer(target);
            }
            Inst::Jcc { cc: cond, .. } => {
                let target = inst.direct_target(addr).expect("jcc target");
                self.flush();
                self.cond_test(cond);
                let l_taken = self.a.new_label();
                self.a.jcc(cc::NE, l_taken);
                self.branch_acct(cost(&inst, false), false);
                self.outl.push(Outl::Taken { l: l_taken, cost: cost(&inst, true), target });
            }
            Inst::JRz { src, .. } | Inst::JRnz { src, .. } => {
                let target = inst.direct_target(addr).expect("jr target");
                self.flush();
                self.a.load(RAX, RBP, rslot(src));
                self.a.test_rr(RAX, RAX);
                let l_taken = self.a.new_label();
                let host_cc = if matches!(inst, Inst::JRz { .. }) { cc::E } else { cc::NE };
                self.a.jcc(host_cc, l_taken);
                self.branch_acct(cost(&inst, false), false);
                self.outl.push(Outl::Taken { l: l_taken, cost: cost(&inst, true), target });
            }
            // Translator output never contains raw calls/returns (they are
            // rewritten into glue + exit sites); refuse rather than guess.
            Inst::Call { .. } | Inst::CallR { .. } | Inst::JmpR { .. } | Inst::Ret => {
                return Err(CompileBail::Unsupported)
            }
        }
        Ok(())
    }
}

/// Whether this build/host/environment can run the native backend at all
/// (`x86-64 Linux`, and `CFED_NO_NATIVE` not set to a truthy value).
pub fn native_enabled() -> bool {
    let platform = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    let disabled =
        std::env::var("CFED_NO_NATIVE").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    platform && !disabled
}

/// A [`Dbt`] with a native x86-64 execution backend.
///
/// Translation, chaining decisions, dispatch, SMC handling and all
/// statistics remain the engine's; this wrapper only swaps the *execution*
/// of translated cache code from the fused interpreter to compiled host
/// code. Falls back to the plain engine wholesale when the platform lacks
/// RWX code buffers, `CFED_NO_NATIVE` is set, or a tracer is attached —
/// results are bit-identical either way.
///
/// # Examples
///
/// ```
/// use cfed_dbt::{NativeDbt, NullInstrumenter, UpdateStyle};
/// use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
/// use cfed_sim::{ExitReason, Machine};
///
/// let code = encode_all(&[
///     Inst::MovRI { dst: Reg::R0, imm: 5 },
///     Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
///     Inst::Jcc { cc: Cond::Ne, offset: -16 },
///     Inst::Halt,
/// ]);
/// let mut m = Machine::load(&code, &[], 0);
/// let mut dbt = NativeDbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
/// assert_eq!(dbt.run(&mut m, 10_000), ExitReason::Halted { code: 0 });
/// ```
pub struct NativeDbt {
    dbt: Dbt,
    jit: Option<Box<Jit>>,
}

impl NativeDbt {
    /// Creates the engine; native execution is enabled when
    /// [`native_enabled`] says the platform and environment allow it.
    pub fn new(instr: Box<dyn Instrumenter>, style: UpdateStyle, m: &mut Machine) -> NativeDbt {
        Self::with_native(instr, style, m, native_enabled())
    }

    /// As [`NativeDbt::new`] with an explicit native on/off switch (used by
    /// harnesses that must not depend on ambient environment variables).
    pub fn with_native(
        instr: Box<dyn Instrumenter>,
        style: UpdateStyle,
        m: &mut Machine,
        native: bool,
    ) -> NativeDbt {
        Self::wrap_with(Dbt::new(instr, style, m), native)
    }

    /// Wraps an engine that has already run, such as one restored from a
    /// checkpoint together with its machine; native execution is enabled
    /// when [`native_enabled`] allows it. No translation is redone: blocks
    /// compile to host code on first use.
    pub fn wrap(dbt: Dbt) -> NativeDbt {
        Self::wrap_with(dbt, native_enabled())
    }

    /// As [`NativeDbt::wrap`] with an explicit native on/off switch: with
    /// it off, every burst is [`Dbt::burst`] itself.
    pub fn wrap_with(dbt: Dbt, native: bool) -> NativeDbt {
        let jit = if native { Jit::acquire(&dbt) } else { None };
        NativeDbt { dbt, jit }
    }

    /// Wraps `dbt`, restored together with `m` from a checkpoint of the run
    /// `lineage` names, on this thread's JIT, keeping the host code it
    /// compiled for earlier checkpoints of that run wherever it is still
    /// right for this one (DESIGN "Native backend"). Every engine rewound
    /// under one `lineage` must be a checkpoint of one deterministic run:
    /// a `Dbt` clone and the machine captured with it, or the run's start.
    /// Native execution is enabled when [`native_enabled`] allows it.
    pub fn rewind(dbt: Dbt, m: &Machine, lineage: u64) -> NativeDbt {
        let jit = native_enabled().then(Jit::take_spare).flatten().map(|mut jit| {
            jit.rewind(&dbt, m, lineage);
            jit
        });
        NativeDbt { dbt, jit }
    }

    /// `true` when translated blocks actually execute as host code.
    pub fn is_native(&self) -> bool {
        self.jit.is_some()
    }

    /// The underlying engine (stats, block table, cache region...).
    pub fn dbt(&self) -> &Dbt {
        &self.dbt
    }

    /// Declares that since [`NativeDbt::rewind`] the machine has run
    /// exactly as the lineage's run did from that checkpoint, so every
    /// block the engine translated since is one that run translated at the
    /// same place, and its host code may survive later rewinds. A trial
    /// calls this at its strike point, before it corrupts anything. No-op
    /// for an engine that was not rewound.
    pub fn mark_lineage(&mut self) {
        if let Some(jit) = &mut self.jit {
            jit.mark_lineage(&self.dbt);
        }
    }

    /// The underlying engine, for [`Dbt::step`]s between bursts; the next
    /// burst catches up with whatever the steps translated, chained or
    /// flushed.
    pub fn dbt_mut(&mut self) -> &mut Dbt {
        &mut self.dbt
    }

    /// Blocks compiled to host code since this engine was wrapped or
    /// rewound (0 without native execution).
    pub fn native_compiles(&self) -> u64 {
        self.jit.as_ref().map_or(0, |jit| jit.compiles)
    }

    /// Attaches a telemetry handle to the underlying engine
    /// ([`Dbt::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.dbt.set_telemetry(telemetry);
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> crate::engine::DbtStats {
        self.dbt.stats()
    }

    /// Runs until halt, surfaced trap, or `max_insts` retired instructions,
    /// bit-identical to [`Dbt::run`] on the same machine.
    pub fn run(&mut self, m: &mut Machine, max_insts: u64) -> ExitReason {
        if self.jit.is_none() || m.tracer.is_some() {
            // Tracing wants per-instruction visibility; stay interpreted.
            return self.dbt.run(m, max_insts);
        }
        let start = m.cpu.stats().insts;
        loop {
            let used = m.cpu.stats().insts - start;
            if used >= max_insts {
                self.dbt.emit_stats();
                return ExitReason::StepLimit;
            }
            let step = self.burst(m, max_insts - used, u64::MAX);
            if let Some(end) = self.dbt.run_end(m, step) {
                return end;
            }
        }
    }

    /// [`Dbt::burst`] on native code: runs at most `max_insts`
    /// instructions, ending in front of a branch once `stop_at` branches
    /// have retired (`u64::MAX`: never), with the trap that ends it
    /// serviced. Driven to the same stop, it leaves the machine, its
    /// `ExecStats` and output, and the engine's [`DbtStats`](crate::DbtStats)
    /// exactly as `Dbt::burst` does. A compiled block runs natively only
    /// when it cannot retire a branch past the stop; the block that could,
    /// and a budget tail under 4096 instructions, run on the fused
    /// engine. Like `Dbt::burst` it may return `Continue` before either
    /// limit, so callers loop. Without native execution, or with a tracer
    /// attached, this is `Dbt::burst` itself.
    pub fn burst(&mut self, m: &mut Machine, max_insts: u64, stop_at: u64) -> DbtStep {
        let NativeDbt { dbt, jit } = self;
        let Some(jit) = jit.as_mut().filter(|_| m.tracer.is_none()) else {
            return dbt.burst(m, max_insts, stop_at);
        };
        jit.sync(dbt, m);
        let start = m.cpu.stats().insts;
        loop {
            let used = m.cpu.stats().insts - start;
            if used >= max_insts {
                return DbtStep::Continue;
            }
            let branches = m.cpu.stats().branches;
            if branches >= stop_at && m.peek_inst().is_ok_and(|inst| inst.is_branch()) {
                return DbtStep::Continue;
            }
            let remaining = max_insts - used;
            if remaining < NATIVE_MIN_BUDGET {
                // Fused tail: lands the step limit on the exact instruction
                // boundary Dbt::burst would.
                return dbt.burst(m, remaining, stop_at);
            }
            let ip = m.cpu.ip();
            let Some(entry) = jit.session_entry(dbt, m, ip) else {
                // Not at a compiled block head (the guest entry before
                // attaching, a mid-block resume, a chained exit or dispatch
                // site, the error stub, an uncompilable or cold block): run
                // the rest of the block on the fused engine, bit-identical
                // by the engine contract, and re-evaluate.
                let step = dbt.step(m);
                if step != DbtStep::Continue {
                    return step;
                }
                jit.sync(dbt, m);
                continue;
            };
            jit.enter(m, entry, remaining, stop_at.saturating_sub(branches));
            dbt.stats.dispatches += jit.ctx.d_dispatches;
            dbt.stats.dispatch_ic_hits += jit.ctx.d_ic_hits;
            let step = match jit.ctx.exit_kind {
                XK_HALT => {
                    m.cpu.set_ip(jit.ctx.exit_ip);
                    m.cpu.set_halted();
                    DbtStep::Halted
                }
                XK_BUDGET => {
                    m.cpu.set_ip(jit.ctx.exit_ip);
                    DbtStep::Continue
                }
                XK_STOP => {
                    // The fused engine stops on the exact branch.
                    m.cpu.set_ip(jit.ctx.exit_ip);
                    let used = m.cpu.stats().insts - start;
                    let step = dbt.burst(m, max_insts - used, stop_at);
                    jit.sync(dbt, m);
                    step
                }
                XK_ENTER => {
                    m.cpu.set_ip(jit.ctx.resume_ip);
                    DbtStep::Continue
                }
                XK_LINK => {
                    // The thunk retired the site's patched jump: continue at
                    // its target, and link the thunk once that is compiled.
                    let site = jit.site_at[&jit.ctx.exit_ip];
                    let target = jit.link(m, site).expect("a chained site holds the engine's jump");
                    m.cpu.set_ip(target);
                    DbtStep::Continue
                }
                XK_TRAP => {
                    m.cpu.set_ip(jit.ctx.exit_ip);
                    // The interpreter counts the trap when raising it.
                    m.cpu.apply_native_delta(0, 0, 0, 0, 1);
                    let trap = decode_trap(jit.ctx.trap_disc, jit.ctx.trap_a, jit.ctx.trap_b);
                    let exit_idx = match trap {
                        Trap::Software { code, .. } => dbt.exit_index(code),
                        _ => None,
                    };
                    let gen_before = dbt.gen_key();
                    let step = dbt.handle_trap(m, trap);
                    if step == DbtStep::Continue {
                        jit.check_gen(dbt);
                        if dbt.gen_key() == gen_before {
                            if let Some(idx) = exit_idx {
                                jit.chain_exit(dbt, m, idx);
                            }
                        }
                        jit.chains_shadow = dbt.stats.chains;
                        jit.resync_ic(dbt);
                    }
                    step
                }
                kind => unreachable!("bad native exit kind {kind}"),
            };
            if step != DbtStep::Continue {
                return step;
            }
        }
    }
}

impl Drop for NativeDbt {
    fn drop(&mut self) {
        if let Some(jit) = self.jit.take() {
            jit.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_sim::trap_codes;

    #[test]
    fn flags_byte_roundtrip() {
        for bits in 0..64u8 {
            let f = Flags::from_bits(bits);
            assert_eq!(flags_from_host(host_flags_byte(f)), f, "bits {bits:#08b}");
            // lahf always sets bit 1; the decode must not care.
            assert_eq!(flags_from_host(host_flags_byte(f) | 0b10), f);
        }
    }

    #[test]
    fn cond_tables_match_eval() {
        // The emitted `cmp byte [table + flags], 0` reads one byte per
        // condition and flags byte; verify it against Cond::eval for every
        // condition and every encoding of every guest flags value.
        let tables = cond_tables();
        assert_eq!(tables.len(), 16 * COND_TABLE_STRIDE);
        for cond in Cond::ALL {
            let base = cond.encoding() as usize * COND_TABLE_STRIDE;
            for bits in 0..64u8 {
                let f = Flags::from_bits(bits);
                for noise in [0u8, 0b10, 0b1000, 0b1010] {
                    let h = (host_flags_byte(f) | noise) as usize;
                    assert_eq!(tables[base + h], cond.eval(f) as u8, "{cond:?} flags {bits:#08b}");
                }
            }
        }
    }

    #[test]
    fn trap_encoding_roundtrip() {
        let traps = [
            Trap::Software { addr: 0x1234, code: trap_codes::CFE_DETECTED },
            Trap::Software { addr: 8, code: trap_codes::DBT_EXIT_BASE + 7 },
            Trap::DivByZero { addr: 0x40 },
            Trap::OutOfRange { addr: u64::MAX },
            Trap::PermRead { addr: 0 },
            Trap::PermWrite { addr: 0x7000 },
            Trap::PermExec { addr: 0x9000 },
            Trap::UnalignedFetch { addr: 3 },
        ];
        for t in traps {
            let (d, a, b) = encode_trap(&t);
            assert_eq!(decode_trap(d, a, b), t);
        }
    }

    /// Runs `image` to its halt on a `NativeDbt` with native execution on,
    /// or off (plain [`Dbt::run`]), after `set_cache_limit(limit)` if given.
    fn run_to_halt(image: &cfed_asm::Image, native: bool, limit: Option<u64>) -> (Vec<u64>, Dbt) {
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let instr = Box::new(crate::NullInstrumenter);
        let mut nd = NativeDbt::with_native(instr, UpdateStyle::Jcc, &mut m, native);
        if let Some(limit) = limit {
            nd.dbt.set_cache_limit(limit);
        }
        assert!(matches!(nd.run(&mut m, 1_000_000), ExitReason::Halted { .. }));
        (m.cpu.take_output(), nd.dbt().clone())
    }

    #[test]
    fn retranslations_pinned_after_one_smc_flush_and_one_eviction() {
        // SMC: `victim` is the only block on its code page, so overwriting
        // it flushes exactly that block and the second call translates it
        // again.
        let mut asm = cfed_asm::Asm::new();
        let patch = asm.data_u64(&[u64::from_le_bytes(Inst::Out { src: Reg::R1 }.encode())]);
        asm.label("start");
        asm.movri(Reg::R0, 1);
        asm.movri(Reg::R1, 2);
        asm.call("victim");
        asm.mov_addr(Reg::R2, patch);
        asm.ld(Reg::R3, Reg::R2, 0);
        asm.mov_label(Reg::R4, "victim");
        asm.st(Reg::R4, Reg::R3, 0);
        asm.call("victim");
        asm.halt();
        for _ in 0..cfed_sim::PAGE_SIZE / INST_SIZE_U64 {
            asm.nop();
        }
        asm.label("victim");
        asm.out(Reg::R0);
        asm.ret();
        let smc = asm.assemble("start").unwrap();

        // Eviction: blocks translate in the order S1 (padded call), F, S2
        // (bare call), S3 (halt). A limit that evicts once the cursor passes
        // F's start evicts once, before S2; S2 and F then fit below that
        // point, so only F is translated again.
        let mut asm = cfed_asm::Asm::new();
        asm.label("start");
        for _ in 0..16 {
            asm.nop();
        }
        asm.call("f");
        asm.call("f");
        asm.halt();
        asm.label("f");
        asm.ret();
        let evict = asm.assemble("start").unwrap();
        let f = evict.symbol("f").unwrap();
        let (_, roomy) = run_to_halt(&evict, false, None);
        let limit = roomy.lookup(f).unwrap().cache_start + crate::engine::EVICT_RESERVE;

        for native in [false, true] {
            let (out, dbt) = run_to_halt(&smc, native, None);
            assert_eq!(out, [1, 2], "native {native}");
            let s = dbt.stats();
            assert_eq!((s.smc_flushes, s.cache_evictions, s.retranslations), (1, 0, 1), "{s:?}");
            let (_, dbt) = run_to_halt(&evict, native, Some(limit));
            let s = dbt.stats();
            assert_eq!((s.smc_flushes, s.cache_evictions, s.retranslations), (0, 1, 1), "{s:?}");
        }
    }

    /// Bursts until the machine stands in front of a branch with `stop_at`
    /// branches retired, the run ends, or `budget` instructions retired.
    fn run_to(
        m: &mut Machine,
        stop_at: u64,
        budget: u64,
        mut burst: impl FnMut(&mut Machine, u64, u64) -> DbtStep,
    ) -> DbtStep {
        loop {
            let insts = m.cpu.stats().insts;
            let at_stop = m.cpu.stats().branches >= stop_at;
            if insts >= budget || at_stop && m.peek_inst().is_ok_and(|i| i.is_branch()) {
                return DbtStep::Continue;
            }
            match burst(m, budget - insts, stop_at) {
                DbtStep::Continue => {}
                end => return end,
            }
        }
    }

    #[test]
    fn rewinds_survive_the_code_buffer_running_out() {
        // Checkpoints of one golden run, rewound in a campaign-style loop on
        // a JIT whose buffer holds a handful of blocks: compiles overflow it
        // mid-trial, nuke, and the trial carries on. Every trial must end
        // as the same trial on a fresh restore and a fresh fused engine.
        let image = cfed_lang::compile(
            r#"
            fn step(x) { if (x % 2 == 0) { return x / 2; } return 3 * x + 1; }
            fn len(x) { let n = 0; while (x > 1) { x = step(x); n = n + 1; } return n; }
            fn main() {
                let i = 1;
                let t = 0;
                while (i < 30) {
                    let v = len(i);
                    if (v > 10) { t = t + v; } else { if (v % 3 == 0) { t = t - 1; } else { t = t + 2; } }
                    i = i + 1;
                }
                out(t);
            }
            "#,
        )
        .unwrap();
        const BUDGET: u64 = 1_000_000;
        let load = || Machine::load(image.code(), image.data(), image.entry_offset());
        let mut m = load();
        let mut dbt = Dbt::new(Box::new(crate::NullInstrumenter), UpdateStyle::Jcc, &mut m);
        let mut tracker = cfed_sim::SnapshotTracker::new();
        let mut checkpoints = Vec::new();
        for k in 0..40 {
            let end = run_to(&mut m, k * 25, BUDGET, |m, left, stop| dbt.burst(m, left, stop));
            if end != DbtStep::Continue {
                break;
            }
            checkpoints.push((tracker.capture(&mut m), dbt.clone()));
        }
        assert!(checkpoints.len() > 20, "{} checkpoints", checkpoints.len());

        SPARE_JIT.set(Jit::with_capacity(16 << 10));
        let lineage = u64::MAX;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let mut nukes = 0;
        for trial in 0..200 {
            let (snap, dbt) = &checkpoints[next(checkpoints.len() as u64) as usize];
            let (prefix, bit, reg, value) = (next(4), next(6) as u8, next(8), next(40));
            let observe = |native: bool| {
                let mut m = snap.restore();
                let mut nd = match native {
                    true => NativeDbt::rewind(dbt.clone(), &m, lineage),
                    false => NativeDbt::wrap_with(dbt.clone(), false),
                };
                let stop_at = m.cpu.stats().branches + prefix;
                let mut end = run_to(&mut m, stop_at, BUDGET, |m, l, s| nd.burst(m, l, s));
                if end == DbtStep::Continue {
                    nd.mark_lineage();
                    m.cpu.set_flags(m.cpu.flags().with_bit_flipped(bit));
                    m.cpu.set_reg(Reg::all().nth(reg as usize).unwrap(), value);
                    end = run_to(&mut m, u64::MAX, BUDGET, |m, l, s| nd.burst(m, l, s));
                }
                let nukes = nd.jit.as_ref().map_or(0, |jit| jit.nukes);
                let pages: Vec<_> = m
                    .mem
                    .dirty_pages()
                    .into_iter()
                    .map(|base| (base, m.mem.peek(base, cfed_sim::PAGE_SIZE as usize).to_vec()))
                    .collect();
                ((end, m.cpu.clone(), nd.stats(), pages), nukes)
            };
            let (fused, _) = observe(false);
            let (native, after) = observe(true);
            assert_eq!(fused, native, "trial {trial}");
            nukes = after;
        }
        // One nuke for the first rewind of the lineage; the rest are the
        // buffer running out.
        assert!(nukes > 10, "{nukes} nukes");
        SPARE_JIT.take();
    }

    #[test]
    fn ctx_layout_is_stable() {
        // Emitted code bakes these in; a silent reorder would be chaos.
        assert_eq!(O_REGS, 0);
        assert_eq!(O_FLAGS, 0x80);
        assert_eq!(rslot(Reg::SP), 0x78);
        const { assert!(O_IC_TAGS > O_SESSION_LIMIT) };
        assert_eq!(O_IC_VALS - O_IC_TAGS, 8 * DISPATCH_IC_SIZE as i32);
    }
}
