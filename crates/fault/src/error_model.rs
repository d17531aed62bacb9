//! The single-bit-flip error model of paper §2 (Figures 2 and 3).
//!
//! At every *dynamic* execution of a direct branch, the model considers one
//! hypothetical single-bit fault in each of the 32 address-offset bits and
//! each of the 6 condition-flag bits, all equiprobable, and classifies the
//! control flow that would result. Indirect branches are excluded, as in
//! the paper ("less than 5% of the total branches execution frequency, we
//! simplify the analysis by not accounting the errors in these branches").
//!
//! Faults in the address offset of a *not-taken* branch do not change the
//! control flow and are counted as No&nbsp;Error — this is why the paper's
//! Figure 2 splits every column into taken/not-taken.

use cfed_asm::Image;
use cfed_core::cfg::Cfg;
use cfed_core::{classify_addr_fault, classify_flag_fault, BranchFault, Category};
use cfed_isa::{Cond, Flags, Inst, INST_SIZE_U64, OFFSET_BITS};
use cfed_sim::{ExecProfiler, ExecStats, ExitReason, Machine};

/// Which half of the fault surface a bit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSide {
    /// A bit of the branch's 32-bit address offset.
    Addr,
    /// A bit of the 6-bit condition-flags register.
    Flags,
}

/// Accumulated branch-error probabilities (the content of Figure 2).
///
/// Counts are indexed by (taken, side, category); probabilities divide by
/// the total number of (dynamic branch, bit) pairs considered, i.e. every
/// counted bit is equiprobable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorModelTable {
    counts: [[[u64; 7]; 2]; 2],
    total_bits: u64,
}

fn cat_idx(c: Category) -> usize {
    match c {
        Category::A => 0,
        Category::B => 1,
        Category::C => 2,
        Category::D => 3,
        Category::E => 4,
        Category::F => 5,
        Category::NoError => 6,
    }
}

impl ErrorModelTable {
    /// Records one hypothetical single-bit fault.
    pub fn record(&mut self, taken: bool, side: FaultSide, category: Category) {
        let t = taken as usize;
        let s = matches!(side, FaultSide::Flags) as usize;
        self.counts[t][s][cat_idx(category)] += 1;
        self.total_bits += 1;
    }

    /// Records a whole bit-classification row at once: `row[c]` faults of
    /// category index `c` (the `cat_idx` order). Exactly equivalent to
    /// that many [`ErrorModelTable::record`] calls — counts are integers, so
    /// bulk addition is associative and the table stays bit-identical.
    pub fn record_bulk(&mut self, taken: bool, side: FaultSide, row: &[u64; 7]) {
        let t = taken as usize;
        let s = matches!(side, FaultSide::Flags) as usize;
        for (c, add) in row.iter().enumerate() {
            self.counts[t][s][c] += add;
            self.total_bits += add;
        }
    }

    /// Total number of (branch execution, bit) samples.
    pub fn samples(&self) -> u64 {
        self.total_bits
    }

    /// Probability of (taken?, side, category) — one cell of Figure 2.
    pub fn prob(&self, taken: bool, side: FaultSide, category: Category) -> f64 {
        if self.total_bits == 0 {
            return 0.0;
        }
        let t = taken as usize;
        let s = matches!(side, FaultSide::Flags) as usize;
        self.counts[t][s][cat_idx(category)] as f64 / self.total_bits as f64
    }

    /// Marginal probability of a category (the Total column of Figure 2).
    pub fn prob_total(&self, category: Category) -> f64 {
        [true, false]
            .into_iter()
            .flat_map(|t| {
                [FaultSide::Addr, FaultSide::Flags]
                    .into_iter()
                    .map(move |s| self.prob(t, s, category))
            })
            .sum()
    }

    /// Figure 3: probabilities renormalized over the SDC-prone categories
    /// A–E, in category order.
    pub fn sdc_restricted(&self) -> [(Category, f64); 5] {
        let total: f64 = Category::SDC_PRONE.iter().map(|&c| self.prob_total(c)).sum();
        let mut out = [(Category::A, 0.0); 5];
        for (i, &c) in Category::SDC_PRONE.iter().enumerate() {
            out[i] = (c, if total > 0.0 { self.prob_total(c) / total } else { 0.0 });
        }
        out
    }

    /// Merges another table into this one (suite aggregation).
    pub fn merge(&mut self, other: &ErrorModelTable) {
        for t in 0..2 {
            for s in 0..2 {
                for c in 0..7 {
                    self.counts[t][s][c] += other.counts[t][s][c];
                }
            }
        }
        self.total_bits += other.total_bits;
    }

    /// Renders the table in the layout of the paper's Figure 2.
    pub fn render(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:>9} | {:>8} {:>8} | {:>8} {:>8} | {:>8}",
            "Category", "T.Addr", "T.Flags", "NT.Addr", "NT.Flags", "Total"
        );
        let _ = writeln!(out, "{}", "-".repeat(62));
        for c in Category::ALL {
            let _ = writeln!(
                out,
                "{:>9} | {:>7.2}% {:>7.2}% | {:>7.2}% {:>7.2}% | {:>7.2}%",
                c.to_string(),
                100.0 * self.prob(true, FaultSide::Addr, c),
                100.0 * self.prob(true, FaultSide::Flags, c),
                100.0 * self.prob(false, FaultSide::Addr, c),
                100.0 * self.prob(false, FaultSide::Flags, c),
                100.0 * self.prob_total(c),
            );
        }
        out
    }
}

/// Result of analyzing one image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorModelReport {
    /// The accumulated probability table.
    pub table: ErrorModelTable,
    /// How the analyzed run ended.
    pub exit: ExitReason,
    /// The analyzed run's statistics: those of a plain [`Machine::run`].
    pub stats: ExecStats,
    /// Dynamic direct-branch executions analyzed.
    pub branches_analyzed: u64,
    /// Dynamic indirect-branch executions skipped (paper's simplification).
    pub indirect_skipped: u64,
}

/// Runs `image` natively, applying the single-bit error model at every
/// dynamic direct-branch execution.
///
/// The run is one plain fused run on the decoded interpreter that counts
/// branch executions into a [`BranchTally`](cfed_sim::BranchTally), so it
/// ends as [`Machine::run`] does. Each distinct tally key is then
/// classified once and its rows are added as many times as it executed.
/// The report is the same as stepping and inspecting every instruction.
///
/// # Examples
///
/// ```
/// use cfed_fault::error_model::analyze_image;
/// use cfed_lang::compile;
///
/// let image = compile("fn main() { let i = 0; while (i < 10) { i = i + 1; } }")?;
/// let report = analyze_image(&image, 1_000_000);
/// assert!(report.branches_analyzed > 10);
/// assert!(report.table.samples() > 0);
/// # Ok::<(), cfed_lang::CompileError>(())
/// ```
pub fn analyze_image(image: &Image, max_insts: u64) -> ErrorModelReport {
    let cfg = Cfg::recover(image);
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    m.profiler = Some(Box::new(ExecProfiler::branches_only()));
    let exit = m.run(max_insts);
    let tally = m.take_profiler().and_then(|p| p.into_branches()).expect("tally attached");
    let mut table = ErrorModelTable::default();
    let (mut branches_analyzed, mut indirect_skipped) = (0, 0);
    for ((addr, inst, k), n) in tally {
        if inst.is_indirect_branch() {
            indirect_skipped += n;
            continue;
        }
        branches_analyzed += n;
        // Flag bits only matter to a branch that reads the flags for its
        // direction; address-offset bits only when it redirects control.
        let (taken, flag_row) = match inst {
            Inst::Jcc { cc, .. } => flag_row(cc, Flags::from_bits(k)),
            _ => (k == 1, FLAGS_NO_ERROR_ROW),
        };
        let addr_row = if taken { addr_row(addr, &inst, &cfg) } else { NOT_TAKEN_ADDR_ROW };
        table.record_bulk(taken, FaultSide::Addr, &addr_row.map(|c| c * n));
        table.record_bulk(taken, FaultSide::Flags, &flag_row.map(|c| c * n));
    }
    ErrorModelReport { table, exit, stats: m.cpu.stats(), branches_analyzed, indirect_skipped }
}

/// Per-bit classification totals for one (branch execution, fault side), in
/// `cat_idx` order.
type BitRow = [u64; 7];

/// A taken branch whose offset faults never redirect: the 32 address bits of
/// a not-taken branch all classify as No&nbsp;Error.
const NOT_TAKEN_ADDR_ROW: BitRow = [0, 0, 0, 0, 0, 0, OFFSET_BITS as u64];

/// The 6 flag bits of an instruction that never reads the flags for its
/// direction all classify as No&nbsp;Error.
const FLAGS_NO_ERROR_ROW: BitRow = [0, 0, 0, 0, 0, 0, Flags::BITS as u64];

/// The address-offset bits of the taken direct branch `inst` at `addr`.
fn addr_row(addr: u64, inst: &Inst, cfg: &Cfg) -> BitRow {
    let offset = inst.branch_offset().expect("direct branch");
    let fall = addr + INST_SIZE_U64;
    let correct = inst.direct_target(addr).expect("direct");
    let block = cfg
        .block_containing(addr)
        .map(|id| cfg.blocks()[id].range())
        .unwrap_or(addr..addr + INST_SIZE_U64);
    let mut row = [0u64; 7];
    for bit in 0..OFFSET_BITS {
        let faulty_off = offset ^ (1i32 << bit);
        let faulty = addr.wrapping_add(INST_SIZE_U64).wrapping_add(faulty_off as i64 as u64);
        let category = classify_addr_fault(
            &BranchFault {
                branch_block: block.clone(),
                fall_through: fall,
                correct_target: correct,
                faulty_target: faulty,
            },
            cfg,
        );
        row[cat_idx(category)] += 1;
    }
    row
}

/// Whether a `jcc` on `cc` executed under `flags` is taken, and the row of
/// its flag bits.
fn flag_row(cc: Cond, flags: Flags) -> (bool, BitRow) {
    let taken = cc.eval(flags);
    let mut row = [0u64; 7];
    for bit in 0..Flags::BITS as u8 {
        let category = classify_flag_fault(cc.eval(flags.with_bit_flipped(bit)) != taken);
        row[cat_idx(category)] += 1;
    }
    (taken, row)
}

#[cfg(test)]
#[path = "../../sim/tests/programs/mod.rs"]
mod programs;

#[cfg(test)]
mod tests {
    use super::programs::{arb_calls, arb_loop, arb_word};
    use super::*;
    use cfed_asm::Asm;
    use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
    use cfed_lang::compile;
    use cfed_sim::{Layout, Step, Trap};
    use proptest::prelude::*;

    fn report(src: &str) -> ErrorModelReport {
        analyze_image(&compile(src).unwrap(), 5_000_000)
    }

    #[test]
    fn probabilities_sum_to_one() {
        let r = report("fn main() { let i = 0; while (i < 50) { i = i + 1; } out(i); }");
        let sum: f64 = Category::ALL.iter().map(|&c| r.table.prob_total(c)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn bits_per_branch_is_38() {
        let r = report("fn main() { let i = 0; while (i < 7) { i = i + 1; } }");
        assert_eq!(
            r.table.samples(),
            r.branches_analyzed * (OFFSET_BITS as u64 + Flags::BITS as u64)
        );
    }

    #[test]
    fn not_taken_addr_bits_are_no_error() {
        let r = report(
            "fn main() { let i = 0; while (i < 20) { if (i == 1000) { out(i); } i = i + 1; } }",
        );
        // The never-taken `if` contributes not-taken addr bits, all NoError.
        assert!(r.table.prob(false, FaultSide::Addr, Category::NoError) > 0.0);
        for c in Category::SDC_PRONE {
            assert_eq!(r.table.prob(false, FaultSide::Addr, c), 0.0, "{c}");
        }
    }

    #[test]
    fn flag_faults_only_produce_a_or_noerror() {
        let r = report("fn main() { let i = 0; while (i < 30) { i = i + 1; } }");
        for taken in [true, false] {
            for c in [Category::B, Category::C, Category::D, Category::E, Category::F] {
                assert_eq!(r.table.prob(taken, FaultSide::Flags, c), 0.0);
            }
        }
        assert!(r.table.prob_total(Category::A) > 0.0);
    }

    #[test]
    fn category_e_dominates_sdc_prone_mass() {
        // Paper Figure 3: E is by far the largest SDC-prone category.
        let r = report(
            r#"
            fn work(x) { if (x % 3 == 0) { return x * 2; } return x + 1; }
            fn main() {
                let i = 0;
                let acc = 0;
                while (i < 200) { acc = acc + work(i); i = i + 1; }
                out(acc);
            }
            "#,
        );
        let sdc = r.table.sdc_restricted();
        let e = sdc.iter().find(|(c, _)| *c == Category::E).unwrap().1;
        for (c, p) in sdc {
            if c != Category::E {
                assert!(e >= p, "E ({e:.3}) must dominate {c} ({p:.3})");
            }
        }
        assert!(e > 0.4, "E should carry most SDC-prone mass, got {e:.3}");
    }

    #[test]
    fn indirect_branches_skipped() {
        let r = report("fn f() { return 1; } fn main() { out(f()); }");
        assert!(r.indirect_skipped > 0, "ret must be skipped, not analyzed");
    }

    #[test]
    fn merge_accumulates() {
        let a = report("fn main() { let i = 0; while (i < 5) { i = i + 1; } }");
        let b = report("fn main() { let i = 0; while (i < 9) { i = i + 1; } }");
        let mut merged = a.table.clone();
        merged.merge(&b.table);
        assert_eq!(merged.samples(), a.table.samples() + b.table.samples());
        let sum: f64 = Category::ALL.iter().map(|&c| merged.prob_total(c)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Reference implementation: classify and record every one of the 38
    /// bits at every dynamic branch, no memoization. The production path
    /// must produce an identical table.
    fn naive_report(image: &Image, max_insts: u64) -> ErrorModelReport {
        let cfg = Cfg::recover(image);
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut table = ErrorModelTable::default();
        let mut branches = 0u64;
        let mut indirect = 0u64;
        let exit = loop {
            if m.cpu.stats().insts >= max_insts {
                break ExitReason::StepLimit;
            }
            if let Ok(inst) = m.cpu.peek_inst(&m.mem) {
                if inst.is_branch() {
                    if inst.is_indirect_branch() {
                        indirect += 1;
                    } else {
                        branches += 1;
                        let taken = m.cpu.would_take(&inst);
                        if taken {
                            let row = addr_row(m.cpu.ip(), &inst, &cfg);
                            for (c, &n) in row.iter().enumerate() {
                                for _ in 0..n {
                                    table.record(taken, FaultSide::Addr, Category::ALL[c]);
                                }
                            }
                        } else {
                            for _ in 0..OFFSET_BITS {
                                table.record(taken, FaultSide::Addr, Category::NoError);
                            }
                        }
                        for bit in 0..Flags::BITS as u8 {
                            let category = if inst.reads_flags_for_direction() {
                                let flipped = m.cpu.flags().with_bit_flipped(bit);
                                classify_flag_fault(
                                    m.cpu.would_take_with_flags(&inst, flipped) != taken,
                                )
                            } else {
                                Category::NoError
                            };
                            table.record(taken, FaultSide::Flags, category);
                        }
                    }
                }
            }
            match m.cpu.step(&mut m.mem) {
                Ok(Step::Continue) => {}
                Ok(Step::Halt) => break ExitReason::Halted { code: m.cpu.reg(cfed_isa::Reg::R0) },
                Err(t) => break ExitReason::Trapped(t),
            }
        };
        ErrorModelReport {
            table,
            exit,
            stats: m.cpu.stats(),
            branches_analyzed: branches,
            indirect_skipped: indirect,
        }
    }

    /// Divides by a counter until it reaches zero, so the run ends in a
    /// trap after a few laps of a `jcc` loop.
    fn trapping_image() -> Image {
        let mut a = Asm::new();
        a.label("start");
        a.movri(Reg::R0, 4);
        a.label("loop");
        a.movri(Reg::R1, 100);
        a.alu(AluOp::Div, Reg::R1, Reg::R0);
        a.alui(AluOp::Sub, Reg::R0, 1);
        a.jcc(Cond::Ne, "loop");
        a.alu(AluOp::Div, Reg::R1, Reg::R0);
        a.halt();
        a.assemble("start").unwrap()
    }

    /// From the second lap on, each lap stores a `jcc` (taken, to its own
    /// fall-through) over the next instruction — a `nop` the first lap
    /// decoded and executed — so a branch appears in code that was
    /// straight-line when the lap's burst began.
    fn self_modifying_image() -> Image {
        let mut a = Asm::new();
        let planted = a.data_bytes(&encode_all(&[Inst::Jcc { cc: Cond::Ne, offset: 0 }]));
        a.label("start");
        a.mov_addr(Reg::R3, planted);
        a.ld(Reg::R2, Reg::R3, 0);
        a.mov_label(Reg::R4, "slot");
        a.movri(Reg::R0, 3);
        a.label("loop");
        a.jrz(Reg::R5, "slot");
        a.st(Reg::R4, Reg::R2, 0);
        a.label("slot");
        a.nop();
        a.movri(Reg::R5, 1);
        a.alui(AluOp::Sub, Reg::R0, 1);
        a.jcc(Cond::Ne, "loop");
        a.halt();
        a.assemble("start").unwrap()
    }

    /// Each lap rewrites the loop's first instruction, a `jmp` to its own
    /// fall-through, into a `jmp` over the `nop` behind it: the same site
    /// holds a taken branch with a different offset from the second lap on.
    fn rewritten_offset_image() -> Image {
        let mut a = Asm::new();
        let rewritten = a.data_bytes(&encode_all(&[Inst::Jmp { offset: 8 }]));
        a.label("start");
        a.mov_addr(Reg::R3, rewritten);
        a.ld(Reg::R2, Reg::R3, 0);
        a.mov_label(Reg::R4, "loop");
        a.movri(Reg::R0, 3);
        a.label("loop");
        a.raw(Inst::Jmp { offset: 0 });
        a.nop();
        a.st(Reg::R4, Reg::R2, 0);
        a.alui(AluOp::Sub, Reg::R0, 1);
        a.jcc(Cond::Ne, "loop");
        a.halt();
        a.assemble("start").unwrap()
    }

    /// A `call` whose push traps: the stack pointer is moved into the
    /// unmapped guard page first.
    fn trapping_call_image() -> Image {
        let mut a = Asm::new();
        a.label("start");
        a.movri(Reg::SP, 0x100);
        a.call("leaf");
        a.halt();
        a.label("leaf");
        a.ret();
        a.assemble("start").unwrap()
    }

    #[test]
    fn memoized_table_identical_to_naive_per_bit() {
        let work = compile(
            r#"
            fn work(x) { if (x % 3 == 0) { return x * 2; } return x + 1; }
            fn main() {
                let i = 0;
                let acc = 0;
                while (i < 150) { acc = acc + work(i); i = i + 1; }
                out(acc);
            }
        "#,
        )
        .unwrap();
        let mut cases = vec![("work", work.clone(), 5_000_000)];
        // Consecutive budgets: most end between two branches, some on one.
        for budget in 1_000..1_008 {
            cases.push(("work, cut short", work.clone(), budget));
        }
        cases.push(("trapping", trapping_image(), 5_000_000));
        cases.push(("self-modifying", self_modifying_image(), 5_000_000));
        cases.push(("rewritten offset", rewritten_offset_image(), 5_000_000));
        cases.push(("trapping call", trapping_call_image(), 5_000_000));
        for (name, image, max_insts) in &cases {
            let fast = analyze_image(image, *max_insts);
            let slow = naive_report(image, *max_insts);
            assert_eq!(fast, slow, "{name} at max_insts {max_insts}");
        }
        let cut = analyze_image(&work, 1_003);
        assert_eq!(cut.exit, ExitReason::StepLimit);
        let trapped = analyze_image(&trapping_image(), 5_000_000);
        assert!(matches!(trapped.exit, ExitReason::Trapped(Trap::DivByZero { .. })));
        // Three laps of `jrz` and the loop's `jcc`, plus the planted `jcc`
        // on the last two.
        let smc = analyze_image(&self_modifying_image(), 5_000_000);
        assert_eq!(smc.exit, ExitReason::Halted { code: 0 });
        assert_eq!(smc.branches_analyzed, 8);
        let call = analyze_image(&trapping_call_image(), 5_000_000);
        assert!(matches!(call.exit, ExitReason::Trapped(Trap::PermWrite { .. })), "{call:?}");
        assert_eq!((call.branches_analyzed, call.table.samples()), (1, 38));
    }

    /// A random program as an image: a few lines point `r1` 0x40 bytes into
    /// the program and `r2` at the data region, as the programs expect, and
    /// with `stack_words`, leave room for only that many pushes, so a call
    /// can trap. A word that does not decode becomes a `trap`; stores into
    /// the code still plant undecodable words at run time.
    fn program_image(words: &[[u8; 8]], stack_words: Option<u8>) -> Image {
        let layout = Layout::default();
        let mut a = Asm::new();
        a.label("start");
        a.mov_label(Reg::R1, "program");
        a.alui(AluOp::Add, Reg::R1, 0x40);
        a.mov_addr(Reg::R2, layout.data_base);
        if let Some(n) = stack_words {
            a.mov_addr(Reg::SP, layout.stack.start + 8 * u64::from(n));
        }
        a.label("program");
        for w in words {
            a.raw(Inst::decode(w).unwrap_or(Inst::Trap { code: 0 }));
        }
        a.assemble("start").unwrap()
    }

    /// A loop whose first line is a branch that a store rewrites, every lap,
    /// into another branch: from the second lap on the site holds a branch
    /// of another kind, offset or both.
    fn arb_rewrite() -> impl Strategy<Value = Vec<[u8; 8]>> {
        let branch = || {
            (0usize..4, any::<bool>(), 0usize..4).prop_map(|(kind, skip, cc)| {
                let offset = if skip { 8 } else { 0 };
                match kind {
                    0 => Inst::Jmp { offset },
                    1 => Inst::Jcc { cc: [Cond::E, Cond::Ne, Cond::L, Cond::Ae][cc], offset },
                    2 => Inst::JRz { src: Reg::R3, offset },
                    _ => Inst::JRnz { src: Reg::R3, offset },
                }
            })
        };
        (2i32..6, branch(), branch()).prop_map(|(n, first, planted)| {
            let word = u64::from_le_bytes(planted.encode());
            let (hi, lo) = ((word >> 32) as u32 as i32, word as u32 as i32);
            let prog = [
                Inst::MovRI { dst: Reg::R3, imm: n },
                // r4 = the planted branch's encoding.
                Inst::MovRI { dst: Reg::R4, imm: hi },
                Inst::AluI { op: AluOp::Shl, dst: Reg::R4, imm: 32 },
                Inst::MovRI { dst: Reg::R7, imm: lo },
                Inst::AluI { op: AluOp::Shl, dst: Reg::R7, imm: 32 },
                Inst::AluI { op: AluOp::Shr, dst: Reg::R7, imm: 32 },
                Inst::Alu { op: AluOp::Or, dst: Reg::R4, src: Reg::R7 },
                first,
                Inst::Nop,
                // `r1` points one line past `first`.
                Inst::St { base: Reg::R1, src: Reg::R4, disp: -8 },
                Inst::AluI { op: AluOp::Sub, dst: Reg::R3, imm: 1 },
                Inst::JRnz { src: Reg::R3, offset: -40 },
                Inst::Halt,
            ];
            prog.iter().map(Inst::encode).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random programs (self-modifying stores included), loops,
        /// loops that call a leaf and loops that rewrite a branch in place,
        /// some on a stack too small for their calls, cut at random budgets,
        /// the one-pass report equals the per-instruction reference, and its
        /// run ends as a plain run does.
        #[test]
        fn one_pass_report_equals_naive_and_a_plain_run(
            words in prop_oneof![
                prop::collection::vec(arb_word(), 1..96),
                arb_loop(),
                arb_calls(),
                arb_rewrite(),
            ],
            stack_words in prop_oneof![Just(None), (0u8..2).prop_map(Some)],
            max_insts in prop_oneof![0u64..200, 200u64..3_000],
        ) {
            let image = program_image(&words, stack_words);
            let report = analyze_image(&image, max_insts);
            prop_assert_eq!(&report, &naive_report(&image, max_insts));
            let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
            prop_assert_eq!(m.run(max_insts), report.exit);
            prop_assert_eq!(m.cpu.stats(), report.stats);
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let r = report("fn main() { let i = 0; while (i < 5) { i = i + 1; } }");
        let text = r.table.render("TEST");
        for c in ["A", "B", "C", "D", "E", "F", "No Error"] {
            assert!(text.contains(c), "missing row {c}");
        }
    }
}
