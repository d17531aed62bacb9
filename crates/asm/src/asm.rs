//! The two-pass label assembler / program builder.

use crate::image::{Image, DEFAULT_CODE_BASE, DEFAULT_DATA_BASE};
use cfed_isa::{AluOp, Cond, Inst, Reg, INST_SIZE_U64};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Errors reported by [`Asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was bound twice.
    DuplicateLabel(String),
    /// A referenced label was never bound.
    UndefinedLabel(String),
    /// The requested entry label does not exist.
    UndefinedEntry(String),
    /// A branch displacement or absolute label address does not fit in the
    /// instruction's 32-bit field.
    OffsetOverflow { label: String },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::UndefinedEntry(l) => write!(f, "undefined entry label `{l}`"),
            AsmError::OffsetOverflow { label } => {
                write!(f, "displacement to label `{label}` overflows 32 bits")
            }
        }
    }
}

impl Error for AsmError {}

/// A code label: a handle that is bound to one position and may be
/// referenced before it is bound.
///
/// [`Asm::fresh_label`] and [`Asm::named_label`] make labels; every emitter
/// that takes a label also accepts its name (see [`IntoLabel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// A label or a label name, as taken by [`Asm::label`] and the branch
/// emitters. A name is looked up (and created on first use) through
/// [`Asm::named_label`].
pub trait IntoLabel {
    /// Resolves `self` to a label of `asm`.
    fn into_label(self, asm: &mut Asm) -> Label;
}

impl IntoLabel for Label {
    fn into_label(self, _: &mut Asm) -> Label {
        self
    }
}

impl IntoLabel for &str {
    fn into_label(self, asm: &mut Asm) -> Label {
        asm.named_label(self)
    }
}

impl IntoLabel for String {
    fn into_label(self, asm: &mut Asm) -> Label {
        match asm.by_name.get(&self) {
            Some(&l) => l,
            None => asm.new_label(LabelName::Named(self)),
        }
    }
}

/// How a label's symbol-table name is spelled: built only by
/// [`Asm::assemble`] (and error reports), never while emitting.
#[derive(Debug, Clone)]
enum LabelName {
    Named(String),
    /// `.{prefix}_{n}`.
    Fresh(&'static str, u64),
}

#[derive(Debug, Clone)]
enum Slot {
    Fixed(Inst),
    /// A direct branch whose offset is resolved at assembly time.
    Branch {
        kind: BranchKind,
        label: Label,
    },
    /// `mov dst, &label` — materialize a label's absolute address.
    MovLabel {
        dst: Reg,
        label: Label,
    },
}

#[derive(Debug, Clone, Copy)]
enum BranchKind {
    Jmp,
    Jcc(Cond),
    JRz(Reg),
    JRnz(Reg),
    Call,
}

/// A program under construction: instructions, labels, and a data section.
///
/// All convenience emitters append exactly one instruction, so instruction
/// offsets are `8 × index`.
///
/// # Examples
///
/// ```
/// use cfed_asm::Asm;
/// use cfed_isa::{AluOp, Cond, Reg};
///
/// // Count down from 5.
/// let mut a = Asm::new();
/// a.label("start");
/// a.movri(Reg::R0, 5);
/// let top = a.fresh_label("loop");
/// a.label(top);
/// a.alui(AluOp::Sub, Reg::R0, 1);
/// a.jcc(Cond::Ne, top);
/// a.halt();
/// let image = a.assemble("start").unwrap();
/// assert_eq!(image.len(), 4);
/// assert_eq!(image.symbol(".loop_1"), Some(image.base() + 8));
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    base: u64,
    data_base: u64,
    slots: Vec<Slot>,
    /// Per label: its name and, once bound, its code byte offset.
    labels: Vec<(LabelName, Option<u64>)>,
    by_name: HashMap<String, Label>,
    duplicate: Option<Label>,
    data: Vec<u8>,
    fresh: u64,
}

impl Default for Asm {
    fn default() -> Asm {
        Asm::new()
    }
}

impl Asm {
    /// Creates an assembler targeting the default code/data bases.
    pub fn new() -> Asm {
        Asm::with_bases(DEFAULT_CODE_BASE, DEFAULT_DATA_BASE)
    }

    /// Creates an assembler linking for explicit code and data base
    /// addresses.
    pub fn with_bases(base: u64, data_base: u64) -> Asm {
        Asm {
            base,
            data_base,
            slots: Vec::new(),
            labels: Vec::new(),
            by_name: HashMap::new(),
            duplicate: None,
            data: Vec::new(),
            fresh: 0,
        }
    }

    /// Byte offset of the next emitted instruction.
    pub fn here(&self) -> u64 {
        self.slots.len() as u64 * INST_SIZE_U64
    }

    /// Binds `label` to the current position.
    ///
    /// Duplicate bindings are reported by [`Asm::assemble`].
    pub fn label(&mut self, label: impl IntoLabel) {
        let label = label.into_label(self);
        let here = self.here();
        let bound = &mut self.labels[label.0 as usize].1;
        if bound.replace(here).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(label);
        }
    }

    /// Returns a new unique label, named `.{prefix}_{n}` in the symbol
    /// table (for generated code).
    pub fn fresh_label(&mut self, prefix: &'static str) -> Label {
        self.fresh += 1;
        self.new_label(LabelName::Fresh(prefix, self.fresh))
    }

    /// Returns the label called `name`, creating it (unbound) on first use.
    ///
    /// A name spelled like a fresh label (`.{prefix}_{n}`) is a different
    /// label; binding both is reported as a duplicate by [`Asm::assemble`].
    pub fn named_label(&mut self, name: &str) -> Label {
        match self.by_name.get(name) {
            Some(&l) => l,
            None => self.new_label(LabelName::Named(name.to_string())),
        }
    }

    fn new_label(&mut self, name: LabelName) -> Label {
        let label = Label(u32::try_from(self.labels.len()).expect("fewer than 2^32 labels"));
        if let LabelName::Named(n) = &name {
            self.by_name.insert(n.clone(), label);
        }
        self.labels.push((name, None));
        label
    }

    /// The symbol-table name of `label`.
    fn name_of(&self, label: Label) -> String {
        match &self.labels[label.0 as usize].0 {
            LabelName::Named(n) => n.clone(),
            LabelName::Fresh(prefix, n) => format!(".{prefix}_{n}"),
        }
    }

    /// Appends a raw instruction.
    pub fn raw(&mut self, inst: Inst) {
        self.slots.push(Slot::Fixed(inst));
    }

    // ---- data section -------------------------------------------------

    /// Appends 64-bit words to the data section, returning the absolute
    /// address of the first one.
    pub fn data_u64(&mut self, words: &[u64]) -> u64 {
        // Keep words aligned.
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let addr = self.data_base + self.data.len() as u64;
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Appends raw bytes to the data section, returning the absolute address
    /// of the first one.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Reserves `len` zeroed bytes in the data section, returning their
    /// absolute address (8-byte aligned).
    pub fn data_zeroed(&mut self, len: u64) -> u64 {
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let addr = self.data_base + self.data.len() as u64;
        self.data.resize(self.data.len() + len as usize, 0);
        addr
    }

    // ---- moves and memory ---------------------------------------------

    /// `mov dst, imm`.
    pub fn movri(&mut self, dst: Reg, imm: i32) {
        self.raw(Inst::MovRI { dst, imm });
    }

    /// `mov dst, src`.
    pub fn movrr(&mut self, dst: Reg, src: Reg) {
        self.raw(Inst::MovRR { dst, src });
    }

    /// `mov dst, &label` — loads a label's absolute address.
    pub fn mov_label(&mut self, dst: Reg, label: impl IntoLabel) {
        let label = label.into_label(self);
        self.slots.push(Slot::MovLabel { dst, label });
    }

    /// `mov dst, addr` for an absolute data address returned by the `data_*`
    /// methods.
    ///
    /// # Panics
    ///
    /// Panics if the address does not fit in 31 bits (data addresses under
    /// the default layout always do).
    pub fn mov_addr(&mut self, dst: Reg, addr: u64) {
        assert!(addr <= i32::MAX as u64, "data address {addr:#x} exceeds imm32");
        self.movri(dst, addr as i32);
    }

    /// `ld dst, [base+disp]`.
    pub fn ld(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.raw(Inst::Ld { dst, base, disp });
    }

    /// `st [base+disp], src`.
    pub fn st(&mut self, base: Reg, src: Reg, disp: i32) {
        self.raw(Inst::St { base, src, disp });
    }

    /// `ld8 dst, [base+disp]`.
    pub fn ld8(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.raw(Inst::Ld8 { dst, base, disp });
    }

    /// `st8 [base+disp], src`.
    pub fn st8(&mut self, base: Reg, src: Reg, disp: i32) {
        self.raw(Inst::St8 { base, src, disp });
    }

    /// `push src`.
    pub fn push(&mut self, src: Reg) {
        self.raw(Inst::Push { src });
    }

    /// `pop dst`.
    pub fn pop(&mut self, dst: Reg) {
        self.raw(Inst::Pop { dst });
    }

    /// `cmov<cc> dst, src`.
    pub fn cmov(&mut self, cc: Cond, dst: Reg, src: Reg) {
        self.raw(Inst::CMov { cc, dst, src });
    }

    // ---- ALU -----------------------------------------------------------

    /// `op dst, src` (flags written).
    pub fn alu(&mut self, op: AluOp, dst: Reg, src: Reg) {
        self.raw(Inst::Alu { op, dst, src });
    }

    /// `op dst, imm` (flags written).
    pub fn alui(&mut self, op: AluOp, dst: Reg, imm: i32) {
        self.raw(Inst::AluI { op, dst, imm });
    }

    /// `cmp a, b`.
    pub fn cmp(&mut self, a: Reg, b: Reg) {
        self.alu(AluOp::Cmp, a, b);
    }

    /// `cmp a, imm`.
    pub fn cmpi(&mut self, a: Reg, imm: i32) {
        self.alui(AluOp::Cmp, a, imm);
    }

    /// `lea dst, [base+disp]` (no flags).
    pub fn lea(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.raw(Inst::Lea { dst, base, disp });
    }

    /// `lea dst, [base+index+disp]` (no flags).
    pub fn lea2(&mut self, dst: Reg, base: Reg, index: Reg, disp: i32) {
        self.raw(Inst::Lea2 { dst, base, index, disp });
    }

    /// `lea dst, [base-index+disp]` (no flags).
    pub fn leasub(&mut self, dst: Reg, base: Reg, index: Reg, disp: i32) {
        self.raw(Inst::LeaSub { dst, base, index, disp });
    }

    // ---- control flow ---------------------------------------------------

    /// `jmp label`.
    pub fn jmp(&mut self, label: impl IntoLabel) {
        self.branch(BranchKind::Jmp, label);
    }

    /// `j<cc> label`.
    pub fn jcc(&mut self, cc: Cond, label: impl IntoLabel) {
        self.branch(BranchKind::Jcc(cc), label);
    }

    /// `jrz src, label` (flag-free).
    pub fn jrz(&mut self, src: Reg, label: impl IntoLabel) {
        self.branch(BranchKind::JRz(src), label);
    }

    /// `jrnz src, label` (flag-free).
    pub fn jrnz(&mut self, src: Reg, label: impl IntoLabel) {
        self.branch(BranchKind::JRnz(src), label);
    }

    /// `call label`.
    pub fn call(&mut self, label: impl IntoLabel) {
        self.branch(BranchKind::Call, label);
    }

    fn branch(&mut self, kind: BranchKind, label: impl IntoLabel) {
        let label = label.into_label(self);
        self.slots.push(Slot::Branch { kind, label });
    }

    /// `call target` (indirect).
    pub fn callr(&mut self, target: Reg) {
        self.raw(Inst::CallR { target });
    }

    /// `jmp target` (indirect).
    pub fn jmpr(&mut self, target: Reg) {
        self.raw(Inst::JmpR { target });
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.raw(Inst::Ret);
    }

    // ---- misc -----------------------------------------------------------

    /// `nop`.
    pub fn nop(&mut self) {
        self.raw(Inst::Nop);
    }

    /// `halt`.
    pub fn halt(&mut self) {
        self.raw(Inst::Halt);
    }

    /// `out src`.
    pub fn out(&mut self, src: Reg) {
        self.raw(Inst::Out { src });
    }

    /// `trap code`.
    pub fn trap(&mut self, code: u32) {
        self.raw(Inst::Trap { code });
    }

    /// Resolves all labels and produces the linked [`Image`].
    ///
    /// # Errors
    ///
    /// Reports duplicate or undefined labels, an undefined entry label, and
    /// displacement overflow.
    pub fn assemble(&self, entry: &str) -> Result<Image, AsmError> {
        if let Some(dup) = self.duplicate {
            return Err(AsmError::DuplicateLabel(self.name_of(dup)));
        }
        let symbols = self.symbols()?;
        let entry_offset = symbols
            .get(entry)
            .map(|addr| addr - self.base)
            .ok_or_else(|| AsmError::UndefinedEntry(entry.to_string()))?;

        let lookup = |label: Label| -> Result<u64, AsmError> {
            self.labels[label.0 as usize]
                .1
                .ok_or_else(|| AsmError::UndefinedLabel(self.name_of(label)))
        };

        let mut insts = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let pc = idx as u64 * INST_SIZE_U64;
            let inst = match *slot {
                Slot::Fixed(i) => i,
                Slot::Branch { kind, label } => {
                    let target = lookup(label)?;
                    let disp = target as i64 - (pc as i64 + INST_SIZE_U64 as i64);
                    let offset = i32::try_from(disp)
                        .map_err(|_| AsmError::OffsetOverflow { label: self.name_of(label) })?;
                    match kind {
                        BranchKind::Jmp => Inst::Jmp { offset },
                        BranchKind::Jcc(cc) => Inst::Jcc { cc, offset },
                        BranchKind::JRz(src) => Inst::JRz { src, offset },
                        BranchKind::JRnz(src) => Inst::JRnz { src, offset },
                        BranchKind::Call => Inst::Call { offset },
                    }
                }
                Slot::MovLabel { dst, label } => {
                    let addr = self.base + lookup(label)?;
                    let imm = i32::try_from(addr)
                        .map_err(|_| AsmError::OffsetOverflow { label: self.name_of(label) })?;
                    Inst::MovRI { dst, imm }
                }
            };
            insts.push(inst);
        }

        Ok(Image::new(insts, self.base, entry_offset, symbols, self.data.clone()))
    }

    /// The symbol table: every bound label's name and absolute address.
    fn symbols(&self) -> Result<BTreeMap<String, u64>, AsmError> {
        let mut symbols = Vec::with_capacity(self.labels.len());
        for (i, (_, off)) in self.labels.iter().enumerate() {
            if let Some(off) = off {
                symbols.push((self.name_of(Label(i as u32)), self.base + off));
            }
        }
        symbols.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = symbols.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(AsmError::DuplicateLabel(w[0].0.clone()));
        }
        Ok(symbols.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        a.label("start");
        a.jmp("fwd"); // 0 -> 16: offset 8
        a.nop(); // 8
        a.label("fwd");
        a.jcc(Cond::E, "start"); // 16 -> 0: offset -24
        a.halt();
        let img = a.assemble("start").unwrap();
        assert_eq!(img.insts()[0], Inst::Jmp { offset: 8 });
        assert_eq!(img.insts()[2], Inst::Jcc { cc: Cond::E, offset: -24 });
    }

    #[test]
    fn duplicate_label_reported() {
        let mut a = Asm::new();
        a.label("x");
        a.nop();
        a.label("x");
        a.halt();
        assert_eq!(a.assemble("x").unwrap_err(), AsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn undefined_label_reported() {
        let mut a = Asm::new();
        a.label("start");
        a.jmp("nowhere");
        assert_eq!(a.assemble("start").unwrap_err(), AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn undefined_entry_reported() {
        let mut a = Asm::new();
        a.halt();
        assert_eq!(a.assemble("main").unwrap_err(), AsmError::UndefinedEntry("main".into()));
    }

    #[test]
    fn mov_label_materializes_absolute_address() {
        let mut a = Asm::new();
        a.label("start");
        a.mov_label(Reg::R1, "func");
        a.halt();
        a.label("func");
        a.ret();
        let img = a.assemble("start").unwrap();
        assert_eq!(
            img.insts()[0],
            Inst::MovRI { dst: Reg::R1, imm: (DEFAULT_CODE_BASE + 16) as i32 }
        );
        assert_eq!(img.symbol("func"), Some(DEFAULT_CODE_BASE + 16));
    }

    #[test]
    fn data_section_layout() {
        let mut a = Asm::new();
        let p0 = a.data_u64(&[1, 2, 3]);
        let p1 = a.data_bytes(b"hi");
        let p2 = a.data_u64(&[9]); // must be realigned
        let p3 = a.data_zeroed(64);
        assert_eq!(p0, DEFAULT_DATA_BASE);
        assert_eq!(p1, DEFAULT_DATA_BASE + 24);
        assert_eq!(p2 % 8, 0);
        assert_eq!(p3 % 8, 0);
        a.label("start");
        a.halt();
        let img = a.assemble("start").unwrap();
        assert_eq!(&img.data()[0..8], &1u64.to_le_bytes());
        assert!(img.data().len() as u64 >= p3 - DEFAULT_DATA_BASE + 64);
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut a = Asm::new();
        let l1 = a.fresh_label("loop");
        let l2 = a.fresh_label("loop");
        assert_ne!(l1, l2);
    }

    #[test]
    fn names_resolve_to_one_label_and_fresh_names_are_spelled_on_assembly() {
        let mut a = Asm::new();
        let named = a.named_label("start");
        assert_eq!(a.named_label("start"), named);
        assert_eq!(String::from("start").into_label(&mut a), named);
        a.label(named);
        let fresh = a.fresh_label("loop");
        a.label(fresh);
        a.jmp(fresh);
        let img = a.assemble("start").unwrap();
        let symbols: Vec<_> = img.symbols().collect();
        assert_eq!(symbols, [(".loop_1", DEFAULT_CODE_BASE), ("start", DEFAULT_CODE_BASE)]);
    }

    #[test]
    fn named_label_spelled_like_a_fresh_one_is_a_duplicate() {
        let mut a = Asm::new();
        a.label(".loop_1");
        let fresh = a.fresh_label("loop");
        a.label(fresh);
        a.halt();
        assert_eq!(a.assemble(".loop_1").unwrap_err(), AsmError::DuplicateLabel(".loop_1".into()));
    }

    #[test]
    fn here_tracks_position() {
        let mut a = Asm::new();
        assert_eq!(a.here(), 0);
        a.nop();
        a.nop();
        assert_eq!(a.here(), 16);
    }

    #[test]
    fn jrz_jrnz_resolve() {
        let mut a = Asm::new();
        a.label("start");
        a.jrz(Reg::R8, "out"); // 0 -> 16
        a.jrnz(Reg::R8, "start"); // 8 -> 0
        a.label("out");
        a.halt();
        let img = a.assemble("start").unwrap();
        assert_eq!(img.insts()[0], Inst::JRz { src: Reg::R8, offset: 8 });
        assert_eq!(img.insts()[1], Inst::JRnz { src: Reg::R8, offset: -16 });
    }
}
