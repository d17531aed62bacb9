//! The object format produced by the assembler: code, data, entry point and
//! symbol table.

use cfed_isa::{encode_all, Inst, INST_SIZE_U64};
use std::collections::BTreeMap;
use std::fmt;

/// Default load address for code images — must agree with the simulator's
/// `Layout::default().code_base` (asserted by integration tests).
pub const DEFAULT_CODE_BASE: u64 = 0x1_0000;

/// Default base of the data/heap region — must agree with the simulator's
/// `Layout::default().data_base`.
pub const DEFAULT_DATA_BASE: u64 = 0x20_0000;

/// A fully linked program image.
///
/// # Examples
///
/// ```
/// use cfed_asm::Asm;
/// use cfed_isa::Reg;
///
/// let mut a = Asm::new();
/// a.label("start");
/// a.movri(Reg::R0, 1);
/// a.halt();
/// let image = a.assemble("start").unwrap();
/// assert_eq!(image.entry_offset(), 0);
/// assert_eq!(image.code().len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Image {
    insts: Vec<Inst>,
    code: Vec<u8>,
    base: u64,
    entry_offset: u64,
    symbols: BTreeMap<String, u64>,
    data: Vec<u8>,
}

impl Image {
    pub(crate) fn new(
        insts: Vec<Inst>,
        base: u64,
        entry_offset: u64,
        symbols: BTreeMap<String, u64>,
        data: Vec<u8>,
    ) -> Image {
        let code = encode_all(&insts);
        Image { insts, code, base, entry_offset, symbols, data }
    }

    /// The encoded code bytes.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The decoded instruction sequence.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The load address the image was linked for.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Entry point as a byte offset from [`Image::base`].
    pub fn entry_offset(&self) -> u64 {
        self.entry_offset
    }

    /// Absolute entry address.
    pub fn entry(&self) -> u64 {
        self.base + self.entry_offset
    }

    /// The initialized data section (loaded at the data base).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Absolute address of a label, if defined.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfed_asm::Asm;
    ///
    /// let mut a = Asm::new();
    /// a.label("start");
    /// a.halt();
    /// let image = a.assemble("start").unwrap();
    /// assert_eq!(image.symbol("start"), Some(image.base()));
    /// assert_eq!(image.symbol("missing"), None);
    /// ```
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// All symbols, sorted by name.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u64)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the image contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The absolute address of the `idx`-th instruction.
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + idx as u64 * INST_SIZE_U64
    }

    /// Disassembly listing with symbol annotations.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let by_addr: BTreeMap<u64, Vec<&str>> =
            self.symbols.iter().fold(BTreeMap::new(), |mut m, (name, addr)| {
                m.entry(*addr).or_default().push(name);
                m
            });
        let mut out = String::new();
        for (idx, inst) in self.insts.iter().enumerate() {
            let addr = self.addr_of(idx);
            if let Some(names) = by_addr.get(&addr) {
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            let _ = writeln!(out, "  {addr:#010x}:  {inst}");
        }
        out
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asm;
    use cfed_isa::Reg;

    fn small_image() -> Image {
        let mut a = Asm::new();
        a.label("start");
        a.movri(Reg::R0, 7);
        a.label("end");
        a.halt();
        a.assemble("start").unwrap()
    }

    #[test]
    fn addresses_and_symbols() {
        let img = small_image();
        assert_eq!(img.base(), DEFAULT_CODE_BASE);
        assert_eq!(img.symbol("start"), Some(DEFAULT_CODE_BASE));
        assert_eq!(img.symbol("end"), Some(DEFAULT_CODE_BASE + 8));
        assert_eq!(img.addr_of(1), DEFAULT_CODE_BASE + 8);
        assert_eq!(img.len(), 2);
        assert!(!img.is_empty());
    }

    #[test]
    fn listing_contains_symbols_and_addresses() {
        let img = small_image();
        let text = img.listing();
        assert!(text.contains("start:"));
        assert!(text.contains("end:"));
        assert!(text.contains("mov r0, 7"));
    }
}
