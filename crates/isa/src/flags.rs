//! The condition-flags register and the arithmetic that updates it.
//!
//! VISA models the six IA-32 status flags that participate in conditional
//! control flow: carry (`CF`), parity (`PF`), adjust (`AF`), zero (`ZF`),
//! sign (`SF`) and overflow (`OF`). The paper's error model (§2) flips single
//! bits "in the flags that determine the conditional branches direction";
//! [`Flags::BITS`] is therefore the flag-side bit count of that model
//! (6 bits, matching the mass split observed in the paper's Figure 2, which
//! is consistent with 32 offset bits + 6 flag bits).

use std::fmt;

/// The six-bit condition-flags register.
///
/// # Examples
///
/// ```
/// use cfed_isa::Flags;
///
/// let mut f = Flags::empty();
/// f.set_zf(true);
/// assert!(f.zf());
/// assert_eq!(f.bits(), 0b001000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(u8);

impl Flags {
    /// Carry flag bit position.
    pub const CF: u8 = 0;
    /// Parity flag bit position.
    pub const PF: u8 = 1;
    /// Adjust (auxiliary carry) flag bit position.
    pub const AF: u8 = 2;
    /// Zero flag bit position.
    pub const ZF: u8 = 3;
    /// Sign flag bit position.
    pub const SF: u8 = 4;
    /// Overflow flag bit position.
    pub const OF: u8 = 5;

    /// Number of architected flag bits (the flag-side width of the paper's
    /// single-bit error model).
    pub const BITS: u32 = 6;

    /// Mask covering all architected flag bits.
    pub const MASK: u8 = 0b11_1111;

    /// All flags clear.
    pub fn empty() -> Flags {
        Flags(0)
    }

    /// Builds a flags value from raw bits; bits above [`Flags::MASK`] are
    /// discarded.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfed_isa::Flags;
    /// assert_eq!(Flags::from_bits(0xFF).bits(), 0b11_1111);
    /// ```
    pub fn from_bits(bits: u8) -> Flags {
        Flags(bits & Self::MASK)
    }

    /// The raw bit pattern (low six bits).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Returns a copy with the given bit position toggled. This is the
    /// flag-side fault of the paper's error model.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= Flags::BITS`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfed_isa::Flags;
    /// let f = Flags::empty().with_bit_flipped(Flags::ZF);
    /// assert!(f.zf());
    /// ```
    pub fn with_bit_flipped(self, bit: u8) -> Flags {
        assert!((bit as u32) < Self::BITS, "flag bit out of range: {bit}");
        Flags(self.0 ^ (1 << bit))
    }

    fn get(self, bit: u8) -> bool {
        self.0 & (1 << bit) != 0
    }

    fn set(&mut self, bit: u8, v: bool) {
        if v {
            self.0 |= 1 << bit;
        } else {
            self.0 &= !(1 << bit);
        }
    }

    /// Carry flag.
    pub fn cf(self) -> bool {
        self.get(Self::CF)
    }
    /// Parity flag (even parity of the low result byte).
    pub fn pf(self) -> bool {
        self.get(Self::PF)
    }
    /// Zero flag.
    pub fn zf(self) -> bool {
        self.get(Self::ZF)
    }
    /// Sign flag.
    pub fn sf(self) -> bool {
        self.get(Self::SF)
    }
    /// Overflow flag.
    pub fn of(self) -> bool {
        self.get(Self::OF)
    }

    /// Sets the carry flag.
    pub fn set_cf(&mut self, v: bool) {
        self.set(Self::CF, v);
    }
    /// Sets the parity flag.
    pub fn set_pf(&mut self, v: bool) {
        self.set(Self::PF, v);
    }
    /// Sets the adjust flag.
    pub fn set_af(&mut self, v: bool) {
        self.set(Self::AF, v);
    }
    /// Sets the zero flag.
    pub fn set_zf(&mut self, v: bool) {
        self.set(Self::ZF, v);
    }
    /// Sets the sign flag.
    pub fn set_sf(&mut self, v: bool) {
        self.set(Self::SF, v);
    }
    /// Sets the overflow flag.
    pub fn set_of(&mut self, v: bool) {
        self.set(Self::OF, v);
    }
}

impl fmt::Binary for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Self::OF, 'O'),
            (Self::SF, 'S'),
            (Self::ZF, 'Z'),
            (Self::AF, 'A'),
            (Self::PF, 'P'),
            (Self::CF, 'C'),
        ];
        for (bit, name) in names {
            if self.get(bit) {
                write!(f, "{name}")?;
            } else {
                write!(f, "-")?;
            }
        }
        Ok(())
    }
}

fn parity_even(byte: u8) -> bool {
    byte.count_ones().is_multiple_of(2)
}

/// Flags common to most result-producing operations: `ZF`, `SF` and `PF`
/// derived from the 64-bit result.
fn result_flags(result: u64, flags: &mut Flags) {
    flags.set_zf(result == 0);
    flags.set_sf((result as i64) < 0);
    flags.set_pf(parity_even(result as u8));
}

/// Computes `a + b`, returning the result and the full IA-32-style flag set.
///
/// # Examples
///
/// ```
/// use cfed_isa::flags::add_with_flags;
/// let (r, f) = add_with_flags(u64::MAX, 1);
/// assert_eq!(r, 0);
/// assert!(f.cf() && f.zf());
/// ```
#[inline]
pub fn add_with_flags(a: u64, b: u64) -> (u64, Flags) {
    let (result, carry) = a.overflowing_add(b);
    let overflow = (a as i64).overflowing_add(b as i64).1;
    let mut f = Flags::empty();
    f.set_cf(carry);
    f.set_of(overflow);
    f.set_af((a & 0xF) + (b & 0xF) > 0xF);
    result_flags(result, &mut f);
    (result, f)
}

/// Computes `a - b`, returning the result and the full flag set (`CF` is the
/// borrow flag, as on IA-32).
///
/// # Examples
///
/// ```
/// use cfed_isa::flags::sub_with_flags;
/// let (r, f) = sub_with_flags(1, 2);
/// assert_eq!(r as i64, -1);
/// assert!(f.cf() && f.sf() && !f.zf());
/// ```
#[inline]
pub fn sub_with_flags(a: u64, b: u64) -> (u64, Flags) {
    let (result, borrow) = a.overflowing_sub(b);
    let overflow = (a as i64).overflowing_sub(b as i64).1;
    let mut f = Flags::empty();
    f.set_cf(borrow);
    f.set_of(overflow);
    f.set_af((a & 0xF) < (b & 0xF));
    result_flags(result, &mut f);
    (result, f)
}

/// Flags for a bitwise-logic result (`and`, `or`, `xor`, `not` result):
/// `CF = OF = 0`, `ZF`/`SF`/`PF` from the result, `AF` cleared.
#[inline]
pub fn logic_flags(result: u64) -> Flags {
    let mut f = Flags::empty();
    result_flags(result, &mut f);
    f
}

/// Computes `a << sh` (shift amount masked to 0–63) with IA-32-style flags:
/// `CF` holds the last bit shifted out.
#[inline]
pub fn shl_with_flags(a: u64, sh: u64) -> (u64, Flags) {
    let sh = (sh & 63) as u32;
    let result = if sh == 0 { a } else { a << sh };
    let mut f = Flags::empty();
    if sh > 0 {
        f.set_cf((a >> (64 - sh)) & 1 != 0);
    }
    result_flags(result, &mut f);
    (result, f)
}

/// Computes logical `a >> sh` with `CF` holding the last bit shifted out.
#[inline]
pub fn shr_with_flags(a: u64, sh: u64) -> (u64, Flags) {
    let sh = (sh & 63) as u32;
    let result = if sh == 0 { a } else { a >> sh };
    let mut f = Flags::empty();
    if sh > 0 {
        f.set_cf((a >> (sh - 1)) & 1 != 0);
    }
    result_flags(result, &mut f);
    (result, f)
}

/// Computes arithmetic `a >> sh` with `CF` holding the last bit shifted out.
#[inline]
pub fn sar_with_flags(a: u64, sh: u64) -> (u64, Flags) {
    let sh = (sh & 63) as u32;
    let result = if sh == 0 { a } else { ((a as i64) >> sh) as u64 };
    let mut f = Flags::empty();
    if sh > 0 {
        f.set_cf(((a as i64) >> (sh - 1)) & 1 != 0);
    }
    result_flags(result, &mut f);
    (result, f)
}

/// Computes the low 64 bits of `a * b`; `CF`/`OF` are set when the signed
/// product does not fit in 64 bits (IA-32 `imul` convention), and
/// `ZF`/`SF`/`PF` follow the result for determinism.
#[inline]
pub fn mul_with_flags(a: u64, b: u64) -> (u64, Flags) {
    let (result, overflow) = (a as i64).overflowing_mul(b as i64);
    let result = result as u64;
    let mut f = Flags::empty();
    f.set_cf(overflow);
    f.set_of(overflow);
    result_flags(result, &mut f);
    (result, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_each_bit() {
        for bit in 0..Flags::BITS as u8 {
            let f = Flags::empty().with_bit_flipped(bit);
            assert_eq!(f.bits(), 1 << bit);
            assert_eq!(f.with_bit_flipped(bit), Flags::empty());
        }
    }

    #[test]
    #[should_panic(expected = "flag bit out of range")]
    fn flip_out_of_range_panics() {
        let _ = Flags::empty().with_bit_flipped(6);
    }

    #[test]
    fn from_bits_masks() {
        assert_eq!(Flags::from_bits(0xC0).bits(), 0);
    }

    #[test]
    fn add_carry_and_overflow_are_independent() {
        // Unsigned wrap without signed overflow.
        let (_, f) = add_with_flags(u64::MAX, 1);
        assert!(f.cf());
        assert!(!f.of());
        // Signed overflow without carry.
        let (_, f) = add_with_flags(i64::MAX as u64, 1);
        assert!(!f.cf());
        assert!(f.of());
    }

    #[test]
    fn sub_sets_borrow() {
        let (r, f) = sub_with_flags(3, 5);
        assert_eq!(r as i64, -2);
        assert!(f.cf());
        assert!(f.sf());
        let (r, f) = sub_with_flags(5, 5);
        assert_eq!(r, 0);
        assert!(f.zf());
        assert!(!f.cf());
    }

    #[test]
    fn cmp_semantics_for_signed_compare() {
        // 5 < 7 signed: SF != OF must hold for "less".
        let (_, f) = sub_with_flags(5, 7);
        assert_ne!(f.sf(), f.of());
        // -1 < 1 signed even though unsigned u64::MAX > 1.
        let (_, f) = sub_with_flags(-1i64 as u64, 1);
        assert_ne!(f.sf(), f.of());
        assert!(!f.cf() || f.cf()); // cf is defined either way; just exercise
    }

    #[test]
    fn parity_of_low_byte() {
        let (_, f) = add_with_flags(0, 3); // 0b11 -> even parity
        assert!(f.pf());
        let (_, f) = add_with_flags(0, 1); // 0b1 -> odd parity
        assert!(!f.pf());
    }

    #[test]
    fn logic_clears_cf_of() {
        let f = logic_flags(0);
        assert!(f.zf() && !f.cf() && !f.of());
    }

    #[test]
    fn shifts_capture_last_bit_out() {
        let (r, f) = shl_with_flags(0x8000_0000_0000_0000, 1);
        assert_eq!(r, 0);
        assert!(f.cf() && f.zf());
        let (r, f) = shr_with_flags(0b11, 1);
        assert_eq!(r, 1);
        assert!(f.cf());
        let (r, f) = sar_with_flags(-2i64 as u64, 1);
        assert_eq!(r as i64, -1);
        assert!(!f.cf());
    }

    #[test]
    fn shift_by_zero_keeps_value() {
        let (r, f) = shl_with_flags(42, 0);
        assert_eq!(r, 42);
        assert!(!f.cf());
    }

    #[test]
    fn mul_overflow_flags() {
        let (_, f) = mul_with_flags(i64::MAX as u64, 2);
        assert!(f.cf() && f.of());
        let (r, f) = mul_with_flags(6, 7);
        assert_eq!(r, 42);
        assert!(!f.cf() && !f.of());
    }

    #[test]
    fn numeric_formatting() {
        let f = Flags::from_bits(0b10_1010);
        assert_eq!(format!("{f:b}"), "101010");
        assert_eq!(format!("{f:x}"), "2a");
        assert_eq!(format!("{f:X}"), "2A");
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(Flags::empty().to_string(), "------");
        let mut f = Flags::empty();
        f.set_zf(true);
        f.set_cf(true);
        assert_eq!(f.to_string(), "--Z--C");
    }
}
