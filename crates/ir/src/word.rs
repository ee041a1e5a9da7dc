//! Fixed-width machine words with C semantics.
//!
//! A [`Word`] carries its width and signedness so the evaluator can give
//! every C arithmetic operator its architecture-defined meaning: unsigned
//! operations wrap modulo 2ⁿ, signed values are two's-complement, and the
//! *comparison*, *division* and *right-shift* operators dispatch on
//! signedness. Signed overflow is **not** detected here — exactly as in the
//! paper, the C-to-Simpl translation emits explicit guard statements for it
//! (Sec 3.1), and the bit-level operation below is what the hardware would
//! compute.

use std::cmp::Ordering;
use std::fmt;

use bignum::{Int, Nat};

use crate::ty::{Signedness, Ty, Width};

/// A machine word: `bits` is always masked to `width`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word {
    bits: u64,
    width: Width,
    sign: Signedness,
}

impl Word {
    /// Creates a word, masking `bits` to the width.
    #[must_use]
    pub fn new(bits: u64, width: Width, sign: Signedness) -> Word {
        Word {
            bits: bits & width.mask(),
            width,
            sign,
        }
    }

    /// An unsigned 32-bit word.
    #[must_use]
    pub fn u32(v: u32) -> Word {
        Word::new(u64::from(v), Width::W32, Signedness::Unsigned)
    }

    /// A signed 32-bit word (two's complement encoding of `v`).
    #[must_use]
    pub fn i32(v: i32) -> Word {
        Word::new(v as u32 as u64, Width::W32, Signedness::Signed)
    }

    /// An unsigned 8-bit word.
    #[must_use]
    pub fn u8(v: u8) -> Word {
        Word::new(u64::from(v), Width::W8, Signedness::Unsigned)
    }

    /// The zero word of the given shape.
    #[must_use]
    pub fn zero(width: Width, sign: Signedness) -> Word {
        Word::new(0, width, sign)
    }

    /// Raw bit pattern (zero-extended to 64 bits).
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Width of the word.
    #[must_use]
    pub fn width(&self) -> Width {
        self.width
    }

    /// Signedness of the word.
    #[must_use]
    pub fn sign(&self) -> Signedness {
        self.sign
    }

    /// The semantic type of this word.
    #[must_use]
    pub fn ty(&self) -> Ty {
        Ty::Word(self.width, self.sign)
    }

    /// Is the bit pattern all zeros?
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Two's-complement value as `i64`.
    #[must_use]
    pub fn signed_value(&self) -> i64 {
        let b = self.width.bits();
        if b == 64 {
            self.bits as i64
        } else if self.bits >> (b - 1) & 1 == 1 {
            (self.bits as i64) - (1i64 << b)
        } else {
            self.bits as i64
        }
    }

    /// `unat`: the unsigned value as an ideal natural.
    #[must_use]
    pub fn unat(&self) -> Nat {
        Nat::from(self.bits)
    }

    /// `sint`: the two's-complement value as an ideal integer.
    #[must_use]
    pub fn sint(&self) -> Int {
        Int::from(self.signed_value())
    }

    /// `of_nat`: builds a word from a natural, reducing modulo 2ⁿ.
    #[must_use]
    pub fn of_nat(n: &Nat, width: Width, sign: Signedness) -> Word {
        let m = &(n.clone()) % &Nat::pow2(width.bits());
        Word::new(m.to_u64().expect("reduced below 2^64"), width, sign)
    }

    /// `of_int`: builds a word from an integer, reducing modulo 2ⁿ.
    #[must_use]
    pub fn of_int(i: &Int, width: Width, sign: Signedness) -> Word {
        let modulus = Int::from_nat(Nat::pow2(width.bits()));
        let (_, m) = i.div_rem_floor(&modulus);
        Word::of_nat(&m.to_nat(), width, sign)
    }

    /// Maximum representable value (`UINT_MAX` / `INT_MAX` style) as `Int`.
    #[must_use]
    pub fn max_value(width: Width, sign: Signedness) -> Int {
        match sign {
            Signedness::Unsigned => Int::from_nat(Nat::pow2(width.bits())) - Int::one(),
            Signedness::Signed => Int::from_nat(Nat::pow2(width.bits() - 1)) - Int::one(),
        }
    }

    /// Minimum representable value as `Int` (0 for unsigned).
    #[must_use]
    pub fn min_value(width: Width, sign: Signedness) -> Int {
        match sign {
            Signedness::Unsigned => Int::zero(),
            Signedness::Signed => -Int::from_nat(Nat::pow2(width.bits() - 1)),
        }
    }

    /// Wrapping addition (same bit-level result for both signednesses).
    #[must_use]
    pub fn wrapping_add(&self, rhs: &Word) -> Word {
        Word::new(self.bits.wrapping_add(rhs.bits), self.width, self.sign)
    }

    /// Wrapping subtraction.
    #[must_use]
    pub fn wrapping_sub(&self, rhs: &Word) -> Word {
        Word::new(self.bits.wrapping_sub(rhs.bits), self.width, self.sign)
    }

    /// Wrapping multiplication.
    #[must_use]
    pub fn wrapping_mul(&self, rhs: &Word) -> Word {
        Word::new(self.bits.wrapping_mul(rhs.bits), self.width, self.sign)
    }

    /// Wrapping negation.
    #[must_use]
    pub fn wrapping_neg(&self) -> Word {
        Word::new(self.bits.wrapping_neg(), self.width, self.sign)
    }

    /// C division. Unsigned: truncating; signed: truncating toward zero on
    /// the two's-complement values. Division by zero returns 0 — the
    /// translation guards it, so this case is semantically unreachable.
    #[must_use]
    pub fn c_div(&self, rhs: &Word) -> Word {
        if rhs.is_zero() {
            return Word::zero(self.width, self.sign);
        }
        match self.sign {
            Signedness::Unsigned => Word::new(self.bits / rhs.bits, self.width, self.sign),
            Signedness::Signed => {
                let q = self.signed_value().wrapping_div(rhs.signed_value());
                Word::new(q as u64, self.width, self.sign)
            }
        }
    }

    /// C remainder, paired with [`Word::c_div`]. Remainder by zero returns
    /// the dividend (total-function convention; guarded in translations).
    #[must_use]
    pub fn c_rem(&self, rhs: &Word) -> Word {
        if rhs.is_zero() {
            return *self;
        }
        match self.sign {
            Signedness::Unsigned => Word::new(self.bits % rhs.bits, self.width, self.sign),
            Signedness::Signed => {
                let r = self.signed_value().wrapping_rem(rhs.signed_value());
                Word::new(r as u64, self.width, self.sign)
            }
        }
    }

    /// Bitwise not.
    #[must_use]
    pub fn not(&self) -> Word {
        Word::new(!self.bits, self.width, self.sign)
    }

    /// Bitwise and.
    #[must_use]
    pub fn and(&self, rhs: &Word) -> Word {
        Word::new(self.bits & rhs.bits, self.width, self.sign)
    }

    /// Bitwise or.
    #[must_use]
    pub fn or(&self, rhs: &Word) -> Word {
        Word::new(self.bits | rhs.bits, self.width, self.sign)
    }

    /// Bitwise xor.
    #[must_use]
    pub fn xor(&self, rhs: &Word) -> Word {
        Word::new(self.bits ^ rhs.bits, self.width, self.sign)
    }

    /// Left shift; shifts ≥ width yield 0 (the translation guards the UB case).
    #[must_use]
    pub fn shl(&self, amount: u32) -> Word {
        if amount >= self.width.bits() {
            Word::zero(self.width, self.sign)
        } else {
            Word::new(self.bits << amount, self.width, self.sign)
        }
    }

    /// Right shift: logical for unsigned, arithmetic for signed.
    #[must_use]
    pub fn shr(&self, amount: u32) -> Word {
        if amount >= self.width.bits() {
            return match self.sign {
                Signedness::Unsigned => Word::zero(self.width, self.sign),
                Signedness::Signed => {
                    if self.signed_value() < 0 {
                        Word::new(u64::MAX, self.width, self.sign)
                    } else {
                        Word::zero(self.width, self.sign)
                    }
                }
            };
        }
        match self.sign {
            Signedness::Unsigned => Word::new(self.bits >> amount, self.width, self.sign),
            Signedness::Signed => {
                Word::new((self.signed_value() >> amount) as u64, self.width, self.sign)
            }
        }
    }

    /// Signedness-aware comparison (`<w` / `<s` in the paper).
    #[must_use]
    pub fn word_cmp(&self, rhs: &Word) -> Ordering {
        match self.sign {
            Signedness::Unsigned => self.bits.cmp(&rhs.bits),
            Signedness::Signed => self.signed_value().cmp(&rhs.signed_value()),
        }
    }

    /// C integer conversion to another width/signedness: truncate, or extend
    /// according to the *source* signedness.
    #[must_use]
    pub fn convert(&self, width: Width, sign: Signedness) -> Word {
        let extended = match self.sign {
            Signedness::Unsigned => self.bits,
            Signedness::Signed => self.signed_value() as u64,
        };
        Word::new(extended, width, sign)
    }

    /// Would `self + rhs` overflow the signed range? (Used by tests; the
    /// translation expresses this via ideal-integer guards instead.)
    #[must_use]
    pub fn signed_add_overflows(&self, rhs: &Word) -> bool {
        let sum = self.sint() + rhs.sint();
        sum > Word::max_value(self.width, Signedness::Signed)
            || sum < Word::min_value(self.width, Signedness::Signed)
    }

    /// The little-endian byte encoding of this word.
    #[must_use]
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.bits.to_le_bytes()[..self.width.bytes() as usize].to_vec()
    }

    /// Decodes a word from little-endian bytes (length must equal the width).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` does not match `width.bytes()`.
    #[must_use]
    pub fn from_le_bytes(bytes: &[u8], width: Width, sign: Signedness) -> Word {
        assert_eq!(bytes.len() as u64, width.bytes(), "byte length mismatch");
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        Word::new(u64::from_le_bytes(buf), width, sign)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sign {
            Signedness::Unsigned => write!(f, "{}", self.bits),
            Signedness::Signed => write!(f, "{}", self.signed_value()),
        }
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({}: {})", self, self.ty())
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_wraps() {
        // Table 2: u + 1 > u fails at u = 2^32 - 1.
        let u = Word::u32(u32::MAX);
        assert_eq!(u.wrapping_add(&Word::u32(1)), Word::u32(0));
        // Table 2: 2^31 * 2 = 0.
        let h = Word::u32(1 << 31);
        assert_eq!(h.wrapping_mul(&Word::u32(2)), Word::u32(0));
        // Table 2: -u = u at u = 2^31.
        assert_eq!(h.wrapping_neg(), h);
    }

    #[test]
    fn signed_two_complement() {
        let m1 = Word::i32(-1);
        assert_eq!(m1.bits(), 0xFFFF_FFFF);
        assert_eq!(m1.signed_value(), -1);
        assert_eq!(m1.sint(), Int::from(-1i64));
        let min = Word::i32(i32::MIN);
        assert_eq!(min.signed_value(), i64::from(i32::MIN));
        // -(-2^31) wraps back to itself on hardware.
        assert_eq!(min.wrapping_neg(), min);
    }

    #[test]
    fn division_semantics() {
        assert_eq!(Word::i32(-7).c_div(&Word::i32(2)), Word::i32(-3));
        assert_eq!(Word::i32(-7).c_rem(&Word::i32(2)), Word::i32(-1));
        assert_eq!(Word::u32(7).c_div(&Word::u32(2)), Word::u32(3));
        assert_eq!(Word::u32(7).c_div(&Word::u32(0)), Word::u32(0));
    }

    #[test]
    fn comparisons_dispatch_on_sign() {
        // As unsigned, 0xFFFFFFFF is the max; as signed it is -1.
        let a = Word::u32(u32::MAX);
        let b = Word::u32(1);
        assert_eq!(a.word_cmp(&b), Ordering::Greater);
        let a = Word::i32(-1);
        let b = Word::i32(1);
        assert_eq!(a.word_cmp(&b), Ordering::Less);
    }

    #[test]
    fn shifts() {
        assert_eq!(Word::u32(0x8000_0000).shr(31), Word::u32(1));
        assert_eq!(Word::i32(i32::MIN).shr(31), Word::i32(-1));
        assert_eq!(Word::u32(1).shl(31), Word::u32(0x8000_0000));
        assert_eq!(Word::u32(1).shl(32), Word::u32(0));
    }

    #[test]
    fn conversions() {
        // (unsigned char)(-1) == 255
        let c = Word::i32(-1).convert(Width::W8, Signedness::Unsigned);
        assert_eq!(c.bits(), 255);
        // sign extension: (int)(signed char)0xFF == -1
        let sc = Word::new(0xFF, Width::W8, Signedness::Signed);
        assert_eq!(sc.convert(Width::W32, Signedness::Signed), Word::i32(-1));
        // zero extension from unsigned
        let uc = Word::u8(0xFF);
        assert_eq!(uc.convert(Width::W32, Signedness::Unsigned), Word::u32(255));
    }

    #[test]
    fn nat_int_round_trips() {
        let w = Word::u32(12345);
        assert_eq!(Word::of_nat(&w.unat(), Width::W32, Signedness::Unsigned), w);
        let s = Word::i32(-12345);
        assert_eq!(Word::of_int(&s.sint(), Width::W32, Signedness::Signed), s);
        // of_nat reduces mod 2^32
        let big = Nat::pow2(32) + Nat::from(7u64);
        assert_eq!(
            Word::of_nat(&big, Width::W32, Signedness::Unsigned),
            Word::u32(7)
        );
        // of_int of a negative reduces into range
        assert_eq!(
            Word::of_int(&Int::from(-1i64), Width::W32, Signedness::Unsigned),
            Word::u32(u32::MAX)
        );
    }

    #[test]
    fn bounds() {
        assert_eq!(
            Word::max_value(Width::W32, Signedness::Signed),
            Int::from(i32::MAX)
        );
        assert_eq!(
            Word::min_value(Width::W32, Signedness::Signed),
            Int::from(i32::MIN)
        );
        assert_eq!(
            Word::max_value(Width::W32, Signedness::Unsigned),
            Int::from(u32::MAX)
        );
    }

    #[test]
    fn byte_round_trip() {
        let w = Word::u32(0xDEAD_BEEF);
        let bs = w.to_le_bytes();
        assert_eq!(bs, vec![0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(Word::from_le_bytes(&bs, Width::W32, Signedness::Unsigned), w);
    }

    #[test]
    fn overflow_detection() {
        let a = Word::i32(i32::MAX);
        assert!(a.signed_add_overflows(&Word::i32(1)));
        assert!(!a.signed_add_overflows(&Word::i32(0)));
        assert!(Word::i32(i32::MIN).signed_add_overflows(&Word::i32(-1)));
    }
}
