//! [`Gf31`] — the prime field `GF(2^31 - 1)`.
//!
//! `p = 2^31 - 1` is a Mersenne prime, so `x mod p` reduces with a shift
//! and an add instead of a division; products of two canonical
//! representatives fit comfortably in `u64`. Finite fields of prime
//! characteristic are exactly the setting of Dumas et al. (ISSAC 2020),
//! the A·Aᵀ competitor the paper contrasts with in §1 — running AtA over
//! `GF(p)` shows the two approaches meet on common ground, while AtA
//! additionally covers `R` and `Q`.
//!
//! The [`ata_mat::Scalar`] super-traits require `PartialOrd` and `abs`;
//! a finite field has no compatible order, so `Gf31` orders by canonical
//! representative in `[0, p)` and `abs` is the identity. Both are only
//! used by test/diagnostic helpers (`max_abs_diff`), never by the
//! algorithms themselves, and `a == b ⇔ |a - b| == 0` still holds, which
//! is all the exact-equality checks need.

use ata_mat::Scalar;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// The field modulus `p = 2^31 - 1 = 2147483647`.
pub const P: u32 = (1 << 31) - 1;

/// An element of `GF(2^31 - 1)`, stored as its canonical representative
/// in `[0, p)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf31(u32);

/// Mersenne reduction of a value `< 2p`: conditional subtract.
#[inline]
const fn red_once(x: u32) -> u32 {
    if x >= P {
        x - P
    } else {
        x
    }
}

/// Mersenne reduction of a full `u64` product into `[0, p)`.
#[inline]
const fn red_u64(mut x: u64) -> u32 {
    // Fold high bits twice: (hi << 31 | lo) ≡ hi + lo (mod 2^31 - 1).
    x = (x >> 31) + (x & P as u64);
    x = (x >> 31) + (x & P as u64);
    red_once(x as u32)
}

impl Gf31 {
    /// Embed an integer (of either sign) into the field.
    pub const fn new(x: i64) -> Self {
        let r = x.rem_euclid(P as i64);
        Gf31(r as u32)
    }

    /// Field exponentiation by repeated squaring.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Gf31(1);
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`x^(p-2)`).
    ///
    /// # Panics
    /// If `self` is zero.
    #[track_caller]
    pub fn inv(self) -> Self {
        assert!(self.0 != 0, "Gf31: inverse of zero");
        self.pow(P as u64 - 2)
    }
}

impl fmt::Debug for Gf31 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}₍₃₁₎", self.0)
    }
}

impl fmt::Display for Gf31 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Gf31 {
    type Output = Gf31;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf31(red_once(self.0 + rhs.0))
    }
}

impl Sub for Gf31 {
    type Output = Gf31;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Gf31(red_once(self.0 + P - rhs.0))
    }
}

impl Mul for Gf31 {
    type Output = Gf31;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf31(red_u64(self.0 as u64 * rhs.0 as u64))
    }
}

impl Div for Gf31 {
    type Output = Gf31;
    #[allow(clippy::suspicious_arithmetic_impl)] // field division is multiplication by the inverse
    #[track_caller]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Gf31 {
    type Output = Gf31;
    #[inline]
    fn neg(self) -> Self {
        Gf31(red_once(P - self.0))
    }
}

impl AddAssign for Gf31 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Gf31 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Gf31 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Gf31 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Gf31(0), |a, b| a + b)
    }
}

impl Scalar for Gf31 {
    const ZERO: Self = Gf31(0);
    const ONE: Self = Gf31(1);
    const NEG_ONE: Self = Gf31(P - 1);
    const NAME: &'static str = "gf31";

    /// Round to the nearest integer, then embed mod `p`. Generators in
    /// this workspace feed integral values, so no information is lost.
    fn from_f64(x: f64) -> Self {
        Gf31::new(x.round() as i64)
    }

    fn to_f64(self) -> f64 {
        self.0 as f64
    }

    /// Exact type: comparisons tolerate no error at all.
    fn epsilon() -> f64 {
        0.0
    }

    /// Identity — a finite field has no magnitude; see module docs.
    fn abs(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(x: i64) -> Gf31 {
        Gf31::new(x)
    }

    #[test]
    fn canonical_embedding() {
        assert_eq!(g(0).0, 0);
        assert_eq!(g(P as i64).0, 0);
        assert_eq!(g(P as i64 + 5).0, 5);
        assert_eq!(g(-1).0, P - 1);
        assert_eq!(g(-(P as i64)).0, 0);
        assert_eq!(g(i64::MIN).0, Gf31::new(i64::MIN).0); // total
    }

    #[test]
    fn add_sub_wrap_at_modulus() {
        assert_eq!(g(P as i64 - 1) + g(1), g(0));
        assert_eq!(g(0) - g(1), g(-1));
        assert_eq!(g(5) - g(7), g(P as i64 - 2));
        assert_eq!(-g(1), g(P as i64 - 1));
        assert_eq!(-g(0), g(0));
    }

    #[test]
    fn mersenne_reduction_is_exact_at_extremes() {
        // Largest possible product of canonical representatives.
        let m = g(P as i64 - 1);
        let prod = m * m;
        // (p-1)^2 mod p = 1.
        assert_eq!(prod, g(1));
        // A couple of mid-range spot checks against i128 arithmetic.
        for (a, b) in [(123_456_789i64, 2_000_000_000), (P as i64 - 7, 77_777_777)] {
            let want = ((a as i128 * b as i128) % P as i128) as i64;
            assert_eq!(g(a) * g(b), g(want), "{a} * {b}");
        }
    }

    #[test]
    fn fermat_inverse() {
        for x in [1i64, 2, 3, 12345, P as i64 - 1] {
            let xi = g(x).inv();
            assert_eq!(g(x) * xi, g(1), "x = {x}");
        }
        assert_eq!(g(10) / g(5), g(2));
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_has_no_inverse() {
        let _ = g(0).inv();
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = g(987_654_321);
        let mut acc = g(1);
        for e in 0..12u64 {
            assert_eq!(x.pow(e), acc, "e = {e}");
            acc *= x;
        }
        assert_eq!(x.pow(P as u64 - 1), g(1), "Fermat: x^(p-1) = 1");
    }

    #[test]
    fn scalar_contract() {
        assert_eq!(<Gf31 as Scalar>::ZERO, g(0));
        assert_eq!(<Gf31 as Scalar>::ONE, g(1));
        assert_eq!(<Gf31 as Scalar>::NEG_ONE + <Gf31 as Scalar>::ONE, g(0));
        assert_eq!(<Gf31 as Scalar>::epsilon(), 0.0);
        assert_eq!(Gf31::from_f64(-3.0), g(-3));
        assert_eq!(Gf31::from_f64(7.4), g(7));
        assert_eq!(g(42).to_f64(), 42.0);
        assert_eq!(g(-5).abs(), g(-5), "abs is the identity");
        assert_eq!(Scalar::mul_add(g(3), g(4), g(5)), g(17));
    }

    #[test]
    fn sum_folds() {
        let s: Gf31 = (1..=100i64).map(g).sum();
        assert_eq!(s, g(5050));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(g(7).to_string(), "7");
        assert!(format!("{:?}", g(7)).contains('7'));
    }
}
