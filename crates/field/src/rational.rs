//! [`Q64`] — reduced rationals over `i64` with overflow-checked arithmetic.
//!
//! A faithful, allocation-free model of `Q` for bounded workloads. Every
//! value is kept in lowest terms with a strictly positive denominator, so
//! equality is structural and hashing/ordering are consistent. All
//! arithmetic goes through `i128` intermediates and panics (with the
//! offending operands in the message) if a reduced result no longer fits
//! in `i64` — silent wrapping would defeat the purpose of an exact type.

use ata_mat::Scalar;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A rational number `num / den` in lowest terms, `den > 0`.
///
/// Implements [`Scalar`], so every kernel and algorithm in the workspace
/// runs over it unchanged — and exactly.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q64 {
    num: i64,
    den: i64,
}

/// Greatest common divisor (non-negative, `gcd(0, 0) = 0`).
const fn gcd_u(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[track_caller]
fn narrow(x: i128, what: &str) -> i64 {
    i64::try_from(x).unwrap_or_else(|_| panic!("Q64 overflow in {what}: {x} does not fit i64"))
}

impl Q64 {
    /// Construct `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    /// If `den == 0`.
    #[track_caller]
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "Q64: zero denominator");
        Self::reduce(num as i128, den as i128)
    }

    /// Construct the integer `n / 1`.
    pub(crate) const fn from_int(n: i64) -> Self {
        Q64 { num: n, den: 1 }
    }

    /// Numerator of the reduced form.
    pub const fn numer(self) -> i64 {
        self.num
    }

    /// Denominator of the reduced form (always positive).
    pub const fn denom(self) -> i64 {
        self.den
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// If `self` is zero.
    #[track_caller]
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "Q64: division by zero");
        if self.num < 0 {
            Q64 {
                num: narrow(-(self.den as i128), "recip"),
                den: narrow(-(self.num as i128), "recip"),
            }
        } else {
            Q64 {
                num: self.den,
                den: self.num,
            }
        }
    }

    #[track_caller]
    fn reduce(num: i128, den: i128) -> Self {
        debug_assert!(den != 0);
        let sign: i128 = if den < 0 { -1 } else { 1 };
        let g = gcd_u(num.unsigned_abs(), den.unsigned_abs());
        if g == 0 {
            return Q64 { num: 0, den: 1 };
        }
        let g = g as i128;
        Q64 {
            num: narrow(sign * (num / g), "reduce"),
            den: narrow(sign * den / g, "reduce"),
        }
    }
}

impl fmt::Debug for Q64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Q64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Default for Q64 {
    fn default() -> Self {
        Q64 { num: 0, den: 1 }
    }
}

impl PartialOrd for Q64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Q64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Denominators are positive, so cross-multiplication preserves
        // order; i128 cannot overflow on i64 products.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl Add for Q64 {
    type Output = Q64;
    #[track_caller]
    fn add(self, rhs: Self) -> Self {
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Q64::reduce(num, den)
    }
}

impl Sub for Q64 {
    type Output = Q64;
    #[track_caller]
    fn sub(self, rhs: Self) -> Self {
        let num = self.num as i128 * rhs.den as i128 - rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Q64::reduce(num, den)
    }
}

impl Mul for Q64 {
    type Output = Q64;
    #[track_caller]
    fn mul(self, rhs: Self) -> Self {
        // Cross-reduce before multiplying to keep intermediates small:
        // (a/b)(c/d) = (a/gcd(a,d))(c/gcd(c,b)) / ((b/gcd(c,b))(d/gcd(a,d))).
        let g1 = gcd_u(
            self.num.unsigned_abs() as u128,
            rhs.den.unsigned_abs() as u128,
        )
        .max(1) as i128;
        let g2 = gcd_u(
            rhs.num.unsigned_abs() as u128,
            self.den.unsigned_abs() as u128,
        )
        .max(1) as i128;
        let num = (self.num as i128 / g1) * (rhs.num as i128 / g2);
        let den = (self.den as i128 / g2) * (rhs.den as i128 / g1);
        Q64::reduce(num, den)
    }
}

impl Div for Q64 {
    type Output = Q64;
    #[allow(clippy::suspicious_arithmetic_impl)] // field division is multiplication by the inverse
    #[track_caller]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Q64 {
    type Output = Q64;
    #[track_caller]
    fn neg(self) -> Self {
        Q64 {
            num: narrow(-(self.num as i128), "neg"),
            den: self.den,
        }
    }
}

impl AddAssign for Q64 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Q64 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Q64 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Q64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Q64::default(), |a, b| a + b)
    }
}

impl Scalar for Q64 {
    const ZERO: Self = Q64 { num: 0, den: 1 };
    const ONE: Self = Q64 { num: 1, den: 1 };
    const NEG_ONE: Self = Q64 { num: -1, den: 1 };
    const NAME: &'static str = "q64";

    /// Exact conversion: every finite `f64` is a dyadic rational
    /// `mantissa * 2^exp`.
    ///
    /// # Panics
    /// If the value is not finite or the exact rational does not fit
    /// (`|exp|` too large for `i64` numerator/denominator).
    #[track_caller]
    fn from_f64(x: f64) -> Self {
        assert!(x.is_finite(), "Q64::from_f64({x}): not finite");
        if x == 0.0 {
            return Q64::ZERO;
        }
        // Decompose into mantissa and binary exponent.
        let bits = x.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mut mant, mut exp) = if biased == 0 {
            (frac as i64, -1074i64) // subnormal
        } else {
            ((frac | (1 << 52)) as i64, biased - 1075)
        };
        while mant % 2 == 0 && exp < 0 {
            mant /= 2;
            exp += 1;
        }
        if exp >= 0 {
            assert!(exp < 63, "Q64::from_f64({x}): magnitude too large");
            Q64::from_int(sign * (mant << exp))
        } else {
            assert!(-exp < 63, "Q64::from_f64({x}): denominator too large");
            Q64 {
                num: sign * mant,
                den: 1i64 << (-exp),
            }
        }
    }

    fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact type: comparisons tolerate no error at all.
    fn epsilon() -> f64 {
        0.0
    }

    fn abs(self) -> Self {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64, d: i64) -> Q64 {
        Q64::new(n, d)
    }

    #[test]
    fn construction_reduces_and_normalizes_sign() {
        assert_eq!(q(2, 4), q(1, 2));
        assert_eq!(q(-2, 4), q(1, -2));
        assert_eq!(q(-2, -4), q(1, 2));
        assert_eq!(q(0, -7), Q64::ZERO);
        assert_eq!(q(6, 3).numer(), 2);
        assert_eq!(q(6, 3).denom(), 1);
        assert!(q(5, -3).denom() > 0);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_rejected() {
        let _ = q(1, 0);
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(q(1, 2) + q(1, 3), q(5, 6));
        assert_eq!(q(1, 2) - q(1, 3), q(1, 6));
        assert_eq!(q(2, 3) * q(3, 4), q(1, 2));
        assert_eq!(q(1, 2) / q(1, 4), q(2, 1));
        assert_eq!(-q(3, 5), q(-3, 5));
        assert_eq!(q(7, 3).recip(), q(3, 7));
        assert_eq!(q(-7, 3).recip(), q(-3, 7));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let mut x = q(1, 3);
        x += q(1, 6);
        assert_eq!(x, q(1, 2));
        x -= q(1, 4);
        assert_eq!(x, q(1, 4));
        x *= q(8, 3);
        assert_eq!(x, q(2, 3));
    }

    #[test]
    fn sum_folds_exactly() {
        // Harmonic-ish sum that floats cannot represent exactly.
        let s: Q64 = (1..=9).map(|k| q(1, k)).sum();
        assert_eq!(s, q(7129, 2520));
    }

    #[test]
    fn ordering_is_total_and_cross_multiplied() {
        assert!(q(1, 3) < q(1, 2));
        assert!(q(-1, 2) < q(-1, 3));
        assert!(q(2, 4) == q(1, 2));
        let mut v = vec![q(3, 4), q(-1, 2), q(0, 1), q(5, 8)];
        v.sort();
        assert_eq!(v, vec![q(-1, 2), q(0, 1), q(5, 8), q(3, 4)]);
    }

    #[test]
    fn from_f64_is_exact_for_dyadics() {
        assert_eq!(Q64::from_f64(0.0), Q64::ZERO);
        assert_eq!(Q64::from_f64(1.0), Q64::ONE);
        assert_eq!(Q64::from_f64(-1.0), Q64::NEG_ONE);
        assert_eq!(Q64::from_f64(0.5), q(1, 2));
        assert_eq!(Q64::from_f64(-0.375), q(-3, 8));
        assert_eq!(Q64::from_f64(42.0), Q64::from_int(42));
        // Round-trips for every dyadic we produce.
        for i in -40i64..=40 {
            let x = i as f64 / 16.0;
            assert_eq!(Q64::from_f64(x).to_f64(), x);
        }
    }

    #[test]
    fn from_f64_handles_subnormal_scale_rejection() {
        // 2^-1074 needs a denominator far beyond i64: must panic, not wrap.
        let r = std::panic::catch_unwind(|| Q64::from_f64(f64::MIN_POSITIVE / 1e10));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn from_f64_rejects_nan() {
        let _ = Q64::from_f64(f64::NAN);
    }

    #[test]
    fn overflow_panics_cleanly() {
        let big = Q64::from_int(i64::MAX / 2 + 1);
        let r = std::panic::catch_unwind(|| big + big);
        assert!(r.is_err(), "doubling near-max must overflow-panic");
        let r = std::panic::catch_unwind(|| big * Q64::from_int(3));
        assert!(r.is_err());
    }

    #[test]
    fn cross_reduction_avoids_spurious_overflow() {
        // (2^40 / 3) * (3 / 2^40) = 1: naive multiplication would need
        // 2^80 intermediates; cross-reduction keeps it tiny.
        let a = q(1 << 40, 3);
        let b = q(3, 1 << 40);
        assert_eq!(a * b, Q64::ONE);
    }

    #[test]
    fn display_formats() {
        assert_eq!(q(3, 1).to_string(), "3");
        assert_eq!(q(-3, 7).to_string(), "-3/7");
        assert_eq!(format!("{:?}", q(3, 7)), "3/7");
    }

    #[test]
    fn abs_and_is_integer() {
        assert_eq!(q(-5, 2).abs(), q(5, 2));
        assert_eq!(q(5, 2).abs(), q(5, 2));
        assert_eq!(Q64::from_int(4).denom(), 1);
        assert_eq!(q(1, 2).denom(), 2);
    }

    #[test]
    fn scalar_contract() {
        assert_eq!(<Q64 as Scalar>::epsilon(), 0.0);
        assert_eq!(Scalar::mul_add(q(1, 2), q(1, 3), q(1, 6)), q(1, 3));
        assert_eq!(q(5, 4).to_f64(), 1.25);
    }
}
