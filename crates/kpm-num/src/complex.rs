//! Double-precision complex numbers.
//!
//! The workspace deliberately carries its own complex type instead of
//! pulling in an external crate: the paper's performance models count a
//! complex addition as `F_a = 2` flops and a complex multiplication as
//! `F_m = 6` flops, and keeping the arithmetic in-repo guarantees the
//! kernels execute exactly the operations the model charges for.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// The layout is `repr(C)`, i.e. `[re, im]` adjacent in memory, matching
/// the interleaved storage the paper assumes for matrix and vector data
/// (`S_d = 16` bytes per element).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
/// The imaginary unit.
pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

impl Complex64 {
    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline(always)]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// The complex conjugate `re - i*im`.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// The squared modulus `re^2 + im^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The modulus `|z|`.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The argument (phase angle) of `z` in `(-pi, pi]`.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Fused multiply-add `self * b + c`.
    ///
    /// This is the primitive the augmented kernels are built from; it
    /// costs `F_m + F_a = 8` flops in the paper's accounting.
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Self::new(
            self.re * b.re - self.im * b.im + c.re,
            self.re * b.im + self.im * b.re + c.im,
        )
    }

    /// Multiplication by a real scalar (4 flops; counted as `F_m/2` pairs
    /// in Table I of the paper, e.g. in `scal()`).
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// The multiplicative inverse `1/z`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// True if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within an absolute tolerance on both parts.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w == z * w^{-1}
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        iter.fold(ZERO, |a, b| a + *b)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.25, 4.0);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn mul_matches_formula() {
        let a = Complex64::new(3.0, 2.0);
        let b = Complex64::new(1.0, 7.0);
        // (3+2i)(1+7i) = 3 + 21i + 2i + 14i^2 = -11 + 23i
        assert_eq!(a * b, Complex64::new(-11.0, 23.0));
    }

    #[test]
    fn conj_mul_gives_norm_sqr() {
        let z = Complex64::new(3.0, -4.0);
        let p = z * z.conj();
        assert_eq!(p.re, z.norm_sqr());
        assert_eq!(p.im, 0.0);
        assert_eq!(z.abs(), 5.0);
    }

    #[test]
    fn inv_is_inverse() {
        let z = Complex64::new(2.0, -1.0);
        let w = z * z.inv();
        assert!(w.approx_eq(ONE, 1e-15));
    }

    #[test]
    fn div_by_self_is_one() {
        let z = Complex64::new(-7.0, 0.5);
        assert!((z / z).approx_eq(ONE, 1e-15));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        let c = Complex64::new(0.25, -1.0);
        assert_eq!(a.mul_add(b, c), a * b + c);
    }

    #[test]
    fn real_scalar_ops() {
        let z = Complex64::new(1.0, -2.0);
        assert_eq!(z * 2.0, Complex64::new(2.0, -4.0));
        assert_eq!(2.0 * z, z * 2.0);
        assert_eq!(z / 2.0, Complex64::new(0.5, -1.0));
    }

    #[test]
    fn arg_quadrants() {
        assert!((Complex64::new(1.0, 1.0).arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((Complex64::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn sum_iterates() {
        let v = [ONE, I, Complex64::new(2.0, 3.0)];
        let s: Complex64 = v.iter().sum();
        assert_eq!(s, Complex64::new(3.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex64::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", Complex64::new(1.0, -2.0)), "1-2i");
    }
}
