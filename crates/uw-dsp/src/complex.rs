//! Minimal complex-number arithmetic.
//!
//! The workspace avoids external numeric crates, so this module provides the
//! small set of complex operations the FFT, channel estimation and
//! correlation code need: addition, subtraction, multiplication, conjugation,
//! scaling, magnitude and `exp(i·θ)` construction.
//!
//! [`Complex`] is generic over the two float lane types ([`LaneFloat`]):
//! [`Complex64`] is the double-precision oracle sample and [`Complex32`]
//! the single-precision phone-DSP sample the f32 plans transform.

use crate::lanes::LaneFloat;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with real and imaginary parts of one float type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// A complex number with `f64` parts.
pub type Complex64 = Complex<f64>;

/// A complex number with `f32` parts.
pub type Complex32 = Complex<f32>;

impl<T: LaneFloat> Complex<T> {
    /// The additive identity (0 + 0i).
    pub const ZERO: Self = Self {
        re: T::ZERO,
        im: T::ZERO,
    };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: T) -> Self {
        Self { re, im: T::ZERO }
    }

    /// Rounds a [`Complex64`] to this precision (the identity for `f64`).
    #[inline]
    pub fn from_complex64(c: Complex64) -> Self {
        Self {
            re: T::from_f64(c.re),
            im: T::from_f64(c.im),
        }
    }

    /// Widens to double precision (exact).
    #[inline]
    pub fn to_complex64(self) -> Complex64 {
        Complex64::new(self.re.to_f64(), self.im.to_f64())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: T) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Complex64 {
    /// The multiplicative identity (1 + 0i).
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit (0 + 1i).
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Returns `exp(i·theta)` — a unit phasor at angle `theta` radians.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Returns a complex number from polar form `r·exp(i·theta)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns `None` when the magnitude is zero.
    #[inline]
    pub fn inv(self) -> Option<Self> {
        let d = self.norm_sqr();
        if d == 0.0 {
            None
        } else {
            Some(Self {
                re: self.re / d,
                im: -self.im / d,
            })
        }
    }

    /// Returns true when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl<T: LaneFloat> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<T: LaneFloat> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: LaneFloat> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<T: LaneFloat> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: LaneFloat> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<T: LaneFloat> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: LaneFloat> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: LaneFloat> Div for Complex<T> {
    type Output = Self;
    /// Complex division. Division by zero yields NaN components, matching
    /// IEEE float semantics.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl<T: LaneFloat> Div<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: T) -> Self {
        Self {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl<T: LaneFloat> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<T: LaneFloat> From<T> for Complex<T> {
    #[inline]
    fn from(re: T) -> Self {
        Self::from_re(re)
    }
}

/// Converts a real sample buffer into a complex buffer with zero imaginary
/// parts.
pub fn to_complex(samples: &[f64]) -> Vec<Complex64> {
    samples.iter().map(|&s| Complex64::from_re(s)).collect()
}

/// Extracts the real parts of a complex buffer.
pub fn to_real(samples: &[Complex64]) -> Vec<f64> {
    samples.iter().map(|c| c.re).collect()
}

/// Extracts the magnitudes of a complex buffer.
pub fn magnitudes(samples: &[Complex64]) -> Vec<f64> {
    samples.iter().map(|c| c.abs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 4.0);
        let c = a + b - b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        let c = a * b;
        assert!(close(c.re, -14.0));
        assert!(close(c.im, 5.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        let c = (a * b) / b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let a = Complex64::new(2.0, 3.0);
        assert_eq!(a.conj(), Complex64::new(2.0, -3.0));
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex64::from_polar(2.5, 0.7);
        assert!(close(c.abs(), 2.5));
        assert!(close(c.arg(), 0.7));
    }

    #[test]
    fn unit_phasor_has_unit_magnitude() {
        for k in 0..32 {
            let theta = k as f64 * 0.41;
            assert!((Complex64::from_angle(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Complex64::ZERO.inv().is_none());
        let a = Complex64::new(3.0, -4.0);
        let inv = a.inv().unwrap();
        let prod = a * inv;
        assert!(close(prod.re, 1.0) && close(prod.im, 0.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let real = vec![1.0, -2.0, 3.5];
        let cx = to_complex(&real);
        assert_eq!(to_real(&cx), real);
        assert_eq!(magnitudes(&cx), vec![1.0, 2.0, 3.5]);
    }

    #[test]
    fn scalar_ops() {
        let a = Complex64::new(1.0, -2.0);
        assert_eq!(a * 2.0, Complex64::new(2.0, -4.0));
        assert_eq!(a / 2.0, Complex64::new(0.5, -1.0));
        assert_eq!(-a, Complex64::new(-1.0, 2.0));
    }
}
