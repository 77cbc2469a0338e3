//! Fixed-point (Q15) numeric path for the ranging hot loop.
//!
//! The rest of this crate computes in `f64`, which is the right oracle for
//! correctness but not what commodity phones ship: production mobile DSP
//! runs on 16-bit fixed-point samples with 32/64-bit integer accumulators.
//! This module provides that path:
//!
//! * [`Q15`] — a 16-bit fixed-point sample in `[-1, 1)` with saturating,
//!   rounding arithmetic.
//! * [`ComplexQ15`] — a complex Q15 value whose products are computed in
//!   wide integer accumulators and rounded back to Q15.
//! * [`FixedFftPlan`] — a block-floating-point (BFP) FFT plan: a radix-2
//!   core that rescales the whole block before any stage that could
//!   overflow and tracks the applied per-stage shifts, plus a Bluestein
//!   chirp-z wrapper for non-power-of-two lengths (the paper's 1920-sample
//!   OFDM symbol). Transforms return the accumulated scale factor so
//!   callers can reconstruct absolute magnitudes.
//! * [`FixedPlanPool`] — thread-safe plan sharing, mirroring
//!   [`crate::plan::PlanPool`].
//! * [`Q15MatchedFilter`] — an overlap-save streaming correlator mirroring
//!   [`crate::matched::MatchedFilter`], with the template spectrum held in
//!   Q15 and every butterfly/multiply in integer arithmetic.
//! * [`NumericPath`] — the knob higher layers thread through to select
//!   between the `f64` oracle, the f32 phone-float path (the `f32`
//!   instantiations of [`crate::plan`] and [`crate::matched`]) and this
//!   fixed-point path.
//!
//! ## Scaling strategy (block floating point)
//!
//! A radix-2 butterfly can grow a component by at most `1 + √2` per stage
//! (the even term plus a twiddle-rotated odd term). Before each stage the
//! plan scans the block's maximum component magnitude and right-shifts the
//! whole block (with rounding) until `max · (1 + √2) ≤ 32767`, so no
//! butterfly can saturate. The number of shifts is accumulated into the
//! scale factor the transform returns: the true spectrum equals the
//! dequantised output times `2^shifts` (inverse transforms fold the `1/N`
//! into the same factor). After magnitude-shrinking steps (pointwise
//! spectrum products), the block is renormalised *up* to restore headroom,
//! again tracked in the scale. The result is a fixed 16-bit mantissa with
//! one shared exponent per block — the classic BFP FFT phones and DSPs
//! ship. The differential-testing harness (`tests/fixed_vs_float.rs`)
//! bounds this path against the `f64` oracle: ≥ 60 dB SQNR for radix-2
//! forward transforms (≥ 55 dB for full round-trips at the largest block)
//! and matched-filter peak agreement within ±1 sample.
//!
//! ## Lane-kernel execution
//!
//! Since the vectorization pass the hot loops run in structure-of-arrays
//! form: Q15 mantissas are widened into separate `re[i32]` / `im[i32]`
//! buffers and processed through the `[i32; 8]` kernels in
//! [`crate::lanes`] (BFP butterfly with the per-stage shift fused,
//! half-scaled pointwise products, and the guard-scan block maximum). The
//! interleaved [`ComplexQ15`] entry points deinterleave into a pooled SoA
//! scratch at the boundary; [`Q15MatchedFilter`] keeps its blocks in SoA
//! form throughout. The retired scalar transforms remain as
//! [`FixedRadix2Plan::forward_scalar`] /
//! [`FixedRadix2Plan::inverse_raw_scalar`], and the differential harness
//! pins the lane path **bit-identical** to them — integer arithmetic leaves
//! no rounding slack, so vectorization cannot change a single sample.

use crate::complex::Complex64;
use crate::fft::{is_pow2, next_pow2};
use crate::lanes;
use crate::{DspError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Which numeric implementation the ranging hot loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NumericPath {
    /// The double-precision reference path (the repository's oracle).
    #[default]
    F64,
    /// The single-precision float path (the `f32` instantiations of
    /// [`crate::plan::FftPlan`] and [`crate::matched::MatchedFilter`]) —
    /// what phone DSP runs when not in fixed point, with twice the SIMD
    /// lanes of f64.
    F32,
    /// The on-device Q15 fixed-point path in this module.
    Q15,
}

impl NumericPath {
    /// Identifier fragment used in matrix cell ids and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            NumericPath::F64 => "f64",
            NumericPath::F32 => "f32",
            NumericPath::Q15 => "q15",
        }
    }
}

/// Scale of the Q15 representation: `raw = round(value · 32768)`.
pub const Q15_ONE: f64 = 32768.0;

/// Largest block component magnitude that survives one radix-2 stage
/// (growth ≤ 1 + √2) without saturating: `⌊32767 / (1 + √2)⌋`.
const STAGE_GUARD: i32 = 13572;

#[inline]
fn sat16(v: i64) -> i16 {
    v.clamp(i16::MIN as i64, i16::MAX as i64) as i16
}

/// A 16-bit fixed-point sample in `[-1, 1)` (Q15 format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Q15(i16);

impl Q15 {
    /// Zero.
    pub const ZERO: Q15 = Q15(0);
    /// The largest representable value, `32767/32768 ≈ 0.99997`.
    pub const MAX: Q15 = Q15(i16::MAX);
    /// The most negative representable value, exactly `-1.0`.
    pub const MIN: Q15 = Q15(i16::MIN);

    /// Quantises an `f64` to Q15 with rounding; values outside `[-1, 1)`
    /// saturate (non-finite input saturates by sign, NaN becomes 0).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        if x.is_nan() {
            return Q15(0);
        }
        Q15(sat16((x * Q15_ONE).round() as i64))
    }

    /// Dequantises back to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Q15_ONE
    }

    /// The raw two's-complement representation.
    #[inline]
    pub fn raw(self) -> i16 {
        self.0
    }

    /// Wraps a raw 16-bit value.
    #[inline]
    pub fn from_raw(raw: i16) -> Self {
        Q15(raw)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Saturating Q15 product: a 32-bit accumulate rounded back by 15 bits.
    /// `(-1) · (-1)` saturates to [`Q15::MAX`] instead of wrapping.
    #[inline]
    pub fn saturating_mul(self, rhs: Q15) -> Q15 {
        let acc = self.0 as i32 * rhs.0 as i32;
        Q15(sat16(((acc + (1 << 14)) >> 15) as i64))
    }
}

/// A complex number with [`Q15`] real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComplexQ15 {
    /// Real part.
    pub re: Q15,
    /// Imaginary part.
    pub im: Q15,
}

impl ComplexQ15 {
    /// The additive identity.
    pub const ZERO: ComplexQ15 = ComplexQ15 {
        re: Q15::ZERO,
        im: Q15::ZERO,
    };

    /// Creates a complex Q15 from parts.
    #[inline]
    pub fn new(re: Q15, im: Q15) -> Self {
        Self { re, im }
    }

    /// Quantises a [`Complex64`]; each component saturates independently.
    #[inline]
    pub fn from_complex64(c: Complex64) -> Self {
        Self {
            re: Q15::from_f64(c.re),
            im: Q15::from_f64(c.im),
        }
    }

    /// Dequantises to a [`Complex64`].
    #[inline]
    pub fn to_complex64(self) -> Complex64 {
        Complex64::new(self.re.to_f64(), self.im.to_f64())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: Q15(self.im.0.saturating_neg()),
        }
    }

    /// Saturating complex product rounded back to Q15 (both cross terms are
    /// accumulated in 64-bit before the single rounding shift).
    #[inline]
    pub fn saturating_mul(self, rhs: ComplexQ15) -> ComplexQ15 {
        let (ar, ai) = (self.re.0 as i64, self.im.0 as i64);
        let (br, bi) = (rhs.re.0 as i64, rhs.im.0 as i64);
        ComplexQ15 {
            re: Q15(sat16((ar * br - ai * bi + (1 << 14)) >> 15)),
            im: Q15(sat16((ar * bi + ai * br + (1 << 14)) >> 15)),
        }
    }
}

/// Largest component magnitude in a block (0 for an empty/zero block).
/// Scalar form, used by the retired reference transforms.
#[inline]
fn block_max(data: &[ComplexQ15]) -> i32 {
    data.iter()
        .map(|c| (c.re.0 as i32).abs().max((c.im.0 as i32).abs()))
        .max()
        .unwrap_or(0)
}

/// Left-shifts the block to restore headroom after magnitude-shrinking
/// steps, keeping the maximum at or below the stage guard. Returns the
/// number of shifts applied (the true value scale shrinks by `2^k`).
/// Scalar form, used by the retired reference transforms.
fn renormalize_up(data: &mut [ComplexQ15]) -> u32 {
    let max = block_max(data);
    if max == 0 {
        return 0;
    }
    let mut k = 0u32;
    while (max << (k + 1)) <= STAGE_GUARD {
        k += 1;
    }
    if k > 0 {
        for c in data.iter_mut() {
            c.re = Q15(c.re.0 << k);
            c.im = Q15(c.im.0 << k);
        }
    }
    k
}

/// Reusable widened SoA buffers for the interleaved entry points.
#[derive(Debug, Default)]
struct FixedSoaScratch {
    re: Vec<i32>,
    im: Vec<i32>,
}

/// A block-floating-point radix-2 FFT plan for one power-of-two length.
///
/// The twiddle tables (Q15 mantissas widened to `i32`, structure-of-arrays)
/// are read-only after construction; the small internal SoA scratch pool
/// behind the interleaved entry points is mutex-guarded, so one plan can
/// serve many threads concurrently.
pub struct FixedRadix2Plan {
    n: usize,
    bitrev: Vec<u32>,
    /// Forward twiddle real mantissas, per-stage layout as in
    /// [`crate::plan::Radix2Plan`].
    twr_fwd: Vec<i32>,
    twi_fwd: Vec<i32>,
    twr_inv: Vec<i32>,
    twi_inv: Vec<i32>,
    scratch: Mutex<Vec<FixedSoaScratch>>,
}

impl std::fmt::Debug for FixedRadix2Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedRadix2Plan")
            .field("n", &self.n)
            .finish()
    }
}

impl Clone for FixedRadix2Plan {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            bitrev: self.bitrev.clone(),
            twr_fwd: self.twr_fwd.clone(),
            twi_fwd: self.twi_fwd.clone(),
            twr_inv: self.twr_inv.clone(),
            twi_inv: self.twi_inv.clone(),
            scratch: Mutex::new(vec![FixedSoaScratch {
                re: vec![0; self.n],
                im: vec![0; self.n],
            }]),
        }
    }
}

impl FixedRadix2Plan {
    /// Builds a plan for a power-of-two length `n ≥ 1`.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DspError::InvalidLength {
                reason: "fixed-point FFT plan length must be positive",
            });
        }
        if !is_pow2(n) {
            return Err(DspError::InvalidLength {
                reason: "fixed-point radix-2 plan length must be a power of two",
            });
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                if n == 1 {
                    0
                } else {
                    (i.reverse_bits() >> (usize::BITS - bits)) as u32
                }
            })
            .collect();
        let mut twr_fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut twi_fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut twr_inv = Vec::with_capacity(n.saturating_sub(1));
        let mut twi_inv = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1usize;
        while half < n {
            let ang = std::f64::consts::PI / half as f64;
            for k in 0..half {
                let w = ComplexQ15::from_complex64(Complex64::from_angle(-ang * k as f64));
                let wc = w.conj();
                twr_fwd.push(w.re.0 as i32);
                twi_fwd.push(w.im.0 as i32);
                twr_inv.push(wc.re.0 as i32);
                twi_inv.push(wc.im.0 as i32);
            }
            half <<= 1;
        }
        Ok(Self {
            n,
            bitrev,
            twr_fwd,
            twi_fwd,
            twr_inv,
            twi_inv,
            scratch: Mutex::new(vec![FixedSoaScratch {
                re: vec![0; n],
                im: vec![0; n],
            }]),
        })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for the degenerate length-0 plan (never constructable).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward BFP FFT. Returns the net right-shift count (which
    /// can be negative: quiet blocks are first shifted *up* to a full
    /// mantissa): the true (unnormalised) DFT equals the dequantised
    /// output times `2^shifts`.
    pub fn forward(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.check(data.len())?;
        Ok(self.with_scratch(data, true))
    }

    /// In-place conjugate-twiddle BFP transform **without** the `1/N`
    /// normalisation: the true inverse DFT equals the dequantised output
    /// times `2^shifts / N`. Exposed raw so composites (Bluestein, the
    /// matched filter) can fold `1/N` into their own scale once.
    pub fn inverse_raw(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.check(data.len())?;
        Ok(self.with_scratch(data, false))
    }

    /// In-place forward BFP FFT on widened SoA buffers (values in the Q15
    /// mantissa range). The native lane-kernel entry point: no
    /// interleaving, no scratch checkout, allocation-free.
    pub fn forward_soa(&self, re: &mut [i32], im: &mut [i32]) -> Result<i32> {
        self.check_soa(re, im)?;
        Ok(self.transform_soa(re, im, &self.twr_fwd, &self.twi_fwd))
    }

    /// In-place raw inverse BFP transform on widened SoA buffers (no `1/N`,
    /// as [`FixedRadix2Plan::inverse_raw`]).
    pub fn inverse_raw_soa(&self, re: &mut [i32], im: &mut [i32]) -> Result<i32> {
        self.check_soa(re, im)?;
        Ok(self.transform_soa(re, im, &self.twr_inv, &self.twi_inv))
    }

    /// The retired one-lane-per-sample forward transform, kept as the
    /// reference the differential harness pins the lane kernels against
    /// (bit-identical output required — integer arithmetic leaves no
    /// rounding slack).
    pub fn forward_scalar(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.check(data.len())?;
        Ok(self.transform_scalar(data, &self.twr_fwd, &self.twi_fwd))
    }

    /// The retired scalar raw inverse transform; reference twin of
    /// [`FixedRadix2Plan::inverse_raw`].
    pub fn inverse_raw_scalar(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.check(data.len())?;
        Ok(self.transform_scalar(data, &self.twr_inv, &self.twi_inv))
    }

    fn check(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(DspError::InvalidLength {
                reason: "buffer length does not match the fixed-point FFT plan length",
            });
        }
        Ok(())
    }

    fn check_soa(&self, re: &[i32], im: &[i32]) -> Result<()> {
        if re.len() != self.n || im.len() != self.n {
            return Err(DspError::InvalidLength {
                reason: "buffer length does not match the fixed-point FFT plan length",
            });
        }
        Ok(())
    }

    /// Interleaved wrapper: widen into pooled SoA scratch, run the lane
    /// transform, narrow back (stage outputs are always saturated into the
    /// i16 range).
    fn with_scratch(&self, data: &mut [ComplexQ15], forward: bool) -> i32 {
        let mut buf = self
            .scratch
            .lock()
            .expect("fixed radix-2 scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        buf.re.resize(self.n, 0);
        buf.im.resize(self.n, 0);
        for (c, (r, x)) in data.iter().zip(buf.re.iter_mut().zip(buf.im.iter_mut())) {
            *r = c.re.0 as i32;
            *x = c.im.0 as i32;
        }
        let shifts = if forward {
            self.transform_soa(&mut buf.re, &mut buf.im, &self.twr_fwd, &self.twi_fwd)
        } else {
            self.transform_soa(&mut buf.re, &mut buf.im, &self.twr_inv, &self.twi_inv)
        };
        for (c, (r, x)) in data.iter_mut().zip(buf.re.iter().zip(buf.im.iter())) {
            *c = ComplexQ15::new(Q15(*r as i16), Q15(*x as i16));
        }
        self.scratch
            .lock()
            .expect("fixed radix-2 scratch pool poisoned")
            .push(buf);
        shifts
    }

    /// The BFP transform on widened SoA buffers through the `[i32; 8]` lane
    /// kernels. Identical arithmetic to [`FixedRadix2Plan::transform_scalar`].
    fn transform_soa(&self, re: &mut [i32], im: &mut [i32], twr: &[i32], twi: &[i32]) -> i32 {
        let n = self.n;
        if n == 1 {
            return 0;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        // A quiet block would otherwise run the early stages on a short
        // mantissa; pull it up to the guard ceiling first (negative shift).
        let mut shifts = -(lanes::renormalize_up_i32(re, im, STAGE_GUARD) as i32);
        let mut half = 1usize;
        while half < n {
            // Block-floating-point guard: pick the per-stage shift so the
            // coming stage's worst-case growth (1 + √2) cannot saturate.
            // The shift is folded into the butterfly itself, so each stage
            // output is rounded exactly once from the wide accumulator.
            let mut max = lanes::block_max_i32(re, im);
            let mut k = 0u32;
            while max > STAGE_GUARD {
                k += 1;
                max = (max + 1) >> 1;
            }
            shifts += k as i32;

            let swr = &twr[half - 1..2 * half - 1];
            let swi = &twi[half - 1..2 * half - 1];
            if half < lanes::I32_LANES {
                // Early stages have sub-lane groups; run the whole stage in
                // one flat kernel pass instead of n/(2·half) tiny calls.
                lanes::butterfly_q15_small(re, im, swr, swi, k);
            } else {
                let mut start = 0usize;
                while start < n {
                    let (e_re, o_re) = re[start..start + 2 * half].split_at_mut(half);
                    let (e_im, o_im) = im[start..start + 2 * half].split_at_mut(half);
                    lanes::butterfly_q15(e_re, e_im, o_re, o_im, swr, swi, k);
                    start += half << 1;
                }
            }
            half <<= 1;
        }
        shifts
    }

    /// The retired scalar BFP transform (reference for the equivalence
    /// tests).
    fn transform_scalar(&self, data: &mut [ComplexQ15], twr: &[i32], twi: &[i32]) -> i32 {
        let n = self.n;
        if n == 1 {
            return 0;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let mut shifts = -(renormalize_up(data) as i32);
        let mut half = 1usize;
        while half < n {
            let mut max = block_max(data);
            let mut k = 0u32;
            while max > STAGE_GUARD {
                k += 1;
                max = (max + 1) >> 1;
            }
            shifts += k as i32;

            let swr = &twr[half - 1..2 * half - 1];
            let swi = &twi[half - 1..2 * half - 1];
            let shift = 15 + k;
            let bias = 1i64 << (shift - 1);
            let mut start = 0usize;
            while start < n {
                for j in 0..half {
                    let even = data[start + j];
                    let odd = data[start + j + half];
                    // Twiddle products kept at full Q30 precision; the even
                    // term is aligned up so the single rounding shift at the
                    // end covers both the Q15 renormalisation and the BFP
                    // stage shift.
                    let pr = odd.re.0 as i64 * swr[j] as i64 - odd.im.0 as i64 * swi[j] as i64;
                    let pi = odd.re.0 as i64 * swi[j] as i64 + odd.im.0 as i64 * swr[j] as i64;
                    let er = (even.re.0 as i64) << 15;
                    let ei = (even.im.0 as i64) << 15;
                    data[start + j] = ComplexQ15::new(
                        Q15(sat16((er + pr + bias) >> shift)),
                        Q15(sat16((ei + pi + bias) >> shift)),
                    );
                    data[start + j + half] = ComplexQ15::new(
                        Q15(sat16((er - pr + bias) >> shift)),
                        Q15(sat16((ei - pi + bias) >> shift)),
                    );
                }
                start += half << 1;
            }
            half <<= 1;
        }
        shifts
    }
}

/// Bluestein (chirp-z) state for one non-power-of-two length, built on the
/// BFP radix-2 core with all tables and scratch in widened SoA form.
#[derive(Debug, Clone)]
struct FixedBluesteinPlan {
    inner: FixedRadix2Plan,
    /// The chirp `w[j] = exp(−iπ j²/n)` quantised to Q15 (unit phasors),
    /// widened SoA halves of length `n`.
    chirp_re: Vec<i32>,
    chirp_im: Vec<i32>,
    /// Quantised FFT of the symmetrically extended conjugate chirp,
    /// widened SoA halves of length `m`.
    spec_re: Vec<i32>,
    spec_im: Vec<i32>,
    /// True chirp spectrum = dequantised spectrum × this factor.
    chirp_spectrum_scale: f64,
    /// Reusable SoA convolution buffers, length `m`.
    scratch_re: Vec<i32>,
    scratch_im: Vec<i32>,
}

impl FixedBluesteinPlan {
    fn new(n: usize) -> Result<Self> {
        let m = next_pow2(2 * n - 1);
        let inner = FixedRadix2Plan::new(m)?;
        // The chirp and its spectrum are precomputed in f64 (a one-time
        // table build, as a codec would bake into ROM) and quantised once.
        let chirp_f64: Vec<Complex64> = (0..n)
            .map(|j| {
                let jj = (j * j) % (2 * n);
                Complex64::from_angle(-std::f64::consts::PI * jj as f64 / n as f64)
            })
            .collect();
        let mut spec = vec![Complex64::ZERO; m];
        for j in 0..n {
            spec[j] = chirp_f64[j].conj();
            if j != 0 {
                spec[m - j] = chirp_f64[j].conj();
            }
        }
        let f64_plan = crate::plan::Radix2Plan::new(m)?;
        f64_plan.forward(&mut spec)?;
        let max = spec
            .iter()
            .map(|c| c.re.abs().max(c.im.abs()))
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut spec_re = Vec::with_capacity(m);
        let mut spec_im = Vec::with_capacity(m);
        for c in spec.iter() {
            let q = ComplexQ15::from_complex64(*c / max);
            spec_re.push(q.re.0 as i32);
            spec_im.push(q.im.0 as i32);
        }
        let mut chirp_re = Vec::with_capacity(n);
        let mut chirp_im = Vec::with_capacity(n);
        for c in chirp_f64.iter() {
            let q = ComplexQ15::from_complex64(*c);
            chirp_re.push(q.re.0 as i32);
            chirp_im.push(q.im.0 as i32);
        }
        Ok(Self {
            inner,
            chirp_re,
            chirp_im,
            spec_re,
            spec_im,
            chirp_spectrum_scale: max,
            scratch_re: vec![0; m],
            scratch_im: vec![0; m],
        })
    }

    /// In-place forward DFT of length `n` via chirp-z. Returns the scale
    /// factor: true DFT = dequantised output × scale.
    fn forward(&mut self, data: &mut [ComplexQ15]) -> Result<f64> {
        let n = data.len();
        let m = self.scratch_re.len();
        let (s_re, s_im) = (&mut self.scratch_re, &mut self.scratch_im);
        let mut scale = 1.0f64;
        let bias = 1i64 << 15;
        for (j, d) in data.iter().enumerate() {
            let (ar, ai) = (d.re.0 as i64, d.im.0 as i64);
            let (br, bi) = (self.chirp_re[j] as i64, self.chirp_im[j] as i64);
            s_re[j] = lanes::sat16_i64((ar * br - ai * bi + bias) >> 16);
            s_im[j] = lanes::sat16_i64((ar * bi + ai * br + bias) >> 16);
        }
        scale *= 2.0; // the half-scaled product halves the value
        for j in n..m {
            s_re[j] = 0;
            s_im[j] = 0;
        }
        scale *= 2f64.powi(self.inner.forward_soa(s_re, s_im)?);
        lanes::cmul_half_q15(s_re, s_im, &self.spec_re, &self.spec_im);
        scale *= 2.0 * self.chirp_spectrum_scale;
        scale *= 2f64.powi(self.inner.inverse_raw_soa(s_re, s_im)?) / m as f64;
        for (j, d) in data.iter_mut().enumerate() {
            let (ar, ai) = (s_re[j] as i64, s_im[j] as i64);
            let (br, bi) = (self.chirp_re[j] as i64, self.chirp_im[j] as i64);
            *d = ComplexQ15::new(
                Q15(lanes::sat16_i64((ar * br - ai * bi + bias) >> 16) as i16),
                Q15(lanes::sat16_i64((ar * bi + ai * br + bias) >> 16) as i16),
            );
        }
        Ok(scale * 2.0)
    }
}

enum FixedPlanKind {
    Radix2(FixedRadix2Plan),
    Bluestein(FixedBluesteinPlan),
}

/// A reusable BFP FFT plan for one fixed transform length (any length ≥ 1).
///
/// Power-of-two lengths run the table-driven BFP radix-2 path; other
/// lengths run Bluestein's chirp-z algorithm against cached Q15 chirp
/// state. Transforms return a scale factor `s` such that the true
/// (mathematically exact) transform equals the dequantised Q15 output
/// times `s`; for the pure radix-2 path `s` is an exact power of two (the
/// per-stage shift count), for Bluestein it additionally folds in the
/// constant chirp-spectrum quantisation scale.
pub struct FixedFftPlan {
    len: usize,
    kind: FixedPlanKind,
}

impl std::fmt::Debug for FixedFftPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            FixedPlanKind::Radix2(_) => "radix-2",
            FixedPlanKind::Bluestein(_) => "bluestein",
        };
        f.debug_struct("FixedFftPlan")
            .field("len", &self.len)
            .field("kind", &kind)
            .finish()
    }
}

impl FixedFftPlan {
    /// Builds a plan for transforms of length `n` (any `n ≥ 1`).
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DspError::InvalidLength {
                reason: "fixed-point FFT plan length must be positive",
            });
        }
        let kind = if is_pow2(n) {
            FixedPlanKind::Radix2(FixedRadix2Plan::new(n)?)
        } else {
            FixedPlanKind::Bluestein(FixedBluesteinPlan::new(n)?)
        };
        Ok(Self { len: n, kind })
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for the degenerate length-0 plan (never constructable).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward DFT. Returns the scale factor: true DFT =
    /// dequantised output × scale.
    pub fn process_forward(&mut self, data: &mut [ComplexQ15]) -> Result<f64> {
        self.check(data)?;
        match &mut self.kind {
            FixedPlanKind::Radix2(p) => Ok(2f64.powi(p.forward(data)?)),
            FixedPlanKind::Bluestein(p) => p.forward(data),
        }
    }

    /// In-place inverse DFT (the `1/N` normalisation is folded into the
    /// returned scale). True IDFT = dequantised output × scale.
    pub fn process_inverse(&mut self, data: &mut [ComplexQ15]) -> Result<f64> {
        self.check(data)?;
        match &mut self.kind {
            FixedPlanKind::Radix2(p) => {
                let shifts = p.inverse_raw(data)?;
                Ok(2f64.powi(shifts) / self.len as f64)
            }
            FixedPlanKind::Bluestein(p) => {
                // DFT⁻¹(x) = conj(DFT(conj(x))) / N.
                for x in data.iter_mut() {
                    *x = x.conj();
                }
                let scale = p.forward(data)?;
                for x in data.iter_mut() {
                    *x = x.conj();
                }
                Ok(scale / self.len as f64)
            }
        }
    }

    fn check(&self, data: &[ComplexQ15]) -> Result<()> {
        if data.len() != self.len {
            return Err(DspError::InvalidLength {
                reason: "buffer length does not match the fixed-point FFT plan length",
            });
        }
        Ok(())
    }
}

/// A thread-safe pool of [`FixedFftPlan`]s for **one fixed length**,
/// mirroring [`crate::plan::PlanPool`]: `with` checks a plan out (cloning a
/// fresh one only under contention), runs the closure, and returns it.
pub struct FixedPlanPool {
    len: usize,
    pool: Mutex<Vec<FixedFftPlan>>,
}

impl std::fmt::Debug for FixedPlanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedPlanPool")
            .field("len", &self.len)
            .finish()
    }
}

impl Clone for FixedPlanPool {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl FixedPlanPool {
    /// Creates a pool for transforms of length `n`, with one plan built
    /// eagerly.
    pub fn new(n: usize) -> Result<Self> {
        let first = FixedFftPlan::new(n)?;
        Ok(Self {
            len: n,
            pool: Mutex::new(vec![first]),
        })
    }

    /// The transform length of every plan in this pool.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for the degenerate length-0 pool (never constructable).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs `f` with a checked-out plan.
    pub fn with<R>(&self, f: impl FnOnce(&mut FixedFftPlan) -> R) -> R {
        let plan = self.pool.lock().expect("fixed plan pool poisoned").pop();
        let mut plan = match plan {
            Some(p) => p,
            None => FixedFftPlan::new(self.len).expect("pool length validated at construction"),
        };
        let result = f(&mut plan);
        self.pool
            .lock()
            .expect("fixed plan pool poisoned")
            .push(plan);
        result
    }
}

/// Reusable per-call buffers for the Q15 matched filter.
struct FixedScratch {
    /// SoA real half of the widened block buffer (the filter's FFT length).
    block_re: Vec<i32>,
    /// SoA imaginary half of the widened block buffer.
    block_im: Vec<i32>,
    /// The whole signal quantised once per call.
    qsig: Vec<i16>,
    /// Exact integer prefix sums of squared quantised samples.
    prefix: Vec<i64>,
}

/// A precomputed Q15 overlap-save matched filter for one fixed template,
/// with the API of [`crate::matched::MatchedFilter`] but a complex-FFT
/// block (no real-input packing) of `next_pow2(4 · template_len)`, at least
/// 1024 samples.
///
/// The template is quantised to Q15 by its peak, its conjugated spectrum is
/// stored as Q15 with a block-floating-point scale, and every per-block
/// step (forward BFP FFT, pointwise integer product, inverse BFP FFT) runs
/// in 16-bit data with wide integer accumulators — in widened SoA form
/// through the `[i32; 8]` lane kernels. Incoming `f64` signals are
/// quantised once per call by their peak — the automatic-gain-control
/// step a phone's capture path performs — and the sliding-window energies
/// used for normalisation are exact 64-bit integer prefix sums of the
/// quantised samples, so numerator and denominator see the same
/// quantisation.
pub struct Q15MatchedFilter {
    template_len: usize,
    fft_len: usize,
    /// Valid lags produced per block: `fft_len − template_len + 1`.
    step: usize,
    /// Conjugated template spectrum, widened SoA halves.
    tspec_re: Vec<i32>,
    tspec_im: Vec<i32>,
    /// True template spectrum = dequantised spectrum × this factor
    /// (BFP shifts of the template transform × the template's peak).
    template_spectrum_scale: f64,
    /// L2 norm of the quantised-then-rescaled template.
    template_norm: f64,
    plan: FixedRadix2Plan,
    pool: Mutex<Vec<FixedScratch>>,
}

impl std::fmt::Debug for Q15MatchedFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Q15MatchedFilter")
            .field("template_len", &self.template_len)
            .field("fft_len", &self.fft_len)
            .finish()
    }
}

impl Clone for Q15MatchedFilter {
    fn clone(&self) -> Self {
        Self {
            template_len: self.template_len,
            fft_len: self.fft_len,
            step: self.step,
            tspec_re: self.tspec_re.clone(),
            tspec_im: self.tspec_im.clone(),
            template_spectrum_scale: self.template_spectrum_scale,
            template_norm: self.template_norm,
            plan: self.plan.clone(),
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl Q15MatchedFilter {
    /// Builds a Q15 matched filter for `template`. The template must be
    /// non-empty with non-zero energy, as for the `f64` filter.
    pub fn new(template: &[f64]) -> Result<Self> {
        if template.is_empty() {
            return Err(DspError::InvalidLength {
                reason: "matched-filter template must be non-empty",
            });
        }
        let peak = template.iter().fold(0.0f64, |m, &t| m.max(t.abs()));
        if peak == 0.0 {
            return Err(DspError::InvalidParameter {
                reason: "template has zero energy",
            });
        }
        let m = template.len();
        let fft_len = next_pow2(4 * m).max(1024);
        let plan = FixedRadix2Plan::new(fft_len)?;
        let mut tspec_re = vec![0i32; fft_len];
        let mut tspec_im = vec![0i32; fft_len];
        let mut template_norm_sq = 0.0f64;
        for (slot, &t) in tspec_re.iter_mut().zip(template.iter()) {
            let q = Q15::from_f64(t / peak);
            let tq = q.to_f64() * peak;
            template_norm_sq += tq * tq;
            *slot = q.0 as i32;
        }
        let shifts = plan.forward_soa(&mut tspec_re, &mut tspec_im)?;
        // Conjugate with the same i16 saturating negation the scalar path
        // used (−32768 saturates to 32767 instead of wrapping).
        for x in tspec_im.iter_mut() {
            *x = (*x as i16).saturating_neg() as i32;
        }
        Ok(Self {
            template_len: m,
            fft_len,
            step: fft_len - m + 1,
            tspec_re,
            tspec_im,
            template_spectrum_scale: 2f64.powi(shifts) * peak,
            template_norm: template_norm_sq.sqrt(),
            plan,
            pool: Mutex::new(Vec::new()),
        })
    }

    /// Length of the template this filter was built for.
    pub fn template_len(&self) -> usize {
        self.template_len
    }

    /// Returns true for the degenerate empty-template filter (never
    /// constructable).
    pub fn is_empty(&self) -> bool {
        self.template_len == 0
    }

    /// FFT block length used internally.
    pub fn block_len(&self) -> usize {
        self.fft_len
    }

    /// Number of valid correlation lags for a signal of `signal_len`
    /// samples, or an error when the signal is shorter than the template.
    pub fn output_len(&self, signal_len: usize) -> Result<usize> {
        if signal_len < self.template_len {
            return Err(DspError::InvalidLength {
                reason: "template longer than signal",
            });
        }
        Ok(signal_len - self.template_len + 1)
    }

    /// Raw valid-lag cross-correlation (same definition as
    /// [`crate::correlation::xcorr_fft`], computed on the Q15 path) into a
    /// caller buffer.
    pub fn correlate_into(&self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.run(signal, out, false)
    }

    /// Normalised valid-lag cross-correlation (same definition as
    /// [`crate::correlation::xcorr_normalized`], computed on the Q15 path)
    /// into a caller buffer.
    pub fn correlate_normalized_into(&self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.run(signal, out, true)
    }

    /// Convenience wrapper returning a fresh vector of normalised
    /// correlations.
    pub fn correlate_normalized(&self, signal: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.correlate_normalized_into(signal, &mut out)?;
        Ok(out)
    }

    fn run(&self, signal: &[f64], out: &mut Vec<f64>, normalize: bool) -> Result<()> {
        if signal.is_empty() {
            return Err(DspError::InvalidLength {
                reason: "correlation inputs must be non-empty",
            });
        }
        let n_out = self.output_len(signal.len())?;
        let mut scratch = self.acquire();
        let result = self.run_with_scratch(signal, out, normalize, n_out, &mut scratch);
        self.release(scratch);
        result
    }

    fn run_with_scratch(
        &self,
        signal: &[f64],
        out: &mut Vec<f64>,
        normalize: bool,
        n_out: usize,
        scratch: &mut FixedScratch,
    ) -> Result<()> {
        let n = signal.len();
        let l = self.fft_len;
        out.clear();
        out.reserve(n_out);

        // Per-call gain: quantise the stream by its peak (the AGC a phone's
        // capture path applies before fixed-point processing).
        let sig_peak = signal.iter().fold(0.0f64, |m, &s| m.max(s.abs()));
        let gain = if sig_peak > 0.0 { sig_peak } else { 1.0 };
        let qsig = &mut scratch.qsig;
        qsig.clear();
        qsig.reserve(n);
        qsig.extend(signal.iter().map(|&s| Q15::from_f64(s / gain).raw()));

        if normalize {
            let prefix = &mut scratch.prefix;
            prefix.clear();
            prefix.reserve(n + 1);
            prefix.push(0);
            let mut acc = 0i64;
            for &q in qsig.iter() {
                acc += q as i64 * q as i64;
                prefix.push(acc);
            }
        }

        // Overlap-save: block `p` covers signal[p .. p+L); valid on the
        // first L − m + 1 lags.
        let re = &mut scratch.block_re;
        let im = &mut scratch.block_im;
        let qsig = &scratch.qsig;
        let mut p = 0usize;
        while p < n_out {
            let available = (n - p).min(l);
            for (slot, &q) in re.iter_mut().zip(qsig[p..p + available].iter()) {
                *slot = q as i32;
            }
            for slot in re[available..l].iter_mut() {
                *slot = 0;
            }
            for slot in im.iter_mut() {
                *slot = 0;
            }
            // The plan renormalises quiet blocks up internally (blocks
            // are quantised against the whole stream's peak), so the FFT
            // always runs on a full mantissa.
            let mut scale = 2f64.powi(self.plan.forward_soa(re, im)?);
            lanes::cmul_half_q15(re, im, &self.tspec_re, &self.tspec_im);
            scale *= 2.0 * self.template_spectrum_scale;
            scale /= f64::from(1u32 << lanes::renormalize_up_i32(re, im, STAGE_GUARD));
            scale *= 2f64.powi(self.plan.inverse_raw_soa(re, im)?) / l as f64;
            // Undo the signal quantisation gain at the boundary.
            scale *= gain;
            let take = self.step.min(n_out - p);
            out.extend(re[..take].iter().map(|&v| v as f64 / Q15_ONE * scale));
            p += self.step;
        }

        if normalize {
            // Denominator from the *quantised* samples, so numerator and
            // denominator share the quantisation error.
            let prefix = &scratch.prefix;
            let m = self.template_len;
            let q_to_f = gain / Q15_ONE;
            for (k, r) in out.iter_mut().enumerate() {
                let win_energy = (prefix[k + m] - prefix[k]) as f64 * q_to_f * q_to_f;
                let denom = self.template_norm * win_energy.sqrt();
                *r = if denom > 0.0 { *r / denom } else { 0.0 };
            }
        }
        Ok(())
    }

    fn acquire(&self) -> FixedScratch {
        self.pool
            .lock()
            .expect("q15 matched-filter pool poisoned")
            .pop()
            .unwrap_or_else(|| FixedScratch {
                block_re: vec![0; self.fft_len],
                block_im: vec![0; self.fft_len],
                qsig: Vec::new(),
                prefix: Vec::new(),
            })
    }

    fn release(&self, scratch: FixedScratch) {
        self.pool
            .lock()
            .expect("q15 matched-filter pool poisoned")
            .push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, fft_any};

    fn quantize(signal: &[Complex64]) -> Vec<ComplexQ15> {
        signal
            .iter()
            .map(|&c| ComplexQ15::from_complex64(c))
            .collect()
    }

    fn dequantize(data: &[ComplexQ15], scale: f64) -> Vec<Complex64> {
        data.iter().map(|c| c.to_complex64() * scale).collect()
    }

    /// Signal-to-quantisation-noise ratio (dB) of `fix` against `reference`.
    fn sqnr_db(reference: &[Complex64], fix: &[Complex64]) -> f64 {
        let sig: f64 = reference.iter().map(|c| c.norm_sqr()).sum();
        let err: f64 = reference
            .iter()
            .zip(fix.iter())
            .map(|(r, f)| (*r - *f).norm_sqr())
            .sum();
        10.0 * (sig / err.max(f64::MIN_POSITIVE)).log10()
    }

    fn test_signal(n: usize, amp: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    amp * (i as f64 * 0.37).sin(),
                    amp * 0.5 * (i as f64 * 0.11).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn q15_conversion_and_saturation() {
        assert_eq!(Q15::from_f64(0.0), Q15::ZERO);
        assert_eq!(Q15::from_f64(-1.0), Q15::MIN);
        assert_eq!(Q15::from_f64(1.0), Q15::MAX);
        assert_eq!(Q15::from_f64(5.0), Q15::MAX);
        assert_eq!(Q15::from_f64(-5.0), Q15::MIN);
        assert_eq!(Q15::from_f64(f64::NAN).raw(), 0);
        assert!((Q15::from_f64(0.5).to_f64() - 0.5).abs() < 1.0 / Q15_ONE);
        // Saturating ops never wrap.
        assert_eq!(Q15::MAX.saturating_add(Q15::MAX), Q15::MAX);
        assert_eq!(Q15::MIN.saturating_sub(Q15::MAX), Q15::MIN);
        assert_eq!(Q15::MIN.saturating_mul(Q15::MIN), Q15::MAX);
        let half = Q15::from_f64(0.5);
        assert!((half.saturating_mul(half).to_f64() - 0.25).abs() < 2.0 / Q15_ONE);
    }

    #[test]
    fn complex_mul_matches_f64_expansion() {
        let a = Complex64::new(0.31, -0.52);
        let b = Complex64::new(-0.44, 0.17);
        let qa = ComplexQ15::from_complex64(a);
        let qb = ComplexQ15::from_complex64(b);
        let prod = qa.saturating_mul(qb).to_complex64();
        let truth = a * b;
        assert!((prod.re - truth.re).abs() < 4.0 / Q15_ONE, "{prod:?}");
        assert!((prod.im - truth.im).abs() < 4.0 / Q15_ONE, "{prod:?}");
        // Conjugate of the most negative imaginary saturates, not wraps.
        let edge = ComplexQ15::new(Q15::ZERO, Q15::MIN);
        assert_eq!(edge.conj().im, Q15::MAX);
    }

    #[test]
    fn radix2_forward_tracks_the_oracle() {
        for n in [4usize, 64, 256, 2048] {
            let signal = test_signal(n, 0.5);
            let reference = fft(&signal).unwrap();
            let mut data = quantize(&signal);
            let plan = FixedRadix2Plan::new(n).unwrap();
            let shifts = plan.forward(&mut data).unwrap();
            let got = dequantize(&data, 2f64.powi(shifts));
            let snr = sqnr_db(&reference, &got);
            assert!(snr >= 60.0, "n={n}: SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn lane_path_is_bit_identical_to_the_scalar_reference() {
        for n in [1usize, 2, 16, 256, 2048] {
            for amp in [0.01, 0.5, 0.98] {
                let signal = test_signal(n, amp);
                let plan = FixedRadix2Plan::new(n).unwrap();
                let mut lane = quantize(&signal);
                let mut scalar = lane.clone();
                let s_lane = plan.forward(&mut lane).unwrap();
                let s_scalar = plan.forward_scalar(&mut scalar).unwrap();
                assert_eq!(s_lane, s_scalar, "forward shifts n={n} amp={amp}");
                assert_eq!(lane, scalar, "forward n={n} amp={amp}");
                let s_lane = plan.inverse_raw(&mut lane).unwrap();
                let s_scalar = plan.inverse_raw_scalar(&mut scalar).unwrap();
                assert_eq!(s_lane, s_scalar, "inverse shifts n={n} amp={amp}");
                assert_eq!(lane, scalar, "inverse n={n} amp={amp}");
            }
        }
    }

    #[test]
    fn soa_entry_points_match_the_interleaved_wrappers() {
        for n in [4usize, 64, 1024] {
            let signal = test_signal(n, 0.6);
            let plan = FixedRadix2Plan::new(n).unwrap();
            let mut aos = quantize(&signal);
            let mut re: Vec<i32> = aos.iter().map(|c| c.re.0 as i32).collect();
            let mut im: Vec<i32> = aos.iter().map(|c| c.im.0 as i32).collect();
            let s_aos = plan.forward(&mut aos).unwrap();
            let s_soa = plan.forward_soa(&mut re, &mut im).unwrap();
            assert_eq!(s_aos, s_soa);
            for (c, (r, x)) in aos.iter().zip(re.iter().zip(im.iter())) {
                assert_eq!(c.re.0 as i32, *r);
                assert_eq!(c.im.0 as i32, *x);
            }
        }
    }

    #[test]
    fn fixed_plan_roundtrip_preserves_the_signal() {
        for n in [64usize, 1024, 2048] {
            let signal = test_signal(n, 0.7);
            let mut data = quantize(&signal);
            let mut plan = FixedFftPlan::new(n).unwrap();
            let s1 = plan.process_forward(&mut data).unwrap();
            let s2 = plan.process_inverse(&mut data).unwrap();
            let got = dequantize(&data, s1 * s2);
            let snr = sqnr_db(&signal, &got);
            // Round-trips pay two transforms' rounding noise; 2048 (the
            // correlator block) is the worst case at ~60 dB.
            assert!(snr >= 58.0, "n={n}: round-trip SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn bluestein_fixed_plan_handles_the_symbol_length() {
        for n in [45usize, 97, 1920] {
            let signal = test_signal(n, 0.6);
            let reference = fft_any(&signal).unwrap();
            let mut data = quantize(&signal);
            let mut plan = FixedFftPlan::new(n).unwrap();
            let scale = plan.process_forward(&mut data).unwrap();
            let got = dequantize(&data, scale);
            let snr = sqnr_db(&reference, &got);
            assert!(snr >= 50.0, "n={n}: Bluestein SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn full_scale_input_does_not_saturate_the_fft() {
        // ±1.0 square-ish input: the BFP guard must absorb the growth.
        let n = 256;
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_re(if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let reference = fft(&signal).unwrap();
        let mut data = quantize(&signal);
        let mut plan = FixedFftPlan::new(n).unwrap();
        let scale = plan.process_forward(&mut data).unwrap();
        let got = dequantize(&data, scale);
        // The single full-scale bin must land at the right place with the
        // right magnitude.
        let snr = sqnr_db(&reference, &got);
        assert!(snr >= 55.0, "full-scale SQNR {snr:.1} dB");
    }

    #[test]
    fn zero_input_stays_zero() {
        let mut data = vec![ComplexQ15::ZERO; 512];
        let mut plan = FixedFftPlan::new(512).unwrap();
        let scale = plan.process_forward(&mut data).unwrap();
        assert!(scale.is_finite());
        assert!(data.iter().all(|c| *c == ComplexQ15::ZERO));
        let scale = plan.process_inverse(&mut data).unwrap();
        assert!(scale.is_finite());
        assert!(data.iter().all(|c| *c == ComplexQ15::ZERO));
    }

    #[test]
    fn plan_rejects_bad_lengths() {
        assert!(FixedFftPlan::new(0).is_err());
        assert!(FixedRadix2Plan::new(0).is_err());
        assert!(FixedRadix2Plan::new(48).is_err());
        assert!(FixedPlanPool::new(0).is_err());
        let mut plan = FixedFftPlan::new(64).unwrap();
        let mut wrong = vec![ComplexQ15::ZERO; 32];
        assert!(plan.process_forward(&mut wrong).is_err());
        assert!(plan.process_inverse(&mut wrong).is_err());
        let radix = FixedRadix2Plan::new(64).unwrap();
        assert!(radix.forward_soa(&mut [0; 32], &mut [0; 64]).is_err());
        assert!(radix.inverse_raw_soa(&mut [0; 64], &mut [0; 32]).is_err());
        assert!(radix.forward_scalar(&mut [ComplexQ15::ZERO; 16]).is_err());
        assert!(radix
            .inverse_raw_scalar(&mut [ComplexQ15::ZERO; 16])
            .is_err());
    }

    #[test]
    fn fixed_pool_shares_and_replenishes() {
        let pool = FixedPlanPool::new(1920).unwrap();
        assert_eq!(pool.len(), 1920);
        let signal = test_signal(1920, 0.6);
        let reference = fft_any(&signal).unwrap();
        let out = pool.with(|outer| {
            let mut a = quantize(&signal);
            let sa = outer.process_forward(&mut a).unwrap();
            let b = pool.with(|inner| {
                let mut b = quantize(&signal);
                let sb = inner.process_forward(&mut b).unwrap();
                dequantize(&b, sb)
            });
            (dequantize(&a, sa), b)
        });
        assert!(sqnr_db(&reference, &out.0) >= 50.0);
        assert!(sqnr_db(&reference, &out.1) >= 50.0);
    }

    #[test]
    fn q15_matched_filter_finds_the_template() {
        let template: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.31).cos()).collect();
        let mut signal: Vec<f64> = (0..4001)
            .map(|i| 0.01 * ((i as f64) * 0.377).sin())
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[900 + i] += t;
        }
        let filter = Q15MatchedFilter::new(&template).unwrap();
        let corr = filter.correlate_normalized(&signal).unwrap();
        let (idx, peak) = crate::correlation::argmax(&corr).unwrap();
        assert_eq!(idx, 900);
        assert!(peak > 0.9, "peak {peak}");
        // Against the f64 oracle: same definition, quantisation-level gap
        // at the peak. Quiet lags sharing an overlap-save block with the
        // loud template inherit the block's BFP noise floor and their tiny
        // window energies amplify it, so the global bound is looser — the
        // noise there stays far below the detector's 0.15 candidate
        // threshold.
        let reference = crate::correlation::xcorr_normalized(&signal, &template).unwrap();
        assert_eq!(corr.len(), reference.len());
        assert!(
            (corr[900] - reference[900]).abs() < 0.01,
            "peak value {} vs {}",
            corr[900],
            reference[900]
        );
        let max_err = corr
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.12, "max normalised-corr error {max_err}");
    }

    #[test]
    fn q15_matched_filter_edge_cases() {
        assert!(Q15MatchedFilter::new(&[]).is_err());
        assert!(Q15MatchedFilter::new(&[0.0; 32]).is_err());
        let filter = Q15MatchedFilter::new(&[1.0, -1.0, 0.5]).unwrap();
        let mut out = Vec::new();
        assert!(filter.correlate_into(&[], &mut out).is_err());
        assert!(filter.correlate_into(&[1.0, 2.0], &mut out).is_err());
        assert_eq!(filter.output_len(10).unwrap(), 8);
        // All-zero signal: raw and normalised outputs are exactly zero.
        let zeros = vec![0.0; 64];
        filter.correlate_normalized_into(&zeros, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        filter.correlate_into(&zeros, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        // Repeated calls through the pooled scratch are bit-identical; a
        // clone starts with an empty pool but computes the same result.
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.9).sin()).collect();
        let filter = Q15MatchedFilter::new(&template).unwrap();
        let signal: Vec<f64> = (0..1200).map(|i| ((i as f64) * 0.23).sin()).collect();
        let first = filter.correlate_normalized(&signal).unwrap();
        for _ in 0..3 {
            assert_eq!(filter.correlate_normalized(&signal).unwrap(), first);
        }
        assert_eq!(filter.clone().correlate_normalized(&signal).unwrap(), first);
    }

    #[test]
    fn numeric_path_slugs() {
        assert_eq!(NumericPath::F64.slug(), "f64");
        assert_eq!(NumericPath::F32.slug(), "f32");
        assert_eq!(NumericPath::Q15.slug(), "q15");
        assert_eq!(NumericPath::default(), NumericPath::F64);
    }
}
