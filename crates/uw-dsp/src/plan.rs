//! Plan-based FFT execution.
//!
//! The free functions in [`crate::fft`] recompute twiddle factors (and, for
//! non-power-of-two lengths, the entire Bluestein chirp setup) on every
//! call and allocate fresh buffers throughout. That is fine for one-off
//! transforms, but the ranging hot path runs the *same* transform sizes
//! thousands of times per session: 2048/4096-point FFTs inside the
//! correlators and 1920-point Bluestein transforms for every OFDM symbol.
//!
//! An [`FftPlan`] precomputes everything that depends only on the length —
//! the bit-reversal permutation, per-stage twiddle tables (forward and
//! inverse), and for Bluestein lengths the chirp sequence, the chirp's
//! padded spectrum, and a scratch buffer — so steady-state
//! [`FftPlan::process_forward`] / [`FftPlan::process_inverse`] calls are
//! allocation-free. [`FftPlanner`] caches plans by length, and
//! [`PlanPool`] shares plans of one fixed length across threads without
//! serialising the transforms themselves.
//!
//! ## One plan layer, two float types
//!
//! [`Radix2Plan`], [`FftPlan`] and [`PlanPool`] are generic over the
//! sealed [`LaneFloat`] trait: `f64` (the default — the oracle path) and
//! `f32` (the phone path, twice the SIMD lanes per register). Every table
//! — twiddles, Bluestein chirp and chirp spectrum — is computed in `f64`
//! and rounded to `T` once, so an f32 plan's table error is ½ ULP rather
//! than accumulated. The differential harness (`tests/fixed_vs_float.rs`)
//! pins the f32 instantiation against the f64 oracle (≥ 100 dB SQNR for
//! radix-2 forward transforms, ≥ 95 dB for round-trips, ≥ 85 dB for
//! Bluestein at the paper's symbol length).
//!
//! ## Lane-kernel execution
//!
//! The butterflies run in **structure-of-arrays** form: twiddle tables are
//! stored as separate `re[]` / `im[]` vectors and the transform executes on
//! split real/imaginary buffers through the fixed-width kernels in
//! [`crate::lanes`]. `f32` fuses stages — the first three into one sweep of
//! closed 8-point cells, later ones in pairs — while `f64` runs one stage
//! per sweep, which measured faster for it ([`LaneFloat::FUSE_STAGES`]).
//! The interleaved
//! [`Radix2Plan::forward`] / [`Radix2Plan::inverse`] entry points take
//! [`Complex<T>`] buffers — they deinterleave into a pooled SoA scratch
//! (fusing the bit-reversal permutation into the gather), run the
//! lane-kernel stages, and interleave back — while SoA callers like
//! [`crate::matched::MatchedFilter`] use [`Radix2Plan::forward_soa`] /
//! [`Radix2Plan::inverse_soa`] directly and never touch interleaved storage
//! at all. The retired one-lane-per-sample implementation is retained as
//! [`Radix2Plan::forward_scalar`] / [`Radix2Plan::inverse_scalar`]: the
//! differential harness pins the lane path bit-identical to it on both
//! float types, so vectorization can never silently change answers.

use crate::complex::{Complex, Complex64};
use crate::fft::{is_pow2, next_pow2};
use crate::lanes::{self, LaneFloat};
use crate::{DspError, Result};
use std::collections::HashMap;
use std::sync::Mutex;

/// Reusable SoA buffers for the interleaved entry points.
#[derive(Debug, Default)]
struct SoaScratch<T> {
    re: Vec<T>,
    im: Vec<T>,
}

impl<T: LaneFloat> SoaScratch<T> {
    fn new(n: usize) -> Self {
        Self {
            re: vec![T::ZERO; n],
            im: vec![T::ZERO; n],
        }
    }
}

fn length_mismatch() -> DspError {
    DspError::InvalidLength {
        reason: "buffer length does not match the FFT plan length",
    }
}

fn zero_length() -> DspError {
    DspError::InvalidLength {
        reason: "FFT plan length must be positive",
    }
}

/// A radix-2 decimation-in-time FFT with precomputed bit-reversal and
/// structure-of-arrays twiddle tables (computed in `f64`, rounded to `T`
/// once), executed through the lane kernels in [`crate::lanes`]. The tables
/// are read-only after construction; the small internal SoA scratch pool is
/// mutex-guarded, so one plan can serve many threads concurrently.
pub struct Radix2Plan<T: LaneFloat = f64> {
    n: usize,
    /// Bit-reversed index for every position (length `n`).
    bitrev: Vec<u32>,
    /// Forward twiddle real parts, concatenated per stage: stage `s`
    /// (butterfly half-width `2^s`) occupies indices
    /// `2^s - 1 .. 2^(s+1) - 1`.
    tw_re_fwd: Vec<T>,
    /// Forward twiddle imaginary parts with the same layout.
    tw_im_fwd: Vec<T>,
    /// Inverse twiddle real parts with the same layout.
    tw_re_inv: Vec<T>,
    /// Inverse twiddle imaginary parts with the same layout.
    tw_im_inv: Vec<T>,
    /// Pooled SoA buffers for the interleaved `forward`/`inverse` wrappers.
    scratch: Mutex<Vec<SoaScratch<T>>>,
}

impl<T: LaneFloat> std::fmt::Debug for Radix2Plan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Radix2Plan").field("n", &self.n).finish()
    }
}

impl<T: LaneFloat> Clone for Radix2Plan<T> {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            bitrev: self.bitrev.clone(),
            tw_re_fwd: self.tw_re_fwd.clone(),
            tw_im_fwd: self.tw_im_fwd.clone(),
            tw_re_inv: self.tw_re_inv.clone(),
            tw_im_inv: self.tw_im_inv.clone(),
            scratch: Mutex::new(vec![SoaScratch::new(self.n)]),
        }
    }
}

impl<T: LaneFloat> Radix2Plan<T> {
    /// Builds a plan for a power-of-two length `n ≥ 1`.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(zero_length());
        }
        if !is_pow2(n) {
            return Err(DspError::InvalidLength {
                reason: "radix-2 plan length must be a power of two",
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
        // One table entry per butterfly twiddle; n-1 in total.
        let mut tw_re_fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im_fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_re_inv = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im_inv = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1usize;
        while half < n {
            let ang = std::f64::consts::PI / half as f64;
            for k in 0..half {
                // Computed in f64, rounded to T once: ½ ULP table error.
                let w = Complex64::from_angle(-ang * k as f64);
                tw_re_fwd.push(T::from_f64(w.re));
                tw_im_fwd.push(T::from_f64(w.im));
                tw_re_inv.push(T::from_f64(w.re));
                tw_im_inv.push(T::from_f64(-w.im));
            }
            half <<= 1;
        }
        Ok(Self {
            n,
            bitrev,
            tw_re_fwd,
            tw_im_fwd,
            tw_re_inv,
            tw_im_inv,
            scratch: Mutex::new(vec![SoaScratch::new(n)]),
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

    /// The 1/N normalisation factor of the inverse transform.
    fn inv_n(&self) -> T {
        T::ONE / T::from_f64(self.n as f64)
    }

    /// In-place forward FFT (unnormalised). Allocation-free in steady state.
    pub fn forward(&self, data: &mut [Complex<T>]) -> Result<()> {
        self.interleaved(data, true)
    }

    /// In-place inverse FFT (normalised by 1/N). Allocation-free in steady
    /// state.
    pub fn inverse(&self, data: &mut [Complex<T>]) -> Result<()> {
        self.interleaved(data, false)
    }

    fn interleaved(&self, data: &mut [Complex<T>], forward: bool) -> Result<()> {
        if data.len() != self.n {
            return Err(length_mismatch());
        }
        self.with_scratch(|re, im| {
            // Fuse the bit-reversal permutation into the deinterleave.
            for (i, (r, x)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                let c = data[self.bitrev[i] as usize];
                *r = c.re;
                *x = c.im;
            }
            self.stages(re, im, forward);
            if !forward {
                lanes::scale(re, im, self.inv_n());
            }
            for (c, (r, x)) in data.iter_mut().zip(re.iter().zip(im.iter())) {
                *c = Complex::new(*r, *x);
            }
        });
        Ok(())
    }

    /// In-place forward FFT on split real/imaginary buffers (unnormalised).
    /// The native SoA entry point: no interleaving, no scratch checkout,
    /// allocation-free.
    pub fn forward_soa(&self, re: &mut [T], im: &mut [T]) -> Result<()> {
        self.check_soa(re, im)?;
        self.permute_soa(re, im);
        self.stages(re, im, true);
        Ok(())
    }

    /// In-place inverse FFT on split real/imaginary buffers (normalised by
    /// 1/N). Allocation-free.
    pub fn inverse_soa(&self, re: &mut [T], im: &mut [T]) -> Result<()> {
        self.inverse_soa_unscaled(re, im)?;
        lanes::scale(re, im, self.inv_n());
        Ok(())
    }

    /// In-place inverse FFT on split real/imaginary buffers **without** the
    /// 1/N normalisation pass. Callers that already fold the scale into a
    /// precomputed spectrum (the overlap-save matched filter folds it into
    /// the template) skip two full memory sweeps per call this way.
    pub fn inverse_soa_unscaled(&self, re: &mut [T], im: &mut [T]) -> Result<()> {
        self.check_soa(re, im)?;
        self.permute_soa(re, im);
        self.stages(re, im, false);
        Ok(())
    }

    /// The retired one-lane-per-sample forward transform, kept as the
    /// reference the differential harness pins the lane kernels against
    /// (bit-identical output required).
    pub fn forward_scalar(&self, data: &mut [Complex<T>]) -> Result<()> {
        if data.len() != self.n {
            return Err(length_mismatch());
        }
        self.transform_scalar(data, true);
        Ok(())
    }

    /// The retired one-lane-per-sample inverse transform (normalised by
    /// 1/N); reference twin of [`Radix2Plan::inverse`].
    pub fn inverse_scalar(&self, data: &mut [Complex<T>]) -> Result<()> {
        if data.len() != self.n {
            return Err(length_mismatch());
        }
        self.transform_scalar(data, false);
        let scale = self.inv_n();
        for x in data.iter_mut() {
            *x = *x * scale;
        }
        Ok(())
    }

    fn check_soa(&self, re: &[T], im: &[T]) -> Result<()> {
        if re.len() != self.n || im.len() != self.n {
            return Err(length_mismatch());
        }
        Ok(())
    }

    fn with_scratch<R>(&self, f: impl FnOnce(&mut [T], &mut [T]) -> R) -> R {
        let mut buf = self
            .scratch
            .lock()
            .expect("radix-2 scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        buf.re.resize(self.n, T::ZERO);
        buf.im.resize(self.n, T::ZERO);
        let result = f(&mut buf.re, &mut buf.im);
        self.scratch
            .lock()
            .expect("radix-2 scratch pool poisoned")
            .push(buf);
        result
    }

    /// In-place bit-reversal permutation on SoA buffers.
    fn permute_soa(&self, re: &mut [T], im: &mut [T]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if j > i {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
    }

    /// Runs the butterfly stages on bit-reversed SoA data through the lane
    /// kernels.
    fn stages(&self, re: &mut [T], im: &mut [T], forward: bool) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let (twr, twi) = if forward {
            (&self.tw_re_fwd, &self.tw_im_fwd)
        } else {
            (&self.tw_re_inv, &self.tw_im_inv)
        };
        let mut half = 1usize;
        if T::FUSE_STAGES && n >= 8 {
            // Stages half=1,2,4 fused into one sweep of closed 8-point
            // cells (see `butterfly_first3`).
            lanes::butterfly_first3(re, im, &twr[0..7], &twi[0..7]);
            half = 8;
        }
        while half < n {
            // Table slice for this stage (see the layout note on the field).
            let swr = &twr[half - 1..2 * half - 1];
            let swi = &twi[half - 1..2 * half - 1];
            if half < T::LANES {
                // Sub-lane stages (all of them for unfused types, only
                // n < 8 otherwise) run as one flat kernel pass instead of
                // n/(2·half) tiny calls.
                lanes::butterfly_small(re, im, swr, swi);
                half <<= 1;
            } else if T::FUSE_STAGES && half * 2 < n {
                // Two more stages exist: fuse this stage with the next one
                // into a single radix-4-cell sweep.
                let nwr = &twr[2 * half - 1..4 * half - 1];
                let nwi = &twi[2 * half - 1..4 * half - 1];
                lanes::butterfly_pair(re, im, swr, swi, nwr, nwi);
                half <<= 2;
            } else {
                let mut start = 0usize;
                while start < n {
                    let (e_re, o_re) = re[start..start + 2 * half].split_at_mut(half);
                    let (e_im, o_im) = im[start..start + 2 * half].split_at_mut(half);
                    lanes::butterfly(e_re, e_im, o_re, o_im, swr, swi);
                    start += half << 1;
                }
                half <<= 1;
            }
        }
    }

    fn transform_scalar(&self, data: &mut [Complex<T>], forward: bool) {
        let n = self.n;
        if n == 1 {
            return;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let (twr, twi) = if forward {
            (&self.tw_re_fwd, &self.tw_im_fwd)
        } else {
            (&self.tw_re_inv, &self.tw_im_inv)
        };
        let mut half = 1usize;
        while half < n {
            let swr = &twr[half - 1..2 * half - 1];
            let swi = &twi[half - 1..2 * half - 1];
            let mut start = 0usize;
            while start < n {
                for k in 0..half {
                    let even = data[start + k];
                    let odd = data[start + k + half];
                    let pr = odd.re * swr[k] - odd.im * swi[k];
                    let pi = odd.re * swi[k] + odd.im * swr[k];
                    data[start + k] = Complex::new(even.re + pr, even.im + pi);
                    data[start + k + half] = Complex::new(even.re - pr, even.im - pi);
                }
                start += half << 1;
            }
            half <<= 1;
        }
    }
}

/// Bluestein (chirp-z) state for one non-power-of-two length, held in SoA
/// form so every step runs through the lane kernels. The chirp and its
/// spectrum are computed in `f64` and rounded to `T` once, so the
/// convolution kernel carries ½-ULP table error rather than a reduced-
/// precision FFT's accumulated error.
#[derive(Debug, Clone)]
struct BluesteinPlan<T: LaneFloat> {
    /// Inner radix-2 plan of length `m = next_pow2(2n − 1)`.
    inner: Radix2Plan<T>,
    /// Real parts of the chirp `w[j] = exp(−iπ j²/n)`, length `n`.
    chirp_re: Vec<T>,
    /// Imaginary parts of the chirp, length `n`.
    chirp_im: Vec<T>,
    /// Real parts of the FFT of the symmetrically extended conjugate chirp.
    spec_re: Vec<T>,
    /// Imaginary parts of the chirp spectrum, length `m`.
    spec_im: Vec<T>,
    /// Reusable SoA convolution buffers, length `m`.
    scratch_re: Vec<T>,
    scratch_im: Vec<T>,
}

impl<T: LaneFloat> BluesteinPlan<T> {
    fn new(n: usize) -> Result<Self> {
        let m = next_pow2(2 * n - 1);
        let inner = Radix2Plan::new(m)?;
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                // j² mod 2n keeps the phase argument small and exact.
                let jj = (j * j) % (2 * n);
                Complex64::from_angle(-std::f64::consts::PI * jj as f64 / n as f64)
            })
            .collect();
        let mut spec_re = vec![0.0; m];
        let mut spec_im = vec![0.0; m];
        for j in 0..n {
            let c = chirp[j].conj();
            spec_re[j] = c.re;
            spec_im[j] = c.im;
            if j != 0 {
                spec_re[m - j] = c.re;
                spec_im[m - j] = c.im;
            }
        }
        Radix2Plan::<f64>::new(m)?.forward_soa(&mut spec_re, &mut spec_im)?;
        let round = |v: &[f64]| -> Vec<T> { v.iter().map(|&x| T::from_f64(x)).collect() };
        Ok(Self {
            inner,
            chirp_re: chirp.iter().map(|c| T::from_f64(c.re)).collect(),
            chirp_im: chirp.iter().map(|c| T::from_f64(c.im)).collect(),
            spec_re: round(&spec_re),
            spec_im: round(&spec_im),
            scratch_re: vec![T::ZERO; m],
            scratch_im: vec![T::ZERO; m],
        })
    }

    /// In-place forward DFT of length `n` via chirp-z. Allocation-free.
    fn forward(&mut self, data: &mut [Complex<T>]) -> Result<()> {
        let n = data.len();
        let m = self.scratch_re.len();
        let (s_re, s_im) = (&mut self.scratch_re, &mut self.scratch_im);
        for (j, d) in data.iter().enumerate() {
            let (cr, ci) = (self.chirp_re[j], self.chirp_im[j]);
            s_re[j] = d.re * cr - d.im * ci;
            s_im[j] = d.re * ci + d.im * cr;
        }
        for j in n..m {
            s_re[j] = T::ZERO;
            s_im[j] = T::ZERO;
        }
        self.inner.forward_soa(s_re, s_im)?;
        lanes::cmul(s_re, s_im, &self.spec_re, &self.spec_im);
        self.inner.inverse_soa(s_re, s_im)?;
        for (j, d) in data.iter_mut().enumerate() {
            let (sr, si) = (s_re[j], s_im[j]);
            let (cr, ci) = (self.chirp_re[j], self.chirp_im[j]);
            *d = Complex::new(sr * cr - si * ci, sr * ci + si * cr);
        }
        Ok(())
    }
}

enum PlanKind<T: LaneFloat> {
    Radix2(Radix2Plan<T>),
    Bluestein(BluesteinPlan<T>),
}

/// A reusable FFT plan for one fixed transform length (any length ≥ 1).
///
/// Power-of-two lengths run the table-driven radix-2 path; other lengths run
/// Bluestein's chirp-z algorithm against cached chirp state. `process_*`
/// calls on a constructed plan perform **no heap allocation** — the scratch
/// the Bluestein path needs lives inside the plan, which is why the
/// processing methods take `&mut self`.
pub struct FftPlan<T: LaneFloat = f64> {
    len: usize,
    kind: PlanKind<T>,
}

impl<T: LaneFloat> std::fmt::Debug for FftPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            PlanKind::Radix2(_) => "radix-2",
            PlanKind::Bluestein(_) => "bluestein",
        };
        f.debug_struct("FftPlan")
            .field("len", &self.len)
            .field("kind", &kind)
            .finish()
    }
}

impl<T: LaneFloat> FftPlan<T> {
    /// Builds a plan for transforms of length `n` (any `n ≥ 1`).
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(zero_length());
        }
        let kind = if is_pow2(n) {
            PlanKind::Radix2(Radix2Plan::new(n)?)
        } else {
            PlanKind::Bluestein(BluesteinPlan::new(n)?)
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

    /// In-place forward DFT (unnormalised). Fails cleanly when `data` does
    /// not match the plan length; allocation-free otherwise.
    pub fn process_forward(&mut self, data: &mut [Complex<T>]) -> Result<()> {
        self.check(data)?;
        match &mut self.kind {
            PlanKind::Radix2(p) => p.forward(data),
            PlanKind::Bluestein(p) => p.forward(data),
        }
    }

    /// In-place inverse DFT (normalised by 1/N). Fails cleanly when `data`
    /// does not match the plan length; allocation-free otherwise.
    pub fn process_inverse(&mut self, data: &mut [Complex<T>]) -> Result<()> {
        self.check(data)?;
        match &mut self.kind {
            PlanKind::Radix2(p) => p.inverse(data),
            PlanKind::Bluestein(p) => {
                // DFT⁻¹(x) = conj(DFT(conj(x))) / N.
                for x in data.iter_mut() {
                    *x = x.conj();
                }
                p.forward(data)?;
                let scale = T::ONE / T::from_f64(self.len as f64);
                for x in data.iter_mut() {
                    *x = x.conj() * scale;
                }
                Ok(())
            }
        }
    }

    fn check(&self, data: &[Complex<T>]) -> Result<()> {
        if data.len() != self.len {
            return Err(length_mismatch());
        }
        Ok(())
    }
}

/// A cache of `f64` [`FftPlan`]s keyed by transform length.
///
/// Holding a planner across calls turns repeated transforms of the same
/// length into allocation-free table-driven passes; the first request for a
/// new length pays the one-time plan construction.
#[derive(Debug, Default)]
pub struct FftPlanner {
    plans: HashMap<usize, FftPlan>,
}

impl FftPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (building on first use) the plan for length `n`.
    pub fn plan(&mut self, n: usize) -> Result<&mut FftPlan> {
        if let std::collections::hash_map::Entry::Vacant(e) = self.plans.entry(n) {
            e.insert(FftPlan::new(n)?);
        }
        Ok(self.plans.get_mut(&n).expect("plan just inserted"))
    }

    /// In-place forward DFT of any length through the cached plan.
    pub fn fft_in_place(&mut self, data: &mut [Complex64]) -> Result<()> {
        self.plan(data.len())?.process_forward(data)
    }

    /// In-place inverse DFT of any length through the cached plan.
    pub fn ifft_in_place(&mut self, data: &mut [Complex64]) -> Result<()> {
        self.plan(data.len())?.process_inverse(data)
    }

    /// Number of distinct lengths planned so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }
}

/// A thread-safe pool of [`FftPlan`]s for **one fixed length**.
///
/// `with` checks a plan out of the pool (building a fresh one only when
/// every pooled plan is in use), runs the closure, and returns the plan to
/// the pool. Concurrent users therefore never serialise on a shared plan's
/// scratch, and in steady state the pool size equals the peak concurrency —
/// no per-call allocation.
pub struct PlanPool<T: LaneFloat = f64> {
    len: usize,
    pool: Mutex<Vec<FftPlan<T>>>,
}

impl<T: LaneFloat> std::fmt::Debug for PlanPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanPool").field("len", &self.len).finish()
    }
}

impl<T: LaneFloat> Clone for PlanPool<T> {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl<T: LaneFloat> PlanPool<T> {
    /// Creates a pool for transforms of length `n`, with one plan built
    /// eagerly so the first caller does not pay construction cost.
    pub fn new(n: usize) -> Result<Self> {
        let first = FftPlan::new(n)?;
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
    pub fn with<R>(&self, f: impl FnOnce(&mut FftPlan<T>) -> R) -> R {
        let plan = self.pool.lock().expect("plan pool poisoned").pop();
        let mut plan = match plan {
            Some(p) => p,
            None => FftPlan::new(self.len).expect("pool length was validated at construction"),
        };
        let result = f(&mut plan);
        self.pool.lock().expect("plan pool poisoned").push(plan);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::to_complex;
    use crate::fft::{fft, fft_any, ifft_any};

    fn assert_spectra_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.re - y.re).abs() <= tol, "{} vs {}", x.re, y.re);
            assert!((x.im - y.im).abs() <= tol, "{} vs {}", x.im, y.im);
        }
    }

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() * 0.5))
            .collect()
    }

    #[test]
    fn radix2_plan_matches_reference_fft() {
        for n in [1usize, 2, 4, 64, 256, 2048] {
            let signal = test_signal(n);
            let reference = fft(&signal).unwrap();
            let mut buf = signal.clone();
            let plan = Radix2Plan::new(n).unwrap();
            plan.forward(&mut buf).unwrap();
            assert_spectra_close(&buf, &reference, 1e-9);
            plan.inverse(&mut buf).unwrap();
            assert_spectra_close(&buf, &signal, 1e-9);
        }
    }

    fn cast<T: LaneFloat>(signal: &[Complex64]) -> Vec<Complex<T>> {
        signal.iter().map(|&c| Complex::from_complex64(c)).collect()
    }

    fn lane_path_matches_scalar<T: LaneFloat>() {
        for n in [1usize, 2, 4, 8, 16, 32, 256, 2048] {
            let signal = cast::<T>(&test_signal(n));
            let plan = Radix2Plan::<T>::new(n).unwrap();
            let mut lane = signal.clone();
            let mut scalar = signal.clone();
            plan.forward(&mut lane).unwrap();
            plan.forward_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "forward n={n}");
            plan.inverse(&mut lane).unwrap();
            plan.inverse_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "inverse n={n}");
        }
    }

    #[test]
    fn lane_path_is_bit_identical_to_the_scalar_reference() {
        lane_path_matches_scalar::<f64>();
    }

    fn soa_matches_interleaved<T: LaneFloat>() {
        for n in [4usize, 64, 1024] {
            let signal = cast::<T>(&test_signal(n));
            let plan = Radix2Plan::<T>::new(n).unwrap();
            let mut aos = signal.clone();
            plan.forward(&mut aos).unwrap();
            let mut re: Vec<T> = signal.iter().map(|c| c.re).collect();
            let mut im: Vec<T> = signal.iter().map(|c| c.im).collect();
            plan.forward_soa(&mut re, &mut im).unwrap();
            for (c, (r, x)) in aos.iter().zip(re.iter().zip(im.iter())) {
                assert_eq!(c.re, *r);
                assert_eq!(c.im, *x);
            }
            plan.inverse_soa(&mut re, &mut im).unwrap();
            let mut round = aos.clone();
            plan.inverse(&mut round).unwrap();
            for (c, (r, x)) in round.iter().zip(re.iter().zip(im.iter())) {
                assert_eq!(c.re, *r);
                assert_eq!(c.im, *x);
            }
        }
    }

    #[test]
    fn soa_entry_points_match_the_interleaved_wrappers() {
        soa_matches_interleaved::<f64>();
    }

    #[test]
    fn bluestein_plan_matches_reference_on_paper_symbol_length() {
        let n = 1920;
        let signal = test_signal(n);
        let reference = fft_any(&signal).unwrap();
        let mut plan = FftPlan::new(n).unwrap();
        let mut buf = signal.clone();
        plan.process_forward(&mut buf).unwrap();
        assert_spectra_close(&buf, &reference, 1e-8);
        plan.process_inverse(&mut buf).unwrap();
        assert_spectra_close(&buf, &signal, 1e-9);
    }

    #[test]
    fn plan_handles_odd_and_prime_lengths() {
        for n in [3usize, 5, 45, 97, 139, 961] {
            let signal = test_signal(n);
            let fwd_ref = fft_any(&signal).unwrap();
            let inv_ref = ifft_any(&signal).unwrap();
            let mut plan = FftPlan::new(n).unwrap();
            let mut buf = signal.clone();
            plan.process_forward(&mut buf).unwrap();
            assert_spectra_close(&buf, &fwd_ref, 1e-7);
            let mut buf = signal.clone();
            plan.process_inverse(&mut buf).unwrap();
            assert_spectra_close(&buf, &inv_ref, 1e-7);
        }
    }

    #[test]
    fn plan_is_reusable_without_drift() {
        let n = 1920;
        let signal = test_signal(n);
        let mut plan = FftPlan::new(n).unwrap();
        let mut first = signal.clone();
        plan.process_forward(&mut first).unwrap();
        for _ in 0..5 {
            let mut buf = signal.clone();
            plan.process_forward(&mut buf).unwrap();
            assert_spectra_close(&buf, &first, 0.0);
        }
    }

    #[test]
    fn mismatched_lengths_are_rejected_cleanly() {
        let mut plan = FftPlan::new(1920).unwrap();
        let mut wrong = vec![Complex64::ZERO; 1024];
        assert!(plan.process_forward(&mut wrong).is_err());
        assert!(plan.process_inverse(&mut wrong).is_err());
        // The plan still works after a rejected call.
        let mut right = vec![Complex64::ZERO; 1920];
        plan.process_forward(&mut right).unwrap();

        let plan2 = Radix2Plan::new(64).unwrap();
        assert!(plan2.forward(&mut vec![Complex64::ZERO; 32]).is_err());
        assert!(plan2.inverse(&mut vec![Complex64::ZERO; 128]).is_err());
        assert!(plan2
            .forward_soa(&mut vec![0.0; 32], &mut vec![0.0; 64])
            .is_err());
        assert!(plan2
            .inverse_soa(&mut vec![0.0; 64], &mut vec![0.0; 32])
            .is_err());
        assert!(plan2
            .forward_scalar(&mut vec![Complex64::ZERO; 16])
            .is_err());
        assert!(plan2
            .inverse_scalar(&mut vec![Complex64::ZERO; 16])
            .is_err());

        assert!(FftPlan::<f64>::new(0).is_err());
        assert!(Radix2Plan::<f64>::new(0).is_err());
        assert!(Radix2Plan::<f64>::new(48).is_err());
        assert!(PlanPool::<f64>::new(0).is_err());
    }

    #[test]
    fn planner_caches_by_length() {
        let mut planner = FftPlanner::new();
        let signal = test_signal(96);
        let mut buf = signal.clone();
        planner.fft_in_place(&mut buf).unwrap();
        planner.ifft_in_place(&mut buf).unwrap();
        assert_spectra_close(&buf, &signal, 1e-9);
        assert_eq!(planner.cached_plans(), 1);
        let mut other = test_signal(128);
        planner.fft_in_place(&mut other).unwrap();
        assert_eq!(planner.cached_plans(), 2);
        // Round-trip through the planner matches the one-shot reference.
        let reference = fft_any(&signal).unwrap();
        let mut again = signal.clone();
        planner.fft_in_place(&mut again).unwrap();
        assert_spectra_close(&again, &reference, 1e-8);
    }

    #[test]
    fn plan_pool_shares_and_replenishes() {
        let pool = PlanPool::new(1920).unwrap();
        assert_eq!(pool.len(), 1920);
        let signal = test_signal(1920);
        let reference = fft_any(&signal).unwrap();
        // Nested checkout forces the pool to build a second plan.
        let out = pool.with(|outer| {
            let mut a = signal.clone();
            outer.process_forward(&mut a).unwrap();
            let b = pool.with(|inner| {
                let mut b = signal.clone();
                inner.process_forward(&mut b).unwrap();
                b
            });
            (a, b)
        });
        assert_spectra_close(&out.0, &reference, 1e-8);
        assert_spectra_close(&out.1, &reference, 1e-8);
    }

    #[test]
    fn planner_fft_matches_on_real_padded_signal() {
        // The correlator use-case: real signal zero-padded to a power of two.
        let signal: Vec<f64> = (0..300).map(|i| ((i as f64) * 0.173).sin()).collect();
        let mut padded = to_complex(&signal);
        padded.resize(512, Complex64::ZERO);
        let reference = fft(&padded).unwrap();
        let mut planner = FftPlanner::new();
        let mut buf = padded.clone();
        planner.fft_in_place(&mut buf).unwrap();
        assert_spectra_close(&buf, &reference, 1e-9);
    }
}
