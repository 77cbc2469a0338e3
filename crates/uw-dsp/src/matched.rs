//! Streaming matched filter: overlap-save block correlation against a
//! fixed template.
//!
//! Preamble detection correlates every incoming microphone stream against
//! the *same* ~10 k-sample preamble. The one-shot [`crate::correlation`]
//! path pays, per call, two forward FFTs and one inverse FFT at
//! `next_pow2(signal + template)` — recomputing the template spectrum and
//! reallocating every buffer each time. [`MatchedFilter`] instead:
//!
//! * precomputes the template's conjugated half-spectrum **once** at a
//!   fixed block length,
//! * correlates arbitrarily long signals by **overlap-save**: each block of
//!   `L` input samples yields `L − template_len + 1` valid lags from one
//!   forward + one inverse half-length FFT through a cached table-driven
//!   plan,
//! * folds the prefix-sum normalisation of
//!   [`crate::correlation::xcorr_normalized`] into the same pass, and
//! * keeps its scratch in an internal pool, so steady-state calls are
//!   allocation-free and concurrent callers do not serialise on shared
//!   buffers.
//!
//! Output is the same definition as `xcorr_normalized` / `xcorr_fft`
//! (valid lags only), to within floating-point rounding of the different
//! FFT lengths.
//!
//! ## One filter, two float types
//!
//! The filter is generic over the lane float `T` ([`LaneFloat`]): `f64`
//! (the default — the oracle path) and `f32` (the phone path). Signals are
//! `f64` at the API boundary (the capture layer hands over `f64` streams)
//! and `T` structure-of-arrays inside: the template is cast once at
//! construction, incoming blocks are cast once per call, and every block
//! runs through the lane kernels in [`crate::lanes`]. Twist tables are
//! computed in `f64` and rounded once. The normalisation denominator uses
//! `f64` prefix sums **of the `T`-cast samples**, so numerator and
//! denominator see the same quantisation — the same policy the Q15 path
//! uses ([`crate::fixed::Q15MatchedFilter`]).
//!
//! The differential harness (`tests/fixed_vs_float.rs`) pins the f32
//! instantiation against the f64 one: matched-filter peak position within
//! ±1 sample and peak value within 1e-3 — inside the acoustic SNR budget.
//!
//! ## Real-input transform
//!
//! Both the block and the template are real, so each overlap-save block
//! runs a **real-input FFT**: the `fft_len` real samples are packed as
//! `z[j] = x[2j] + i·x[2j+1]` into one complex transform of length
//! `fft_len / 2`, untangled to the physical half-spectrum, multiplied by
//! the conjugated template half-spectrum, re-packed, and inverted through
//! a second half-length transform whose output interleaves the real
//! correlation samples. Untangle, spectrum product and re-pack are fused
//! into a single symmetric pass, so a block costs two half-length FFTs
//! plus one O(fft_len/2) sweep — about 2.5× less transform work than the
//! complex-FFT formulation, with exactly the same convolution in exact
//! arithmetic (the pack identities are algebraic, not approximate).
//!
//! ## Two-leg block plan
//!
//! The filter carries two overlap-save configurations: a *main* leg with
//! block length `next_pow2(2·template_len)` and, when that is a longer
//! power of two than `next_pow2(template_len)`, a half-size *tail* leg.
//! The final block of a stream rarely has a full step of lags left, so
//! once the remaining output fits the tail's step the block runs through
//! the half-size transform at roughly half the cost. Block positions
//! always advance by the main step.

use crate::fft::next_pow2;
use crate::lanes::LaneFloat;
use crate::plan::Radix2Plan;
use crate::{DspError, Result};
use std::sync::Mutex;

/// Reusable per-call buffers, checked out of the filter's pool.
struct Scratch<T> {
    /// SoA real half of the packed block buffer, sized for the **main**
    /// leg's half-length transform (the tail leg borrows a prefix).
    block_re: Vec<T>,
    /// SoA imaginary half of the packed block buffer.
    block_im: Vec<T>,
    /// f64 prefix sums of the squared `T`-cast samples.
    prefix: Vec<f64>,
}

/// One overlap-save configuration: a block length, the template
/// half-spectrum at that length, the untangle twist table, and the
/// half-length complex plan.
#[derive(Clone)]
struct Leg<T: LaneFloat> {
    /// Overlap-save block length in real samples (a power of two).
    fft_len: usize,
    /// Valid lags produced per block: `fft_len − template_len + 1`.
    step: usize,
    /// Conjugated template **half**-spectrum, SoA halves, `fft_len/2 + 1`
    /// bins (bins 0 and `fft_len/2` are real), pre-scaled by the inverse
    /// transform's 1/(fft_len/2) normalisation.
    tspec_re: Vec<T>,
    tspec_im: Vec<T>,
    /// Untangle twist factors `e^(−2πik/fft_len)` for `k = 0 ..= fft_len/2`,
    /// computed in f64 and rounded once.
    twist_re: Vec<T>,
    twist_im: Vec<T>,
    /// Half-length complex plan (`fft_len / 2`).
    plan: Radix2Plan<T>,
}

impl<T: LaneFloat> Leg<T> {
    /// Precomputes one leg: the twist table, the conjugated (and
    /// 1/H-scaled) template half-spectrum at `fft_len`, and the
    /// half-length plan. Requires `fft_len ≥ template.len()`.
    fn build(template: &[f64], fft_len: usize) -> Result<Self> {
        let m = template.len();
        let half = fft_len / 2;
        let plan = Radix2Plan::<T>::new(half)?;
        let h = T::from_f64(0.5);

        // Untangle twist factors, f64-computed, rounded once.
        let mut twist_re = Vec::with_capacity(half + 1);
        let mut twist_im = Vec::with_capacity(half + 1);
        for k in 0..=half {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / fft_len as f64;
            twist_re.push(T::from_f64(ang.cos()));
            twist_im.push(T::from_f64(ang.sin()));
        }

        // Template half-spectrum: pack the cast template into the
        // half-length transform and untangle to the physical bins.
        let mut pack_re = vec![T::ZERO; half];
        let mut pack_im = vec![T::ZERO; half];
        for (j, &t) in template.iter().enumerate() {
            let tf = T::from_f64(t);
            if j % 2 == 0 {
                pack_re[j / 2] = tf;
            } else {
                pack_im[j / 2] = tf;
            }
        }
        plan.forward_soa(&mut pack_re, &mut pack_im)?;
        let mut tspec_re = vec![T::ZERO; half + 1];
        let mut tspec_im = vec![T::ZERO; half + 1];
        let inv_h = T::ONE / T::from_f64(half as f64);
        for k in 0..=half {
            let j = (half - k) % half;
            let (zr, zi) = (pack_re[k % half], pack_im[k % half]);
            let (yr, yi) = (pack_re[j], pack_im[j]);
            // X[k] = (Z[k] + conj(Z[h−k]))/2 − i·W^k·(Z[k] − conj(Z[h−k]))/2
            let xer = h * (zr + yr);
            let xei = h * (zi - yi);
            let xor_ = h * (zi + yi);
            let xoi = -h * (zr - yr);
            let (wr, wi) = (twist_re[k], twist_im[k]);
            // Conjugated in place (the correlator multiplies by conj(T)) and
            // pre-scaled by 1/(fft_len/2): the half-length inverse transform
            // in `one_block` runs unnormalised, so its 1/H factor lives here,
            // applied once at construction instead of twice per block.
            tspec_re[k] = (xer + wr * xor_ - wi * xoi) * inv_h;
            tspec_im[k] = -(xei + wr * xoi + wi * xor_) * inv_h;
        }

        Ok(Self {
            fft_len,
            step: fft_len - m + 1,
            tspec_re,
            tspec_im,
            twist_re,
            twist_im,
            plan,
        })
    }

    /// One overlap-save block starting at lag `p`, computed in `T` through
    /// the lane kernels via the half-length real-input transform.
    fn one_block(
        &self,
        signal: &[f64],
        p: usize,
        n_out: usize,
        out: &mut [f64],
        scratch: &mut Scratch<T>,
    ) -> Result<()> {
        let n = signal.len();
        let h = self.fft_len / 2;
        let half = T::from_f64(0.5);
        // The scratch buffers are sized for the main leg; a tail leg
        // borrows a prefix.
        let re = &mut scratch.block_re[..h];
        let im = &mut scratch.block_im[..h];
        // Pack the real block: even samples → re, odd samples → im.
        let available = (n - p).min(self.fft_len);
        let block = &signal[p..p + available];
        let mut pairs = block.chunks_exact(2);
        let mut j = 0usize;
        for pair in &mut pairs {
            re[j] = T::from_f64(pair[0]);
            im[j] = T::from_f64(pair[1]);
            j += 1;
        }
        if let [last] = pairs.remainder() {
            re[j] = T::from_f64(*last);
            im[j] = T::ZERO;
            j += 1;
        }
        for slot in re[j..h].iter_mut() {
            *slot = T::ZERO;
        }
        for slot in im[j..h].iter_mut() {
            *slot = T::ZERO;
        }
        self.plan.forward_soa(re, im)?;

        // Fused untangle → spectrum product → inverse re-pack, one
        // symmetric pass over the half-spectrum. For each mirror pair
        // (k, h−k): untangle Z to the physical bins X[k], X[h−k],
        // multiply by the conjugated template spectrum, then fold the
        // products Y straight back into the packed form the half-length
        // inverse transform expects (z[j] = y[2j] + i·y[2j+1] spectrum).
        //
        // Bin 0 pairs with bin h (both real-valued products):
        // X[0] = Re Z[0] + Im Z[0], X[h] = Re Z[0] − Im Z[0].
        let x0 = re[0] + im[0];
        let xh = re[0] - im[0];
        let y0 = x0 * self.tspec_re[0];
        let yh = xh * self.tspec_re[h];
        re[0] = half * (y0 + yh);
        im[0] = half * (y0 - yh);
        let mut k = 1usize;
        while k <= h / 2 {
            let j = h - k;
            let (zkr, zki) = (re[k], im[k]);
            let (zjr, zji) = (re[j], im[j]);
            let (wr, wi) = (self.twist_re[k], self.twist_im[k]);

            // Untangle both mirror bins: X[k] = Xe + W^k·Xo with
            // Xe = (Z[k] + conj(Z[j]))/2, Xo = −i·(Z[k] − conj(Z[j]))/2,
            // and X[j] = conj(Xe) + W^j·conj(Xo), W^j = −conj(W^k).
            let xer = half * (zkr + zjr);
            let xei = half * (zki - zji);
            let xor_ = half * (zki + zji);
            let xoi = -half * (zkr - zjr);
            let xkr = xer + wr * xor_ - wi * xoi;
            let xki = xei + wr * xoi + wi * xor_;
            let xjr = xer - (wr * xor_ - wi * xoi);
            let xji = -xei + (wr * xoi + wi * xor_);

            // Pointwise product with the conjugated template spectrum.
            let (tkr, tki) = (self.tspec_re[k], self.tspec_im[k]);
            let (tjr, tji) = (self.tspec_re[j], self.tspec_im[j]);
            let ykr = xkr * tkr - xki * tki;
            let yki = xkr * tki + xki * tkr;
            let yjr = xjr * tjr - xji * tji;
            let yji = xjr * tji + xji * tjr;

            // Re-pack for the inverse: z[k] = Ye + i·Yo with
            // Ye = (Y[k] + conj(Y[j]))/2, Yo = conj(W^k)·(Y[k] − conj(Y[j]))/2,
            // and the mirror z[j] likewise with conjugated parts.
            let yer = half * (ykr + yjr);
            let yei = half * (yki - yji);
            let ydr = half * (ykr - yjr);
            let ydi = half * (yki + yji);
            let yor_ = wr * ydr + wi * ydi;
            let yoi = wr * ydi - wi * ydr;
            re[k] = yer - yoi;
            im[k] = yei + yor_;
            re[j] = yer + yoi;
            im[j] = -yei + yor_;
            k += 1;
        }

        // Unscaled: the 1/H factor is folded into the template spectrum.
        self.plan.inverse_soa_unscaled(re, im)?;
        // The inverse output interleaves the real correlation samples:
        // y[2j] = re[j], y[2j+1] = im[j].
        let take = self.step.min(n_out - p);
        let dst = &mut out[p..p + take];
        for j in 0..take / 2 {
            dst[2 * j] = re[j].to_f64();
            dst[2 * j + 1] = im[j].to_f64();
        }
        if take % 2 == 1 {
            dst[take - 1] = re[take / 2].to_f64();
        }
        Ok(())
    }
}

/// A precomputed overlap-save matched filter for one fixed template,
/// computing in lane float `T` (see the module notes on the real-input
/// transform and the two-leg block plan).
pub struct MatchedFilter<T: LaneFloat = f64> {
    template_len: usize,
    /// L2 norm of the `T`-cast template, accumulated in f64.
    template_norm: f64,
    /// Full-size leg: block length `next_pow2(2·template_len)`, used for
    /// every block that can still emit a full step of lags.
    main: Leg<T>,
    /// Half-size leg (`next_pow2(template_len)`, when that is shorter than
    /// the main block): the final block of a stream rarely has a full step
    /// of lags left, and a half-size transform emits the remainder for
    /// roughly half the cost.
    tail: Option<Leg<T>>,
    pool: Mutex<Vec<Scratch<T>>>,
}

impl<T: LaneFloat> std::fmt::Debug for MatchedFilter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchedFilter")
            .field("template_len", &self.template_len)
            .field("fft_len", &self.main.fft_len)
            .finish()
    }
}

impl<T: LaneFloat> Clone for MatchedFilter<T> {
    fn clone(&self) -> Self {
        Self {
            template_len: self.template_len,
            template_norm: self.template_norm,
            main: self.main.clone(),
            tail: self.tail.clone(),
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl<T: LaneFloat> MatchedFilter<T> {
    /// Builds a matched filter for `template`. The template must be
    /// non-empty and carry non-zero energy (a zero template cannot be
    /// normalised against).
    pub fn new(template: &[f64]) -> Result<Self> {
        if template.is_empty() {
            return Err(DspError::InvalidLength {
                reason: "matched-filter template must be non-empty",
            });
        }
        let m = template.len();
        let mut template_norm_sq = 0.0f64;
        for &t in template {
            let tf = T::from_f64(t).to_f64();
            template_norm_sq += tf * tf;
        }
        if template_norm_sq == 0.0 {
            return Err(DspError::InvalidParameter {
                reason: "template has zero energy",
            });
        }
        // The real-input formulation halves the transform work, so the
        // optimum block is shorter than a complex filter's 4m: 2m keeps
        // the half-length transforms cache-resident at the preamble's size.
        let main_len = next_pow2(2 * m).max(1024);
        let main = Leg::build(template, main_len)?;
        // The shortest power of two that still holds the template gives the
        // cheap leg for the final partial block.
        let tail_len = next_pow2(m).max(1024);
        let tail = if tail_len < main_len {
            Some(Leg::build(template, tail_len)?)
        } else {
            None
        };
        Ok(Self {
            template_len: m,
            template_norm: template_norm_sq.sqrt(),
            main,
            tail,
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

    /// FFT block length used internally (the main leg's; the final partial
    /// block of a stream may run through a half-size tail leg).
    pub fn block_len(&self) -> usize {
        self.main.fft_len
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
    /// [`crate::correlation::xcorr_fft`], computed in `T`) into a caller
    /// buffer. Steady-state allocation-free when `out` has capacity.
    pub fn correlate_into(&self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.run(signal, out, false)
    }

    /// Normalised valid-lag cross-correlation (same definition as
    /// [`crate::correlation::xcorr_normalized`], computed in `T`) into a
    /// caller buffer. Steady-state allocation-free when `out` has capacity.
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
        let result = (|| {
            out.clear();
            out.resize(n_out, 0.0);
            // Overlap-save: block `p` covers signal[p .. p+L); its circular
            // correlation is linear (wrap-free) on the first L − m + 1 lags.
            let mut p = 0usize;
            while p < n_out {
                self.leg_for(n_out - p)
                    .one_block(signal, p, n_out, out, &mut scratch)?;
                p += self.main.step;
            }
            if normalize {
                self.normalize(signal, out, &mut scratch);
            }
            Ok(())
        })();
        self.release(scratch);
        result
    }

    /// Chooses the leg for the block at lag `p`: the half-size tail leg
    /// once the remaining lags fit within its step, the main leg
    /// otherwise.
    fn leg_for(&self, remaining: usize) -> &Leg<T> {
        match &self.tail {
            Some(t) if remaining <= t.step => t,
            _ => &self.main,
        }
    }

    /// Sliding window energy via f64 prefix sums of the `T`-cast samples.
    /// Kept out of line: inlined into `run`'s block loop, the two passes
    /// below measured 3× slower.
    #[inline(never)]
    fn normalize(&self, signal: &[f64], out: &mut [f64], scratch: &mut Scratch<T>) {
        let n = signal.len();
        // Cast and square in the same pass as the running sum: the cast
        // here matches the quantisation the numerator saw.
        let prefix = &mut scratch.prefix;
        prefix.clear();
        prefix.reserve(n + 1);
        prefix.push(0.0);
        let mut acc = 0.0f64;
        for &s in signal.iter() {
            let sf = T::from_f64(s).to_f64();
            acc += sf * sf;
            prefix.push(acc);
        }
        let m = self.template_len;
        for (k, r) in out.iter_mut().enumerate() {
            let win_energy = prefix[k + m] - prefix[k];
            let denom = self.template_norm * win_energy.sqrt();
            *r = if denom > 0.0 { *r / denom } else { 0.0 };
        }
    }

    fn acquire(&self) -> Scratch<T> {
        self.pool
            .lock()
            .expect("matched-filter pool poisoned")
            .pop()
            .unwrap_or_else(|| Scratch {
                block_re: vec![T::ZERO; self.main.fft_len / 2],
                block_im: vec![T::ZERO; self.main.fft_len / 2],
                prefix: Vec::new(),
            })
    }

    fn release(&self, scratch: Scratch<T>) {
        self.pool
            .lock()
            .expect("matched-filter pool poisoned")
            .push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{argmax, xcorr_fft, xcorr_normalized};

    fn signal_with_template(template: &[f64], offset: usize, total: usize) -> Vec<f64> {
        let mut signal: Vec<f64> = (0..total)
            .map(|i| 0.01 * ((i as f64) * 0.377).sin())
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[offset + i] += t;
        }
        signal
    }

    #[test]
    fn matches_one_shot_raw_correlation() {
        let template: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.31).cos()).collect();
        let signal = signal_with_template(&template, 900, 4001);
        let reference = xcorr_fft(&signal, &template).unwrap();
        let filter = MatchedFilter::<f64>::new(&template).unwrap();
        let mut out = Vec::new();
        filter.correlate_into(&signal, &mut out).unwrap();
        assert_eq!(out.len(), reference.len());
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_one_shot_normalized_correlation_across_block_boundaries() {
        // A signal long enough that overlap-save needs several blocks.
        let template: Vec<f64> = (0..300).map(|i| ((i as f64) * 0.7).sin()).collect();
        let filter = MatchedFilter::<f64>::new(&template).unwrap();
        let total = filter.block_len() * 3 + 77;
        let signal = signal_with_template(&template, filter.block_len() + 13, total);
        let reference = xcorr_normalized(&signal, &template).unwrap();
        let streamed = filter.correlate_normalized(&signal).unwrap();
        assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn peak_lands_on_the_embedded_template() {
        let template: Vec<f64> = (0..128)
            .map(|i| ((i as f64) * 0.4).sin() * ((i as f64) * 0.013).cos())
            .collect();
        let signal = signal_with_template(&template, 733, 5000);
        let filter = MatchedFilter::<f64>::new(&template).unwrap();
        let corr = filter.correlate_normalized(&signal).unwrap();
        let (idx, peak) = argmax(&corr).unwrap();
        assert_eq!(idx, 733);
        assert!(peak > 0.9, "peak {peak}");
    }

    #[test]
    fn scratch_pool_reuse_is_consistent() {
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.9).sin()).collect();
        let filter = MatchedFilter::<f64>::new(&template).unwrap();
        let signal = signal_with_template(&template, 100, 1200);
        let first = filter.correlate_normalized(&signal).unwrap();
        // Repeated calls reuse pooled scratch and must be bit-identical.
        for _ in 0..3 {
            let again = filter.correlate_normalized(&signal).unwrap();
            assert_eq!(first, again);
        }
        // A clone starts with an empty pool but computes the same result.
        let cloned = filter.clone();
        assert_eq!(cloned.correlate_normalized(&signal).unwrap(), first);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(MatchedFilter::<f64>::new(&[]).is_err());
        assert!(MatchedFilter::<f64>::new(&[0.0; 32]).is_err());
        let filter = MatchedFilter::<f64>::new(&[1.0, -1.0, 0.5]).unwrap();
        let mut out = Vec::new();
        assert!(filter.correlate_into(&[], &mut out).is_err());
        assert!(filter.correlate_into(&[1.0, 2.0], &mut out).is_err());
        assert!(filter.output_len(2).is_err());
        assert_eq!(filter.output_len(10).unwrap(), 8);
    }

    #[test]
    fn short_signal_single_block_path() {
        // Signal barely longer than the template: one block, partial take.
        let template: Vec<f64> = (0..50).map(|i| (i as f64 * 0.23).cos()).collect();
        let signal = signal_with_template(&template, 3, 60);
        let filter = MatchedFilter::<f64>::new(&template).unwrap();
        let reference = xcorr_normalized(&signal, &template).unwrap();
        let streamed = filter.correlate_normalized(&signal).unwrap();
        for (a, b) in streamed.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
