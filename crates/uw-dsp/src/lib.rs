//! # uw-dsp — signal-processing substrate for underwater acoustic positioning
//!
//! Everything the ranging and communication layers need is implemented here
//! from scratch (the workspace deliberately avoids external DSP crates):
//!
//! * [`complex`] — a small [`Complex`] type (`Complex64` / `Complex32`) with
//!   the arithmetic the FFT needs.
//! * [`fft`] — iterative radix-2 FFT / inverse FFT and real-signal helpers.
//! * [`correlation`] — direct and FFT-based cross-correlation, normalised
//!   correlation, and the 4-segment auto-correlation validation used for
//!   preamble detection.
//! * [`zc`] — Zadoff–Chu sequences used to fill the OFDM bins of the preamble.
//! * [`ofdm`] — OFDM symbol synthesis, cyclic prefixes, and the paper's
//!   4-symbol PN-signed preamble.
//! * [`chirp`] — linear chirps and FMCW sweeps for the BeepBeep / CAT
//!   baselines.
//! * [`fsk`] — FSK data modulation inside per-device sub-bands and MFSK
//!   device-ID encoding with maximum-likelihood decoding.
//! * [`coding`] — rate-2/3 punctured convolutional coding with a Viterbi
//!   decoder, plus CRC-16 integrity checks.
//! * [`peaks`] — peak detection and noise-floor estimation used by the
//!   dual-microphone direct-path search.
//! * [`window`] — analysis windows and a small FIR band-pass design.
//! * [`resample`] — fractional-delay and sample-rate-offset resampling used
//!   to model clock skew between devices.
//! * [`spectrum`] — per-subcarrier SNR estimation (paper Fig. 22).
//! * [`plan`] — plan-based FFT execution: [`FftPlan`] / [`FftPlanner`] /
//!   [`PlanPool`] with precomputed bit-reversal, twiddle tables and cached
//!   Bluestein chirp state, generic over the lane float ([`LaneFloat`]:
//!   `f64`, the default oracle, or `f32`, the phone-float path with twice
//!   the SIMD lanes per register).
//! * [`matched`] — [`MatchedFilter`]: overlap-save streaming correlation
//!   against a fixed template through a real-input (pack-trick) transform,
//!   with folded normalisation; generic over the same lane float.
//! * [`fixed`] — the on-device Q15 fixed-point path: [`Q15`]/[`ComplexQ15`]
//!   saturating integer arithmetic, the block-floating-point
//!   [`FixedFftPlan`], and the [`Q15MatchedFilter`], selected through the
//!   [`NumericPath`] knob higher layers thread down.
//! * [`lanes`] — the fixed-width structure-of-arrays lane kernels (one
//!   float set generic over `[f64; 4]`/`[f32; 8]`, plus `[i32; 8]` for
//!   Q15) all three numeric paths execute their butterflies and pointwise
//!   products through.
//!
//! All functions operate on `f64` sample buffers at a nominal 44.1 kHz
//! sampling rate (the rate exposed by commodity smart devices underwater).
//! The `f32` plan and filter instantiations cast at their boundaries and
//! compute in single precision; the [`fixed`] module quantises at its
//! boundaries and computes its hot loops in 16-bit integers, modelling what
//! shipping phone DSP does.
//!
//! ## Performance notes: plan caching and when to use what
//!
//! The free functions in [`fft`] and [`correlation`] are **one-shot
//! reference paths**: correct, simple, and self-contained, but they rebuild
//! twiddle factors (and, for non-power-of-two lengths, the whole Bluestein
//! chirp setup) and allocate fresh buffers on every call. The plan layer
//! exists because the ranging hot path repeats the *same* transform shapes
//! thousands of times per localization session:
//!
//! * **Repeated transforms of one length** → hold an [`FftPlan`]
//!   (or an [`FftPlanner`] when lengths vary). Construction precomputes the
//!   bit-reversal permutation, per-stage twiddle tables (forward and
//!   inverse) and — for lengths like the paper's 1920-sample OFDM symbol —
//!   the Bluestein chirp, its padded spectrum, and the convolution scratch.
//!   Steady-state `process_forward` / `process_inverse` calls are
//!   **allocation-free** (enforced by a counting-allocator test) and run
//!   ~2.4× faster than [`fft::fft_any`] at 1920 samples.
//! * **Correlating many streams against one template** → build a
//!   [`MatchedFilter`] once. It stores the template's conjugated
//!   half-spectrum at a fixed block length (`next_pow2(2 · template_len)`,
//!   plus a half-size leg for the final partial block) and correlates
//!   arbitrarily long signals by overlap-save — many small cached-plan
//!   half-length FFTs instead of one `next_pow2(signal + template)` monster
//!   FFT per call — with the prefix-sum normalisation of
//!   [`correlation::xcorr_normalized`] folded into the same pass. Use one-shot
//!   [`correlation::xcorr_fft`] only for ad-hoc correlations where the
//!   template changes every call.
//! * **Sharing plans across threads** → [`PlanPool`] checks plans in and
//!   out (cloning only under contention), so parallel ranging exchanges
//!   reuse precomputed state without serialising on a shared scratch
//!   buffer. `MatchedFilter` pools its scratch internally the same way.
//!
//! The one-shot functions remain the ground truth the property tests
//! compare the plan layer against (`tests/plan_proptests.rs`).
//!
//! ## Performance notes: the Q15 fixed-point path and its scaling strategy
//!
//! The [`fixed`] module mirrors the plan layer in 16-bit fixed point for
//! on-device deployment studies. Its scaling strategy is **block floating
//! point** (BFP): one shared exponent per buffer, a 16-bit mantissa per
//! sample.
//!
//! * **Quantisation at the boundary.** Streams are quantised once per call
//!   by their peak (modelling capture-side AGC); templates and twiddle/
//!   chirp tables are quantised once at plan build. Everything in between
//!   is `i16` data with `i32`/`i64` accumulators and a single rounding
//!   shift per product.
//! * **Per-stage guard scaling.** A radix-2 butterfly grows a component by
//!   at most `1 + √2`. Before each stage the plan scans the block maximum
//!   and right-shifts everything (with rounding) until
//!   `max · (1 + √2) ≤ 32767`, so saturation is impossible mid-stage; the
//!   shift count accumulates into the scale factor the transform returns.
//! * **Renormalisation after shrinking steps.** Pointwise spectrum
//!   products shrink magnitudes; the block is shifted back *up* to the
//!   guard ceiling (tracked in the same scale) so later stages keep a full
//!   mantissa. Without this, the matched filter loses ~2 bits per
//!   overlap-save block.
//! * **Accuracy envelope.** The differential harness
//!   (`tests/fixed_vs_float.rs`) pins the path against the f64 oracle:
//!   ≥ 60 dB SQNR for radix-2 forward transforms, ≥ 55 dB for full
//!   round-trips at the largest (2048-point) correlator block (≥ 58 dB at
//!   smaller sizes), ≥ 50 dB for the Bluestein 1920-point symbol
//!   transform (two extra quantised multiplies), matched-filter peak
//!   indices within ±1 sample of the f64 peak at matrix SNRs, and exact
//!   saturation behaviour at ±1.0.
//! * **What the perf axis records.** Before the lane kernels the Q15 path
//!   was ~2× *slower* than the f64 plans on x86 (scalar i16/i64
//!   arithmetic plus the per-stage max scans vs. hardware
//!   double-precision FPU — `q15_fft_radix2_2048` ≈ 56 µs vs 25 µs,
//!   `q15_matched_filter_65k` ≈ 5.7 ms vs 3.1 ms). With the `[i32; 8]`
//!   lane kernels the i32 arithmetic vectorizes too and the gap closes:
//!   ≈ 23 µs vs 19 µs on the 2048-point transform and ≈ 3.1 ms vs
//!   3.2 ms on the 65k matched filter — parity or slightly better. Since
//!   the float filter became a real-input (pack-trick) design, the f64
//!   65k correlation is ~4.5× faster than Q15's complex-FFT filter
//!   (~0.33 ms vs ~1.5 ms on a 2-vCPU EPYC host, `BENCH_pipeline.json`).
//!   The point of the axis was never an x86 speedup: it models the
//!   numeric behaviour of the integer DSPs phones actually ship and
//!   tracks both paths' costs over time.
//!
//! ## Performance notes: structure-of-arrays lane kernels
//!
//! All three numeric paths execute their hot loops through the fixed-width
//! lane kernels in [`lanes`]: structure-of-arrays `re[]` / `im[]` buffers
//! processed in `[f64; 4]` / `[f32; 8]` / `[i32; 8]` blocks with scalar
//! tails.
//!
//! * **Why SoA.** Interleaved `{re, im}` structs make the autovectorizer
//!   emit shuffle-heavy code or give up: the real and imaginary streams
//!   share cache lines but want different arithmetic. Split buffers turn
//!   every butterfly and pointwise product into independent contiguous
//!   streams that lower to packed SIMD loads/stores directly.
//! * **Fixed-width blocks, no intrinsics.** Each kernel walks the SoA
//!   buffers in compile-time-width chunks (zipped `chunks_exact`
//!   iterators), so LLVM sees fixed-trip-count inner loops with no bounds
//!   checks — the shape it reliably lowers to full-width packed SIMD.
//!   The crate stays dependency-free and `forbid(unsafe_code)`, and the
//!   same loops degrade to scalar code on targets without SIMD. Early
//!   FFT stages (`half < LANES`), whose groups are narrower than a lane
//!   block, run through const-generic whole-stage kernels instead of
//!   per-group calls.
//! * **Bit-identical by construction.** Every kernel computes the same
//!   expressions in the same order as its retired scalar counterpart
//!   (kept as `*_scalar` reference methods); the differential harness
//!   asserts `==` on the outputs, so vectorization can never silently
//!   change answers. The interleaved entry points deinterleave into pooled
//!   SoA scratch at the boundary; SoA-native callers (the matched
//!   filters) never interleave at all.
//! * **One kernel set, two float widths.** The float kernels are generic
//!   over the sealed [`LaneFloat`] trait, so the f64 oracle and the f32
//!   phone path run the same code and the same real-input matched filter.
//!   Two per-type constants tune it: the lane width (`[f64; 4]` vs
//!   `[f32; 8]`) and whether FFT stages are fused (f32 runs the first
//!   three stages in one sweep of closed 8-point cells and later stages in
//!   pairs; f64 measured faster one stage per sweep).
//! * **The real-input pack trick.** Both the overlap-save block and the
//!   template are real, so [`MatchedFilter`] packs two real samples per
//!   complex bin and runs two half-length FFTs per block plus one fused
//!   untangle → product → re-pack sweep, with a half-size tail leg for the
//!   final partial block. Every float path gets this: f64 preamble
//!   detection and the f64 burst scanner as well as the f32 phone path,
//!   which on top of it has half-width samples and twice the lanes.
//!   `BENCH_pipeline.json` records both (`preamble_correlation_65k_stream`
//!   for f64, `preamble_correlation_65k` for f32). On NEON phones the
//!   f32/i16 lane widths double the gain again.
//!
//! ## Example
//!
//! ```
//! use uw_dsp::{Complex64, FftPlan};
//!
//! // Plan once for the paper's 1920-sample OFDM symbol length, then
//! // transform repeatedly without further allocation.
//! let mut plan = FftPlan::new(1920).unwrap();
//! let mut data: Vec<Complex64> = (0..1920)
//!     .map(|i| Complex64::new((i as f64 * 0.31).sin(), 0.0))
//!     .collect();
//! let original = data.clone();
//! plan.process_forward(&mut data).unwrap();
//! plan.process_inverse(&mut data).unwrap();
//! // Forward + inverse round-trips to the input.
//! for (a, b) in data.iter().zip(original.iter()) {
//!     assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chirp;
pub mod coding;
pub mod complex;
pub mod correlation;
pub mod fft;
pub mod fixed;
#[cfg(test)]
mod float32;
pub mod fsk;
pub mod lanes;
pub mod matched;
pub mod ofdm;
pub mod peaks;
pub mod plan;
pub mod resample;
pub mod spectrum;
pub mod window;
pub mod zc;

pub use complex::{Complex, Complex32, Complex64};
pub use fixed::{ComplexQ15, FixedFftPlan, FixedPlanPool, NumericPath, Q15MatchedFilter, Q15};
pub use lanes::LaneFloat;
pub use matched::MatchedFilter;
pub use plan::{FftPlan, FftPlanner, PlanPool};

/// Nominal audio sampling rate of commodity smart devices (Hz).
pub const SAMPLE_RATE: f64 = 44_100.0;

/// Lower edge of the usable underwater band on smart devices (Hz).
pub const BAND_LOW_HZ: f64 = 1_000.0;

/// Upper edge of the usable underwater band on smart devices (Hz).
pub const BAND_HIGH_HZ: f64 = 5_000.0;

/// Errors produced by the DSP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// The input length was invalid (empty, not a power of two where one is
    /// required, or mismatched with a paired buffer).
    InvalidLength {
        /// Human-readable description of the constraint that was violated.
        reason: &'static str,
    },
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Human-readable description of the parameter problem.
        reason: &'static str,
    },
    /// Decoding failed (e.g. Viterbi traceback on a corrupted stream).
    DecodeFailure {
        /// Human-readable description of the decode problem.
        reason: &'static str,
    },
}

impl core::fmt::Display for DspError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DspError::InvalidLength { reason } => write!(f, "invalid length: {reason}"),
            DspError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            DspError::DecodeFailure { reason } => write!(f, "decode failure: {reason}"),
        }
    }
}

impl std::error::Error for DspError {}

/// Convenience result alias for the DSP layer.
pub type Result<T> = std::result::Result<T, DspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn band_constants_are_sane() {
        assert!(BAND_LOW_HZ < BAND_HIGH_HZ);
        assert!(BAND_HIGH_HZ < SAMPLE_RATE / 2.0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DspError::InvalidLength {
            reason: "empty input",
        };
        assert!(e.to_string().contains("empty input"));
        let e = DspError::InvalidParameter {
            reason: "negative rate",
        };
        assert!(e.to_string().contains("negative rate"));
        let e = DspError::DecodeFailure { reason: "bad crc" };
        assert!(e.to_string().contains("bad crc"));
    }
}
