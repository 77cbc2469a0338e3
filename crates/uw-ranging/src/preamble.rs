//! The ranging preamble and its transmit-side representation.
//!
//! Wraps the OFDM preamble construction from `uw-dsp` together with the
//! quantities the receiver needs repeatedly (the base symbol spectrum for
//! LS channel estimation, PN signs, block boundaries), so they are computed
//! once per configuration instead of per packet.
//!
//! The preamble also owns the receive-side *execution state* of exactly one
//! [`NumericPath`]: a matched filter whose template spectrum is computed
//! once and reused by every detection, and a pool of symbol-length FFT
//! plans shared by the LS channel estimator. On the float paths these are
//! the `f64` or `f32` instantiations of [`MatchedFilter`] and [`PlanPool`];
//! on [`NumericPath::Q15`] they are a [`Q15MatchedFilter`] and a
//! [`FixedPlanPool`]. Both are internally pooled, so one `RangingPreamble`
//! can serve many concurrent ranging exchanges without serialising their
//! transforms.

use crate::Result;
use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{FixedPlanPool, NumericPath, Q15MatchedFilter};
use uw_dsp::ofdm::{base_symbol_spectrum, build_preamble, OfdmConfig};
use uw_dsp::plan::PlanPool;
use uw_dsp::{LaneFloat, MatchedFilter};

/// The receive-side DSP state of one numeric path.
#[derive(Debug, Clone)]
pub(crate) enum PathDsp {
    /// Double-precision oracle path.
    F64(FloatDsp<f64>),
    /// Single-precision phone-float path.
    F32(FloatDsp<f32>),
    /// Q15 fixed-point path.
    Q15 {
        filter: Q15MatchedFilter,
        symbol_plans: FixedPlanPool,
    },
}

/// The receive-side DSP state of one float path.
#[derive(Debug, Clone)]
pub(crate) struct FloatDsp<T: LaneFloat> {
    /// Overlap-save correlator with the waveform's spectrum precomputed.
    pub(crate) filter: MatchedFilter<T>,
    /// Pooled FFT plans for the symbol length (Bluestein for 1920).
    pub(crate) symbol_plans: PlanPool<T>,
}

impl<T: LaneFloat> FloatDsp<T> {
    fn new(waveform: &[f64], fft_len: usize) -> Result<Self> {
        Ok(Self {
            filter: MatchedFilter::new(waveform)?,
            symbol_plans: PlanPool::new(fft_len)?,
        })
    }
}

/// A fully-built ranging preamble.
#[derive(Debug, Clone)]
pub struct RangingPreamble {
    /// The OFDM design parameters.
    pub config: OfdmConfig,
    /// Time-domain transmit waveform (PN-signed symbols with cyclic
    /// prefixes, edge-ramped).
    pub waveform: Vec<f64>,
    /// Frequency-domain values on the occupied bins of the base symbol
    /// (before PN signing) — the `X(k)` of the LS estimator.
    pub base_bins: Vec<Complex64>,
    /// First occupied FFT bin index.
    pub first_bin: usize,
    /// PN signs of the preamble symbols.
    pub pn_signs: Vec<f64>,
    /// Receive-side execution state of the path this preamble was built
    /// for.
    dsp: PathDsp,
}

impl RangingPreamble {
    /// Builds the preamble for a configuration on the `f64` reference path.
    pub fn new(config: OfdmConfig) -> Result<Self> {
        Self::new_with_path(config, NumericPath::F64)
    }

    /// Builds the preamble for a configuration on the chosen numeric path.
    /// Detection correlation and channel estimation run on that path's DSP:
    /// the `f64` or `f32` plan layer, or the fixed-point DSP in
    /// [`uw_dsp::fixed`] for [`NumericPath::Q15`].
    pub fn new_with_path(config: OfdmConfig, numeric_path: NumericPath) -> Result<Self> {
        let spectrum = base_symbol_spectrum(&config)?;
        let mut waveform = build_preamble(&config)?;
        // A 2 ms raised-cosine up-ramp at the start avoids a speaker click.
        // It only touches the first symbol's cyclic prefix, so the channel
        // estimate — which operates on the symbol bodies — is unaffected.
        // The tail is left unramped: ramping the last symbol's samples would
        // distort the LS channel estimate and create spurious early taps.
        let ramp = ((0.002 * config.sample_rate) as usize).min(config.cyclic_prefix / 2);
        for (i, s) in waveform.iter_mut().take(ramp).enumerate() {
            *s *= 0.5 * (1.0 - (std::f64::consts::PI * i as f64 / ramp as f64).cos());
        }
        let pn_signs = config.pn_signs();
        // Exactly one path's execution state is built.
        let fft_len = config.fft_len();
        let dsp = match numeric_path {
            NumericPath::F64 => PathDsp::F64(FloatDsp::new(&waveform, fft_len)?),
            NumericPath::F32 => PathDsp::F32(FloatDsp::new(&waveform, fft_len)?),
            NumericPath::Q15 => PathDsp::Q15 {
                filter: Q15MatchedFilter::new(&waveform)?,
                symbol_plans: FixedPlanPool::new(fft_len)?,
            },
        };
        Ok(Self {
            config,
            waveform,
            base_bins: spectrum.bins,
            first_bin: spectrum.first_bin,
            pn_signs,
            dsp,
        })
    }

    /// Builds the preamble with the paper's default parameters
    /// (4 × 1920-sample ZC-OFDM symbols, 540-sample cyclic prefixes,
    /// 1–5 kHz).
    pub fn default_paper() -> Result<Self> {
        Self::new(OfdmConfig::default())
    }

    /// Paper-default preamble on the on-device Q15 fixed-point path.
    pub fn default_paper_q15() -> Result<Self> {
        Self::new_with_path(OfdmConfig::default(), NumericPath::Q15)
    }

    /// Paper-default preamble on the single-precision f32 path.
    pub fn default_paper_f32() -> Result<Self> {
        Self::new_with_path(OfdmConfig::default(), NumericPath::F32)
    }

    /// The numeric path receive-side processing runs on.
    pub fn numeric_path(&self) -> NumericPath {
        match self.dsp {
            PathDsp::F64(_) => NumericPath::F64,
            PathDsp::F32(_) => NumericPath::F32,
            PathDsp::Q15 { .. } => NumericPath::Q15,
        }
    }

    /// The receive-side execution state (filter and symbol plans).
    pub(crate) fn dsp(&self) -> &PathDsp {
        &self.dsp
    }

    /// Length of one symbol block (cyclic prefix + symbol) in samples.
    pub fn block_len(&self) -> usize {
        self.config.symbol_len + self.config.cyclic_prefix
    }

    /// Total preamble length in samples.
    pub fn len(&self) -> usize {
        self.waveform.len()
    }

    /// Returns true when the preamble contains no samples (never the case
    /// for a successfully-built preamble).
    pub fn is_empty(&self) -> bool {
        self.waveform.is_empty()
    }

    /// Duration of the preamble in seconds.
    pub fn duration_s(&self) -> f64 {
        self.len() as f64 / self.config.sample_rate
    }

    /// Start offset of the `i`-th OFDM symbol (excluding its cyclic prefix)
    /// within the preamble.
    pub fn symbol_start(&self, i: usize) -> usize {
        i * self.block_len() + self.config.cyclic_prefix
    }

    /// Normalised cross-correlation of `stream` against the preamble
    /// waveform through the precomputed matched filter (the definition of
    /// `uw_dsp::correlation::xcorr_normalized`, computed in streaming
    /// blocks against the cached template spectrum) on this preamble's
    /// numeric path. The reduced-precision paths' peak positions agree with
    /// the `f64` path to within ±1 sample (bounded by `uw-dsp`'s
    /// differential test suite).
    pub fn correlate_normalized(&self, stream: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.correlate_normalized_into(stream, &mut out)?;
        Ok(out)
    }

    /// As [`Self::correlate_normalized`] but reusing a caller-provided
    /// output buffer (allocation-free in steady state).
    pub fn correlate_normalized_into(&self, stream: &[f64], out: &mut Vec<f64>) -> Result<()> {
        match &self.dsp {
            PathDsp::F64(d) => d.filter.correlate_normalized_into(stream, out)?,
            PathDsp::F32(d) => d.filter.correlate_normalized_into(stream, out)?,
            PathDsp::Q15 { filter, .. } => filter.correlate_normalized_into(stream, out)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preamble_matches_paper_dimensions() {
        let p = RangingPreamble::default_paper().unwrap();
        assert_eq!(p.len(), 4 * (1920 + 540));
        assert_eq!(p.block_len(), 2460);
        assert!(!p.is_empty());
        assert_eq!(p.pn_signs, vec![1.0, 1.0, -1.0, 1.0]);
        assert!(p.duration_s() > 0.2 && p.duration_s() < 0.25);
        assert!(!p.base_bins.is_empty());
        assert!(p.first_bin > 0);
    }

    #[test]
    fn symbol_start_offsets() {
        let p = RangingPreamble::default_paper().unwrap();
        assert_eq!(p.symbol_start(0), 540);
        assert_eq!(p.symbol_start(1), 2460 + 540);
        assert_eq!(p.symbol_start(3), 3 * 2460 + 540);
        assert!(p.symbol_start(3) + p.config.symbol_len <= p.len());
    }

    #[test]
    fn waveform_start_is_ramped() {
        let p = RangingPreamble::default_paper().unwrap();
        // The up-ramp starts from silence and only spans part of the first
        // cyclic prefix.
        assert!(p.waveform[0].abs() < 1e-9);
        let ramp = (0.002 * p.config.sample_rate) as usize;
        assert!(ramp < p.config.cyclic_prefix);
        // Peak is still ~1 in the interior.
        let peak = p.waveform.iter().fold(0.0f64, |m, &s| m.max(s.abs()));
        assert!(peak > 0.9);
        // Beyond the ramp the waveform matches the unramped construction.
        let raw = uw_dsp::ofdm::build_preamble(&p.config).unwrap();
        for (w, r) in p.waveform.iter().zip(raw.iter()).skip(ramp) {
            assert!((w - r).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = OfdmConfig {
            n_symbols: 1,
            ..OfdmConfig::default()
        };
        assert!(RangingPreamble::new(config).is_err());
    }
}
