//! Rate conversion for recorded audio.
//!
//! Recordings arrive at whatever rate the capture hardware used (48 kHz
//! action cameras, 16 kHz voice recorders); the ranging pipeline runs at
//! 44.1 kHz. Two converters are provided:
//!
//! * [`SincResampler`] — a polyphase windowed-sinc design for rational
//!   rate ratios (`L/M` after reduction). This is the quality path: the
//!   anti-aliasing cutoff tracks the lower of the two Nyquist rates, so
//!   down-sampling does not fold noise into the 1–5 kHz ranging band.
//! * [`StreamingLinearResampler`] — linear interpolation, adequate for
//!   the near-unity ratios of clock-skewed recorders and cheap enough for
//!   block-streaming ingestion. It keeps its fractional phase across
//!   blocks so a chunked decode resamples identically to the one-shot
//!   [`uw_dsp::resample::resample`].

use crate::{AudioError, Result};

/// Greatest common divisor (for reducing rate ratios).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a.max(1)
}

/// A linear resampler whose fractional read position survives across
/// blocks, so feeding a long stream chunk by chunk produces the same
/// output as resampling it in one call (modulo the final partial sample).
#[derive(Debug, Clone)]
pub struct StreamingLinearResampler {
    ratio: f64,
    /// Source-domain position of the next output sample, relative to the
    /// first sample of `carry ++ next_block`.
    position: f64,
    /// Last sample of the previous block (interpolation support).
    carry: Option<f64>,
}

impl StreamingLinearResampler {
    /// Creates a streaming resampler with `ratio = output_rate / input_rate`.
    pub fn new(ratio: f64) -> Result<Self> {
        if !(ratio.is_finite() && ratio > 0.0) {
            return Err(AudioError::InvalidParameter {
                reason: "resampling ratio must be positive and finite".into(),
            });
        }
        Ok(Self {
            ratio,
            position: 0.0,
            carry: None,
        })
    }

    /// The configured output/input rate ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Resamples one block, consuming it fully; the last input sample is
    /// retained for interpolation into the next block.
    pub fn process_block(&mut self, block: &[f64]) -> Vec<f64> {
        if block.is_empty() {
            return Vec::new();
        }
        // Work in the coordinate system of carry ++ block.
        let lead = usize::from(self.carry.is_some());
        let n = lead + block.len();
        let sample = |idx: usize| -> f64 {
            if idx < lead {
                self.carry.unwrap()
            } else {
                block[idx - lead]
            }
        };
        let mut out = Vec::new();
        // Emit every output whose interpolation support (idx, idx+1) is
        // complete within this block.
        while self.position + 1.0 < n as f64 {
            let lo = self.position.floor() as usize;
            let frac = self.position - lo as f64;
            out.push(sample(lo) * (1.0 - frac) + sample(lo + 1) * frac);
            self.position += 1.0 / self.ratio;
        }
        // Shift the coordinate system so the retained carry sample is 0.
        self.position -= (n - 1) as f64;
        self.carry = Some(block[block.len() - 1]);
        out
    }

    /// Flushes the final sample once the stream ends (the last input
    /// sample is emitted by zero-order hold, matching
    /// [`uw_dsp::resample::resample`]'s edge behaviour).
    pub fn finish(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        if let Some(last) = self.carry.take() {
            while self.position < 1.0 {
                out.push(last);
                self.position += 1.0 / self.ratio;
            }
        }
        out
    }
}

/// Polyphase windowed-sinc resampler for rational rate conversions.
///
/// The filter is a Hann-windowed sinc low-pass at 90% of the narrower
/// Nyquist rate, split into `L` phases so each output sample costs one
/// dot product of `taps_per_phase` multiplies — the standard efficient
/// structure (no upsampled intermediate signal is ever materialized).
#[derive(Debug, Clone)]
pub struct SincResampler {
    /// Upsampling factor (reduced).
    l: u64,
    /// Downsampling factor (reduced).
    m: u64,
    /// Phase-major filter bank: `phases[p][k]` multiplies input sample
    /// `base - k` for output phase `p`.
    phases: Vec<Vec<f64>>,
    taps_per_phase: usize,
}

impl SincResampler {
    /// Builds a resampler from `input_rate` to `output_rate` Hz with
    /// `taps_per_phase` filter taps per output sample (quality knob;
    /// 16–32 is plenty for ranging audio).
    pub fn new(input_rate: u32, output_rate: u32, taps_per_phase: usize) -> Result<Self> {
        if input_rate == 0 || output_rate == 0 {
            return Err(AudioError::InvalidParameter {
                reason: "sample rates must be positive".into(),
            });
        }
        if !(2..=256).contains(&taps_per_phase) {
            return Err(AudioError::InvalidParameter {
                reason: format!("taps_per_phase {taps_per_phase} outside 2..=256"),
            });
        }
        let g = gcd(input_rate as u64, output_rate as u64);
        let l = output_rate as u64 / g;
        let m = input_rate as u64 / g;
        if l > 4096 {
            return Err(AudioError::UnsupportedFormat {
                reason: format!(
                    "rate ratio {output_rate}/{input_rate} reduces to {l}/{m}; \
                     phase count {l} exceeds the supported 4096"
                ),
            });
        }
        // Prototype low-pass, evaluated lazily per phase tap: cutoff at
        // 0.45 of the narrower rate (in units of the input rate), gain L.
        let cutoff = 0.45 * (output_rate.min(input_rate) as f64) / input_rate as f64;
        let half_span = taps_per_phase as f64 / 2.0;
        let l_f = l as f64;
        let mut phases = Vec::with_capacity(l as usize);
        for p in 0..l {
            let mut taps = Vec::with_capacity(taps_per_phase);
            // Output phase p sits at input offset p·M/L mod 1 ahead of its
            // base sample; the k-th tap weights input sample base - k.
            let frac = ((p * m) % l) as f64 / l_f;
            for k in 0..taps_per_phase {
                // Tap k weights input sample base + (half-1) - k, i.e. the
                // prototype filter evaluated at (base + frac) - j.
                let t = k as f64 - (half_span - 1.0) + frac;
                // Hann-windowed sinc sample at continuous time t.
                let x = 2.0 * cutoff * t;
                let sinc = if x.abs() < 1e-12 {
                    1.0
                } else {
                    (std::f64::consts::PI * x).sin() / (std::f64::consts::PI * x)
                };
                let w = if (t / half_span).abs() <= 1.0 {
                    0.5 * (1.0 + (std::f64::consts::PI * (t / half_span)).cos())
                } else {
                    0.0
                };
                taps.push(2.0 * cutoff * sinc * w);
            }
            // Normalize each phase to unity DC gain so a constant input
            // stays constant regardless of where the phase taps land.
            let sum: f64 = taps.iter().sum();
            if sum.abs() > 1e-12 {
                for tap in &mut taps {
                    *tap /= sum;
                }
            }
            phases.push(taps);
        }
        Ok(Self {
            l,
            m,
            phases,
            taps_per_phase,
        })
    }

    /// The reduced upsample/downsample factors `(L, M)`.
    pub fn factors(&self) -> (u64, u64) {
        (self.l, self.m)
    }

    /// Resamples a whole signal. Output length is
    /// `floor(input_len · L / M)`.
    pub fn process(&self, signal: &[f64]) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let out_len = (signal.len() as u64 * self.l / self.m) as usize;
        let half = self.taps_per_phase / 2;
        let mut out = Vec::with_capacity(out_len);
        for i in 0..out_len as u64 {
            // Output i reads input around base = floor(i·M/L) with phase
            // (i·M) mod L.
            let num = i * self.m;
            let base = (num / self.l) as i64;
            let taps = &self.phases[(num % self.l) as usize];
            let mut acc = 0.0;
            for (k, &tap) in taps.iter().enumerate() {
                // Tap k weights input sample base + (half-1) - k … i.e. a
                // window centred on the read position (edges clamp to 0).
                let idx = base + (half as i64 - 1) - k as i64;
                if idx >= 0 {
                    if let Some(&s) = signal.get(idx as usize) {
                        acc += tap * s;
                    }
                }
            }
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uw_dsp::resample::resample;

    fn tone(n: usize, freq: f64, fs: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn dominant_freq(signal: &[f64], fs: f64) -> f64 {
        // Zero-crossing estimate is plenty for single tones.
        let crossings = signal
            .windows(2)
            .filter(|w| w[0] <= 0.0 && w[1] > 0.0)
            .count();
        crossings as f64 * fs / signal.len() as f64
    }

    #[test]
    fn linear_identity_and_length() {
        let s = tone(1000, 100.0, 8000.0);
        let out = resample(&s, 1.0).unwrap();
        assert_eq!(out.len(), 1000);
        for (a, b) in s.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(resample(&s, 0.5).unwrap().len(), 500);
        assert!(resample(&s, 0.0).is_err());
        assert!(resample(&s, f64::NAN).is_err());
        assert!(resample(&[], 2.0).unwrap().is_empty());
    }

    #[test]
    fn streaming_linear_matches_one_shot() {
        let s = tone(4000, 440.0, 48_000.0);
        let ratio = 44_100.0 / 48_000.0;
        let one_shot = resample(&s, ratio).unwrap();
        let mut streaming = StreamingLinearResampler::new(ratio).unwrap();
        let mut streamed = Vec::new();
        for block in s.chunks(257) {
            streamed.extend(streaming.process_block(block));
        }
        streamed.extend(streaming.finish());
        // Same samples; the streamed tail may differ by one edge sample.
        assert!((streamed.len() as i64 - one_shot.len() as i64).abs() <= 1);
        for (a, b) in one_shot.iter().zip(streamed.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn sinc_preserves_tone_frequency_up_and_down() {
        // 48 kHz → 44.1 kHz (non-trivial L/M = 147/160) and back.
        let f = 2500.0;
        let s = tone(9600, f, 48_000.0);
        let down = SincResampler::new(48_000, 44_100, 24).unwrap();
        let out = down.process(&s);
        assert_eq!(out.len(), 9600 * 147 / 160);
        let measured = dominant_freq(&out[500..out.len() - 500], 44_100.0);
        assert!((measured - f).abs() < 60.0, "measured {measured} Hz");

        let up = SincResampler::new(22_050, 44_100, 24).unwrap();
        assert_eq!(up.factors(), (2, 1));
        let s = tone(4000, 1000.0, 22_050.0);
        let out = up.process(&s);
        assert_eq!(out.len(), 8000);
        let measured = dominant_freq(&out[500..7500], 44_100.0);
        assert!((measured - 1000.0).abs() < 40.0, "measured {measured} Hz");
    }

    #[test]
    fn sinc_is_transparent_to_dc_and_amplitude() {
        let dc = vec![0.5; 2000];
        let r = SincResampler::new(48_000, 44_100, 32).unwrap();
        let out = r.process(&dc);
        for &s in &out[100..out.len() - 100] {
            assert!((s - 0.5).abs() < 1e-3, "{s}");
        }
        // A mid-band tone keeps its amplitude within a few percent.
        let s = tone(9600, 3000.0, 48_000.0);
        let out = r.process(&s);
        let peak = out[500..out.len() - 500]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!((peak - 1.0).abs() < 0.05, "peak {peak}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SincResampler::new(0, 44_100, 16).is_err());
        assert!(SincResampler::new(44_100, 0, 16).is_err());
        assert!(SincResampler::new(44_100, 48_000, 1).is_err());
        assert!(SincResampler::new(44_100, 48_000, 512).is_err());
        // Coprime absurd ratio → too many phases.
        assert!(SincResampler::new(44_101, 48_000, 16).is_err());
        assert!(StreamingLinearResampler::new(-1.0).is_err());
    }
}
