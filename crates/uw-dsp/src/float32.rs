//! Unit tests of the `f32` instantiation of the float DSP stack.
//!
//! There is one float stack ([`crate::plan`], [`crate::matched`],
//! [`crate::complex`]), generic over [`crate::lanes::LaneFloat`]. Each of
//! those modules tests its default `f64` instantiation; this test-only module
//! holds the checks of the `f32` one (the phone path): SQNR against the f64
//! oracle, lane/scalar and SoA/interleaved bit-exactness, length rejection,
//! pool sharing and the matched filter.

#[cfg(test)]
mod tests {
    use crate::complex::{Complex32, Complex64};
    use crate::correlation::{argmax, xcorr_normalized};
    use crate::fft::{fft, fft_any};
    use crate::matched::MatchedFilter;
    use crate::plan::{FftPlan, PlanPool, Radix2Plan};

    fn cast(signal: &[Complex64]) -> Vec<Complex32> {
        signal
            .iter()
            .map(|&c| Complex32::from_complex64(c))
            .collect()
    }

    /// Signal-to-quantisation-noise ratio (dB) of the f32 result against the
    /// f64 reference.
    fn sqnr_db(reference: &[Complex64], got: &[Complex32]) -> f64 {
        let sig: f64 = reference.iter().map(|c| c.norm_sqr()).sum();
        let err: f64 = reference
            .iter()
            .zip(got.iter())
            .map(|(r, f)| (*r - f.to_complex64()).norm_sqr())
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
    fn complex32_arithmetic() {
        let a = Complex32::new(1.5, -0.5);
        let b = Complex32::new(-2.0, 0.25);
        assert_eq!(a + b, Complex32::new(-0.5, -0.25));
        assert_eq!(a - b, Complex32::new(3.5, -0.75));
        let p = a * b;
        assert!((p.re - (1.5 * -2.0 - -0.5 * 0.25)).abs() < 1e-6);
        assert!((p.im - (1.5 * 0.25 + -0.5 * -2.0)).abs() < 1e-6);
        assert_eq!(a.conj().im, 0.5);
        assert!((a.norm_sqr() - 2.5).abs() < 1e-6);
        assert!((Complex32::from_re(3.0).abs() - 3.0).abs() < 1e-6);
        let wide = Complex64::new(0.1, -0.7);
        assert_eq!(
            Complex32::from_complex64(wide).to_complex64().re,
            0.1f32 as f64
        );
        assert_eq!(Complex64::from_complex64(wide), wide);
    }

    #[test]
    fn radix2_forward_tracks_the_oracle() {
        for n in [4usize, 64, 256, 2048] {
            let signal = test_signal(n, 0.5);
            let reference = fft(&signal).unwrap();
            let mut data = cast(&signal);
            let plan = Radix2Plan::<f32>::new(n).unwrap();
            plan.forward(&mut data).unwrap();
            let snr = sqnr_db(&reference, &data);
            assert!(snr >= 100.0, "n={n}: SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn lane_path_is_bit_identical_to_the_scalar_reference() {
        for n in [1usize, 2, 4, 8, 16, 32, 256, 2048] {
            let signal = test_signal(n, 0.8);
            let plan = Radix2Plan::<f32>::new(n).unwrap();
            let mut lane = cast(&signal);
            let mut scalar = lane.clone();
            plan.forward(&mut lane).unwrap();
            plan.forward_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "forward n={n}");
            plan.inverse(&mut lane).unwrap();
            plan.inverse_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "inverse n={n}");
        }
    }

    #[test]
    fn soa_entry_points_match_the_interleaved_wrappers() {
        for n in [4usize, 64, 1024] {
            let signal = test_signal(n, 0.6);
            let plan = Radix2Plan::<f32>::new(n).unwrap();
            let mut aos = cast(&signal);
            let mut re: Vec<f32> = aos.iter().map(|c| c.re).collect();
            let mut im: Vec<f32> = aos.iter().map(|c| c.im).collect();
            plan.forward(&mut aos).unwrap();
            plan.forward_soa(&mut re, &mut im).unwrap();
            for (c, (r, x)) in aos.iter().zip(re.iter().zip(im.iter())) {
                assert_eq!(c.re, *r);
                assert_eq!(c.im, *x);
            }
            plan.inverse(&mut aos).unwrap();
            plan.inverse_soa(&mut re, &mut im).unwrap();
            for (c, (r, x)) in aos.iter().zip(re.iter().zip(im.iter())) {
                assert_eq!(c.re, *r);
                assert_eq!(c.im, *x);
            }
        }
    }

    #[test]
    fn roundtrip_preserves_the_signal() {
        for n in [64usize, 1024, 2048] {
            let signal = test_signal(n, 0.7);
            let mut data = cast(&signal);
            let mut plan = FftPlan::<f32>::new(n).unwrap();
            plan.process_forward(&mut data).unwrap();
            plan.process_inverse(&mut data).unwrap();
            let snr = sqnr_db(&signal, &data);
            assert!(snr >= 95.0, "n={n}: round-trip SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn bluestein_handles_the_symbol_length() {
        for n in [45usize, 97, 1920] {
            let signal = test_signal(n, 0.6);
            let reference = fft_any(&signal).unwrap();
            let mut data = cast(&signal);
            let mut plan = FftPlan::<f32>::new(n).unwrap();
            plan.process_forward(&mut data).unwrap();
            let snr = sqnr_db(&reference, &data);
            assert!(snr >= 85.0, "n={n}: Bluestein SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn plan_rejects_bad_lengths() {
        assert!(FftPlan::<f32>::new(0).is_err());
        assert!(Radix2Plan::<f32>::new(0).is_err());
        assert!(Radix2Plan::<f32>::new(48).is_err());
        assert!(PlanPool::<f32>::new(0).is_err());
        let mut plan = FftPlan::<f32>::new(64).unwrap();
        let mut wrong = vec![Complex32::ZERO; 32];
        assert!(plan.process_forward(&mut wrong).is_err());
        assert!(plan.process_inverse(&mut wrong).is_err());
        let radix = Radix2Plan::<f32>::new(64).unwrap();
        assert!(radix.forward_soa(&mut [0.0; 32], &mut [0.0; 64]).is_err());
        assert!(radix.inverse_soa(&mut [0.0; 64], &mut [0.0; 32]).is_err());
        assert!(radix.forward_scalar(&mut [Complex32::ZERO; 16]).is_err());
        assert!(radix.inverse_scalar(&mut [Complex32::ZERO; 16]).is_err());
    }

    #[test]
    fn pool_shares_and_replenishes() {
        let pool = PlanPool::<f32>::new(1920).unwrap();
        assert_eq!(pool.len(), 1920);
        let signal = test_signal(1920, 0.6);
        let reference = fft_any(&signal).unwrap();
        // Nested checkout forces the pool to build a second plan.
        let out = pool.with(|outer| {
            let mut a = cast(&signal);
            outer.process_forward(&mut a).unwrap();
            let b = pool.with(|inner| {
                let mut b = cast(&signal);
                inner.process_forward(&mut b).unwrap();
                b
            });
            (a, b)
        });
        assert!(sqnr_db(&reference, &out.0) >= 85.0);
        assert!(sqnr_db(&reference, &out.1) >= 85.0);
    }

    #[test]
    fn matched_filter_finds_the_template() {
        let template: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.31).cos()).collect();
        let mut signal: Vec<f64> = (0..4001)
            .map(|i| 0.01 * ((i as f64) * 0.377).sin())
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[900 + i] += t;
        }
        let filter = MatchedFilter::<f32>::new(&template).unwrap();
        let corr = filter.correlate_normalized(&signal).unwrap();
        let (idx, peak) = argmax(&corr).unwrap();
        assert_eq!(idx, 900);
        assert!(peak > 0.9, "peak {peak}");
        let reference = xcorr_normalized(&signal, &template).unwrap();
        assert_eq!(corr.len(), reference.len());
        let max_err = corr
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-3, "max normalised-corr error {max_err}");
    }

    #[test]
    fn matched_filter_edge_cases() {
        assert!(MatchedFilter::<f32>::new(&[]).is_err());
        assert!(MatchedFilter::<f32>::new(&[0.0; 32]).is_err());
        let filter = MatchedFilter::<f32>::new(&[1.0, -1.0, 0.5]).unwrap();
        let mut out = Vec::new();
        assert!(filter.correlate_into(&[], &mut out).is_err());
        assert!(filter.correlate_into(&[1.0, 2.0], &mut out).is_err());
        assert_eq!(filter.output_len(10).unwrap(), 8);
        let zeros = vec![0.0; 64];
        filter.correlate_normalized_into(&zeros, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        // Pool reuse and clones are bit-identical.
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.9).sin()).collect();
        let filter = MatchedFilter::<f32>::new(&template).unwrap();
        let signal: Vec<f64> = (0..1200).map(|i| ((i as f64) * 0.23).sin()).collect();
        let first = filter.correlate_normalized(&signal).unwrap();
        for _ in 0..3 {
            assert_eq!(filter.correlate_normalized(&signal).unwrap(), first);
        }
        assert_eq!(filter.clone().correlate_normalized(&signal).unwrap(), first);
    }
}
