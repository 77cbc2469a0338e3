//! Property-based tests for the plan-based DSP execution layer.
//!
//! The plan layer (`FftPlan` / `FftPlanner` / `MatchedFilter`) must be a
//! drop-in replacement for the one-shot reference path: identical output to
//! `fft` / `fft_any` / `xcorr_normalized` across arbitrary (including odd)
//! lengths, clean rejection of mismatched buffer lengths, and stability
//! under plan reuse. The matched-filter properties draw the lane float
//! (`f64` or `f32`) as one more input and cover both the single-leg block
//! plan and the half-size tail leg that runs a stream's final block.

use proptest::prelude::*;
use uw_dsp::complex::{to_complex, Complex64};
use uw_dsp::correlation::{xcorr_fft, xcorr_normalized};
use uw_dsp::fft::{fft_any, ifft_any};
use uw_dsp::matched::MatchedFilter;
use uw_dsp::plan::{FftPlan, FftPlanner};
use uw_dsp::LaneFloat;

/// Number of valid lags for a template of `m` samples. Templates of
/// 513..=1024 samples run 2048-sample main blocks (step `2049 − m`) plus a
/// 1024-sample tail leg (step `1025 − m`); the lag count returned for them
/// leaves `blocks` full main blocks and a final block that fits the tail
/// step, so the stream ends on the tail leg. Shorter templates have no
/// tail leg and get 1..=400 lags.
fn lag_count(m: usize, blocks: usize, frac: f64) -> usize {
    if m > 512 {
        blocks * (2049 - m) + 1 + (frac * (1024 - m) as f64) as usize
    } else {
        1 + (frac * 399.0) as usize
    }
}

/// The drawn signal cut to `m − 1 + lags` samples and a template built
/// from its first `m` samples.
fn signal_and_template(samples: &[f64], m: usize, lags: usize) -> (Vec<f64>, Vec<f64>) {
    let signal = samples[..m - 1 + lags].to_vec();
    let template = signal.iter().take(m).map(|s| s * 0.8 + 0.05).collect();
    (signal, template)
}

fn normalized<T: LaneFloat>(template: &[f64], signal: &[f64]) -> Vec<f64> {
    let filter = MatchedFilter::<T>::new(template).unwrap();
    assert!(template.len() <= 512 || filter.block_len() == 2048);
    filter.correlate_normalized(signal).unwrap()
}

fn raw<T: LaneFloat>(template: &[f64], signal: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    MatchedFilter::<T>::new(template)
        .unwrap()
        .correlate_into(signal, &mut out)
        .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_forward_matches_fft_any_on_any_length(
        signal in prop::collection::vec(-50.0f64..50.0, 1..300),
    ) {
        let cx = to_complex(&signal);
        let reference = fft_any(&cx).unwrap();
        let mut plan = FftPlan::new(cx.len()).unwrap();
        let mut buf = cx.clone();
        plan.process_forward(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(reference.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9 * (1.0 + b.abs()));
            prop_assert!((a.im - b.im).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn plan_inverse_matches_ifft_any_and_roundtrips(
        signal in prop::collection::vec(-20.0f64..20.0, 1..256),
    ) {
        let cx = to_complex(&signal);
        let reference = ifft_any(&cx).unwrap();
        let mut plan = FftPlan::new(cx.len()).unwrap();
        let mut buf = cx.clone();
        plan.process_inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(reference.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
        // Forward ∘ inverse through the same plan is the identity.
        let mut rt = cx.clone();
        plan.process_forward(&mut rt).unwrap();
        plan.process_inverse(&mut rt).unwrap();
        for (a, b) in rt.iter().zip(cx.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn planner_round_trips_across_mixed_lengths(
        len_a in 1usize..200,
        len_b in 1usize..200,
    ) {
        // One planner serving two different lengths must keep the plans
        // separate and correct.
        let mut planner = FftPlanner::new();
        for n in [len_a, len_b, len_a] {
            let signal: Vec<Complex64> =
                (0..n).map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos())).collect();
            let mut buf = signal.clone();
            planner.fft_in_place(&mut buf).unwrap();
            planner.ifft_in_place(&mut buf).unwrap();
            for (a, b) in buf.iter().zip(signal.iter()) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
        }
        prop_assert!(planner.cached_plans() <= 2);
    }

    #[test]
    fn plan_rejects_mismatched_lengths_cleanly(
        plan_len in 1usize..128,
        data_len in 1usize..128,
    ) {
        prop_assume!(plan_len != data_len);
        let mut plan = FftPlan::new(plan_len).unwrap();
        let mut wrong = vec![Complex64::ZERO; data_len];
        prop_assert!(plan.process_forward(&mut wrong).is_err());
        prop_assert!(plan.process_inverse(&mut wrong).is_err());
        // The rejection must not poison the plan.
        let mut right = vec![Complex64::ONE; plan_len];
        prop_assert!(plan.process_forward(&mut right).is_ok());
    }

    #[test]
    fn matched_filter_matches_one_shot_normalized_correlation(
        samples in prop::collection::vec(-5.0f64..5.0, 4100..4101),
        tmpl_len in 3usize..1025,
        blocks in 0usize..3,
        frac in 0.0f64..1.0,
        single in any::<bool>(),
    ) {
        let (signal, template) =
            signal_and_template(&samples, tmpl_len, lag_count(tmpl_len, blocks, frac));
        let energy: f64 = template.iter().map(|t| t * t).sum();
        prop_assume!(energy > 1e-6);
        let reference = xcorr_normalized(&signal, &template).unwrap();
        let (streamed, tol) = if single {
            (normalized::<f32>(&template, &signal), 1e-4)
        } else {
            (normalized::<f64>(&template, &signal), 1e-9)
        };
        prop_assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(reference.iter()) {
            prop_assert!((a - b).abs() < tol, "{} vs {}", a, b);
        }
    }

    #[test]
    fn matched_filter_raw_matches_xcorr_fft(
        samples in prop::collection::vec(-3.0f64..3.0, 4100..4101),
        tmpl_len in 2usize..1025,
        blocks in 0usize..3,
        frac in 0.0f64..1.0,
        single in any::<bool>(),
    ) {
        let (signal, _) =
            signal_and_template(&samples, tmpl_len, lag_count(tmpl_len, blocks, frac));
        let template: Vec<f64> = signal.iter().rev().take(tmpl_len).map(|s| s + 0.1).collect();
        let energy: f64 = template.iter().map(|t| t * t).sum();
        prop_assume!(energy > 1e-6);
        let reference = xcorr_fft(&signal, &template).unwrap();
        let (out, tol) = if single {
            (raw::<f32>(&template, &signal), 1e-4)
        } else {
            (raw::<f64>(&template, &signal), 1e-9)
        };
        prop_assert_eq!(out.len(), reference.len());
        let scale: f64 = 1.0 + reference.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        for (a, b) in out.iter().zip(reference.iter()) {
            prop_assert!((a - b).abs() < tol * scale, "{} vs {}", a, b);
        }
    }

    #[test]
    fn matched_filter_rejects_short_signals(
        tmpl_len in 2usize..50,
        deficit in 1usize..10,
        single in any::<bool>(),
    ) {
        let template: Vec<f64> = (0..tmpl_len).map(|i| (i as f64 * 0.4).sin() + 0.2).collect();
        let short_len = tmpl_len.saturating_sub(deficit).max(1);
        prop_assume!(short_len < tmpl_len);
        let short = vec![1.0; short_len];
        let result = if single {
            MatchedFilter::<f32>::new(&template).unwrap().correlate_normalized(&short)
        } else {
            MatchedFilter::<f64>::new(&template).unwrap().correlate_normalized(&short)
        };
        prop_assert!(result.is_err());
    }
}
