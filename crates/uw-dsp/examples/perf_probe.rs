//! Quick perf probe for the lane-kernel hot paths (min-of-N timing, robust
//! to noisy-neighbour machines). Not part of the committed bench suite.

use std::time::Instant;
use uw_dsp::complex::{Complex, Complex64};
use uw_dsp::fixed::{ComplexQ15, FixedRadix2Plan, Q15MatchedFilter};
use uw_dsp::plan::Radix2Plan;
use uw_dsp::{LaneFloat, MatchedFilter};

fn min_time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// SoA forward-FFT timings at several sizes on one float lane type.
fn float_fft_soa<T: LaneFloat>(label: &str, sig: &[f64]) {
    for sz in [2048usize, 16384, 32768, 65536] {
        let plan = Radix2Plan::<T>::new(sz).unwrap();
        let mut re: Vec<T> = sig[..sz].iter().map(|&x| T::from_f64(x)).collect();
        let mut im = vec![T::ZERO; sz];
        let t = min_time(
            || {
                plan.forward_soa(&mut re, &mut im).unwrap();
            },
            30,
        );
        println!("{label} fft {sz}: {:.1} us", t * 1e6);
    }
}

/// Interleaved 2048-point forward FFT timing (includes the AoS<->SoA
/// conversion) on one float lane type.
fn float_fft_interleaved<T: LaneFloat>(label: &str, base: &[Complex64]) {
    let plan = Radix2Plan::<T>::new(2048).unwrap();
    let cast: Vec<Complex<T>> = base.iter().map(|&c| Complex::from_complex64(c)).collect();
    let mut buf = cast.clone();
    let t = min_time(
        || {
            buf.copy_from_slice(&cast);
            plan.forward(&mut buf).unwrap();
        },
        50,
    );
    println!("{label} fft 2048 interleaved: {:.1} us", t * 1e6);
}

fn main() {
    let n = 65536usize;
    let sig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();

    float_fft_soa::<f64>("f64", &sig);
    float_fft_soa::<f32>("f32", &sig);
    for sz in [2048usize, 16384, 32768, 65536] {
        let plan = FixedRadix2Plan::new(sz).unwrap();
        let mut re: Vec<i32> = sig[..sz].iter().map(|&x| (x * 32767.0) as i32).collect();
        let mut im = vec![0i32; sz];
        let t = min_time(
            || {
                plan.forward_soa(&mut re, &mut im).unwrap();
            },
            30,
        );
        println!("q15 fft {sz}: {:.1} us", t * 1e6);
    }
    // interleaved entry (includes AoS<->SoA conversion)
    {
        let base: Vec<Complex64> = sig[..2048].iter().map(|&x| Complex64::from_re(x)).collect();
        float_fft_interleaved::<f64>("f64", &base);
        float_fft_interleaved::<f32>("f32", &base);
        let plan = FixedRadix2Plan::new(2048).unwrap();
        let baseq: Vec<ComplexQ15> = base
            .iter()
            .map(|&c| ComplexQ15::from_complex64(c))
            .collect();
        let mut bufq = baseq.clone();
        let t = min_time(
            || {
                bufq.copy_from_slice(&baseq);
                plan.forward(&mut bufq).unwrap();
            },
            50,
        );
        println!("q15 fft 2048 interleaved: {:.1} us", t * 1e6);
    }

    // matched filters on a 13240-sample template over a (template+20000) stream
    let m = 13240usize;
    let template: Vec<f64> = (0..m).map(|i| (i as f64 * 0.21).sin()).collect();
    let total = m + 20_000;
    let mut stream: Vec<f64> = (0..total)
        .map(|i| 0.02 * (i as f64 * 0.613).sin())
        .collect();
    for (i, &t) in template.iter().enumerate() {
        stream[5000 + i] += 0.5 * t;
    }
    let f64f = MatchedFilter::<f64>::new(&template).unwrap();
    let f32f = MatchedFilter::<f32>::new(&template).unwrap();
    let q15f = Q15MatchedFilter::new(&template).unwrap();
    let mut out = Vec::new();
    println!("mf fft_len = {}", f64f.block_len());
    let t = min_time(
        || {
            f64f.correlate_normalized_into(&stream, &mut out).unwrap();
        },
        12,
    );
    println!("f64 mf: {:.2} ms", t * 1e3);
    let t = min_time(
        || {
            f32f.correlate_normalized_into(&stream, &mut out).unwrap();
        },
        12,
    );
    println!("f32 mf: {:.2} ms", t * 1e3);
    let t = min_time(
        || {
            f32f.correlate_into(&stream, &mut out).unwrap();
        },
        12,
    );
    println!("f32 mf raw: {:.2} ms", t * 1e3);
    let t = min_time(
        || {
            q15f.correlate_normalized_into(&stream, &mut out).unwrap();
        },
        12,
    );
    println!("q15 mf: {:.2} ms", t * 1e3);
}
