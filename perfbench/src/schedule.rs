//! Seeded input generation: a SplitMix64 stream and the open-loop Poisson
//! arrival schedule. Both are pure functions of the workload seed.

/// SplitMix64: a small, fully specified generator, so a seed maps to the
/// same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Derives the `k`-th cell seed of a workload seed (kept below 2^31 so
/// cell ids stay short).
pub fn cell_seed(seed: u64, k: u64) -> u64 {
    SplitMix::new(seed, k).next_u64() >> 33
}

/// Send offsets (seconds from the start of the open-loop phase) of a
/// Poisson process at `rate_per_s`, covering `[0, duration_s)`.
pub fn poisson_offsets(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed, 0x5C4E_D01E);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential gap by inversion; 1 - u lies in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_offsets(7, 120.0, 5.0);
        let b = poisson_offsets(7, 120.0, 5.0);
        let c = poisson_offsets(8, 120.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 600 expected arrivals; a Poisson count stays within ±5 sigma.
        assert!(
            (a.len() as f64 - 600.0).abs() < 5.0 * 600f64.sqrt(),
            "{}",
            a.len()
        );
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!((mean_gap - 1.0 / 120.0).abs() < 0.1 / 120.0 * 5.0);
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        assert_eq!(cell_seed(1, 0), cell_seed(1, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..500).map(|k| cell_seed(3, k)).collect();
        assert_eq!(seeds.len(), 500);
        assert!(seeds.iter().all(|&s| s < 1 << 31));
    }
}
