//! Timing summaries: a median plus the highest percentile that still has
//! at least [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, lowest first.
const LADDER: [f64; 11] = [
    50.0, 75.0, 80.0, 90.0, 95.0, 97.5, 98.0, 99.0, 99.5, 99.8, 99.9,
];

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps float error in p/100 * n from adding a rank.
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Samples strictly beyond percentile `p`'s nearest-rank position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p)]
}

/// Median of unsorted samples (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// A latency distribution reduced to what the result reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Median.
    pub p50: f64,
    /// Value at [`Timing::tail_pct`].
    pub tail: f64,
    /// The tail percentile chosen by the ten-beyond rule (50 when the
    /// samples cannot support a higher one).
    pub tail_pct: f64,
    /// Samples beyond the tail percentile.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

impl Timing {
    /// Summarises samples (any order) with the highest percentile the
    /// ten-beyond rule allows.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::at(samples, 100.0)
    }

    /// Summarises samples with the tail at percentile `pct`, or at the
    /// highest percentile the ten-beyond rule allows if `pct` leaves fewer
    /// than ten samples beyond it.
    pub fn at(samples: &[f64], pct: f64) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_pct = if n > 0 && beyond(n, pct) >= MIN_BEYOND {
            pct
        } else {
            tail_percentile(n).unwrap_or(50.0)
        };
        Self {
            p50: percentile_sorted(&v, 50.0),
            tail: percentile_sorted(&v, tail_pct),
            tail_pct,
            beyond: if n == 0 { 0 } else { beyond(n, tail_pct) },
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(next) = LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(n, *next) < MIN_BEYOND, "n={n} skipped p{next}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        let t = Timing::from_samples(&v);
        assert_eq!(
            (t.p50, t.tail, t.tail_pct, t.beyond, t.n),
            (50.0, 90.0, 90.0, 10, 100)
        );
        // A fixed tail percentile holds while it keeps ten samples beyond
        // it, and falls back to the rule's when it does not.
        let t = Timing::at(&v, 80.0);
        assert_eq!((t.tail, t.tail_pct, t.beyond), (80.0, 80.0, 20));
        let t = Timing::at(&v, 95.0);
        assert_eq!((t.tail, t.tail_pct, t.beyond), (90.0, 90.0, 10));
        assert_eq!(median(&[3.0, f64::NAN, 1.0, 2.0]), 2.0);
    }
}
