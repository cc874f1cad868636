//! Summary statistics and failure accounting.

/// The percentiles a tail may be reported at, highest first.
const PERCENTILE_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a reported percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of the values (mean of the middle two for an even count);
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 50) that has at
/// least `beyond` of `n` samples above it; `None` when not even the median
/// qualifies.
pub fn supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= beyond as f64 - 1e-9)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of the values.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Operations attempted and failed in one run, summed over its parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Of those, the ones that failed (errored, dropped, quarantined,
    /// restarted or frozen — whatever the workload counts).
    pub failed: u64,
}

impl Tally {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Share of attempted operations that succeeded, in percent (100 when
    /// nothing was attempted — nothing failed).
    pub fn success_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 100.0;
        }
        100.0 * self.attempted.saturating_sub(self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19, TAIL_SAMPLES), None);
        assert_eq!(supported_percentile(20, TAIL_SAMPLES), Some(50.0));
        assert_eq!(supported_percentile(99, TAIL_SAMPLES), Some(50.0));
        assert_eq!(supported_percentile(100, TAIL_SAMPLES), Some(90.0));
        assert_eq!(supported_percentile(200, TAIL_SAMPLES), Some(95.0));
        assert_eq!(supported_percentile(999, TAIL_SAMPLES), Some(95.0));
        assert_eq!(supported_percentile(1000, TAIL_SAMPLES), Some(99.0));
        assert_eq!(supported_percentile(10_000, TAIL_SAMPLES), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.success_pct(), 100.0);
        t.add(90, 0);
        t.add(10, 5);
        assert_eq!(
            t,
            Tally {
                attempted: 100,
                failed: 5
            }
        );
        assert!((t.success_pct() - 95.0).abs() < 1e-12);
        t.add(0, 200);
        assert_eq!(t.success_pct(), 0.0);
    }
}
