//! The benchmark's own statistics: nearest-rank percentiles, the tail
//! rule and size-bucketed decode cost.

/// Candidate tail percentiles, in per-mille (p50, p75, p90, p99, p99.9).
/// Few, widely spaced rungs keep a workload's sample count inside one
/// rung from run to run.
pub const TAIL_LADDER_PERMILLE: [u64; 5] = [500, 750, 900, 990, 999];

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Responses at or below this size are "small" for decode cost per MB.
pub const SMALL_MAX_BYTES: usize = 16 * 1024;
/// Responses at or above this size are "large" for decode cost per MB.
pub const LARGE_MIN_BYTES: usize = 48 * 1024;

/// 0-based nearest-rank index of the `permille` percentile of `n`
/// samples: `ceil(permille * n / 1000) - 1`, clamped to the sample.
fn rank(n: usize, permille: u64) -> usize {
    let n64 = n as u64;
    ((permille * n64).div_ceil(1000).max(1) - 1) as usize
}

/// Nearest-rank percentile of an ascending sample (0 for an empty one).
pub fn percentile_sorted(sorted: &[f64], permille: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille).min(sorted.len() - 1)]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(samples: &[f64], permille: u64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, permille)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// The highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank (`None` below
/// 20 samples, where not even the median qualifies).
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && (n - 1 - rank(n, q)) as u64 >= TAIL_MIN_BEYOND)
}

/// Median, tail and sample count of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_permille: u64,
    pub tail: f64,
}

/// Summarizes a latency sample. The tail is taken at `declared`, the
/// percentile the rule picks at the workload's expected sample count, so
/// that runs stay comparable; a run too short to leave
/// [`TAIL_MIN_BEYOND`] samples beyond it falls back to the rule.
pub fn summarize(samples: &[f64], declared: u64) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let fits = n > 0 && (n - 1 - rank(n, declared)) as u64 >= TAIL_MIN_BEYOND;
    let q = if fits {
        declared
    } else {
        tail_permille(n).unwrap_or(1000)
    };
    Summary {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 500),
        tail_permille: q,
        tail: percentile_sorted(&sorted, q),
    }
}

/// Per-mille as a percentile label: 990 → "p99", 999 → "p99.9".
pub fn percentile_label(permille: u64) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Median decode milliseconds per MB of payload, for small
/// (≤ [`SMALL_MAX_BYTES`]) and large (≥ [`LARGE_MIN_BYTES`]) responses.
/// Linear decoding gives equal buckets; a large/small ratio well above 1
/// exposes super-linear cost. A bucket with no samples is `None`.
pub fn decode_ms_per_mb(samples: &[(usize, f64)]) -> (Option<f64>, Option<f64>) {
    let bucket = |keep: &dyn Fn(usize) -> bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(bytes, _)| *bytes > 0 && keep(*bytes))
            .map(|&(bytes, ms)| ms / (bytes as f64 / 1e6))
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    (
        bucket(&|b| b <= SMALL_MAX_BYTES),
        bucket(&|b| b >= LARGE_MIN_BYTES),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[3.0], 500), 3.0);
        assert_eq!(percentile(&[], 500), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        // At every size the chosen rank really leaves ten samples beyond.
        for n in 20..3000 {
            let q = tail_permille(n).unwrap();
            assert!(n - 1 - rank(n, q) >= 10, "n={n} q={q}");
        }
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&sample, 990);
        assert_eq!(
            (s.n, s.p50, s.tail_permille, s.tail),
            (1000, 500.0, 990, 990.0)
        );
        // A declared percentile is kept while it leaves ten beyond …
        assert_eq!(summarize(&sample, 900).tail_permille, 900);
        // … and a run too short for it falls back to the rule.
        assert_eq!(summarize(&sample[..999], 990).tail_permille, 900);
        assert_eq!(summarize(&sample[..30], 950).tail_permille, 500);
        assert_eq!(percentile_label(990), "p99");
        assert_eq!(percentile_label(999), "p99.9");
    }

    #[test]
    fn decode_cost_is_bucketed_by_size() {
        let samples = [
            (8 * 1024, 0.8192),   // 100 ms/MB
            (16 * 1024, 1.6384),  // 100 ms/MB, still small
            (32 * 1024, 99.0),    // between buckets: ignored
            (64 * 1024, 26.2144), // 400 ms/MB
            (0, 1.0),             // empty payload: ignored
        ];
        let (small, large) = decode_ms_per_mb(&samples);
        assert!((small.unwrap() - 100.0).abs() < 1e-9);
        assert!((large.unwrap() - 400.0).abs() < 1e-9);
        assert_eq!(decode_ms_per_mb(&samples[..2]).1, None);
    }
}
