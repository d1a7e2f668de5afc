//! Seeded input generation: the benchmark's own RNG, the Zipf draw over a
//! fixed universe, stratified request rounds and the duplicate plan.
//! Every generator is a pure function of its seed, so one seed always
//! yields the same requests.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream derived from this seed and a stream tag.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed);
        let mix = base.next_u64() ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Rng::new(mix)
    }

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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Exact Zipf counts for one round of `round` draws over ranks `0..n`:
/// rank `r` has weight `1 / (r + 1)^s`, and the counts are the
/// largest-remainder rounding of `round` in proportion, so they sum to
/// `round`. Shuffled rounds of these counts draw Zipf-style with the
/// same mix for every seed.
pub fn zipf_counts(n: usize, s: f64, round: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * round as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = round - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

/// `rounds` rounds of template indices: each round holds template `i`
/// exactly `weights[i]` times, in a seeded order. Any prefix of whole
/// rounds therefore has the same mix whatever the seed.
pub fn stratified(rng: &mut Rng, weights: &[usize], rounds: usize) -> Vec<usize> {
    let round: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
        .collect();
    let mut out = Vec::with_capacity(round.len() * rounds);
    for _ in 0..rounds {
        let mut r = round.clone();
        rng.shuffle(&mut r);
        out.extend(r);
    }
    out
}

/// Which steps of a client's sequence repeat the other client's
/// in-flight key: each step independently with probability `share`.
pub fn dup_plan(rng: &mut Rng, len: usize, share: f64) -> Vec<bool> {
    (0..len).map(|_| rng.unit() < share).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(7, 1).next_u64());
    }

    #[test]
    fn zipf_rounds_follow_the_law_for_a_fixed_seed() {
        let counts = zipf_counts(64, 1.0, 128);
        assert_eq!(counts.iter().sum::<usize>(), 128);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        let harmonic: f64 = (1..=64).map(|r| 1.0 / r as f64).sum();
        for (r, &c) in counts.iter().enumerate() {
            let want = 128.0 / ((r + 1) as f64 * harmonic);
            assert!((c as f64 - want).abs() < 1.0, "rank {r}: {c} vs {want}");
        }
        assert_eq!(counts[0], 27);
        // Seeded rounds of these counts: same seed, same draws; every
        // round holds the exact counts.
        let draws = stratified(&mut Rng::new(42), &counts, 3);
        assert_eq!(draws, stratified(&mut Rng::new(42), &counts, 3));
        for round in draws.chunks(128) {
            assert_eq!(round.iter().filter(|&&r| r == 0).count(), 27);
        }
    }

    #[test]
    fn stratified_rounds_hold_the_exact_mix() {
        let weights = [3, 1, 2];
        let seq = stratified(&mut Rng::new(5), &weights, 4);
        assert_eq!(seq.len(), 24);
        for round in seq.chunks(6) {
            for (i, &w) in weights.iter().enumerate() {
                assert_eq!(round.iter().filter(|&&t| t == i).count(), w);
            }
        }
        assert_eq!(seq, stratified(&mut Rng::new(5), &weights, 4));
        assert_ne!(seq, stratified(&mut Rng::new(6), &weights, 4));
    }

    #[test]
    fn duplicate_share_matches_for_a_fixed_seed() {
        let plan = dup_plan(&mut Rng::new(11), 20_000, 0.1);
        let share = plan.iter().filter(|&&d| d).count() as f64 / plan.len() as f64;
        assert!((share - 0.1).abs() < 0.01, "share {share}");
        assert_eq!(plan, dup_plan(&mut Rng::new(11), 20_000, 0.1));
        assert!(dup_plan(&mut Rng::new(11), 1000, 0.0).iter().all(|&d| !d));
    }
}
