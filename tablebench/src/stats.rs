//! Sample statistics and the seeded randomness the workloads draw from.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. `q` is clamped to
/// `[0, 1]`; an empty sample has no quantile.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Fewest samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether a sample of `n` values supports reporting the `q` quantile: at
/// least [`MIN_TAIL_SAMPLES`] values must lie beyond its nearest rank.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n > 0 && n.saturating_sub(rank) >= MIN_TAIL_SAMPLES
}

/// Min, quartiles, median and max of a sample, as the results file
/// records every metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (any order); `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: *v.first()?,
            q1: quantile(&v, 0.25)?,
            median: quantile(&v, 0.5)?,
            q3: quantile(&v, 0.75)?,
            max: *v.last()?,
        })
    }
}

/// Median of `values` (nearest rank), `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank `q` quantile of `values` in any order, `0.0` when empty.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q).unwrap_or(0.0)
}

/// SplitMix64: a small, fast, seedable generator. Every random choice the
/// benchmark makes (operation mix, request order, Zipf draws) comes from
/// one of these, seeded from `--seed`, so a seed fixes the inputs.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Derives an independent stream seed from the run seed and a purpose tag,
/// so corpus, held-out queries, model and operation mix never share a seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Zipf sampler over ranks `0..n` with exponent `s`: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`, by inverse-CDF lookup.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, rng: SplitMix::new(seed) }
    }

    pub fn sample(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Nearest rank never interpolates: p25 of four values is the first.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.26), Some(2.0));
    }

    #[test]
    fn summary_orders_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 values is rank 990: exactly ten lie beyond it.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(0, 0.5));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut z = Zipf::new(64, 1.0, seed);
            (0..2000).map(|_| z.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let d = draw(5);
        assert!(d.iter().all(|&r| r < 64));
        // s = 1 over 64 ranks puts ~21% of the mass on rank 0 and ~0.3% on
        // rank 63; the head must dominate the tail.
        let head = d.iter().filter(|&&r| r == 0).count();
        let tail = d.iter().filter(|&&r| r == 63).count();
        assert!(head > 300 && head < 560, "rank-0 share {head}/2000");
        assert!(tail < head / 10);
    }

    #[test]
    fn derived_seeds_differ_by_purpose() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }
}
