//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! geometric means and a seeded generator for workload parameters.

/// The percentile ladder a tail is reported on; it stops at p99, the
/// highest percentile the printed metrics (`read_p99_ms`, …) name.
const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples needed beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile on the ladder (p50 … p99) that has at least
/// [`TAIL_BEYOND`] samples strictly above its nearest-rank position, as
/// `(percentile, value)`. `None` when even p50 has fewer than ten
/// samples beyond it (fewer than 21 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    LADDER.iter().rev().find_map(|&q| {
        let idx = nearest_rank(q, n)?;
        (n - 1 - idx >= TAIL_BEYOND).then_some((q, s[idx]))
    })
}

/// Zero-based nearest-rank index of percentile `q` among `n` samples.
fn nearest_rank(q: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The tail of `xs` by [`tail`], or its median when too few samples
/// exist for any ladder percentile.
pub fn tail_or_median(xs: &[f64]) -> f64 {
    tail(xs).map_or_else(|| median(xs), |(_, v)| v)
}

/// Samples a class needs before a gated percentile replaces its median.
/// Well above the ten-beyond rule (p90 needs 100), so that a closed loop
/// whose sample count wanders around that rule with the host's speed
/// reports the same statistic in every run.
pub const GATED_TAIL_SAMPLES: usize = 200;

/// Percentile `q` of `xs` by nearest rank; `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    nearest_rank(q, s.len()).map_or(f64::NAN, |idx| s[idx])
}

/// Percentile `q` of `xs` by nearest rank when `xs` has at least
/// [`GATED_TAIL_SAMPLES`] samples, else the median.
pub fn percentile_or_median(xs: &[f64], q: f64) -> f64 {
    if xs.len() >= GATED_TAIL_SAMPLES {
        percentile(xs, q)
    } else {
        median(xs)
    }
}

/// The median over the non-empty `windows` of `stat` of each: a
/// disturbance confined to fewer than half of the windows moves it
/// little. `NaN` when every window is empty.
pub fn windowed(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect();
    median(&per)
}

/// Label for the tail of `xs`: `p99`, `p75`, … or `median` (n < 21).
pub fn tail_label(xs: &[f64]) -> String {
    match tail(xs) {
        Some((q, _)) => format!("p{q}"),
        None => "median".to_string(),
    }
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a tiny seeded generator, so workload parameters depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_9a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative weights of a Zipf(`s`) popularity over `n` ranks, for
/// [`zipf_pick`].
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Draws a rank from a [`zipf_cdf`] table.
pub fn zipf_pick(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: p50 sits at rank 10, leaving exactly 10 above.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 19 samples: p50 is rank 10 with only 9 above — no tail.
        assert_eq!(tail(&ramp(19)), None);
        // 100 samples: p90 is rank 90 with 10 above; p95 has only 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 above; p99.9 has 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10,000 samples: the ladder stops at p99.
        assert_eq!(tail(&ramp(10_000)), Some((99.0, 9900.0)));
        // 999 samples: p99 is rank 990 with 9 above, so p95 it is.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs = ramp(100);
        xs.reverse();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail_label(&xs), "p90");
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let xs = ramp(7);
        assert_eq!(tail_or_median(&xs), 4.0);
        assert_eq!(tail_label(&xs), "median");
        assert_eq!(percentile_or_median(&xs, 90.0), 4.0);
        // 100 samples would meet the ten-beyond rule at p90, but a gated
        // percentile waits for 200.
        assert_eq!(percentile_or_median(&ramp(100), 90.0), 50.5);
        assert_eq!(percentile_or_median(&ramp(200), 90.0), 180.0);
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        assert_eq!(percentile(&ramp(10), 90.0), 9.0);
        assert_eq!(percentile(&ramp(11), 90.0), 10.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        assert!(percentile(&[], 90.0).is_nan());
    }

    #[test]
    fn windowed_statistic_ignores_a_minority_of_disturbed_windows() {
        let quiet = ramp(10);
        let loud: Vec<f64> = quiet.iter().map(|x| 10.0 * x).collect();
        let windows = vec![
            loud.clone(),
            quiet.clone(),
            Vec::new(),
            quiet.clone(),
            quiet,
            loud,
        ];
        assert_eq!(windowed(&windows, |w| percentile(w, 90.0)), 9.0);
        assert_eq!(windowed(&windows, median), 5.5);
        assert!(windowed(&[Vec::new()], median).is_nan());
    }

    #[test]
    fn gmean_balances_scales() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_all() {
        let cdf = zipf_cdf(1024, 1.0);
        assert!((cdf[1023] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; 1024];
        for _ in 0..100_000 {
            hits[zipf_pick(&cdf, &mut rng)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
        assert!(hits.iter().filter(|&&h| h > 0).count() > 900);
    }
}
