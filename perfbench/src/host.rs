//! Host speed and memory, measured alongside every workload.
//!
//! The wall-clock speed of the shared 2-core hosts this benchmark runs on
//! drifts by ±30% over minutes, and it moves every workload together: in
//! one series of runs `paper-sf1`'s median went 9.4 → 15.0 → 9.4 ms while
//! `iterative-sf10` and `serve-mixed` rose and fell in step. The workloads
//! therefore time a fixed reference kernel — code of this package, which
//! no change to the engine touches — while they run, and each run scales
//! its timings to a host on which the kernel's median is [`NOMINAL_MS`].
//! The closed loops run the kernel between their timed operations
//! ([`sample`]): on ten back-to-back `paper-sf1` runs this cut the spread
//! of `median_ms` from 0.20 to 0.06 of its median, where timing it on a
//! thread of its own only cut it to 0.15. `serve-mixed` times a short
//! kernel ([`sample_short`]) on its load threads between requests. The
//! raw timings are printed beside the scaled ones.

use crate::stats::{median, Rng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Median reference-kernel time (ms) on the host the benchmark was
/// defined on.
pub const NOMINAL_MS: f64 = 3.0;

/// Table size of the reference kernel.
const FULL: usize = 1 << 19;
/// Table size of the short kernel that fits the gaps of an open loop.
const SHORT: usize = 1 << 16;
/// Median time of the full kernel over the short one's, measured back to
/// back on the host the benchmark was defined on: converts a short
/// kernel's time into the full kernel's units.
const SHORT_TO_FULL: f64 = 8.3;

/// The reference kernel over a table of `n` entries: the kinds of work
/// the engine does per row — index chasing through a table (larger than
/// the L2 cache at full size), hash-map updates and a sort — on fixed
/// inputs.
fn kernel(n: usize) -> u64 {
    let mut rng = Rng::new(42);
    let next: Vec<u32> = (0..n).map(|_| rng.below(n) as u32).collect();
    let mut counts: HashMap<u32, u64> = HashMap::with_capacity(n / 8);
    let (mut i, mut acc) = (0u32, 0u64);
    for step in 0..(n / 4) as u64 {
        i = next[i as usize];
        *counts.entry(i % (n as u32 / 8)).or_default() += step;
        acc = acc.wrapping_add(u64::from(i));
    }
    let mut v: Vec<u64> = counts.into_values().collect();
    v.sort_unstable();
    acc ^ v[v.len() / 2]
}

/// Resident set size of this process in MB (`VmRSS`).
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?;
    kb.parse::<f64>().ok().map(|kb| kb / 1024.0)
}

/// Times one reference-kernel run (ms) into `kernel_ms`.
pub fn sample(kernel_ms: &mut Vec<f64>) {
    let t0 = Instant::now();
    std::hint::black_box(kernel(FULL));
    kernel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
}

/// Times one short-kernel run into `kernel_ms`, in the full kernel's
/// units.
pub fn sample_short(kernel_ms: &mut Vec<f64>) {
    let t0 = Instant::now();
    std::hint::black_box(kernel(SHORT));
    kernel_ms.push(t0.elapsed().as_secs_f64() * 1e3 * SHORT_TO_FULL);
}

/// Factor that scales a run's timings to the nominal host: below 1 when
/// the host ran slow. 1 when nothing was sampled.
pub fn scale(kernel_ms: &[f64]) -> f64 {
    if kernel_ms.is_empty() {
        return 1.0;
    }
    NOMINAL_MS / median(kernel_ms)
}

/// Samples the resident set every 50 ms on its own thread.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.extend(rss_mb());
                std::thread::sleep(Duration::from_millis(500));
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling; the median resident set (MB) over the run. A
    /// median, not the peak: the peak moves with how many graph copies a
    /// write and a checkpoint happen to hold at once.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        median(&self.thread.join().expect("RSS sampler thread panicked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(FULL), kernel(FULL));
        assert_eq!(kernel(SHORT), kernel(SHORT));
    }

    #[test]
    fn a_slow_host_scales_timings_down() {
        assert_eq!(scale(&[]), 1.0);
        assert_eq!(scale(&[NOMINAL_MS; 3]), 1.0);
        assert_eq!(scale(&[2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, 0.0]), 0.5);
        let mut ms = Vec::new();
        sample(&mut ms);
        assert!(ms[0] > 0.0);
    }

    #[test]
    fn rss_is_sampled() {
        let s = RssSampler::start();
        std::thread::sleep(Duration::from_millis(120));
        assert!(s.finish() > 0.0);
    }
}
