//! Host-contention correction.
//!
//! The sandbox this benchmark runs on is shared, and other tenants slow
//! it down for minutes at a time: ten unchanged 16 s measurements of one
//! workload spread by up to 26 % (README, "Noise floor"), and the slow
//! stretches outlast any run length the benchmark contract leaves room
//! for. A bound on a timed metric means nothing under that.
//!
//! So the driver times a fixed calibration loop (about 2 ms: a dependent
//! integer chain, a cache-resident vector loop and one pass over an 8 MB
//! buffer) after every set-up and after every timed run.
//! `median reading ÷ fastest reading` estimates how much the host slowed
//! the process down while it measured, and the timed end-to-end metrics
//! are divided by that factor (throughput multiplied).
//!
//! The program under test must not be able to move the factor, or a
//! change could buy itself a discount. Two rules keep it out:
//!
//! - every reading is taken in the same state — right after a run of the
//!   program under test (a warm-up or a timed run) has returned — so the
//!   fastest reading and the median one see the same leftovers, and
//!   whatever a run leaves behind every time cancels in the ratio;
//! - every reading runs the loop twice and times the second pass, so the
//!   loop's own buffers are back in the caches however many lines the run
//!   evicted.
//!
//! What is left is contention that comes and goes between readings, which
//! is the host's. The factor and the uncorrected median are printed beside
//! the corrected values, and a traced run reports both as
//! `bench.host_slowdown` and `bench.decision_latency_p50_raw_ms`: a change
//! that moves `bench.host_slowdown` against its parent is to be read from
//! the raw figures.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, sorted};

/// Words in the cache-resident buffer (32 KB).
const RESIDENT_WORDS: usize = 4096;
/// Passes over the cache-resident buffer per reading.
const RESIDENT_PASSES: u64 = 256;
/// Words in the streamed buffer (8 MB: past any private cache, so the
/// pass feels contention for the shared cache and the memory bus).
const STREAM_WORDS: usize = 1 << 20;
/// Steps of the dependent integer chain per reading.
const CHAIN_STEPS: u32 = 200_000;

/// Times the calibration loop and remembers every reading.
#[derive(Debug)]
pub struct Calibrator {
    resident: Vec<u64>,
    stream: Vec<u64>,
    readings_ns: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            resident: vec![1; RESIDENT_WORDS],
            stream: vec![1; STREAM_WORDS],
            readings_ns: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Megabytes the calibrator keeps resident, which `peak_rss_mb`
    /// leaves out.
    #[must_use]
    pub fn resident_mb(&self) -> f64 {
        ((self.resident.len() + self.stream.len()) * std::mem::size_of::<u64>()) as f64
            / (1024.0 * 1024.0)
    }

    fn pass(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..CHAIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        for pass in 0..RESIDENT_PASSES {
            let mut acc = [0_u64; 8];
            for chunk in self.resident.chunks_exact_mut(8) {
                for (a, w) in acc.iter_mut().zip(chunk) {
                    *w = w.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(pass);
                    *a ^= *w >> 7;
                }
            }
            black_box(acc);
        }
        let mut sum = 0_u64;
        for w in &mut self.stream {
            *w = w.wrapping_add(1);
            sum ^= *w;
        }
        black_box(sum);
    }

    /// Takes one reading: an untimed pass to refill the caches, then a
    /// timed one.
    pub fn read(&mut self) {
        self.pass();
        let start = Instant::now();
        self.pass();
        self.readings_ns.push(start.elapsed().as_nanos() as f64);
    }

    /// Readings taken so far.
    #[must_use]
    pub fn readings(&self) -> usize {
        self.readings_ns.len()
    }

    /// Median reading ÷ fastest reading: how much slower than its own
    /// best the host ran this process, by the calibration loop's measure.
    /// 1 before any reading.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        match sorted(&self.readings_ns).first() {
            Some(&fastest) => median(&self.readings_ns) / fastest,
            None => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_median_over_fastest() {
        let mut c = Calibrator::default();
        assert_eq!(c.slowdown(), 1.0);
        for _ in 0..5 {
            c.read();
        }
        assert_eq!(c.readings(), 5);
        assert!(c.slowdown() >= 1.0);
        c.readings_ns = vec![2.0, 4.0, 3.0];
        assert_eq!(c.slowdown(), 1.5);
        assert!((c.resident_mb() - 8.03125).abs() < 1e-9);
    }
}
