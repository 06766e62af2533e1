//! Order statistics and the process counters the end-to-end metrics read.

use std::time::Instant;

/// The median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// `xs` in ascending order.
///
/// # Panics
///
/// Panics on a NaN.
#[must_use]
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The `pct`-th percentile of an ascending slice, linearly interpolated
/// between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The tail percentile a sample of `samples` run walls supports: the
/// highest multiple of 5 that still leaves at least ten samples beyond
/// it, capped at p90. Below twenty samples no percentile above the
/// median qualifies; the upper quartile is reported then, so the metric
/// exists on every workload (the sample count is printed beside it).
#[must_use]
pub fn tail_percentile(samples: usize) -> u32 {
    (75..=90)
        .rev()
        .step_by(5)
        .find(|&p| samples * (100 - p as usize) >= 10 * 100)
        .unwrap_or(75)
}

/// The distance between the first and third quartile of `xs` as a share
/// of their median, with the quartiles Python's
/// `statistics.quantiles(xs, n=4)` gives (the exclusive method) — the
/// spread the benchmark's acceptance check computes.
///
/// # Panics
///
/// Panics on fewer than two values.
#[must_use]
pub fn quartile_spread(xs: &[f64]) -> f64 {
    assert!(xs.len() >= 2, "quartiles need two values");
    let data = sorted(xs);
    let len = data.len() as i64;
    let quartile = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(xs)
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process (all threads, including exited
/// ones) has consumed, from `/proc/self/stat`. `None` off Linux.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, so 12 and 13 after the `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set of this process in MB (`VmHWM`). `None` off Linux.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Wall seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        let s = sorted(&xs);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_follows_the_ten_beyond_rule() {
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(60), 80);
        assert_eq!(tail_percentile(80), 85);
        assert_eq!(tail_percentile(200), 90);
        assert_eq!(tail_percentile(400), 90);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(24), 75);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[12.0, 10.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
