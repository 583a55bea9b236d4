//! Host-side measurement: per-thread CPU time, peak memory, medians.

/// Seconds this thread has run on a CPU: the first field of
/// `/proc/thread-self/schedstat`. Time a co-tenant takes is not counted,
/// so timings stay comparable on a shared host.
pub fn cpu_s() -> f64 {
    // The kernel folds the running slice into the counter only at
    // scheduling events; yielding forces the fold, so short intervals
    // do not read as zero.
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat (the benchmark needs Linux schedstats)");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("on-CPU nanoseconds in /proc/thread-self/schedstat");
    ns as f64 * 1e-9
}

/// Run `f`; return its value and the CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = cpu_s();
    let v = f();
    (v, cpu_s() - t0)
}

/// High-water resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// Smallest sample: for host times, the least-disturbed repetition
/// (co-tenant interference only ever adds time).
pub fn floor(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.into_iter().collect();
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (_, spent) = cpu_timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(spent > 0.0);
    }
}
