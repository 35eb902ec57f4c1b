//! Order statistics and windowed throughput.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` in (0, 1].
///
/// # Panics
/// On an empty slice — callers check sample counts first.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered float sample (mean of the two middle values
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive): the acceptance
/// rule for this benchmark is stated in those terms, so the self-check
/// computes the same thing.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, clamped to the sample; like
        // Python, the interpolation weight is not clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is
/// 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m
}

/// Completed operations per second in each of `slices` equal parts of
/// the window `[t0, t1)` (nanoseconds). An operation that straddles a
/// boundary is shared between the slices in proportion to the time it
/// spent in each, so a workload with a dozen operations per slice is
/// not quantised to whole operations.
pub fn slice_rates(ops: &[(u64, u64)], t0: u64, t1: u64, slices: usize) -> Vec<f64> {
    let mut work = vec![0.0f64; slices];
    if t1 <= t0 || slices == 0 {
        return work;
    }
    let width = (t1 - t0) as f64 / slices as f64;
    for &(start, end) in ops {
        let (s, e) = (start.clamp(t0, t1), end.clamp(t0, t1));
        if end <= start {
            // Instantaneous at this clock's resolution: all of it
            // lands in the slice that holds its end.
            let i = (((e - t0) as f64 / width) as usize).min(slices - 1);
            work[i] += 1.0;
            continue;
        }
        let total = (end - start) as f64;
        let first = (((s - t0) as f64 / width) as usize).min(slices - 1);
        let last = (((e - t0) as f64 / width) as usize).min(slices - 1);
        for (i, w) in work.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = (t0 as f64 + i as f64 * width).max(s as f64);
            let hi = (t0 as f64 + (i + 1) as f64 * width).min(e as f64);
            if hi > lo {
                *w += (hi - lo) / total;
            }
        }
    }
    let seconds = width / 1e9;
    work.iter().map(|w| w / seconds).collect()
}

/// Median latency, ns, of the operations that ended in each of
/// `slices` equal parts of the window `[t0, t1]`; a part in which none
/// ended is left out.
pub fn slice_medians(ops: &[(u64, u64)], t0: u64, t1: u64, slices: usize) -> Vec<f64> {
    if t1 <= t0 || slices == 0 {
        return Vec::new();
    }
    let width = (t1 - t0) as f64 / slices as f64;
    let mut parts = vec![Vec::new(); slices];
    for &(start, end) in ops.iter().filter(|op| (t0..=t1).contains(&op.1)) {
        let i = (((end - t0) as f64 / width) as usize).min(slices - 1);
        parts[i].push(end.saturating_sub(start));
    }
    parts
        .iter_mut()
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.sort_unstable();
            percentile(part, 0.5) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.91), 10);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&v, 0.0001), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
        // Odd count: the true middle.
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn slice_rates_share_straddling_operations() {
        // Window of 2 s in 2 slices; one op wholly in slice 0, one
        // straddling the boundary 25 % / 75 %.
        let s = 1_000_000_000u64;
        let ops = [(0, s / 2), (s - s / 4, s + 3 * s / 4)];
        let r = slice_rates(&ops, 0, 2 * s, 2);
        assert!((r[0] - 1.25).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 0.75).abs() < 1e-9, "{r:?}");
        // Work is conserved.
        assert!((r.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        // A steady stream reads the same in every slice.
        let steady: Vec<(u64, u64)> = (0..1000).map(|i| (i * 1000, (i + 1) * 1000)).collect();
        let r = slice_rates(&steady, 0, 1_000_000, 10);
        assert!(r.iter().all(|x| (x - 1e6).abs() < 1.0), "{r:?}");
    }

    #[test]
    fn slice_medians_are_per_slice_and_skip_empty_slices() {
        // Slice 0: latencies 10, 20, 30; slice 1: nothing; slice 2: 500.
        let ops = [(0, 10), (10, 30), (30, 60), (2500, 3000), (5000, 5001)];
        assert_eq!(slice_medians(&ops, 0, 3000, 3), vec![20.0, 500.0]);
        // The median of slice medians is unmoved by one slow slice.
        assert_eq!(median(&slice_medians(&ops, 0, 3000, 3)), 260.0);
        assert!(slice_medians(&ops, 0, 0, 3).is_empty());
    }
}
