//! Order statistics the benchmark reports: nearest-rank percentiles,
//! medians, the median over windows of a per-window percentile, and the
//! quartile spread the acceptance rule is stated in.

/// `values` sorted ascending (NaN-free by construction: every input is a
/// measured duration or a count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice; 0 for an
/// empty one.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Nearest-rank percentile of an unsorted slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The median over windows of each window's `p`-th percentile. One
/// descheduling stall then poisons one window, not the statistic.
pub fn median_of_windows<'a>(windows: impl IntoIterator<Item = &'a [f64]>, p: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p))
        .collect();
    median(&per_window)
}

/// Runs `set_up` `times` over, dropping each result before the next is
/// built, and returns the last one with the median elapsed seconds. Set-up
/// is short, so one descheduling would otherwise be the whole metric.
pub fn repeat_set_up<T>(times: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(set_up());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), median(&secs))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let n = 4usize;
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the spread
/// the benchmark's bounds are judged against. 0 when undefined.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_statistic() {
        let calm: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 * 0.01).collect();
        let mut stalled = calm.clone();
        for x in stalled.iter_mut().skip(50) {
            *x += 40.0; // a descheduling stall hits half of one window
        }
        let windows = [calm.clone(), calm.clone(), stalled, calm.clone(), calm];
        let p95 = median_of_windows(windows.iter().map(Vec::as_slice), 95.0);
        assert!((p95 - 1.94).abs() < 1e-9, "{p95}");
        // The pooled percentile would have been dragged into the stall.
        let pooled: Vec<f64> = windows.iter().flatten().copied().collect();
        assert!(percentile(&pooled, 95.0) > 40.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
