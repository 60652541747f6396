//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · n)`, so every
//! reported value is one that was actually measured. A tail is the highest
//! percentile of a fixed ladder that still has at least [`TAIL_MIN_BEYOND`]
//! samples strictly above its rank.
//!
//! The benchmark's tail metric is taken per window of [`TAIL_WINDOW`]
//! consecutive samples, which makes it the p90, and reported as the median
//! window: a burst of noise from a neighbour on a shared host moves the
//! windows it falls in, not the result. With fewer than [`MIN_WINDOWS`]
//! windows that median would be one or two windows' figure, so the tail is
//! then taken over all the samples instead.

/// Percentiles a tail may be taken at, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Consecutive samples per tail window.
pub const TAIL_WINDOW: usize = 100;

/// Full windows needed before the tail is taken per window.
pub const MIN_WINDOWS: usize = 5;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted samples; NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of the
/// `n` samples strictly beyond its rank, or `None` when even the median
/// has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// The tail value of unsorted samples and the percentile it was taken at.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len())?;
    Some((percentile(samples, p), p))
}

/// The median over consecutive windows of [`TAIL_WINDOW`] samples (a short
/// last window is dropped) of each window's tail, with the percentile; the
/// [`tail`] of all samples when they fill fewer than [`MIN_WINDOWS`].
pub fn windowed_tail(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < MIN_WINDOWS * TAIL_WINDOW {
        return tail(samples);
    }
    let mut tails = Vec::new();
    let mut pct = f64::NAN;
    for w in samples.chunks_exact(TAIL_WINDOW) {
        let (t, p) = tail(w)?;
        tails.push(t);
        pct = p;
    }
    (!tails.is_empty()).then(|| (median(&tails), pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_rank() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: rank 990 leaves only 9 beyond, so fall to p90.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_reports_value_and_percentile() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        assert_eq!(tail(&s[..5]), None);
    }

    #[test]
    fn windows_report_the_median_window_p90() {
        // Five windows of 100; the middle one holds a burst of slow
        // samples that would dominate a tail over all of them.
        let mut s: Vec<f64> = (0..500).map(|i| (i % 100) as f64).collect();
        s[200..260].iter_mut().for_each(|x| *x = 1e6);
        s.push(5e6); // short trailing window: dropped
        assert_eq!(windowed_tail(&s), Some((89.0, 90.0)));
    }

    #[test]
    fn too_few_windows_take_the_tail_of_every_sample() {
        // Four windows, the last 41 samples slow: the median of the
        // windows' p90s would read 89, the p90 of all 400 is slow.
        let mut s: Vec<f64> = (0..400).map(|i| (i % 100) as f64).collect();
        s[359..].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(windowed_tail(&s), Some((1e6, 90.0)));
        assert_eq!(windowed_tail(&s[..240]), tail(&s[..240]));
        assert_eq!(windowed_tail(&s[..19]), None);
    }
}
