//! Exact order statistics over all samples (no histogram).

/// The 1-based nearest rank of the `p`-th percentile among `count >= 1`
/// sorted samples.
fn nearest_rank(count: usize, p: f64) -> usize {
    ((p / 100.0 * count as f64).ceil() as usize).clamp(1, count)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. `None` on an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    if count == 0 {
        0
    } else {
        count - nearest_rank(count, p)
    }
}

/// The usual median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[4.0], 0.0), Some(4.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // 15 / 5 / 3 from the textbook nearest-rank example.
        let w = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&w, 5.0), Some(15.0));
        assert_eq!(percentile(&w, 30.0), Some(20.0));
        assert_eq!(percentile(&w, 40.0), Some(20.0));
        assert_eq!(percentile(&w, 50.0), Some(35.0));
        // Order of the input does not matter.
        assert_eq!(
            percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 50.0),
            Some(35.0)
        );
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(24, 99.0), 0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
