//! Order statistics used by every metric: nearest-rank percentiles, the
//! median, and the reporting rule for tails (the highest percentile that
//! still has at least ten samples beyond it).

/// Percentiles the tail rule may report, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice: the
/// value at rank `⌈p·n/100⌉`. `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// Rank (1-based) of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error (99.9 / 100 · 10 000 = 9990.000…2)
    // from pushing an exact rank up by one.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail a timing is reported with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond it (at least [`MIN_BEYOND`]).
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, with its sample count. `None` when
/// even the median lacks that many (fewer than about 20 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&p| Tail {
            pct: p,
            value: percentile_sorted(sorted, p).expect("non-empty: ten samples lie beyond"),
            beyond: beyond(n, p),
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, exactly ten beyond it;
        // p99.9 would leave one.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 leaves only nine, so p90 is reported.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 99));
        // 10 000 samples reach p99.9.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
        // 100 samples: p90 leaves ten.
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        // 19 samples: even the median leaves only nine.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
