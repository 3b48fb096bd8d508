//! Order statistics shared by every metric: the median and the tail rule.

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Fewest samples for which the tail rule defines a percentile below 100.
const TAIL_MIN_SAMPLES: usize = 2 * TAIL_BEYOND;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of integer percentile `p` in a sample of `n`:
/// `ceil(p · n / 100)`, at least 1.
fn nearest_rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// The tail rule: the highest integer percentile whose nearest-rank sample
/// still has at least ten samples beyond it, as
/// `(percentile, 1-based rank)`. `None` below 20 samples,
/// where no such percentile is informative.
pub fn tail_rank(n: usize) -> Option<(u32, usize)> {
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    (1..100)
        .rev()
        .map(|p| (p, nearest_rank(p, n)))
        .find(|&(_, rank)| n - rank >= TAIL_BEYOND)
}

/// A tail value with the percentile and sample count it was read at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile the value was read at.
    pub percentile: u32,
    /// Sample count.
    pub samples: usize,
    /// The value.
    pub value: f64,
}

/// The tail of a non-empty sample by [`tail_rank`]. Below 20 samples it is
/// the median, read as p50: the rule's own value at 20 samples, so a run
/// that fits a few ops fewer does not jump to its maximum.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (percentile, value) = match tail_rank(v.len()) {
        Some((p, rank)) => (p, v[rank - 1]),
        None => (50, median(&v)),
    };
    Tail {
        percentile,
        samples: v.len(),
        value,
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_twenty_samples() {
        for n in 0..TAIL_MIN_SAMPLES {
            assert_eq!(tail_rank(n), None, "n = {n}");
        }
        assert_eq!(tail_rank(20), Some((50, 10)));
    }

    #[test]
    fn tail_rule_of_32_is_the_22nd_sample() {
        assert_eq!(tail_rank(32), Some((68, 22)));
        let values: Vec<f64> = (1..=32).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.samples, t.value), (68, 32, 22.0));
    }

    #[test]
    fn tail_rule_of_115_is_p91() {
        let (p, rank) = tail_rank(115).unwrap();
        assert_eq!(p, 91);
        assert_eq!(rank, 105);
        assert_eq!(115 - rank, TAIL_BEYOND);
    }

    #[test]
    fn short_samples_fall_back_to_the_median() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.percentile, t.samples, t.value), (50, 3, 7.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&nineteen).value, 10.0);
        assert_eq!(tail(&twenty).value, 10.0);
    }
}
