//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample:
/// the smallest value with at least `q` of the sample at or below it.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample: the mean of the two middle values for
/// an even count. `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Nearest-rank quartile on the better side of an unsorted sample: the
/// value with at least a quarter of the sample at or better than it.
/// That is the best value of up to four, the second best of five to
/// eight. Host noise only ever adds time, so this follows the program
/// and not the neighbours more closely than the median does. `None`
/// for an empty sample.
pub fn better_quartile(samples: &[f64], lower_is_better: bool) -> Option<f64> {
    if lower_is_better {
        percentile(samples, 0.25)
    } else {
        let negated: Vec<f64> = samples.iter().map(|x| -x).collect();
        percentile(&negated, 0.25).map(|x| -x)
    }
}

/// Mean of a sample; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.05), Some(15.0));
        assert_eq!(percentile(&xs, 0.30), Some(20.0));
        assert_eq!(percentile(&xs, 0.40), Some(20.0));
        assert_eq!(percentile(&xs, 0.50), Some(35.0));
        assert_eq!(percentile(&xs, 1.00), Some(50.0));
    }

    #[test]
    fn percentile_is_order_independent_and_clamped() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 2.0), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
        let many: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&many, 0.95), Some(190.0));
    }

    #[test]
    fn better_quartile_is_symmetric() {
        let four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(better_quartile(&four, true), Some(1.0));
        assert_eq!(better_quartile(&four, false), Some(4.0));
        let six = [6.0, 2.0, 5.0, 1.0, 4.0, 3.0];
        assert_eq!(better_quartile(&six, true), Some(2.0));
        assert_eq!(better_quartile(&six, false), Some(5.0));
        assert_eq!(better_quartile(&[], true), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
