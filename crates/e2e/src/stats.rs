//! Order statistics for the report: nearest-rank percentiles over latency
//! samples, and the quartiles the noise protocol compares.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 when
/// empty so absent layers report a plain zero.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `p`-th percentile as the mean of the order statistics within half a
/// percent of rank `p` — for 1000 samples and `p` = 99, ranks 985 to 995. A
/// single order statistic that deep in the tail of 1000 jobs moves 20 % from
/// seed to seed; the end-to-end latencies use this steadier estimate.
pub fn percentile_band(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank =
        |p: f64| (((p / 100.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let band = &sorted[rank((p - 0.5).max(0.0)) - 1..rank((p + 0.5).min(100.0))];
    band.iter().sum::<f64>() / band.len() as f64
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// computes the spread from.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_band_averages_around_the_rank() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Ranks 985..=995.
        assert_eq!(percentile_band(&values, 99.0), 990.0);
        assert_eq!(percentile_band(&values, 50.0), 500.0);
        assert_eq!(percentile_band(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_band(&[], 99.0), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 500.0);
        assert_eq!(percentile(&values, 99.0), 990.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
