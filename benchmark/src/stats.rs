//! Order statistics over small samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between the
/// closest ranks, so `percentile(v, 0.5)` is the usual median.
///
/// # Panics
/// Panics on an empty slice, a NaN, or `q` outside `0..=1`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample holds a NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The smallest value of each column of equally long `rows`.
///
/// # Panics
/// Panics when there is no row or the rows differ in length.
pub fn columnwise_min(rows: &[Vec<f64>]) -> Vec<f64> {
    let mut min = rows.first().expect("at least one row").clone();
    for row in &rows[1..] {
        assert_eq!(row.len(), min.len(), "rows differ in length");
        for (m, &v) in min.iter_mut().zip(row) {
            *m = m.min(v);
        }
    }
    min
}

/// `num / den`, or 0 when the denominator is 0 — per-layer ratios are
/// reported as 0 on workloads where the layer never runs.
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
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_empty() {
        percentile(&[], 0.5);
    }

    #[test]
    fn columnwise_min_takes_each_columns_smallest() {
        let rows = [vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 5.5]];
        assert_eq!(columnwise_min(&rows), [2.0, 1.0, 5.0]);
        assert_eq!(columnwise_min(&rows[..1]), rows[0]);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
