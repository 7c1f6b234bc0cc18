//! Order statistics over measured samples.

/// Median of `values` (mean of the middle two for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `p` in `[0, 1]`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method). With
/// one sample both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    match data.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (data[0], data[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
