//! Order statistics for timing samples.

/// Sorted copy of `xs` (NaNs, which no timer produces, sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed from the raw run
/// records. A single sample is its own quartiles; `xs` must be
/// non-empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let len = v.len() as i64;
    let m = len + 1;
    // Clamping `j` lets `delta` leave 0..=4: with very few samples the
    // outer quartiles extrapolate past the extremes, as Python's do.
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median (the middle quartile; the mean of the middle pair for even
/// lengths).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 100`) by linear interpolation
/// between closest ranks.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_percentile_and_geomean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
