//! Order statistics over timing samples.

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(value, percentile)`. With ten samples or fewer no percentile
/// qualifies, and the minimum (percentile 0) is returned.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.first().copied().unwrap_or(f64::NAN), 0.0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let (t, pct) = tail(&v);
        // 20 is the 20th of 30: ten samples (21..=30) lie beyond it.
        assert_eq!(t, 20.0);
        assert!((pct - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(tail(&[5.0, 1.0]), (1.0, 0.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
