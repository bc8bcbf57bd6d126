//! Order statistics over timing samples.

/// The `q`-quantile of `xs` (0 ≤ q ≤ 1) by linear interpolation between
/// closest ranks; NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of p99/p90/p50 that has at least ten samples beyond it.
pub fn supported_tail(n: usize) -> Option<(f64, &'static str)> {
    [(0.99, "p99"), (0.9, "p90"), (0.5, "p50")]
        .into_iter()
        .find(|(q, _)| (n as f64) * (1.0 - q) >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(supported_tail(1000).map(|t| t.1), Some("p99"));
        assert_eq!(supported_tail(150).map(|t| t.1), Some("p90"));
        assert_eq!(supported_tail(25).map(|t| t.1), Some("p50"));
        assert_eq!(supported_tail(5), None);
    }
}
