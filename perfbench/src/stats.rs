//! Order statistics: medians, quartiles, and the tail-percentile rule.

/// Tail samples a percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The sorted copy of `values` (NaN-free by construction: every sample
/// is a measured duration, count or ratio).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: u32, n: usize) -> usize {
    ((pct as usize * n).div_ceil(100)).max(1)
}

/// Nearest-rank percentile `pct` of `values` (`0.0` when empty).
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    v[rank(pct, v.len()) - 1]
}

/// Arithmetic mean of `values` (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of `values` (`0.0` when empty): the mean of the two middle
/// samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile from 50 to 99 that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond its nearest rank; `None` when
/// `n` is too small for even the median to qualify.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n >= rank(p, n) + TAIL_BEYOND)
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the acceptance computation.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (`0.0` when fewer than
/// two values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 1..3000 {
            let Some(p) = tail_percentile(n) else {
                assert!(n < rank(50, n) + TAIL_BEYOND, "n={n}: the median qualifies");
                continue;
            };
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n}: p{p} leaves too few");
            if p < 99 {
                assert!(
                    n - rank(p + 1, n) < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[], 90), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from `statistics.quantiles(values, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[3.5, 1.0, 9.0, 2.0, 7.0], [1.5, 3.5, 8.0]),
        ];
        for (values, want) in cases {
            let got = quartiles(values).expect("at least two values");
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{values:?}: {got:?} != {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
    }
}
