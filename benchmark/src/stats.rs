//! Order statistics over small samples of timings.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the fastest tenth of a sample of timings (of the single fastest
/// below twenty samples); 0 for an empty sample.
///
/// This is the estimator for operations that do exactly the same work
/// every time (virtual or simulated clock): the sandbox can only slow such
/// an operation down, never speed it up, so what lies above the floor is
/// interference from outside the program, and the floor is the program's
/// own cost. Measured on `mem_bulk` on a host whose speed swung by a factor
/// of 1.5 every few seconds, the median over a 15 s window moved by 32 %
/// between windows, this floor by 3.6 %.
pub fn floor_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let n = (v.len() / 10).max(1);
    v[..n].iter().sum::<f64>() / n as f64
}

/// Nearest-rank percentile, given in per mille (900 = p90) so the rank
/// is exact integer arithmetic; 0 for an empty sample.
pub fn percentile(values: &[f64], per_mille: u64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (per_mille as usize * v.len()).div_ceil(1000);
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a report may quote, lowest first, in per mille (so
/// the "ten samples beyond" rule is exact integer arithmetic).
const PERCENTILE_LADDER_PER_MILLE: [u64; 4] = [500, 900, 990, 999];

/// The highest percentile of [`PERCENTILE_LADDER_PER_MILLE`] that still has at
/// least ten samples beyond it in a sample of `n`; the median when none
/// has (a tail read off fewer than ten samples is noise). Per mille.
pub fn highest_supported_percentile(n: usize) -> u64 {
    PERCENTILE_LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| n as u64 * (1000 - p) >= 10_000)
        .copied()
        .unwrap_or(500)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// so `compare` judges spread exactly as the acceptance procedure does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn floor_is_the_mean_of_the_fastest_tenth() {
        assert_eq!(floor_mean(&[]), 0.0);
        assert_eq!(floor_mean(&[5.0, 3.0, 9.0]), 3.0);
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(floor_mean(&v), 2.5); // (1 + 2 + 3 + 4) / 4
                                         // Slow outliers above the floor do not move it.
        let mut noisy = v.clone();
        noisy.extend([500.0; 20]);
        assert_eq!(floor_mean(&noisy), 3.5); // fastest 6 of 60
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(3), 500);
        assert_eq!(highest_supported_percentile(19), 500);
        assert_eq!(highest_supported_percentile(20), 500);
        assert_eq!(highest_supported_percentile(99), 500);
        assert_eq!(highest_supported_percentile(100), 900);
        assert_eq!(highest_supported_percentile(999), 900);
        assert_eq!(highest_supported_percentile(1000), 990);
        assert_eq!(highest_supported_percentile(2900), 990);
        assert_eq!(highest_supported_percentile(10_000), 999);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&v), Some(1.0));
    }
}
