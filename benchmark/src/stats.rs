//! Order statistics for timing samples.

use crate::json::Json;

/// Median, quartiles and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; all-zero for an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            q1,
            median: median(samples),
            q3,
        }
    }

    /// `{"n":…, "q1":…, "median":…, "q3":…}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("n", self.n as u64);
        o.set("q1", self.q1);
        o.set("median", self.median);
        o.set("q3", self.q3);
        o
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of the middle half: the samples sorted, a quarter of them
/// (rounded down) dropped at each end, the rest averaged (0 for no
/// samples). Like the median it ignores a slow or a fast spell that
/// covers under a quarter of the samples; unlike it, it averages over
/// what is left, which matters when the samples are few and of unlike
/// kinds (README, "Noise").
pub fn midmean(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let kept = &v[v.len() / 4..v.len() - v.len() / 4];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so spreads quoted in the README match the acceptance procedure.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let pos = i * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-th percentile (nearest rank, `p` in 0..=100; 0 for no samples).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        // 8 samples: two dropped at each end, the outliers among them.
        let v = [100.0, 4.0, 5.0, 3.0, 6.0, 0.0, 2.0, 90.0];
        assert_eq!(midmean(&v), (3.0 + 4.0 + 5.0 + 6.0) / 4.0);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
