//! Order statistics over a handful of samples.

use crate::json::Json;

/// Min, quartiles, max and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `values`. Quartiles are Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), so the
    /// spread computed here is the one the acceptance check computes.
    /// A single value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (first, last) = (*v.first()?, *v.last()?);
        let quartile = |i: usize| {
            if n < 2 {
                return first;
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            n,
            min: first,
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: last,
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n as u64)),
            ("min", Json::from(self.min)),
            ("q1", Json::from(self.q1)),
            ("median", Json::from(self.median)),
            ("q3", Json::from(self.q3)),
            ("max", Json::from(self.max)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        Ok(Summary {
            n: v.num("n")? as usize,
            min: v.num("min")?,
            q1: v.num("q1")?,
            median: v.num("median")?,
            q3: v.num("q3")?,
            max: v.num("max")?,
        })
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The `p`-th percentile (nearest rank) of already sorted `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[3.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn single_value_and_empty() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
