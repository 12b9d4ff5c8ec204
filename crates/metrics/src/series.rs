//! Time series over virtual time.

use dcape_common::time::VirtualTime;

/// A series of `(virtual time, value)` samples, appended in
/// non-decreasing time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(VirtualTime, f64)>,
}

impl TimeSeries {
    /// Append a sample. Samples must arrive in non-decreasing time
    /// order; an out-of-order sample is clamped to the last time.
    pub fn push(&mut self, t: VirtualTime, v: f64) {
        let t = match self.points.last() {
            Some(&(last, _)) if t < last => last,
            _ => t,
        };
        self.points.push((t, v));
    }

    /// All samples.
    pub fn points(&self) -> &[(VirtualTime, f64)] {
        &self.points
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(VirtualTime, f64)> {
        self.points.last().copied()
    }

    /// Value at or before `t` (step interpolation); `None` before the
    /// first sample.
    pub fn value_at(&self, t: VirtualTime) -> Option<f64> {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::from_millis(ms)
    }

    #[test]
    fn out_of_order_clamped() {
        let mut s = TimeSeries::default();
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
        assert_eq!(s.points()[1], (t(10), 2.0));
        assert_eq!(s.last(), Some((t(10), 2.0)));
    }

    #[test]
    fn value_at_step_interpolates() {
        let mut s = TimeSeries::default();
        s.push(t(10), 1.0);
        s.push(t(20), 2.0);
        assert_eq!(s.value_at(t(5)), None);
        assert_eq!(s.value_at(t(10)), Some(1.0));
        assert_eq!(s.value_at(t(15)), Some(1.0));
        assert_eq!(s.value_at(t(25)), Some(2.0));
    }

    #[test]
    fn max_of_samples() {
        let mut s = TimeSeries::default();
        assert_eq!(s.max(), None);
        s.push(t(0), 1.0);
        s.push(t(100), 5.0);
        s.push(t(200), 3.0);
        assert_eq!(s.max(), Some(5.0));
    }
}
