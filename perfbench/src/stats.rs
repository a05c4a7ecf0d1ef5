//! Order statistics over measured samples.

/// A set of measured values (seconds, milliseconds, counts — the caller
/// knows the unit).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// The number of observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The observations, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The `q`-quantile by the nearest-rank rule (`q` in `0..=1`): the
    /// smallest observation with at least `q·n` observations at or below
    /// it. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The median: the mean of the two middle observations for an even
    /// count. `NaN` when empty.
    pub fn median(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        }
    }

    /// The mean of the observations left after cutting the `trim` share
    /// (in `0..0.5`) of them from each end of the sorted order. `NaN` when
    /// empty.
    pub fn trimmed_mean(&self, trim: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let cut = (trim * sorted.len() as f64).floor() as usize;
        let middle = &sorted[cut..sorted.len() - cut];
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let s = of(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0]);
        assert_eq!(s.trimmed_mean(0.2), 4.5);
        assert_eq!(of(&[1.0, 2.0, 6.0]).trimmed_mean(0.2), 3.0);
        assert!(Samples::default().trimmed_mean(0.2).is_nan());
    }
}
