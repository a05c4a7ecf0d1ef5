//! Uniformly sampled time series.

use tts_units::Seconds;

/// A uniformly sampled time series (sample `i` is the value over
/// `[i·dt, (i+1)·dt)`).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    dt: Seconds,
    values: Vec<f64>,
}

tts_units::derive_json! { struct TimeSeries { dt, values } }

impl TimeSeries {
    /// Wraps samples at spacing `dt`.
    ///
    /// # Panics
    /// Panics if `dt` is non-positive or `values` is empty.
    pub fn new(dt: Seconds, values: Vec<f64>) -> Self {
        assert!(dt.value() > 0.0, "sample spacing must be positive");
        assert!(
            !values.is_empty(),
            "a time series needs at least one sample"
        );
        Self { dt, values }
    }

    /// Builds a series by sampling `f(t_seconds)` at `n` points.
    pub fn from_fn(dt: Seconds, n: usize, f: impl Fn(f64) -> f64) -> Self {
        assert!(n > 0, "a time series needs at least one sample");
        let values = (0..n).map(|i| f(i as f64 * dt.value())).collect();
        Self::new(dt, values)
    }

    /// Sample spacing.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false (construction forbids empty series); provided for
    /// clippy-idiomatic pairing with [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.dt.value() * self.values.len() as f64)
    }

    /// The raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at time `t` (piecewise-linear interpolation, clamped at the
    /// ends).
    pub fn at(&self, t: Seconds) -> f64 {
        let x = t.value() / self.dt.value();
        if x <= 0.0 {
            return self.values[0];
        }
        let n = self.values.len();
        let i = x.floor() as usize;
        if i + 1 >= n {
            return self.values[n - 1];
        }
        let frac = x - i as f64;
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }

    /// Largest sample.
    pub fn peak(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest sample.
    pub fn floor(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Elementwise map into a new series.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            dt: self.dt,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        let dt = self.dt.value();
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (Seconds::new(i as f64 * dt), v))
    }

    /// The time at which the series peaks (first occurrence).
    pub fn peak_time(&self) -> Seconds {
        let peak = self.peak();
        let idx = self
            .values
            .iter()
            .position(|&v| v == peak)
            .expect("non-empty series has a peak");
        Seconds::new(idx as f64 * self.dt.value())
    }

    /// Integrates `values × dt` (useful when the series is a power trace:
    /// the result is energy in joule-equivalents of the series' unit).
    pub fn integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.dt.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    fn ramp() -> TimeSeries {
        TimeSeries::new(Seconds::new(10.0), vec![0.0, 1.0, 2.0, 3.0])
    }

    #[test]
    fn interpolation_is_linear_and_clamped() {
        let s = ramp();
        assert_eq!(s.at(Seconds::new(0.0)), 0.0);
        assert_eq!(s.at(Seconds::new(5.0)), 0.5);
        assert_eq!(s.at(Seconds::new(15.0)), 1.5);
        assert_eq!(s.at(Seconds::new(1e9)), 3.0);
        assert_eq!(s.at(Seconds::new(-5.0)), 0.0);
    }

    #[test]
    fn statistics() {
        let s = ramp();
        assert_eq!(s.peak(), 3.0);
        assert_eq!(s.floor(), 0.0);
        assert_eq!(s.mean(), 1.5);
        assert_eq!(s.len(), 4);
        assert_eq!(s.duration(), Seconds::new(40.0));
        assert_eq!(s.peak_time(), Seconds::new(30.0));
        assert_eq!(s.integral(), 60.0);
    }

    #[test]
    fn from_fn_samples_at_grid_points() {
        let s = TimeSeries::from_fn(Seconds::new(2.0), 3, |t| t * t);
        assert_eq!(s.values(), &[0.0, 4.0, 16.0]);
    }

    #[test]
    fn map_applies_per_sample() {
        let doubled = ramp().map(|v| v * 2.0);
        assert_eq!(doubled.values(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_series_panics() {
        TimeSeries::new(Seconds::new(1.0), vec![]);
    }

    proptest! {
        #[test]
        fn interpolated_values_stay_in_sample_range(
            values in collection::vec(0.0f64..10.0, 2..50),
            t in 0.0f64..1000.0,
        ) {
            let s = TimeSeries::new(Seconds::new(7.0), values);
            let v = s.at(Seconds::new(t));
            prop_assert!(v >= s.floor() - 1e-12 && v <= s.peak() + 1e-12);
        }

        #[test]
        fn mean_is_between_floor_and_peak(
            values in collection::vec(-5.0f64..5.0, 1..50),
        ) {
            let s = TimeSeries::new(Seconds::new(1.0), values);
            prop_assert!(s.floor() <= s.mean() + 1e-12);
            prop_assert!(s.mean() <= s.peak() + 1e-12);
        }
    }
}
