//! Airflow quantities: volumetric flow, velocity, pressure.

quantity!(
    /// Volumetric airflow, in cubic meters per second.
    CubicMetersPerSecond,
    "m³/s"
);

quantity!(
    /// Air velocity, in meters per second.
    MetersPerSecond,
    "m/s"
);

quantity!(
    /// Static pressure, in pascals (fan curves / system impedance).
    Pascals,
    "Pa"
);

impl CubicMetersPerSecond {
    /// Converts from cubic feet per minute, the unit server fan datasheets
    /// use (1 CFM = 0.000471947 m³/s).
    #[inline]
    pub fn from_cfm(cfm: f64) -> Self {
        Self::new(cfm * 0.000_471_947_443)
    }

    /// Converts to cubic feet per minute.
    #[inline]
    pub fn cfm(self) -> f64 {
        self.value() / 0.000_471_947_443
    }

    /// Mean velocity through a duct cross-section of the given area (m²).
    #[inline]
    pub fn velocity_through(self, area_m2: f64) -> MetersPerSecond {
        MetersPerSecond::new(self.value() / area_m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn cfm_round_trip() {
        let f = CubicMetersPerSecond::from_cfm(100.0);
        assert!((f.value() - 0.0471947443).abs() < 1e-9);
        assert!((f.cfm() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn velocity_through_area() {
        let f = CubicMetersPerSecond::new(0.05);
        let v = f.velocity_through(0.02);
        assert!((v.value() - 2.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn cfm_conversion_is_monotone(a in 0.0f64..1e4, b in 0.0f64..1e4) {
            let fa = CubicMetersPerSecond::from_cfm(a);
            let fb = CubicMetersPerSecond::from_cfm(b);
            prop_assert_eq!(fa < fb, a < b);
        }
    }
}
