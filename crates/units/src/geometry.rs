//! Mass, volume, density, length and area quantities.

quantity!(
    /// Mass in grams.
    Grams,
    "g"
);

quantity!(
    /// Mass in kilograms.
    Kilograms,
    "kg"
);

quantity!(
    /// Volume in liters (wax quantities in the paper are quoted in liters).
    Liters,
    "L"
);

quantity!(
    /// Volume in cubic meters (airflow volumes).
    CubicMeters,
    "m³"
);

quantity!(
    /// Density in grams per milliliter (as quoted in Table 1 of the paper).
    GramsPerMilliliter,
    "g/mL"
);

quantity!(
    /// Length in meters.
    Meters,
    "m"
);

quantity!(
    /// Area in square meters.
    SquareMeters,
    "m²"
);

impl Grams {
    /// Converts to kilograms.
    #[inline]
    pub fn kilograms(self) -> Kilograms {
        Kilograms::new(self.value() / 1e3)
    }
}

impl Kilograms {
    /// Converts to metric tons.
    #[inline]
    pub fn tons(self) -> f64 {
        self.value() / 1e3
    }
}

impl Liters {
    /// Volume in milliliters.
    #[inline]
    pub fn milliliters(self) -> f64 {
        self.value() * 1e3
    }

    /// Constructs from milliliters.
    #[inline]
    pub fn from_milliliters(ml: f64) -> Self {
        Liters::new(ml / 1e3)
    }

    /// Converts to cubic meters.
    #[inline]
    pub fn cubic_meters(self) -> CubicMeters {
        CubicMeters::new(self.value() / 1e3)
    }

    /// Mass of this volume at the given density (g/mL == kg/L).
    ///
    /// ```
    /// use tts_units::{Liters, GramsPerMilliliter};
    /// // 1.2 L of paraffin at 0.8 g/mL is 960 g.
    /// let m = Liters::new(1.2).mass_at(GramsPerMilliliter::new(0.8));
    /// assert_eq!(m.value(), 960.0);
    /// ```
    #[inline]
    pub fn mass_at(self, density: GramsPerMilliliter) -> Grams {
        Grams::new(self.milliliters() * density.value())
    }
}

/// Length × length = area.
impl core::ops::Mul<Meters> for Meters {
    type Output = SquareMeters;
    #[inline]
    fn mul(self, rhs: Meters) -> SquareMeters {
        SquareMeters::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn mass_conversions() {
        assert_eq!(Grams::new(70.0).kilograms().value(), 0.07);
        assert_eq!(Kilograms::new(2500.0).tons(), 2.5);
    }

    #[test]
    fn volume_conversions() {
        assert_eq!(Liters::new(1.2).milliliters(), 1200.0);
        assert_eq!(Liters::from_milliliters(90.0).value(), 0.09);
        assert_eq!(Liters::new(1000.0).cubic_meters().value(), 1.0);
    }

    #[test]
    fn paper_wax_masses() {
        // Paper §3: 90 mL ≈ 70 g of paraffin → density ≈ 0.78 g/mL.
        let density = GramsPerMilliliter::new(70.0 / 90.0);
        let m = Liters::from_milliliters(90.0).mass_at(density);
        assert!((m.value() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn area_from_lengths() {
        let a = Meters::new(0.4) * Meters::new(0.05);
        assert!((a.value() - 0.02).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn liters_to_cubic_meters(v in 0.0f64..1e6) {
            let m3 = Liters::new(v).cubic_meters().value();
            prop_assert!((m3 * 1e3 - v).abs() < 1e-6 * (1.0 + v));
        }

        #[test]
        fn mass_at_is_linear_in_volume(v in 0.0f64..100.0, d in 0.1f64..3.0) {
            let m1 = Liters::new(v).mass_at(GramsPerMilliliter::new(d)).value();
            let m2 = Liters::new(2.0 * v).mass_at(GramsPerMilliliter::new(d)).value();
            prop_assert!((m2 - 2.0 * m1).abs() < 1e-6 * (1.0 + m2.abs()));
        }
    }
}
