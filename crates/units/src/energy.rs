//! Power, energy, heat capacity and heat-transfer quantities.

use crate::geometry::{Grams, SquareMeters};
use crate::temperature::TempDelta;
use crate::time::Seconds;

quantity!(
    /// Heat or electrical power, in watts.
    Watts,
    "W"
);

quantity!(
    /// Power in kilowatts, for cluster- and datacenter-level reporting.
    KiloWatts,
    "kW"
);

quantity!(
    /// Power in megawatts (datacenter critical power).
    MegaWatts,
    "MW"
);

quantity!(
    /// Energy, in joules.
    Joules,
    "J"
);

quantity!(
    /// Electrical energy, in kilowatt-hours (billing).
    KilowattHours,
    "kWh"
);

quantity!(
    /// Specific energy — e.g. a PCM's heat of fusion — in joules per gram.
    JoulesPerGram,
    "J/g"
);

quantity!(
    /// Specific heat capacity, in joules per gram-kelvin.
    JoulesPerGramKelvin,
    "J/(g·K)"
);

quantity!(
    /// A lumped thermal capacitance, in joules per kelvin.
    JoulesPerKelvin,
    "J/K"
);

quantity!(
    /// A thermal conductance (inverse thermal resistance), in watts per kelvin.
    WattsPerKelvin,
    "W/K"
);

quantity!(
    /// A convective heat-transfer coefficient, in W/(m²·K).
    WattsPerSquareMeterKelvin,
    "W/(m²·K)"
);

// Power × time = energy.
relate!(Watts, Seconds, Joules);
// Conductance × ΔT = heat flow.
relate!(WattsPerKelvin, TempDelta, Watts);
// Capacitance × ΔT = energy.
relate!(JoulesPerKelvin, TempDelta, Joules);
// Heat of fusion × mass = latent energy.
relate!(JoulesPerGram, Grams, Joules);
// Convection coefficient × area = conductance.
relate!(WattsPerSquareMeterKelvin, SquareMeters, WattsPerKelvin);

impl Watts {
    /// Converts to kilowatts.
    #[inline]
    pub fn kilowatts(self) -> KiloWatts {
        KiloWatts::new(self.value() / 1e3)
    }
}

impl KiloWatts {
    /// Converts to watts.
    #[inline]
    pub fn watts(self) -> Watts {
        Watts::new(self.value() * 1e3)
    }
}

impl MegaWatts {
    /// Converts to kilowatts.
    #[inline]
    pub fn kilowatts(self) -> KiloWatts {
        KiloWatts::new(self.value() * 1e3)
    }

    /// Converts to watts.
    #[inline]
    pub fn watts(self) -> Watts {
        Watts::new(self.value() * 1e6)
    }
}

impl Joules {
    /// The raw value in joules (alias of [`Joules::value`], reads better in
    /// energy-balance code).
    #[inline]
    pub fn joules(self) -> f64 {
        self.value()
    }

    /// Converts to kilowatt-hours.
    #[inline]
    pub fn kilowatt_hours(self) -> KilowattHours {
        KilowattHours::new(self.value() / 3.6e6)
    }
}

/// Specific heat × mass = thermal capacitance (J/(g·K) × g = J/K).
impl core::ops::Mul<Grams> for JoulesPerGramKelvin {
    type Output = JoulesPerKelvin;
    #[inline]
    fn mul(self, rhs: Grams) -> JoulesPerKelvin {
        JoulesPerKelvin::new(self.value() * rhs.value())
    }
}

/// Mass × specific heat = thermal capacitance.
impl core::ops::Mul<JoulesPerGramKelvin> for Grams {
    type Output = JoulesPerKelvin;
    #[inline]
    fn mul(self, rhs: JoulesPerGramKelvin) -> JoulesPerKelvin {
        JoulesPerKelvin::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn power_time_energy_relation() {
        let e = Watts::new(185.0) * Seconds::new(10.0);
        assert_eq!(e, Joules::new(1850.0));
        assert_eq!(e / Watts::new(185.0), Seconds::new(10.0));
        assert_eq!(e / Seconds::new(10.0), Watts::new(185.0));
    }

    #[test]
    fn conductance_delta_relation() {
        let q = WattsPerKelvin::new(0.5) * TempDelta::new(34.0);
        assert_eq!(q, Watts::new(17.0));
    }

    #[test]
    fn latent_heat_relation() {
        // 1.2 L of paraffin at 0.8 g/mL = 960 g; 200 J/g → 192 kJ.
        let e = JoulesPerGram::new(200.0) * Grams::new(960.0);
        assert_eq!(e, Joules::new(192_000.0));
    }

    #[test]
    fn unit_scaling_chain() {
        let mw = MegaWatts::new(10.0);
        assert_eq!(mw.kilowatts().value(), 10_000.0);
        assert_eq!(mw.watts().value(), 1e7);
        assert_eq!(Watts::new(1500.0).kilowatts().value(), 1.5);
        assert_eq!(KiloWatts::new(1.5).watts().value(), 1500.0);
    }

    #[test]
    fn joules_to_kwh() {
        assert_eq!(Joules::new(7.2e6).kilowatt_hours(), KilowattHours::new(2.0));
    }

    #[test]
    fn specific_heat_capacitance() {
        let c = JoulesPerGramKelvin::new(2.0) * Grams::new(100.0);
        assert_eq!(c, JoulesPerKelvin::new(200.0));
        let e = c * TempDelta::new(3.0);
        assert_eq!(e, Joules::new(600.0));
    }

    #[test]
    fn convection_area_conductance() {
        let g = WattsPerSquareMeterKelvin::new(25.0) * SquareMeters::new(0.08);
        assert_eq!(g, WattsPerKelvin::new(2.0));
    }

    proptest! {
        #[test]
        fn energy_relation_consistency(p in 0.0f64..1e4, t in 0.0f64..1e5) {
            let e = Watts::new(p) * Seconds::new(t);
            prop_assert!((e.value() - p * t).abs() <= 1e-9 * (1.0 + p * t));
            if t > 0.0 {
                prop_assert!(((e / Seconds::new(t)).value() - p).abs() < 1e-6 * (1.0 + p));
            }
        }
    }
}
