//! The cooling plant: capacity, efficiency, oversubscription.

use tts_units::{Joules, KiloWatts, Seconds, Watts};

/// A datacenter cooling system (CRAC units + chillers + cooling tower,
/// lumped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingSystem {
    /// The largest heat load the plant can remove indefinitely.
    peak_capacity: KiloWatts,
    /// Coefficient of performance: watts of heat removed per watt of
    /// electricity. Modern plants run a COP of 3–5; the paper's
    /// `CoolingEnergyOpEx` corresponds to a plant-level COP near 4.
    cop: f64,
}

tts_units::derive_json! { struct CoolingSystem { peak_capacity, cop } }

impl CoolingSystem {
    /// A plant with the given capacity and coefficient of performance.
    ///
    /// # Panics
    /// Panics unless both are positive.
    pub fn new(peak_capacity: KiloWatts, cop: f64) -> Self {
        assert!(peak_capacity.value() > 0.0, "capacity must be positive");
        assert!(cop > 0.0, "COP must be positive");
        Self { peak_capacity, cop }
    }

    /// A plant sized exactly for a given peak heat load ("fully subscribed"
    /// in the paper's §5.1 sense) at COP 4.
    pub fn sized_for(peak_load: Watts) -> Self {
        Self::new(peak_load.kilowatts(), 4.0)
    }

    /// Peak heat-removal capacity.
    pub fn peak_capacity(&self) -> KiloWatts {
        self.peak_capacity
    }

    /// Coefficient of performance.
    pub fn cop(&self) -> f64 {
        self.cop
    }

    /// Electrical power drawn to remove `load` of heat.
    pub fn electrical_power(&self, load: Watts) -> Watts {
        Watts::new(load.value().max(0.0) / self.cop)
    }

    /// Electrical energy to remove `load` for `dt`.
    pub fn electrical_energy(&self, load: Watts, dt: Seconds) -> Joules {
        self.electrical_power(load) * dt
    }

    /// Load as a fraction of capacity (may exceed 1 when oversubscribed).
    pub fn utilization(&self, load: Watts) -> f64 {
        load.value() / self.peak_capacity.watts().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_for_matches_peak() {
        let plant = CoolingSystem::sized_for(Watts::new(186_000.0));
        assert!((plant.peak_capacity().value() - 186.0).abs() < 1e-9);
        assert!(plant.utilization(Watts::new(186_000.0)) <= 1.0);
        assert!(plant.utilization(Watts::new(186_001.0)) > 1.0);
    }

    #[test]
    fn electrical_power_uses_cop() {
        let plant = CoolingSystem::new(KiloWatts::new(100.0), 4.0);
        assert_eq!(
            plant.electrical_power(Watts::new(80_000.0)),
            Watts::new(20_000.0)
        );
        // Negative load (net release with nothing to remove) draws nothing.
        assert_eq!(plant.electrical_power(Watts::new(-5.0)), Watts::ZERO);
    }

    #[test]
    fn energy_integrates_power() {
        let plant = CoolingSystem::new(KiloWatts::new(100.0), 4.0);
        let e = plant.electrical_energy(Watts::new(40_000.0), Seconds::new(3600.0));
        assert!((e.kilowatt_hours().value() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        CoolingSystem::new(KiloWatts::ZERO, 4.0);
    }
}
