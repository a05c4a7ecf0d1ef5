//! Fan curves, system impedance and blockage: the airflow operating point.
//!
//! The paper's Figure 7 sweeps a uniform grille across each server and
//! watches outlet/CPU temperatures climb. The mechanism: server fans are
//! constant-speed devices with a falling pressure–flow (P–Q) characteristic;
//! the chassis presents a quadratic impedance `ΔP = K·Q²`; inserting a
//! grille (or wax boxes) of blockage fraction `b` adds orifice impedance
//! that scales as `1/(1−b)²`. The operating point is the intersection, so
//! flow degrades gently at first and collapses as `b → 1` — exactly the
//! "stable below 50 %, exponential above 70 %" behaviour of Figure 7 (b).

use tts_units::{
    CubicMetersPerSecond, Fraction, MetersPerSecond, Pascals, SquareMeters, AIR_DENSITY_KG_M3,
};

/// A single fan's quadratic P–Q curve: `ΔP(Q) = P_max · (1 − (Q/Q_max)²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanCurve {
    max_pressure: Pascals,
    max_flow: CubicMetersPerSecond,
}

tts_units::derive_json! { struct FanCurve { max_pressure, max_flow } }

impl FanCurve {
    /// A fan with stall pressure `max_pressure` and free-delivery flow
    /// `max_flow`.
    ///
    /// # Panics
    /// Panics unless both parameters are positive.
    pub fn new(max_pressure: Pascals, max_flow: CubicMetersPerSecond) -> Self {
        assert!(
            max_pressure.value() > 0.0,
            "stall pressure must be positive"
        );
        assert!(
            max_flow.value() > 0.0,
            "free-delivery flow must be positive"
        );
        Self {
            max_pressure,
            max_flow,
        }
    }

    /// Stall (zero-flow) pressure.
    pub fn max_pressure(&self) -> Pascals {
        self.max_pressure
    }

    /// Free-delivery (zero-pressure) flow.
    pub fn max_flow(&self) -> CubicMetersPerSecond {
        self.max_flow
    }

    /// Derates the fan to a fraction of its speed (fan-law scaling:
    /// flow ∝ speed, pressure ∝ speed²). Used for idle/loaded fan steps.
    pub fn at_speed(&self, speed: Fraction) -> FanCurve {
        let s = speed.value().max(1e-3);
        FanCurve {
            max_pressure: self.max_pressure * (s * s),
            max_flow: self.max_flow * s,
        }
    }
}

/// The solved airflow operating point for a given blockage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Total volumetric flow through the chassis.
    pub flow: CubicMetersPerSecond,
    /// Static pressure at the operating point.
    pub pressure: Pascals,
    /// Mean velocity in the open duct (upstream of the blockage).
    pub duct_velocity: MetersPerSecond,
    /// Velocity through the constricted gap at the blockage plane — the
    /// velocity that drives convection over the wax boxes.
    pub gap_velocity: MetersPerSecond,
}

tts_units::derive_json! { struct OperatingPoint { flow, pressure, duct_velocity, gap_velocity } }

/// One server's air path: parallel fans against chassis + blockage
/// impedance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPath {
    fan: FanCurve,
    fan_count: usize,
    /// Chassis impedance coefficient `K₀` (Pa / (m³/s)²) with no blockage.
    base_impedance: f64,
    /// Duct cross-section at the blockage plane.
    duct_area: SquareMeters,
    /// Orifice loss coefficient for the blockage plane (≈ 1–2.8 for sharp
    /// grilles).
    orifice_zeta: f64,
}

tts_units::derive_json! { struct FlowPath { fan, fan_count, base_impedance, duct_area, orifice_zeta } }

impl FlowPath {
    /// A path of `fan_count` identical fans in parallel blowing through a
    /// chassis of impedance `base_impedance` with a blockage plane of
    /// cross-section `duct_area`.
    ///
    /// # Panics
    /// Panics if `fan_count` is zero, the impedance is negative, or the
    /// duct area is non-positive.
    pub fn new(
        fan: FanCurve,
        fan_count: usize,
        base_impedance: f64,
        duct_area: SquareMeters,
    ) -> Self {
        assert!(fan_count > 0, "at least one fan required");
        assert!(base_impedance >= 0.0, "impedance cannot be negative");
        assert!(duct_area.value() > 0.0, "duct area must be positive");
        Self {
            fan,
            fan_count,
            base_impedance,
            duct_area,
            orifice_zeta: 1.5,
        }
    }

    /// Overrides the orifice loss coefficient of the blockage plane.
    pub fn with_orifice_zeta(mut self, zeta: f64) -> Self {
        assert!(zeta > 0.0, "orifice coefficient must be positive");
        self.orifice_zeta = zeta;
        self
    }

    /// The fans' combined free-delivery flow (upper bound on any operating
    /// point).
    pub fn max_flow(&self) -> CubicMetersPerSecond {
        self.fan.max_flow() * self.fan_count as f64
    }

    /// Duct cross-section at the blockage plane.
    pub fn duct_area(&self) -> SquareMeters {
        self.duct_area
    }

    /// Added impedance of a blockage covering fraction `b` of the duct:
    /// `ζ·ρ/2 · [1/(A(1−b))² − 1/A²]`, zero at `b = 0`.
    fn blockage_impedance(&self, blockage: Fraction) -> f64 {
        let a = self.duct_area.value();
        let open = (1.0 - blockage.value()).max(0.02); // fully sealed is non-physical
        let k_blocked = self.orifice_zeta * AIR_DENSITY_KG_M3 / (2.0 * (a * open).powi(2));
        let k_open = self.orifice_zeta * AIR_DENSITY_KG_M3 / (2.0 * a * a);
        k_blocked - k_open
    }

    /// Solves the operating point for a blockage fraction at a fan speed.
    ///
    /// Closed form: with parallel fans `Q = n·Q_max·√(1 − p/P_max)` and
    /// system `p = K·Q²`, the intersection is
    /// `p = K·(n·Q_max)² / (1 + K·(n·Q_max)²/P_max)`.
    pub fn operating_point(&self, blockage: Fraction, speed: Fraction) -> OperatingPoint {
        let fan = self.fan.at_speed(speed);
        let nqmax = fan.max_flow().value() * self.fan_count as f64;
        let pmax = fan.max_pressure().value();
        let k = self.base_impedance + self.blockage_impedance(blockage);
        let (pressure, flow) = if k <= 0.0 {
            (0.0, nqmax)
        } else {
            let knq2 = k * nqmax * nqmax;
            let p = knq2 / (1.0 + knq2 / pmax);
            (p, (p / k).sqrt())
        };
        let q = CubicMetersPerSecond::new(flow);
        let a = self.duct_area.value();
        let open = (1.0 - blockage.value()).max(0.02);
        OperatingPoint {
            flow: q,
            pressure: Pascals::new(pressure),
            duct_velocity: q.velocity_through(a),
            gap_velocity: q.velocity_through(a * open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    fn path() -> FlowPath {
        // Six small 1U fans: 35 CFM free delivery, 160 Pa stall each.
        let fan = FanCurve::new(Pascals::new(160.0), CubicMetersPerSecond::from_cfm(35.0));
        FlowPath::new(fan, 6, 2.0e4, SquareMeters::new(0.017))
    }

    #[test]
    fn fan_law_scaling() {
        let fan = FanCurve::new(Pascals::new(100.0), CubicMetersPerSecond::new(0.05));
        let half = fan.at_speed(Fraction::new(0.5));
        assert!((half.max_flow().value() - 0.025).abs() < 1e-12);
        assert!((half.max_pressure().value() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn operating_point_lies_on_both_curves() {
        let p = path();
        let op = p.operating_point(Fraction::new(0.3), Fraction::ONE);
        let sys_p = op.pressure.value();
        // On the fan curve: p = p_stall · (1 − (q/q_free)²) per fan.
        let q_free = CubicMetersPerSecond::from_cfm(35.0).value();
        let ratio = op.flow.value() / 6.0 / q_free;
        let fan_p = 160.0 * (1.0 - ratio * ratio);
        assert!((sys_p - fan_p).abs() < 1e-6, "{sys_p} vs {fan_p}");
    }

    #[test]
    fn flow_decreases_monotonically_with_blockage() {
        let p = path();
        let mut prev = f64::INFINITY;
        for b in 0..=18 {
            let frac = Fraction::new(b as f64 * 0.05);
            let op = p.operating_point(frac, Fraction::ONE);
            assert!(op.flow.value() < prev, "flow must fall with blockage");
            prev = op.flow.value();
        }
    }

    #[test]
    fn flow_degrades_gently_then_collapses() {
        // The Figure 7 (b) shape: < 10 % flow loss at 50 % blockage is too
        // strong for these fans, but the knee must exist: the loss from
        // 0→50 % must be much smaller than from 50→90 %.
        let p = path();
        let q0 = p
            .operating_point(Fraction::ZERO, Fraction::ONE)
            .flow
            .value();
        let q50 = p
            .operating_point(Fraction::new(0.5), Fraction::ONE)
            .flow
            .value();
        let q90 = p
            .operating_point(Fraction::new(0.9), Fraction::ONE)
            .flow
            .value();
        let early_loss = q0 - q50;
        let late_loss = q50 - q90;
        assert!(
            late_loss > 1.5 * early_loss,
            "early {early_loss:.4}, late {late_loss:.4}"
        );
    }

    #[test]
    fn gap_velocity_rises_as_duct_constricts() {
        let p = path();
        let op30 = p.operating_point(Fraction::new(0.3), Fraction::ONE);
        let op70 = p.operating_point(Fraction::new(0.7), Fraction::ONE);
        // Total flow falls but the gap velocity climbs (smaller opening).
        assert!(op70.flow.value() < op30.flow.value());
        assert!(op70.gap_velocity.value() > op30.gap_velocity.value());
        assert!(op30.gap_velocity.value() > op30.duct_velocity.value());
    }

    #[test]
    fn lower_fan_speed_reduces_flow() {
        let p = path();
        let full = p.operating_point(Fraction::new(0.3), Fraction::ONE);
        let idle = p.operating_point(Fraction::new(0.3), Fraction::new(0.4));
        assert!(idle.flow.value() < full.flow.value());
    }

    #[test]
    fn zero_impedance_path_runs_at_free_delivery() {
        let fan = FanCurve::new(Pascals::new(100.0), CubicMetersPerSecond::new(0.05));
        let p = FlowPath::new(fan, 2, 0.0, SquareMeters::new(0.02));
        let op = p.operating_point(Fraction::ZERO, Fraction::ONE);
        assert!((op.flow.value() - 0.1).abs() < 1e-12);
        assert_eq!(op.pressure.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one fan")]
    fn zero_fans_panics() {
        let fan = FanCurve::new(Pascals::new(100.0), CubicMetersPerSecond::new(0.05));
        FlowPath::new(fan, 0, 1.0, SquareMeters::new(0.02));
    }

    proptest! {
        #[test]
        fn operating_point_is_always_physical(
            b in 0.0f64..0.98,
            speed in 0.1f64..1.0,
        ) {
            let p = path();
            let op = p.operating_point(Fraction::new(b), Fraction::new(speed));
            prop_assert!(op.flow.value() > 0.0);
            prop_assert!(op.flow.value() <= p.max_flow().value() + 1e-12);
            prop_assert!(op.pressure.value() >= 0.0);
            prop_assert!(op.gap_velocity.value() >= op.duct_velocity.value() - 1e-12);
        }
    }
}
