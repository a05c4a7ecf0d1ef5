//! The PCM materials library (Table 1 of the paper, plus §2.1 specifics).

use tts_units::{Celsius, DollarsPerTon, GramsPerMilliliter, JoulesPerGram, JoulesPerGramKelvin};

/// The solid–liquid PCM families compared in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcmClass {
    /// Salt hydrates: high energy density, poor cycle stability, corrosive.
    SaltHydrate,
    /// Metal alloys: melt far above datacenter temperatures.
    MetalAlloy,
    /// Fatty acids: moderate heat of fusion, corrosive.
    FattyAcid,
    /// Molecularly pure n-paraffins (eicosane, tridecane, ...).
    NParaffin,
    /// Commercial-grade paraffin blends (the material the paper deploys).
    CommercialParaffin,
}

tts_units::derive_json! { enum PcmClass { SaltHydrate, MetalAlloy, FattyAcid, NParaffin, CommercialParaffin } }

impl core::fmt::Display for PcmClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PcmClass::SaltHydrate => "Salt Hydrates",
            PcmClass::MetalAlloy => "Metal Alloys",
            PcmClass::FattyAcid => "Fatty Acids",
            PcmClass::NParaffin => "n-Paraffins",
            PcmClass::CommercialParaffin => "Commercial Paraffins",
        };
        f.write_str(s)
    }
}

/// Cycle stability over repeated melt/freeze cycles (Table 1 column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stability {
    /// Degrades in as few as 100 cycles.
    Poor,
    /// Not characterized in the literature.
    Unknown,
    /// Usable but with measurable degradation.
    Good,
    /// Negligible degradation over ~1,000 cycles.
    VeryGood,
    /// Negligible deviation after more than 1,000 cycles.
    Excellent,
}

tts_units::derive_json! { enum Stability { Poor, Unknown, Good, VeryGood, Excellent } }

impl core::fmt::Display for Stability {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Stability::Poor => "Poor",
            Stability::Unknown => "Unknown",
            Stability::Good => "Good",
            Stability::VeryGood => "Very Good",
            Stability::Excellent => "Excellent",
        };
        f.write_str(s)
    }
}

/// A phase change material with the properties the paper evaluates.
///
/// Construct specific materials through the named constructors
/// ([`PcmMaterial::eicosane`], [`PcmMaterial::commercial_paraffin`], …) or
/// the full [`PcmMaterial::custom`] builder entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct PcmMaterial {
    name: String,
    class: PcmClass,
    melting_point: Celsius,
    /// Width of the mushy (solid↔liquid transition) region. Pure
    /// n-paraffins transition over ~1 K; commercial blends over several K.
    melting_range: f64,
    heat_of_fusion: JoulesPerGram,
    density: GramsPerMilliliter,
    specific_heat_solid: JoulesPerGramKelvin,
    specific_heat_liquid: JoulesPerGramKelvin,
    stability: Stability,
    electrically_conductive: bool,
    corrosive: bool,
    bulk_price: DollarsPerTon,
}

tts_units::derive_json! { struct PcmMaterial { name, class, melting_point, melting_range, heat_of_fusion, density, specific_heat_solid, specific_heat_liquid, stability, electrically_conductive, corrosive, bulk_price } }

impl PcmMaterial {
    /// Fully custom material definition.
    ///
    /// `melting_range_k` is the width of the transition region in kelvin;
    /// it is clamped to at least 0.1 K to keep the enthalpy curve
    /// numerically invertible.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: impl Into<String>,
        class: PcmClass,
        melting_point: Celsius,
        melting_range_k: f64,
        heat_of_fusion: JoulesPerGram,
        density: GramsPerMilliliter,
        specific_heat_solid: JoulesPerGramKelvin,
        specific_heat_liquid: JoulesPerGramKelvin,
        stability: Stability,
        electrically_conductive: bool,
        corrosive: bool,
        bulk_price: DollarsPerTon,
    ) -> Self {
        Self {
            name: name.into(),
            class,
            melting_point,
            melting_range: melting_range_k.max(0.1),
            heat_of_fusion,
            density,
            specific_heat_solid,
            specific_heat_liquid,
            stability,
            electrically_conductive,
            corrosive,
            bulk_price,
        }
    }

    /// Eicosane (C20 n-paraffin), the computational-sprinting PCM: 247 J/g,
    /// melts at 36.6 °C, quoted at $75,000/ton (§2.1).
    pub fn eicosane() -> Self {
        Self::custom(
            "Eicosane",
            PcmClass::NParaffin,
            Celsius::new(36.6),
            1.0,
            JoulesPerGram::new(247.0),
            GramsPerMilliliter::new(0.78),
            JoulesPerGramKelvin::new(1.92),
            JoulesPerGramKelvin::new(2.46),
            Stability::Excellent,
            false,
            false,
            DollarsPerTon::new(75_000.0),
        )
    }

    /// Commercial-grade paraffin blend with a selectable melting point.
    ///
    /// The paper's §2.1: commercial paraffin with melting temperatures
    /// between 40 and 60 °C is available at $1,000–2,000/ton — *"50× cheaper
    /// for 20 % lower energy per gram compared to eicosane"* — i.e. 200 J/g.
    /// The §3 retail wax melted at 39 °C; melting points modestly outside
    /// the 40–60 °C catalogue band are therefore accepted.
    pub fn commercial_paraffin(melting_point: Celsius) -> Self {
        Self::custom(
            format!("Commercial Paraffin ({:.0} °C)", melting_point.value()),
            PcmClass::CommercialParaffin,
            melting_point,
            4.0,
            JoulesPerGram::new(200.0),
            GramsPerMilliliter::new(0.80),
            JoulesPerGramKelvin::new(2.0),
            JoulesPerGramKelvin::new(2.2),
            Stability::VeryGood,
            false,
            false,
            DollarsPerTon::new(1_500.0),
        )
    }

    /// The retail paraffin measured in the validation experiment (§3):
    /// melting temperature measured at 39 °C.
    pub fn validation_wax() -> Self {
        Self::commercial_paraffin(Celsius::new(39.0))
    }

    /// A representative salt hydrate (Table 1 row 1).
    pub fn salt_hydrate() -> Self {
        Self::custom(
            "Salt Hydrate (representative)",
            PcmClass::SaltHydrate,
            Celsius::new(47.5), // 25–70 °C range midpoint
            3.0,
            JoulesPerGram::new(245.0),
            GramsPerMilliliter::new(1.75),
            JoulesPerGramKelvin::new(1.7),
            JoulesPerGramKelvin::new(2.1),
            Stability::Poor,
            true,
            true,
            DollarsPerTon::new(800.0),
        )
    }

    /// A representative metal alloy PCM (Table 1 row 2). Melts far above
    /// datacenter temperatures (> 300 °C).
    pub fn metal_alloy() -> Self {
        Self::custom(
            "Metal Alloy (representative)",
            PcmClass::MetalAlloy,
            Celsius::new(320.0),
            5.0,
            JoulesPerGram::new(300.0),
            GramsPerMilliliter::new(7.5),
            JoulesPerGramKelvin::new(0.5),
            JoulesPerGramKelvin::new(0.6),
            Stability::Poor,
            true,
            false,
            DollarsPerTon::new(20_000.0),
        )
    }

    /// A representative fatty acid PCM (Table 1 row 3).
    pub fn fatty_acid() -> Self {
        Self::custom(
            "Fatty Acid (representative)",
            PcmClass::FattyAcid,
            Celsius::new(45.5), // 16–75 °C range midpoint
            3.0,
            JoulesPerGram::new(185.0),
            GramsPerMilliliter::new(0.9),
            JoulesPerGramKelvin::new(1.9),
            JoulesPerGramKelvin::new(2.2),
            Stability::Unknown,
            false,
            true,
            DollarsPerTon::new(2_500.0),
        )
    }

    /// A representative pure n-paraffin (Table 1 row 4), distinct from
    /// eicosane: the family spans 6–65 °C, 230–250 J/g.
    pub fn n_paraffin(melting_point: Celsius) -> Self {
        Self::custom(
            format!("n-Paraffin ({:.0} °C)", melting_point.value()),
            PcmClass::NParaffin,
            melting_point,
            1.0,
            JoulesPerGram::new(240.0),
            GramsPerMilliliter::new(0.75),
            JoulesPerGramKelvin::new(1.92),
            JoulesPerGramKelvin::new(2.46),
            Stability::Excellent,
            false,
            false,
            DollarsPerTon::new(75_000.0),
        )
    }

    /// The five Table 1 rows, in the paper's order.
    pub fn table1() -> Vec<PcmMaterial> {
        vec![
            Self::salt_hydrate(),
            Self::metal_alloy(),
            Self::fatty_acid(),
            Self::n_paraffin(Celsius::new(36.6)),
            Self::commercial_paraffin(Celsius::new(50.0)),
        ]
    }

    /// Material name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// PCM family.
    pub fn class(&self) -> PcmClass {
        self.class
    }

    /// Nominal melting temperature (center of the transition region).
    pub fn melting_point(&self) -> Celsius {
        self.melting_point
    }

    /// Width of the solid↔liquid transition region, in kelvin.
    pub fn melting_range_k(&self) -> f64 {
        self.melting_range
    }

    /// Temperature at which melting begins.
    pub fn solidus(&self) -> Celsius {
        Celsius::new(self.melting_point.value() - self.melting_range / 2.0)
    }

    /// Temperature at which the material is fully liquid.
    pub fn liquidus(&self) -> Celsius {
        Celsius::new(self.melting_point.value() + self.melting_range / 2.0)
    }

    /// Latent heat of fusion.
    pub fn heat_of_fusion(&self) -> JoulesPerGram {
        self.heat_of_fusion
    }

    /// Density (solid/liquid average; Table 1 quotes a single value).
    pub fn density(&self) -> GramsPerMilliliter {
        self.density
    }

    /// Specific heat of the solid phase.
    pub fn specific_heat_solid(&self) -> JoulesPerGramKelvin {
        self.specific_heat_solid
    }

    /// Specific heat of the liquid phase.
    pub fn specific_heat_liquid(&self) -> JoulesPerGramKelvin {
        self.specific_heat_liquid
    }

    /// Cycle stability rating.
    pub fn stability(&self) -> Stability {
        self.stability
    }

    /// Whether the material conducts electricity (a leak hazard).
    pub fn electrically_conductive(&self) -> bool {
        self.electrically_conductive
    }

    /// Whether the material is corrosive (a containment hazard).
    pub fn corrosive(&self) -> bool {
        self.corrosive
    }

    /// Bulk price in dollars per metric ton.
    pub fn bulk_price(&self) -> DollarsPerTon {
        self.bulk_price
    }

    /// Screens the material against the paper's datacenter deployment
    /// criteria (§2.1): melting temperature in the usable 30–60 °C band,
    /// at least "good" cycle stability, non-corrosive, electrically
    /// non-conductive.
    ///
    /// Returns the list of violated criteria (empty = suitable).
    pub fn datacenter_suitability(&self) -> Vec<SuitabilityIssue> {
        let mut issues = Vec::new();
        let t = self.melting_point.value();
        if !(30.0..=60.0).contains(&t) {
            issues.push(SuitabilityIssue::MeltingPointOutOfRange);
        }
        if self.stability < Stability::Good {
            issues.push(SuitabilityIssue::PoorStability);
        }
        if self.corrosive {
            issues.push(SuitabilityIssue::Corrosive);
        }
        if self.electrically_conductive {
            issues.push(SuitabilityIssue::ElectricallyConductive);
        }
        issues
    }

    /// `true` when [`Self::datacenter_suitability`] raises no issues.
    pub fn is_datacenter_suitable(&self) -> bool {
        self.datacenter_suitability().is_empty()
    }
}

/// A reason a PCM fails the datacenter deployment screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuitabilityIssue {
    /// Melting point outside the 30–60 °C datacenter band.
    MeltingPointOutOfRange,
    /// Cycle stability below "good".
    PoorStability,
    /// Corrosive on leak.
    Corrosive,
    /// Conducts electricity on leak.
    ElectricallyConductive,
}

tts_units::derive_json! { enum SuitabilityIssue { MeltingPointOutOfRange, PoorStability, Corrosive, ElectricallyConductive } }

impl core::fmt::Display for SuitabilityIssue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SuitabilityIssue::MeltingPointOutOfRange => "melting point outside 30-60 °C",
            SuitabilityIssue::PoorStability => "poor cycle stability",
            SuitabilityIssue::Corrosive => "corrosive",
            SuitabilityIssue::ElectricallyConductive => "electrically conductive",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_rows_in_paper_order() {
        let rows = PcmMaterial::table1();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].class(), PcmClass::SaltHydrate);
        assert_eq!(rows[1].class(), PcmClass::MetalAlloy);
        assert_eq!(rows[2].class(), PcmClass::FattyAcid);
        assert_eq!(rows[3].class(), PcmClass::NParaffin);
        assert_eq!(rows[4].class(), PcmClass::CommercialParaffin);
    }

    #[test]
    fn eicosane_matches_paper_quotes() {
        let e = PcmMaterial::eicosane();
        assert_eq!(e.heat_of_fusion().value(), 247.0);
        assert_eq!(e.melting_point().value(), 36.6);
        assert_eq!(e.bulk_price().value(), 75_000.0);
        assert!(e.is_datacenter_suitable());
    }

    #[test]
    fn commercial_paraffin_is_50x_cheaper_for_20pct_less_energy() {
        let e = PcmMaterial::eicosane();
        let c = PcmMaterial::commercial_paraffin(Celsius::new(45.0));
        assert!((e.bulk_price() / c.bulk_price() - 50.0).abs() < 1e-9);
        let energy_penalty = 1.0 - c.heat_of_fusion() / e.heat_of_fusion();
        assert!((energy_penalty - 0.19).abs() < 0.02, "{energy_penalty}");
    }

    #[test]
    fn only_paraffins_pass_the_datacenter_screen() {
        for m in PcmMaterial::table1() {
            let ok = m.is_datacenter_suitable();
            match m.class() {
                PcmClass::NParaffin | PcmClass::CommercialParaffin => {
                    assert!(ok, "{} should be suitable", m.name())
                }
                _ => assert!(!ok, "{} should be unsuitable", m.name()),
            }
        }
    }

    #[test]
    fn metal_alloy_fails_on_melting_point() {
        let issues = PcmMaterial::metal_alloy().datacenter_suitability();
        assert!(issues.contains(&SuitabilityIssue::MeltingPointOutOfRange));
        assert!(issues.contains(&SuitabilityIssue::PoorStability));
    }

    #[test]
    fn salt_hydrate_fails_on_corrosion_and_conductivity() {
        let issues = PcmMaterial::salt_hydrate().datacenter_suitability();
        assert!(issues.contains(&SuitabilityIssue::Corrosive));
        assert!(issues.contains(&SuitabilityIssue::ElectricallyConductive));
    }

    #[test]
    fn solidus_liquidus_bracket_melting_point() {
        let m = PcmMaterial::commercial_paraffin(Celsius::new(42.0));
        assert!(m.solidus() < m.melting_point());
        assert!(m.melting_point() < m.liquidus());
        assert!((m.liquidus().value() - m.solidus().value() - m.melting_range_k()).abs() < 1e-12);
    }

    #[test]
    fn melting_range_is_clamped_positive() {
        let m = PcmMaterial::custom(
            "degenerate",
            PcmClass::NParaffin,
            Celsius::new(40.0),
            0.0,
            JoulesPerGram::new(200.0),
            GramsPerMilliliter::new(0.8),
            JoulesPerGramKelvin::new(2.0),
            JoulesPerGramKelvin::new(2.0),
            Stability::Excellent,
            false,
            false,
            DollarsPerTon::new(1000.0),
        );
        assert!(m.melting_range_k() >= 0.1);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(PcmClass::SaltHydrate.to_string(), "Salt Hydrates");
        assert_eq!(Stability::VeryGood.to_string(), "Very Good");
        assert_eq!(SuitabilityIssue::Corrosive.to_string(), "corrosive");
    }
}
