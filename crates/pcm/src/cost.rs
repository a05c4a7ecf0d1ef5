//! Wax capital expenditure (the paper's `WaxCapEx` Table 2 row).
//!
//! Table 2 amortizes wax CapEx at $0.06–0.10 per server per month — "almost
//! negligible, representing less than 0.1 % of the ServerCapEx".

use crate::container::ContainerBank;
use crate::material::PcmMaterial;
use tts_units::Dollars;

/// Estimated cost of one sealed aluminum container (material + fabrication),
/// at small-sheet aluminum prices.
pub const CONTAINER_COST_EACH: Dollars = Dollars::new(1.50);

/// Amortization period used in Table 2's per-month figures: the 4-year
/// server lifespan (§5.1).
pub const SERVER_LIFETIME_MONTHS: f64 = 48.0;

/// One server's wax bill of materials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaxCapEx {
    /// Bulk wax cost.
    pub wax: Dollars,
    /// Container fabrication cost.
    pub containers: Dollars,
}

tts_units::derive_json! { struct WaxCapEx { wax, containers } }

impl WaxCapEx {
    /// Prices a container bank filled with the given material.
    pub fn price(bank: &ContainerBank, material: &PcmMaterial) -> Self {
        let mass = bank.total_wax_mass(material).kilograms();
        Self {
            wax: material.bulk_price().cost_of(mass),
            containers: CONTAINER_COST_EACH * bank.count() as f64,
        }
    }

    /// Total up-front cost.
    pub fn total(&self) -> Dollars {
        self.wax + self.containers
    }

    /// Table 2 form: dollars per server per month over the server lifetime.
    pub fn per_month(&self) -> Dollars {
        self.total() / SERVER_LIFETIME_MONTHS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerBank;
    use tts_units::{Liters, Meters};

    fn one_u_bank() -> ContainerBank {
        // 1U server: 1.2 L of wax in two boxes.
        ContainerBank::subdivide(Liters::new(1.2), 2, Meters::new(0.25), Meters::new(0.15))
    }

    #[test]
    fn commercial_wax_capex_is_a_few_dollars() {
        let c = WaxCapEx::price(&one_u_bank(), &PcmMaterial::validation_wax());
        // 0.96 kg at $1,500/ton = $1.44, plus two boxes.
        assert!((c.wax.value() - 1.44).abs() < 0.01, "{:?}", c);
        assert!((c.containers.value() - 3.0).abs() < 1e-9);
        assert!(c.total().value() < 5.0);
    }

    #[test]
    fn per_month_lands_in_table2_band() {
        let c = WaxCapEx::price(&one_u_bank(), &PcmMaterial::validation_wax());
        let pm = c.per_month().value();
        assert!((0.05..=0.15).contains(&pm), "per month {pm}");
    }

    #[test]
    fn negligible_fraction_of_server_capex() {
        let c = WaxCapEx::price(&one_u_bank(), &PcmMaterial::validation_wax());
        // $2,000 1U server (§4.1).
        let frac = c.total() / Dollars::new(2000.0);
        assert!(frac < 0.0025, "wax is {:.3}% of server CapEx", frac * 100.0);
    }

    #[test]
    fn eicosane_is_cost_prohibitive() {
        // §2.1: "the cost of equipping every server with eicosane would be
        // over a million dollars in wax costs alone" for a datacenter.
        let c = WaxCapEx::price(&one_u_bank(), &PcmMaterial::eicosane());
        // ~0.94 kg at $75,000/ton ≈ $70 per server...
        assert!(c.wax.value() > 50.0);
        // ... which over a 55-cluster (55 × 1008 servers) datacenter exceeds $1M.
        let datacenter = c.wax * (55.0 * 1008.0);
        assert!(datacenter.value() > 1.0e6, "{datacenter}");
    }
}
