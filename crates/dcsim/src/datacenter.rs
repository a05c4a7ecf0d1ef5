//! Datacenter extrapolation (§4.3).
//!
//! DCSim "extrapolates the cluster model out for the whole datacenter".
//! The paper's three 10 MW datacenters hold 55 clusters of 1U servers, 19
//! clusters of 2U servers, or 29 clusters of Open Compute blades (1008
//! servers per cluster).

use tts_server::{ServerClass, ServerSpec};
use tts_units::MegaWatts;

/// A homogeneous datacenter built from identical 1008-server clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct Datacenter {
    /// Server class deployed.
    pub class: ServerClass,
    /// Number of 1008-server clusters.
    pub clusters: usize,
    /// Critical (IT) power budget.
    pub critical_power: MegaWatts,
}

tts_units::derive_json! { struct Datacenter { class, clusters, critical_power } }

/// Servers per cluster (paper constant).
pub const SERVERS_PER_CLUSTER: usize = 1008;

impl Datacenter {
    /// The paper's 10 MW datacenter for a server class: "the first filled
    /// with 55 clusters of 1U low power servers, the second with 19
    /// clusters of 2U high throughput servers and the third with 29
    /// clusters of Open Compute blades".
    pub fn paper_10mw(class: ServerClass) -> Self {
        let clusters = match class {
            ServerClass::LowPower1U => 55,
            ServerClass::HighThroughput2U => 19,
            ServerClass::OpenComputeBlade => 29,
        };
        Self {
            class,
            clusters,
            critical_power: MegaWatts::new(10.0),
        }
    }

    /// Total server count.
    pub fn servers(&self) -> usize {
        self.clusters * SERVERS_PER_CLUSTER
    }

    /// The spec of the deployed server.
    pub fn spec(&self) -> ServerSpec {
        self.class.spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::Fraction;

    #[test]
    fn paper_cluster_counts() {
        assert_eq!(Datacenter::paper_10mw(ServerClass::LowPower1U).clusters, 55);
        assert_eq!(
            Datacenter::paper_10mw(ServerClass::HighThroughput2U).clusters,
            19
        );
        assert_eq!(
            Datacenter::paper_10mw(ServerClass::OpenComputeBlade).clusters,
            29
        );
    }

    #[test]
    fn cluster_counts_respect_critical_power() {
        // Each configuration's peak IT power must come in at or under the
        // 10 MW critical budget (the paper sizes cluster counts this way).
        for class in ServerClass::ALL {
            let dc = Datacenter::paper_10mw(class);
            let per_server_w = dc.spec().wall_power(Fraction::ONE, Fraction::ONE).value();
            let peak = per_server_w * dc.servers() as f64 / 1e6;
            assert!(
                peak <= 10.3,
                "{class}: peak IT power {peak} MW exceeds critical power"
            );
            assert!(
                peak > 5.0,
                "{class}: datacenter implausibly empty: {peak} MW"
            );
        }
    }

    #[test]
    fn server_counts() {
        let dc = Datacenter::paper_10mw(ServerClass::LowPower1U);
        assert_eq!(dc.servers(), 55 * 1008);
    }
}
