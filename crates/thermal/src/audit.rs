//! Topology and conservation audits for thermal networks.
//!
//! A miswired network produces plausible-looking garbage (an air node with
//! no outflow silently accumulates advected enthalpy in the quasi-steady
//! solve). [`audit`] catches the structural mistakes before any physics
//! runs; server-model construction is tested against it.

use crate::network::ThermalNetwork;

/// A structural problem found in a network.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditFinding {
    /// An air node's advective inflow and outflow differ by more than 0.1 %
    /// — mass is not conserved through it.
    FlowImbalance {
        /// Node name.
        node: String,
        /// Total inflow, W/K.
        inflow: f64,
        /// Total outflow, W/K.
        outflow: f64,
    },
    /// A non-boundary node has no thermal connection to any boundary, so
    /// its steady state is undefined.
    Unanchored {
        /// Node name.
        node: String,
    },
    /// The network has no boundary node at all: injected heat has nowhere
    /// to go.
    NoBoundary,
}

impl core::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditFinding::FlowImbalance {
                node,
                inflow,
                outflow,
            } => write!(
                f,
                "air node '{node}' violates flow continuity: {inflow:.3} W/K in vs {outflow:.3} W/K out"
            ),
            AuditFinding::Unanchored { node } => {
                write!(f, "node '{node}' has no path to any boundary")
            }
            AuditFinding::NoBoundary => write!(f, "network has no boundary node"),
        }
    }
}

/// Audits a network; an empty result means structurally sound.
#[allow(clippy::needless_range_loop)] // index loops mirror the math
pub fn audit(net: &ThermalNetwork) -> Vec<AuditFinding> {
    let n = net.node_count();
    let mut findings = Vec::new();

    let boundaries: Vec<usize> = (0..n).filter(|&i| net.is_boundary_index(i)).collect();
    if boundaries.is_empty() {
        findings.push(AuditFinding::NoBoundary);
    }

    // Flow continuity at interior air nodes (boundaries source/sink air).
    for i in 0..n {
        if !net.is_air_index(i) {
            continue;
        }
        let inflow: f64 = net.advection_inflows(i).iter().map(|(_, m)| m).sum();
        let outflow: f64 = net.advection_outflows(i).iter().map(|(_, m)| m).sum();
        if inflow == 0.0 && outflow == 0.0 {
            continue; // not part of an air path; conduction-only is fine
        }
        let scale = inflow.max(outflow).max(1e-12);
        if (inflow - outflow).abs() / scale > 1e-3 {
            findings.push(AuditFinding::FlowImbalance {
                node: net.node_name_index(i).to_string(),
                inflow,
                outflow,
            });
        }
    }

    // Anchoring: BFS from all boundaries over conductances + advection
    // (either direction — heat can reach a boundary downstream).
    let mut reachable = vec![false; n];
    let mut queue: Vec<usize> = boundaries.clone();
    for &b in &boundaries {
        reachable[b] = true;
    }
    while let Some(i) = queue.pop() {
        let mut neighbors: Vec<usize> = net
            .conductance_neighbors(i)
            .iter()
            .map(|&(j, _)| j)
            .collect();
        neighbors.extend(net.advection_inflows(i).iter().map(|&(j, _)| j));
        neighbors.extend(net.advection_outflows(i).iter().map(|&(j, _)| j));
        for j in neighbors {
            if !reachable[j] {
                reachable[j] = true;
                queue.push(j);
            }
        }
    }
    for i in 0..n {
        if !reachable[i] && !net.is_boundary_index(i) {
            findings.push(AuditFinding::Unanchored {
                node: net.node_name_index(i).to_string(),
            });
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::{Celsius, JoulesPerKelvin, Watts, WattsPerKelvin};

    #[test]
    fn sound_network_passes() {
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let air = net.add_air("air", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        net.advect(inlet, air, WattsPerKelvin::new(10.0));
        net.advect(air, outlet, WattsPerKelvin::new(10.0));
        let cpu = net.add_capacitive("cpu", JoulesPerKelvin::new(100.0), Celsius::new(25.0));
        net.connect(cpu, air, WattsPerKelvin::new(2.0));
        net.set_power(cpu, Watts::new(50.0));
        assert!(audit(&net).is_empty());
    }

    #[test]
    fn flow_imbalance_is_caught() {
        let mut net = ThermalNetwork::new();
        let inlet = net.add_boundary("inlet", Celsius::new(25.0));
        let air = net.add_air("leaky air", Celsius::new(25.0));
        let outlet = net.add_boundary("outlet", Celsius::new(25.0));
        net.advect(inlet, air, WattsPerKelvin::new(10.0));
        net.advect(air, outlet, WattsPerKelvin::new(6.0)); // 40 % vanishes
        let findings = audit(&net);
        assert!(findings
            .iter()
            .any(|f| matches!(f, AuditFinding::FlowImbalance { .. })));
        let msg = findings[0].to_string();
        assert!(msg.contains("leaky air"), "{msg}");
    }

    #[test]
    fn unanchored_node_is_caught() {
        let mut net = ThermalNetwork::new();
        net.add_boundary("amb", Celsius::new(25.0));
        net.add_capacitive("floating", JoulesPerKelvin::new(10.0), Celsius::new(40.0));
        let findings = audit(&net);
        assert!(findings
            .iter()
            .any(|f| matches!(f, AuditFinding::Unanchored { .. })));
    }

    #[test]
    fn boundary_free_network_is_caught() {
        let mut net = ThermalNetwork::new();
        let a = net.add_capacitive("a", JoulesPerKelvin::new(10.0), Celsius::new(40.0));
        let b = net.add_capacitive("b", JoulesPerKelvin::new(10.0), Celsius::new(30.0));
        net.connect(a, b, WattsPerKelvin::new(1.0));
        let findings = audit(&net);
        assert!(findings.contains(&AuditFinding::NoBoundary));
    }

    #[test]
    fn conduction_only_air_node_is_not_a_flow_violation() {
        let mut net = ThermalNetwork::new();
        let amb = net.add_boundary("amb", Celsius::new(25.0));
        let pocket = net.add_air("still pocket", Celsius::new(25.0));
        net.connect(pocket, amb, WattsPerKelvin::new(0.5));
        assert!(audit(&net).is_empty());
    }
}
