//! Cluster topologies: flat, rack-based, and geo-distributed.

use serde::{Deserialize, Serialize};

/// Identifier of a node in the simulated cluster.
pub type NodeId = usize;

/// A cluster topology: node placement (racks, regions) and link bandwidth.
///
/// Bandwidth is expressed in bytes per second. The effective bandwidth of a
/// transfer from `src` to `dst` is the minimum of:
///
/// * the sender's uplink capacity,
/// * the receiver's downlink capacity,
/// * the point-to-point limit, which is the inner-rack bandwidth when both
///   nodes share a rack, the cross-rack bandwidth otherwise, or an explicit
///   per-pair entry when one was set (geo topologies, edge limits).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    num_nodes: usize,
    rack: Vec<usize>,
    region: Vec<usize>,
    uplink: Vec<f64>,
    downlink: Vec<f64>,
    inner_rack_bw: f64,
    cross_rack_bw: f64,
    /// Optional aggregate capacity of each rack's link to the network core.
    /// When set, all cross-rack traffic entering or leaving one rack shares
    /// this capacity (the "limited cross-rack link bandwidth" of §2.3).
    rack_link_capacity: Option<f64>,
    /// Optional explicit per-directed-pair bandwidth overriding the rack
    /// rule. Row-major `num_nodes x num_nodes`; `None` entries fall back to
    /// the rack rule.
    pair_bw: Vec<Option<f64>>,
}

impl Topology {
    /// A flat, homogeneous cluster: every link (and every NIC) has the same
    /// bandwidth. This models the paper's default local testbed where the
    /// 1 Gb/s switch bandwidth is the constraint.
    pub fn flat(num_nodes: usize, bandwidth: f64) -> Self {
        assert!(num_nodes > 0, "topology must have at least one node");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Topology {
            num_nodes,
            rack: vec![0; num_nodes],
            region: vec![0; num_nodes],
            uplink: vec![bandwidth; num_nodes],
            downlink: vec![bandwidth; num_nodes],
            inner_rack_bw: bandwidth,
            cross_rack_bw: bandwidth,
            rack_link_capacity: None,
            pair_bw: vec![None; num_nodes * num_nodes],
        }
    }

    /// A rack-based data center: `nodes_per_rack[r]` nodes in rack `r`,
    /// abundant inner-rack bandwidth and a limited cross-rack bandwidth
    /// (§2.3, §4.2).
    pub fn rack_based(nodes_per_rack: &[usize], inner_rack_bw: f64, cross_rack_bw: f64) -> Self {
        assert!(!nodes_per_rack.is_empty(), "at least one rack required");
        assert!(inner_rack_bw > 0.0 && cross_rack_bw > 0.0);
        let num_nodes: usize = nodes_per_rack.iter().sum();
        assert!(num_nodes > 0, "topology must have at least one node");
        let mut rack = Vec::with_capacity(num_nodes);
        for (r, &count) in nodes_per_rack.iter().enumerate() {
            rack.extend(std::iter::repeat_n(r, count));
        }
        let nic = inner_rack_bw.max(cross_rack_bw);
        Topology {
            num_nodes,
            rack,
            region: vec![0; num_nodes],
            uplink: vec![nic; num_nodes],
            downlink: vec![nic; num_nodes],
            inner_rack_bw,
            cross_rack_bw,
            rack_link_capacity: Some(cross_rack_bw),
            pair_bw: vec![None; num_nodes * num_nodes],
        }
    }

    /// A geo-distributed deployment: `nodes_per_region[r]` nodes in region
    /// `r` and a `regions x regions` bandwidth matrix where entry `(a, b)` is
    /// the bandwidth from region `a` to region `b` (the diagonal is the
    /// inner-region bandwidth), as in the paper's Table 1.
    pub fn geo(nodes_per_region: &[usize], region_bw: &[Vec<f64>]) -> Self {
        let regions = nodes_per_region.len();
        assert_eq!(region_bw.len(), regions, "bandwidth matrix must be square");
        assert!(region_bw.iter().all(|r| r.len() == regions));
        let num_nodes: usize = nodes_per_region.iter().sum();
        assert!(num_nodes > 0, "topology must have at least one node");
        let mut region = Vec::with_capacity(num_nodes);
        for (r, &count) in nodes_per_region.iter().enumerate() {
            region.extend(std::iter::repeat_n(r, count));
        }
        let max_bw = region_bw
            .iter()
            .flat_map(|r| r.iter().copied())
            .fold(0.0f64, f64::max);
        let mut topo = Topology {
            num_nodes,
            rack: region.clone(),
            region,
            uplink: vec![max_bw; num_nodes],
            downlink: vec![max_bw; num_nodes],
            inner_rack_bw: max_bw,
            cross_rack_bw: max_bw,
            rack_link_capacity: None,
            pair_bw: vec![None; num_nodes * num_nodes],
        };
        for src in 0..num_nodes {
            for dst in 0..num_nodes {
                if src == dst {
                    continue;
                }
                let bw = region_bw[topo.region[src]][topo.region[dst]];
                topo.pair_bw[src * num_nodes + dst] = Some(bw);
            }
        }
        topo
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The rack a node belongs to.
    pub fn rack_of(&self, node: NodeId) -> usize {
        self.rack[node]
    }

    /// The region a node belongs to.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region[node]
    }

    /// The number of distinct racks.
    pub fn num_racks(&self) -> usize {
        self.rack.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Sets the NIC uplink and downlink capacity of one node.
    pub fn set_node_bandwidth(&mut self, node: NodeId, uplink: f64, downlink: f64) {
        assert!(uplink > 0.0 && downlink > 0.0);
        self.uplink[node] = uplink;
        self.downlink[node] = downlink;
    }

    /// Overrides the bandwidth of one directed link.
    pub fn set_link_bandwidth(&mut self, src: NodeId, dst: NodeId, bandwidth: f64) {
        assert!(bandwidth > 0.0);
        assert_ne!(src, dst, "no self links");
        self.pair_bw[src * self.num_nodes + dst] = Some(bandwidth);
    }

    /// Limits the bandwidth of every link *into* `node` (the "edge bandwidth"
    /// of §4.1 / Figure 8(g), where a requestor sits at the network edge).
    pub fn limit_ingress(&mut self, node: NodeId, bandwidth: f64) {
        for src in 0..self.num_nodes {
            if src != node {
                self.set_link_bandwidth(src, node, bandwidth);
            }
        }
    }

    /// The sender-side NIC capacity of a node.
    pub fn uplink(&self, node: NodeId) -> f64 {
        self.uplink[node]
    }

    /// The receiver-side NIC capacity of a node.
    pub fn downlink(&self, node: NodeId) -> f64 {
        self.downlink[node]
    }

    /// The point-to-point bandwidth limit of the directed link `src -> dst`,
    /// before the sender/receiver NIC capacities are applied: the explicit
    /// per-pair entry if one was set, otherwise the inner- or cross-rack
    /// bandwidth.
    pub fn pair_limit(&self, src: NodeId, dst: NodeId) -> f64 {
        assert_ne!(src, dst, "no self transfers");
        self.pair_bw[src * self.num_nodes + dst].unwrap_or({
            if self.rack[src] == self.rack[dst] {
                self.inner_rack_bw
            } else {
                self.cross_rack_bw
            }
        })
    }

    /// The aggregate capacity of each rack's connection to the network core,
    /// if the topology models one (rack-based topologies do; flat and geo
    /// topologies do not).
    pub fn rack_link_capacity(&self) -> Option<f64> {
        self.rack_link_capacity
    }

    /// The effective bandwidth of a transfer from `src` to `dst`: the pair
    /// limit capped by the sender uplink, the receiver downlink and (for
    /// cross-rack transfers) the rack core-link capacity.
    pub fn bandwidth(&self, src: NodeId, dst: NodeId) -> f64 {
        let mut bw = self
            .pair_limit(src, dst)
            .min(self.uplink[src])
            .min(self.downlink[dst]);
        if self.is_cross_rack(src, dst) {
            if let Some(cap) = self.rack_link_capacity {
                bw = bw.min(cap);
            }
        }
        bw
    }

    /// Whether a transfer between two nodes crosses a rack boundary.
    pub fn is_cross_rack(&self, src: NodeId, dst: NodeId) -> bool {
        self.rack[src] != self.rack[dst]
    }

    /// Link weights for weighted path selection (§4.3): the inverse of the
    /// link bandwidth, so higher weight means a slower link.
    pub fn link_weight(&self, src: NodeId, dst: NodeId) -> f64 {
        1.0 / self.bandwidth(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GBIT, MBIT};

    #[test]
    fn flat_topology_is_homogeneous() {
        let topo = Topology::flat(4, GBIT);
        for src in 0..4 {
            for dst in 0..4 {
                if src != dst {
                    assert_eq!(topo.bandwidth(src, dst), GBIT);
                }
            }
        }
        assert_eq!(topo.num_racks(), 1);
    }

    #[test]
    fn rack_topology_limits_cross_rack() {
        let topo = Topology::rack_based(&[3, 3, 3], 10.0 * GBIT, 500.0 * MBIT);
        assert_eq!(topo.num_nodes(), 9);
        assert_eq!(topo.num_racks(), 3);
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(5), 1);
        assert!(!topo.is_cross_rack(0, 2));
        assert!(topo.is_cross_rack(0, 3));
        assert_eq!(topo.bandwidth(0, 1), 10.0 * GBIT);
        assert_eq!(topo.bandwidth(0, 4), 500.0 * MBIT);
    }

    #[test]
    fn geo_topology_uses_region_matrix() {
        let bw = vec![
            vec![500.0 * MBIT, 60.0 * MBIT],
            vec![55.0 * MBIT, 700.0 * MBIT],
        ];
        let topo = Topology::geo(&[2, 2], &bw);
        assert_eq!(topo.region_of(1), 0);
        assert_eq!(topo.region_of(2), 1);
        assert_eq!(topo.bandwidth(0, 1), 500.0 * MBIT);
        assert_eq!(topo.bandwidth(0, 2), 60.0 * MBIT);
        assert_eq!(topo.bandwidth(2, 0), 55.0 * MBIT);
    }

    #[test]
    fn ingress_limit_overrides_links_into_node() {
        let mut topo = Topology::flat(5, GBIT);
        topo.limit_ingress(4, 100.0 * MBIT);
        assert_eq!(topo.bandwidth(0, 4), 100.0 * MBIT);
        assert_eq!(topo.bandwidth(4, 0), GBIT);
        assert_eq!(topo.bandwidth(0, 1), GBIT);
    }

    #[test]
    fn nic_capacity_caps_pair_bandwidth() {
        let mut topo = Topology::flat(3, 10.0 * GBIT);
        topo.set_node_bandwidth(2, GBIT, GBIT);
        assert_eq!(topo.bandwidth(0, 2), GBIT);
        assert_eq!(topo.bandwidth(2, 0), GBIT);
        assert_eq!(topo.bandwidth(0, 1), 10.0 * GBIT);
    }

    #[test]
    fn link_weight_is_inverse_bandwidth() {
        let topo = Topology::flat(2, 2.0);
        assert!((topo.link_weight(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no self transfers")]
    fn self_transfer_panics() {
        Topology::flat(2, GBIT).bandwidth(1, 1);
    }
}
