//! Partial-parallel repair (PPR) \[Mitra et al., EuroSys'16\] (§2.2):
//! [`Scheme::Ppr`](crate::Scheme), whose plan is a
//! [`RepairDag::tree`](crate::RepairDag::tree) over [`aggregation_rounds`].
//!
//! PPR distributes the repair over a binary aggregation tree: in each round,
//! pairs of nodes combine their partial results over disjoint links, and the
//! final aggregate reaches the requestor after `ceil(log2(k + 1))` rounds.
//! Rounds are block-synchronous: a node only forwards its partial block after
//! it has received and combined the whole incoming block, which is why PPR
//! does not reach the single-timeslot repair time of repair pipelining.

use simnet::NodeId;

/// The pairwise aggregation rounds of PPR for a given helper list and
/// requestor: each round is a list of `(sender, receiver)` pairs over
/// disjoint nodes; the requestor is the final aggregation root.
pub fn aggregation_rounds(helpers: &[NodeId], requestor: NodeId) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut active: Vec<NodeId> = helpers.to_vec();
    active.push(requestor);
    let mut rounds = Vec::new();
    while active.len() > 1 {
        let mut round = Vec::new();
        let mut next = Vec::new();
        let mut i = 0;
        while i < active.len() {
            if i + 1 < active.len() {
                round.push((active[i], active[i + 1]));
                next.push(active[i + 1]);
                i += 2;
            } else {
                next.push(active[i]);
                i += 1;
            }
        }
        rounds.push(round);
        active = next;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analysis, Scheme, SingleRepairJob};
    use ecc::slice::SliceLayout;
    use simnet::{CostModel, Simulator, Topology, GBIT};

    const MIB: usize = 1024 * 1024;

    #[test]
    fn round_structure_matches_paper_example() {
        // Figure 2(b): k = 4 takes three rounds.
        let rounds = aggregation_rounds(&[1, 2, 3, 4], 0);
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[0], vec![(1, 2), (3, 4)]);
        assert_eq!(rounds[1], vec![(2, 4)]);
        assert_eq!(rounds[2], vec![(4, 0)]);
    }

    #[test]
    fn round_count_is_log2_k_plus_1() {
        for k in 2..=20 {
            let helpers: Vec<NodeId> = (1..=k).collect();
            let rounds = aggregation_rounds(&helpers, 0);
            assert_eq!(rounds.len(), analysis::ppr_single(k) as usize, "k = {k}");
        }
    }

    #[test]
    fn takes_log_timeslots_on_homogeneous_network() {
        let block = 64 * MIB;
        let job = SingleRepairJob::new((1..=10).collect(), 0, SliceLayout::new(block, 1024 * 1024));
        let sim = Simulator::new(Topology::flat(12, GBIT), CostModel::network_only());
        let report = sim.run(&Scheme::Ppr.schedule(&job));
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        let expected = analysis::ppr_single(10) * timeslot;
        assert!(
            (report.makespan - expected).abs() / expected < 0.05,
            "makespan {} vs expected {}",
            report.makespan,
            expected
        );
    }

    #[test]
    fn faster_than_conventional_but_slower_than_one_timeslot() {
        let block = 16 * MIB;
        let job = SingleRepairJob::new((1..=10).collect(), 0, SliceLayout::new(block, 256 * 1024));
        let sim = Simulator::new(Topology::flat(12, GBIT), CostModel::network_only());
        let ppr_time = sim.run(&Scheme::Ppr.schedule(&job)).makespan;
        let conv_time = sim.run(&Scheme::Conventional.schedule(&job)).makespan;
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        assert!(ppr_time < conv_time);
        assert!(ppr_time > 1.5 * timeslot);
    }

    #[test]
    fn total_traffic_is_k_blocks() {
        let block = 4 * MIB;
        let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, SliceLayout::new(block, MIB));
        let sim = Simulator::new(Topology::flat(6, GBIT), CostModel::network_only());
        let report = sim.run(&Scheme::Ppr.schedule(&job));
        assert_eq!(report.network_bytes, 4 * block as u64);
        // Traffic is spread over more links than conventional repair.
        assert_eq!(report.links_used(), 4);
        assert!(report.max_link_bytes <= 2 * block as u64);
    }
}
