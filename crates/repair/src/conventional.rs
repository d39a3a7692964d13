//! Conventional repair (§2.2): [`Scheme::Conventional`](crate::Scheme),
//! whose plan is a [`RepairDag::star`](crate::RepairDag::star).
//!
//! The requestor reads all `k` helper blocks over its own downlink and
//! decodes locally. All `k` block transmissions converge on one link, so the
//! repair takes `k` timeslots and the bandwidth usage is highly skewed.
//!
//! For fairness with repair pipelining (as in the paper's evaluation, §6.1),
//! blocks are transmitted in slices, which lets the requestor overlap its
//! decoding computation with the remaining transfers; the repair time is
//! still dominated by the `k` block transmissions over the requestor's
//! downlink.

#[cfg(test)]
mod tests {
    use crate::{analysis, Scheme, SingleRepairJob};
    use ecc::slice::SliceLayout;
    use simnet::{CostModel, Simulator, Topology, GBIT};

    const MIB: usize = 1024 * 1024;

    #[test]
    fn takes_k_timeslots_on_homogeneous_network() {
        let block = 64 * MIB;
        let job = SingleRepairJob::new((1..=10).collect(), 0, SliceLayout::new(block, 32 * 1024));
        let sim = Simulator::new(Topology::flat(12, GBIT), CostModel::network_only());
        let report = sim.run(&Scheme::Conventional.schedule(&job));
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        let expected = analysis::conventional_single(10) * timeslot;
        assert!(
            (report.makespan - expected).abs() / expected < 0.02,
            "makespan {} vs expected {}",
            report.makespan,
            expected
        );
    }

    #[test]
    fn repair_traffic_is_k_blocks() {
        let block = 8 * MIB;
        let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, SliceLayout::new(block, MIB));
        let sim = Simulator::new(Topology::flat(6, GBIT), CostModel::network_only());
        let report = sim.run(&Scheme::Conventional.schedule(&job));
        assert_eq!(report.network_bytes, 4 * block as u64);
    }

    #[test]
    fn requestor_downlink_is_the_bottleneck() {
        let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, SliceLayout::new(MIB, 64 * 1024));
        let sim = Simulator::new(Topology::flat(6, GBIT), CostModel::network_only());
        let report = sim.run(&Scheme::Conventional.schedule(&job));
        // All traffic flows over the four links into the requestor and every
        // link carries exactly one block.
        assert_eq!(report.links_used(), 4);
        assert_eq!(report.max_link_bytes, MIB as u64);
    }
}
