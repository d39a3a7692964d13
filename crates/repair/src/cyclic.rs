//! Cyclic repair pipelining for requestors behind a limited edge link
//! (§4.1).
//!
//! The basic linear path delivers every repaired slice to the requestor from
//! the single last helper, so a slow edge link between the storage system and
//! the requestor throttles the whole repair. The cyclic version partitions
//! the `s` slices into groups of `k - 1`; slice `p` of a group traverses the
//! cyclic path starting at helper `p`
//! (`N_{p} -> N_{p+1} -> ... -> N_{p-1}`), and the last helper of each cyclic
//! path then delivers the repaired slice to the requestor. The requestor
//! therefore reads from `k - 1` helpers in parallel, and the delivery of one
//! group overlaps with the repair of the next.
//!
//! The schedule is written out by hand: a path that differs from slice to
//! slice is not a [`RepairDag`](crate::RepairDag) shape, and the runtime has
//! no cyclic executor for one to be shared with yet.

use simnet::{Schedule, TaskId};

use crate::SingleRepairJob;

/// Builds the cyclic repair-pipelining schedule.
#[allow(clippy::needless_range_loop)] // wave loops index the pending-slice table
pub fn schedule(job: &SingleRepairJob) -> Schedule {
    let mut s = Schedule::new();
    let slices = job.slice_count();
    let k = job.k();
    if k == 1 {
        // Degenerate case: a single helper simply streams the block.
        for j in 0..slices {
            let len = job.layout.slice_len(j) as u64;
            let read = s.disk_read(job.helpers[0], len, &[]);
            let combine = s.compute(job.helpers[0], len, &[read]);
            s.transfer(job.helpers[0], job.requestor, len, &[combine]);
        }
        return s;
    }

    // Per-helper disk reads of each slice.
    let disk: Vec<Vec<TaskId>> = job
        .helpers
        .iter()
        .map(|&h| {
            (0..slices)
                .map(|j| s.disk_read(h, job.layout.slice_len(j) as u64, &[]))
                .collect()
        })
        .collect();

    let group_size = k - 1;
    // Tasks are submitted wave by wave (hop 0 of every slice in the group,
    // then hop 1, ...), matching the order in which the work becomes ready:
    // within a wave, the group's slices occupy disjoint inter-helper links,
    // and the one helper that is idle in that wave delivers a repaired slice
    // of the *previous* group to the requestor — the phase overlap described
    // in §4.1.
    //
    // pending[pos] = (final combine task, slice index, final helper) of the
    // previous group's slice at position `pos`, not yet delivered.
    let mut pending: Vec<Option<(TaskId, usize, usize)>> = vec![None; group_size];
    let mut group_start = 0usize;
    while group_start < slices {
        let group: Vec<usize> = (group_start..(group_start + group_size).min(slices)).collect();
        let mut incoming: Vec<Option<TaskId>> = vec![None; group.len()];
        for step in 0..group_size {
            // Deliver the previous group's slice whose cyclic path ended at
            // the helper that is idle in this wave.
            if let Some((combine, j, sender)) = pending[step].take() {
                let slice_len = job.layout.slice_len(j) as u64;
                s.transfer(job.helpers[sender], job.requestor, slice_len, &[combine]);
            }
            // Forwarding wave: slice at position `pos` moves from helper
            // (pos + step) to helper (pos + step + 1).
            for (pos, &j) in group.iter().enumerate() {
                let slice_len = job.layout.slice_len(j) as u64;
                let sender = (pos + step) % k;
                let receiver = (pos + step + 1) % k;
                let mut deps = vec![disk[sender][j]];
                if let Some(inc) = incoming[pos] {
                    deps.push(inc);
                }
                let combine = s.compute(job.helpers[sender], slice_len, &deps);
                let t = s.transfer(
                    job.helpers[sender],
                    job.helpers[receiver],
                    slice_len,
                    &[combine],
                );
                incoming[pos] = Some(t);
            }
        }
        // The path of slice `pos` ends at helper (pos + k - 1), which adds
        // its own contribution; the delivery itself is interleaved into the
        // next group's waves.
        for (pos, &j) in group.iter().enumerate() {
            let slice_len = job.layout.slice_len(j) as u64;
            let final_helper = (pos + k - 1) % k;
            let incoming_task = incoming[pos].expect("path has at least one hop");
            let final_combine = s.compute(
                job.helpers[final_helper],
                slice_len,
                &[incoming_task, disk[final_helper][j]],
            );
            pending[pos] = Some((final_combine, j, final_helper));
        }
        group_start += group_size;
    }
    // Deliver the last group's slices.
    for entry in pending.into_iter().flatten() {
        let (combine, j, sender) = entry;
        let slice_len = job.layout.slice_len(j) as u64;
        s.transfer(job.helpers[sender], job.requestor, slice_len, &[combine]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use ecc::slice::SliceLayout;
    use simnet::{CostModel, Simulator, Topology, GBIT, MBIT};

    const MIB: usize = 1024 * 1024;

    #[test]
    fn matches_basic_rp_on_homogeneous_network() {
        let block = 32 * MIB;
        let layout = SliceLayout::new(block, 32 * 1024);
        let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
        let sim = Simulator::new(Topology::flat(12, GBIT), CostModel::network_only());
        let cyclic_time = sim.run(&schedule(&job)).makespan;
        let basic_time = sim.run(&crate::rp::schedule(&job)).makespan;
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        assert!((cyclic_time - basic_time).abs() / basic_time < 0.05);
        assert!(cyclic_time < 1.05 * timeslot);
    }

    #[test]
    fn beats_basic_rp_under_limited_edge_bandwidth() {
        // Figure 8(g): 1 Gb/s inside the storage system, 100 Mb/s from every
        // helper to the requestor.
        let block = 64 * MIB;
        let layout = SliceLayout::new(block, 32 * 1024);
        let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
        let mut topo = Topology::flat(12, GBIT);
        topo.limit_ingress(0, 100.0 * MBIT);
        let sim = Simulator::new(topo, CostModel::network_only());
        let cyclic_time = sim.run(&schedule(&job)).makespan;
        let basic_time = sim.run(&crate::rp::schedule(&job)).makespan;
        // The basic version is bottlenecked by the single delivery link; the
        // cyclic version spreads delivery over k-1 edge links.
        assert!(
            cyclic_time < 0.4 * basic_time,
            "cyclic {cyclic_time} vs basic {basic_time}"
        );
    }

    #[test]
    fn requestor_reads_from_k_minus_1_helpers() {
        let block = 4 * MIB;
        let layout = SliceLayout::new(block, 256 * 1024);
        let job = SingleRepairJob::new(vec![1, 2, 3, 4, 5], 0, layout);
        let sim = Simulator::new(Topology::flat(7, GBIT), CostModel::network_only());
        let report = sim.run(&schedule(&job));
        let delivery_links: Vec<_> = report
            .link_bytes
            .keys()
            .filter(|(_, dst)| *dst == 0)
            .collect();
        assert_eq!(delivery_links.len(), 4);
    }

    #[test]
    fn total_traffic_is_k_blocks_worth() {
        let block = 4 * MIB;
        let layout = SliceLayout::new(block, 256 * 1024);
        let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, layout);
        let sim = Simulator::new(Topology::flat(6, GBIT), CostModel::network_only());
        let report = sim.run(&schedule(&job));
        assert_eq!(report.network_bytes, 4 * block as u64);
    }

    #[test]
    fn single_helper_degenerate_case() {
        let layout = SliceLayout::new(MIB, 128 * 1024);
        let job = SingleRepairJob::new(vec![1], 0, layout);
        let sim = Simulator::new(Topology::flat(2, GBIT), CostModel::network_only());
        let report = sim.run(&schedule(&job));
        assert_eq!(report.network_bytes, MIB as u64);
    }
}
