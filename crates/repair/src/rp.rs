//! Repair pipelining over a linear path (§3.2), plus the baseline
//! implementations compared in §6.4 (`Pipe-B`, `Pipe-S`).
//!
//! The helpers are arranged as a linear path
//! `helpers[0] -> helpers[1] -> ... -> helpers[k-1] -> requestor`. The failed
//! block is repaired in `s` slices: helper `i` combines the partial slice it
//! receives with its own slice and forwards the new partial slice downstream.
//! Transfers of different slices over different links proceed in parallel, so
//! the repair time approaches a single timeslot (`1 + (k-1)/s`).
//!
//! `RP` and `Pipe-B` are [`Scheme::RepairPipelining`](crate::Scheme) and
//! [`Scheme::BlockPipeline`](crate::Scheme): the job's
//! [`RepairDag::chain`](crate::RepairDag::chain), `Pipe-B`'s with one slice
//! per block, so only one link is active at a time and the repair takes `k`
//! timeslots. `Pipe-S` is written out here by hand: it is the same chain run
//! by a serialised *helper implementation*, which is a property of the
//! helper's code and not of the plan's shape, so no `RepairDag` says it.

use simnet::{Schedule, TaskId};

use crate::SingleRepairJob;

/// Builds the serialised slice-level baseline (`Pipe-S`): slices are
/// pipelined along the path, but each helper performs the per-slice
/// sub-operations (receive, read, compute, send) strictly one after another,
/// so receiving slice `j+1` cannot overlap with sending slice `j`.
pub fn schedule_pipe_s(job: &SingleRepairJob) -> Schedule {
    let mut s = Schedule::new();
    let slices = job.slice_count();
    let k = job.k();
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

    // outgoing[i][j]: the transfer of slice j from helper i to the next node.
    // Used to chain the pipeline and to force the per-helper handshake.
    let mut outgoing: Vec<Vec<Option<TaskId>>> = vec![vec![None; slices]; k];

    // Tasks are emitted in wavefront order (diagonal d = slice index + hop
    // index), which is the order a full pipeline actually executes them.
    for d in 0..(slices + k - 1) {
        // Within a wave, hops are emitted in descending order so that the
        // handshake partner (hop i+1 of the previous slice, which shares
        // this wave) already exists.
        for i in (0..k).rev() {
            let Some(j) = d.checked_sub(i) else { continue };
            if j >= slices {
                continue;
            }
            let slice_len = job.layout.slice_len(j) as u64;
            let node = job.helpers[i];
            let next = if i + 1 < k {
                job.helpers[i + 1]
            } else {
                job.requestor
            };
            // Combine the received partial slice (if any) with the local
            // slice.
            let mut deps = vec![disk[i][j]];
            if i > 0 {
                let incoming = outgoing[i - 1][j].expect("upstream hop emitted in earlier wave");
                deps.push(incoming);
            }
            let combine = s.compute(node, slice_len, &deps);
            let mut transfer_deps = vec![combine];
            if j > 0 && i + 1 < k {
                // The downstream helper runs its per-slice sub-operations
                // strictly in series, so it only accepts slice j after it has
                // finished forwarding slice j-1.
                if let Some(downstream_prev) = outgoing[i + 1][j - 1] {
                    transfer_deps.push(downstream_prev);
                }
            }
            let t = s.transfer(node, next, slice_len, &transfer_deps);
            outgoing[i][j] = Some(t);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analysis, Scheme};
    use ecc::slice::SliceLayout;
    use simnet::{CostModel, Simulator, Topology, GBIT};

    const MIB: usize = 1024 * 1024;

    fn sim(nodes: usize) -> Simulator {
        Simulator::new(Topology::flat(nodes, GBIT), CostModel::network_only())
    }

    #[test]
    fn approaches_one_timeslot() {
        let block = 64 * MIB;
        let job = SingleRepairJob::new((1..=10).collect(), 0, SliceLayout::new(block, 32 * 1024));
        let report = sim(12).run(&Scheme::RepairPipelining.schedule(&job));
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        let expected = analysis::rp_single(10, 2048) * timeslot;
        assert!(
            (report.makespan - expected).abs() / expected < 0.02,
            "makespan {} vs expected {}",
            report.makespan,
            expected
        );
        // Within 1% of the normal read time for a single block.
        assert!(report.makespan < 1.01 * timeslot);
    }

    #[test]
    fn repair_time_is_independent_of_k() {
        let block = 16 * MIB;
        let layout = SliceLayout::new(block, 32 * 1024);
        let times: Vec<f64> = [6usize, 10, 12]
            .iter()
            .map(|&k| {
                let job = SingleRepairJob::new((1..=k).collect(), 0, layout);
                sim(k + 2)
                    .run(&Scheme::RepairPipelining.schedule(&job))
                    .makespan
            })
            .collect();
        // The (k-1)/s term changes the repair time by well under 3% across
        // this range of k (s = 512 slices here).
        let spread = (times[2] - times[0]).abs() / times[0];
        assert!(
            spread < 0.03,
            "repair time should not grow with k: {times:?}"
        );
    }

    #[test]
    fn no_link_carries_more_than_one_block() {
        let block = 8 * MIB;
        let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, SliceLayout::new(block, 256 * 1024));
        let report = sim(6).run(&Scheme::RepairPipelining.schedule(&job));
        assert_eq!(report.network_bytes, 4 * block as u64);
        assert_eq!(report.max_link_bytes, block as u64);
        assert_eq!(report.links_used(), 4);
        assert!((report.link_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matches_formula_for_few_slices() {
        // With s = 4 slices the (k-1)/s term is large and must be visible.
        let block = 4 * MIB;
        let job = SingleRepairJob::new(vec![1, 2, 3, 4, 5], 0, SliceLayout::new(block, MIB));
        let report = sim(8).run(&Scheme::RepairPipelining.schedule(&job));
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        let expected = analysis::rp_single(5, 4) * timeslot;
        assert!((report.makespan - expected).abs() / expected < 0.01);
    }

    #[test]
    fn pipe_b_takes_k_timeslots() {
        let block = 16 * MIB;
        let job = SingleRepairJob::new((1..=6).collect(), 0, SliceLayout::new(block, 32 * 1024));
        let report = sim(8).run(&Scheme::BlockPipeline.schedule(&job));
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        let expected = analysis::pipe_b_single(6) * timeslot;
        assert!((report.makespan - expected).abs() / expected < 0.01);
    }

    #[test]
    fn pipe_s_is_about_twice_rp() {
        let block = 16 * MIB;
        let layout = SliceLayout::new(block, 32 * 1024);
        let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
        let rp_time = sim(12)
            .run(&Scheme::RepairPipelining.schedule(&job))
            .makespan;
        let pipe_s_time = sim(12).run(&schedule_pipe_s(&job)).makespan;
        let ratio = pipe_s_time / rp_time;
        assert!(
            ratio > 1.6 && ratio < 2.4,
            "Pipe-S should be roughly 2x slower than RP, got {ratio}"
        );
    }

    #[test]
    fn ordering_of_schemes_matches_paper() {
        // RP < PPR < Pipe-B ~= conventional on a homogeneous network.
        let block = 32 * MIB;
        let layout = SliceLayout::new(block, 64 * 1024);
        let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
        let s = sim(12);
        let rp_time = s.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
        let ppr_time = s.run(&Scheme::Ppr.schedule(&job)).makespan;
        let conv_time = s.run(&Scheme::Conventional.schedule(&job)).makespan;
        let pipe_b_time = s.run(&Scheme::BlockPipeline.schedule(&job)).makespan;
        assert!(rp_time < ppr_time);
        assert!(ppr_time < conv_time);
        assert!((pipe_b_time - conv_time).abs() / conv_time < 0.05);
    }
}
