//! Multi-block repair of `f` failed blocks in one stripe (§4.4).
//!
//! All `f` failed blocks are reconstructed from the same `k` helpers, so each
//! helper reads its local block once and, per slice offset, forwards `f`
//! partial slices (one per failed block) down the linear path. The last
//! helper reconstructs the `f` slices and delivers each to its requestor.
//! The repair time approaches `f` timeslots, always better than conventional
//! repair's `k + f - 1`.
//!
//! The pipelined schedules are the job's [`RepairDag`](crate::RepairDag)
//! (the `f`-row chain), lowered by
//! [`RepairDag::schedule`](crate::RepairDag::schedule). The conventional one
//! is written out here by hand: its second phase, the dedicated requestor
//! redistributing `f - 1` decoded blocks, is a hop no `RepairDag` shape has.

use ecc::slice::SliceLayout;
use simnet::{Schedule, TaskId};

use crate::MultiRepairJob;

/// Builds the repair-pipelining multi-block schedule (§4.4, Figure 6).
pub fn schedule_rp(job: &MultiRepairJob) -> Schedule {
    job.dag().schedule()
}

/// Builds the conventional multi-block schedule (§2.2): one dedicated
/// requestor reads `k` whole blocks, reconstructs everything, and ships the
/// remaining `f - 1` reconstructed blocks to the other requestors
/// (`k + f - 1` timeslots).
#[allow(clippy::needless_range_loop)] // slice/helper loops index disk[i][j]
pub fn schedule_conventional(job: &MultiRepairJob) -> Schedule {
    let mut s = Schedule::new();
    let slices = job.layout.slice_count();
    let k = job.k();
    let dedicated = job.requestors[0];

    let disk: Vec<Vec<TaskId>> = job
        .helpers
        .iter()
        .map(|&h| {
            (0..slices)
                .map(|j| s.disk_read(h, job.layout.slice_len(j) as u64, &[]))
                .collect()
        })
        .collect();

    // Phase 1: the dedicated requestor fetches k blocks and decodes.
    let mut decoded: Vec<TaskId> = Vec::with_capacity(slices);
    for j in 0..slices {
        let slice_len = job.layout.slice_len(j) as u64;
        let mut arrivals = Vec::with_capacity(k);
        for (i, &h) in job.helpers.iter().enumerate() {
            arrivals.push(s.transfer(h, dedicated, slice_len, &[disk[i][j]]));
        }
        decoded.push(s.compute(dedicated, slice_len * k as u64, &arrivals));
    }

    // Phase 2: ship the f - 1 other reconstructed blocks to their requestors.
    // The dedicated requestor only starts redistributing once it has decoded
    // the whole stripe (the block-synchronous behaviour the paper's
    // `k + f - 1` timeslot analysis assumes).
    let barrier = s.compute(dedicated, 0, &decoded);
    for &r in &job.requestors[1..] {
        for j in 0..slices {
            let slice_len = job.layout.slice_len(j) as u64;
            s.transfer(dedicated, r, slice_len, &[barrier]);
        }
    }
    s
}

/// Builds the naive block-level multi-block pipeline of §4.4 (no slicing):
/// each helper forwards a bundle of `f` whole partial blocks — the chain
/// with one slice per block — taking `f * k` timeslots, worse than
/// conventional repair; kept as the cautionary baseline the paper describes.
pub fn schedule_naive_pipeline(job: &MultiRepairJob) -> Schedule {
    let block = job.layout.block_size;
    let whole_blocks = MultiRepairJob {
        layout: SliceLayout::new(block, block),
        ..job.clone()
    };
    whole_blocks.dag().schedule()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use ecc::slice::SliceLayout;
    use simnet::{CostModel, Simulator, Topology, GBIT};

    const MIB: usize = 1024 * 1024;

    fn job(k: usize, f: usize, block: usize, slice: usize) -> MultiRepairJob {
        MultiRepairJob::new(
            (1..=k).collect(),
            (100..100 + f).collect(),
            SliceLayout::new(block, slice),
        )
    }

    fn sim(nodes: usize) -> Simulator {
        Simulator::new(Topology::flat(nodes, GBIT), CostModel::network_only())
    }

    #[test]
    fn rp_multi_approaches_f_timeslots() {
        let block = 32 * MIB;
        for f in 1..=4 {
            let j = job(10, f, block, 32 * 1024);
            let report = sim(110).run(&schedule_rp(&j));
            let timeslot = analysis::timeslot_seconds(block, GBIT);
            let expected = analysis::rp_multi(10, j.layout.slice_count(), f) * timeslot;
            assert!(
                (report.makespan - expected).abs() / expected < 0.03,
                "f={f}: {} vs {}",
                report.makespan,
                expected
            );
        }
    }

    #[test]
    fn conventional_multi_is_k_plus_f_minus_1_timeslots() {
        let block = 32 * MIB;
        for f in 1..=4 {
            let j = job(10, f, block, MIB);
            let report = sim(110).run(&schedule_conventional(&j));
            let timeslot = analysis::timeslot_seconds(block, GBIT);
            let expected = analysis::conventional_multi(10, f) * timeslot;
            assert!(
                (report.makespan - expected).abs() / expected < 0.03,
                "f={f}: {} vs {}",
                report.makespan,
                expected
            );
        }
    }

    #[test]
    fn rp_always_beats_conventional_for_multi_block() {
        let block = 16 * MIB;
        for f in 1..=4 {
            let j = job(10, f, block, 64 * 1024);
            let rp_time = sim(110).run(&schedule_rp(&j)).makespan;
            let conv_time = sim(110).run(&schedule_conventional(&j)).makespan;
            assert!(rp_time < conv_time, "f={f}");
        }
    }

    #[test]
    fn naive_pipeline_is_worse_than_conventional() {
        let block = 16 * MIB;
        let j = job(10, 3, block, 64 * 1024);
        let naive_time = sim(110).run(&schedule_naive_pipeline(&j)).makespan;
        let conv_time = sim(110).run(&schedule_conventional(&j)).makespan;
        assert!(naive_time > conv_time);
        let timeslot = analysis::timeslot_seconds(block, GBIT);
        let expected = analysis::naive_pipeline_multi(10, 3) * timeslot;
        let measured = sim(110).run(&schedule_naive_pipeline(&j)).makespan;
        assert!((measured - expected).abs() / expected < 0.05);
    }

    #[test]
    fn rp_multi_repair_time_grows_linearly_with_f() {
        let block = 16 * MIB;
        let t1 = sim(110)
            .run(&schedule_rp(&job(10, 1, block, 64 * 1024)))
            .makespan;
        let t4 = sim(110)
            .run(&schedule_rp(&job(10, 4, block, 64 * 1024)))
            .makespan;
        let ratio = t4 / t1;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn each_helper_link_carries_f_blocks() {
        let block = 4 * MIB;
        let j = job(4, 2, block, 256 * 1024);
        let report = sim(110).run(&schedule_rp(&j));
        // Inter-helper links carry f * block bytes; delivery links carry one
        // block each.
        let inter = report.link_bytes.get(&(1, 2)).copied().unwrap_or(0);
        assert_eq!(inter, 2 * block as u64);
        let delivery = report.link_bytes.get(&(4, 100)).copied().unwrap_or(0);
        assert_eq!(delivery, block as u64);
    }
}
