//! Shared helpers for the figure-reproduction binaries.
//!
//! Each binary in `src/bin` regenerates one figure family of the paper's
//! evaluation (Figures 8-11 plus the Algorithm 2 search-time comparison) by
//! building the corresponding repair schedules and timing them on the
//! `simnet` simulator. The helpers here set up the paper's default testbed
//! (16 storage nodes plus a requestor on 1 Gb/s links, 64 MiB blocks,
//! 32 KiB slices, (14,10) RS codes) and print the series in a uniform
//! tabular format so the output can be compared against the paper's plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecc::slice::SliceLayout;
use repair::{Scheme, SingleRepairJob};
use simnet::{CostModel, Simulator, Topology};

/// One mebibyte.
pub const MIB: usize = 1024 * 1024;
/// One kibibyte.
pub const KIB: usize = 1024;

/// The paper's default block size (64 MiB).
pub const DEFAULT_BLOCK: usize = 64 * MIB;
/// The paper's default slice size (32 KiB).
pub const DEFAULT_SLICE: usize = 32 * KIB;

/// The local-cluster simulator of §6.1: 16 helpers + coordinator + requestor
/// machines on a 1 Gb/s switch, with the measured disk/CPU/request overheads.
pub fn local_cluster(bandwidth: f64) -> Simulator {
    Simulator::new(
        Topology::flat(18, bandwidth),
        CostModel::paper_local_cluster(),
    )
}

/// A single-block repair job on the local cluster: helpers are nodes
/// `1..=k`, the requestor is node 0.
pub fn single_job(k: usize, block_size: usize, slice_size: usize) -> SingleRepairJob {
    SingleRepairJob::new(
        (1..=k).collect(),
        0,
        SliceLayout::new(block_size, slice_size),
    )
}

/// Runs one single-block repair under a scheme and returns the repair time in
/// seconds.
pub fn single_repair_time(
    sim: &Simulator,
    scheme: Scheme,
    k: usize,
    block_size: usize,
    slice_size: usize,
) -> f64 {
    let job = single_job(k, block_size, slice_size);
    sim.run(&scheme.schedule(&job)).makespan
}

/// The time to directly send one block over one link of the given simulator
/// (the "direct send" baseline of Figure 8(a), i.e. the normal read time for
/// a single available block). The disk read is streamed slice by slice so it
/// overlaps with the transfer, as a normal read does.
pub fn direct_send_time(sim: &Simulator, block_size: usize) -> f64 {
    let layout = SliceLayout::new(block_size, DEFAULT_SLICE);
    let mut schedule = simnet::Schedule::new();
    for j in 0..layout.slice_count() {
        let len = layout.slice_len(j) as u64;
        let read = schedule.disk_read(1, len, &[]);
        schedule.transfer(1, 0, len, &[read]);
    }
    sim.run(&schedule).makespan
}

pub mod results;
pub mod timing;

/// Prints a figure header.
pub fn header(figure: &str, description: &str) {
    println!("================================================================");
    println!("{figure}: {description}");
    println!("================================================================");
}

/// Prints one series row: an x value and `(label, value)` pairs. Labels are
/// anything `Display` — `&str`, or scheme/strategy enums directly.
pub fn row(x: &str, values: &[(impl std::fmt::Display, f64)]) {
    print!("{x:>16}");
    for (label, value) in values {
        print!("  {label}={value:<10.3}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::GBIT;

    #[test]
    fn direct_send_matches_wire_time() {
        let sim = local_cluster(GBIT);
        let t = direct_send_time(&sim, DEFAULT_BLOCK);
        // 64 MiB over 1 Gb/s is ~0.54 s; disk read overlaps are charged too,
        // so allow some slack.
        assert!(t > 0.5 && t < 1.0, "direct send {t}");
    }

    #[test]
    fn default_job_matches_paper_parameters() {
        let job = single_job(10, DEFAULT_BLOCK, DEFAULT_SLICE);
        assert_eq!(job.k(), 10);
        assert_eq!(job.slice_count(), 2048);
    }

    #[test]
    fn rp_close_to_direct_send_on_default_setup() {
        let sim = local_cluster(GBIT);
        let rp = single_repair_time(
            &sim,
            Scheme::RepairPipelining,
            10,
            DEFAULT_BLOCK,
            DEFAULT_SLICE,
        );
        let direct = direct_send_time(&sim, DEFAULT_BLOCK);
        // §6.1: the repair-pipelining time is only ~8.8% above direct send.
        assert!(rp < 1.25 * direct, "rp {rp} direct {direct}");
    }
}
