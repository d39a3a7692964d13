//! Figure 9: evaluation on the geo-distributed Amazon EC2 clusters (§6.2).
//!
//! Two clusters (North America and Asia) of 16 helpers each — four per
//! region — seeded with the paper's Table 1 bandwidth measurements. A
//! degraded read is issued from a requestor hosted in each region and the
//! single-block repair time is reported for PPR, repair pipelining with a
//! random path, and repair pipelining with the optimal path of Algorithm 2.
//! Run with `cargo run --release -p ecpipe-bench --bin fig9`.

use ecc::slice::SliceLayout;
use ecpipe_bench::*;
use repair::{weighted_path, Scheme, SingleRepairJob};
use simnet::geo;
use simnet::{CostModel, Simulator, Topology};

fn main() {
    run_cluster(
        "North America",
        geo::north_america(4),
        &geo::NORTH_AMERICA_REGIONS,
    );
    run_cluster("Asia", geo::asia(4), &geo::ASIA_REGIONS);
}

fn run_cluster(name: &str, base: Topology, regions: &[&str; 4]) {
    header(
        &format!("Figure 9 ({name})"),
        "single-block repair time (s) vs requestor region ((16,12), 64 MiB, 32 KiB slices)",
    );
    let layout = SliceLayout::new(DEFAULT_BLOCK, DEFAULT_SLICE);

    for (region_index, region_name) in regions.iter().enumerate() {
        // Bandwidth fluctuates between runs (§6.2); average over a few seeds.
        let runs = 5u64;
        let mut ppr_total = 0.0;
        let mut rp_total = 0.0;
        let mut opt_total = 0.0;
        for seed in 0..runs {
            let topo = geo::with_fluctuation(&base, 0.2, seed * 7 + region_index as u64);
            let sim = Simulator::new(topo.clone(), CostModel::ec2_t2_micro());
            // The requestor is the first instance of the region; the stripe's
            // 16 blocks sit on the 16 instances, so the failed block is the
            // requestor's own block and the other 15 nodes are candidates.
            let requestor = region_index * 4;
            let candidates: Vec<usize> = (0..16).filter(|&n| n != requestor).collect();

            // Random (index-ordered) path over the first k candidates.
            let random_path: Vec<usize> = candidates.iter().copied().take(12).collect();
            let job = SingleRepairJob::new(random_path, requestor, layout);
            ppr_total += sim.run(&Scheme::Ppr.schedule(&job)).makespan;
            rp_total += sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;

            // Optimal path via Algorithm 2 on the measured link weights.
            let selection = weighted_path::optimal_path(&topo, requestor, &candidates, 12)
                .expect("enough candidates for (16,12)");
            let opt_job = SingleRepairJob::new(selection.path, requestor, layout);
            opt_total += sim
                .run(&Scheme::RepairPipelining.schedule(&opt_job))
                .makespan;
        }
        row(
            region_name,
            &[
                ("PPR", ppr_total / runs as f64),
                ("RP", rp_total / runs as f64),
                ("RP+optimal", opt_total / runs as f64),
            ],
        );
    }
    println!();
}
