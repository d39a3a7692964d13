//! Geo-distributed repair with weighted path selection (§4.3, Figure 9).
//!
//! Builds the paper's North America EC2 cluster from the Table 1 bandwidth
//! measurements, issues a degraded read from a requestor in each region, and
//! compares repair pipelining over a random helper path against the optimal
//! path found by Algorithm 2.
//!
//! Run with `cargo run --release --example geo_repair`.

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::repair::{weighted_path, Scheme, SingleRepairJob};
use repair_pipelining::simnet::geo;
use repair_pipelining::simnet::{CostModel, Simulator};

fn main() {
    let layout = SliceLayout::paper_default();
    let base = geo::north_america(4);

    println!("North America EC2 cluster, (16,12) RS, 64 MiB blocks:");
    for (region_index, region) in geo::NORTH_AMERICA_REGIONS.iter().enumerate() {
        let topo = geo::with_fluctuation(&base, 0.2, region_index as u64 + 1);
        let sim = Simulator::new(topo.clone(), CostModel::ec2_t2_micro());
        let requestor = region_index * 4;
        let candidates: Vec<usize> = (0..16).filter(|&n| n != requestor).collect();

        // A random (index-ordered) path of 12 helpers.
        let random_path: Vec<usize> = candidates.iter().copied().take(12).collect();
        let random_job = SingleRepairJob::new(random_path, requestor, layout);
        let ppr_time = sim.run(&Scheme::Ppr.schedule(&random_job)).makespan;
        let rp_time = sim
            .run(&Scheme::RepairPipelining.schedule(&random_job))
            .makespan;

        // The optimal path minimising the bottleneck link weight.
        let selection = weighted_path::optimal_path(&topo, requestor, &candidates, 12)
            .expect("15 candidates is enough for k = 12");
        let optimal_job = SingleRepairJob::new(selection.path.clone(), requestor, layout);
        let optimal_time = sim
            .run(&Scheme::RepairPipelining.schedule(&optimal_job))
            .makespan;

        println!(
            "  requestor in {region:<10}  PPR {ppr_time:6.1} s   RP {rp_time:6.1} s   RP+optimal {optimal_time:6.1} s"
        );
        println!(
            "    optimal path bottleneck bandwidth: {:.1} Mb/s",
            8.0 / selection.bottleneck_weight / 1e6
        );
    }
}
