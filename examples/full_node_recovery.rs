//! Full-node recovery: lose a storage node, rebuild every block it held.
//!
//! Demonstrates the greedy least-recently-selected helper scheduling of §3.3
//! and the effect of spreading the reconstructed blocks over multiple
//! requestors — functionally through the `EcPipe` façade (report the
//! failure, wait, read the objects back byte-exact) and in predicted
//! recovery rate on the simulator.
//!
//! Run with `cargo run --release --example full_node_recovery`.

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecpipe::{EcPipeBuilder, Scheme, StoreBackend};
use repair_pipelining::repair::fullnode::{
    build_recovery_schedule, plan_recovery, recovery_rate, AffectedStripe, HelperSelection,
};
use repair_pipelining::simnet::{CostModel, Simulator, Topology, GBIT};

fn main() {
    // --- Functional recovery on the runtime -------------------------------
    let pipe = EcPipeBuilder::new()
        .code(9, 6)
        .block_size(256 * 1024)
        .slice_size(32 * 1024)
        .store(StoreBackend::memory(12))
        .strategy(Scheme::RepairPipelining)
        .build()
        .expect("valid configuration");

    // Four objects of four (9,6) stripes each.
    let originals: Vec<Vec<u8>> = (0..4u64)
        .map(|o| {
            (0..4 * 6 * 256 * 1024)
                .map(|b| ((b as u64 * 7 + o * 13) % 251) as u8)
                .collect()
        })
        .collect();
    for (o, data) in originals.iter().enumerate() {
        pipe.put(&format!("/objects/{o}"), data).expect("put");
    }

    let failed_node = 2;
    let lost = pipe.kill_node(failed_node);
    println!("node {failed_node} failed, losing {} blocks", lost.len());

    let queued = pipe.report_node_failure(failed_node);
    pipe.wait_idle();
    for (o, data) in originals.iter().enumerate() {
        assert_eq!(pipe.get(&format!("/objects/{o}")).expect("get"), *data);
    }
    let report = pipe.shutdown();
    println!(
        "recovered {queued} blocks ({} bytes total) across surviving nodes; \
         all objects read back byte-exact",
        report.bytes_repaired,
    );

    // --- Predicted recovery rate on the paper's testbed -------------------
    let stripes: Vec<AffectedStripe> = (0..64)
        .map(|i| AffectedStripe {
            available_nodes: (0..13).map(|j| 1 + (i * 5 + j * 3) % 16).fold(
                Vec::new(),
                |mut acc, n| {
                    if !acc.contains(&n) {
                        acc.push(n);
                    }
                    acc
                },
            ),
        })
        .map(|mut s| {
            let mut next = 1;
            while s.available_nodes.len() < 13 {
                if !s.available_nodes.contains(&next) {
                    s.available_nodes.push(next);
                }
                next += 1;
            }
            s
        })
        .collect();
    let sim = Simulator::new(Topology::flat(40, GBIT), CostModel::paper_local_cluster());
    let sim_layout = SliceLayout::new(4 * 1024 * 1024, 64 * 1024);

    println!("\npredicted full-node recovery rate (64 stripes of 4 MiB blocks, (14,10)):");
    for (label, requestors, selection) in [
        ("1 requestor ", vec![20usize], HelperSelection::Greedy),
        ("8 requestors", (20..28).collect(), HelperSelection::Greedy),
        (
            "8 requestors (no scheduling)",
            (20..28).collect(),
            HelperSelection::LowestIndex,
        ),
    ] {
        let jobs =
            plan_recovery(&stripes, 10, &requestors, sim_layout, selection).expect("recovery plan");
        let schedule = build_recovery_schedule(&jobs, |job| Scheme::RepairPipelining.schedule(job));
        let rate = recovery_rate(&jobs, sim.run(&schedule).makespan);
        println!("  {label}: {:.1} MiB/s", rate / (1024.0 * 1024.0));
    }
}
