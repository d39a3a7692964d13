//! Degraded reads through the `EcPipe` façade.
//!
//! Writes an object into an erasure-coded cluster, makes one of its blocks
//! unavailable, and reads the object back — once with conventional repair
//! (the requestor pulls `k` blocks, as a storage system's own repair does)
//! and once with repair pipelining — then prints the §3.2 prediction of
//! each approach's single-block repair time at the paper's scale.
//!
//! Run with `cargo run --release --example degraded_read`.

use std::collections::HashMap;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecpipe::{EcPipeBuilder, Scheme, StoreBackend};
use repair_pipelining::repair::analysis::{conventional_single, rp_single, timeslot_seconds};
use repair_pipelining::simnet::GBIT;

fn main() {
    // Small blocks so the example runs in milliseconds; the prediction below
    // uses the paper's 64 MiB blocks.
    let block = 256 * 1024;
    let data: Vec<u8> = (0..3 * 10 * block).map(|i| (i % 251) as u8).collect();

    for strategy in [Scheme::Conventional, Scheme::RepairPipelining] {
        let pipe = EcPipeBuilder::new()
            .code(14, 10)
            .block_size(block)
            .slice_size(32 * 1024)
            .store(StoreBackend::memory(16))
            .strategy(strategy)
            .build()
            .expect("valid configuration");
        let meta = pipe.put("/logs/day-001", &data).expect("object written");

        // A data block becomes unavailable (e.g. its node is rebooting); the
        // read still succeeds, through a degraded read.
        pipe.erase_block(meta.stripes[0], 4);
        assert_eq!(pipe.get("/logs/day-001").expect("degraded read"), data);

        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 1);
        // Conventional repair funnels all k blocks into the requestor's
        // downlink; repair pipelining sends one block into every node.
        let mut into_node: HashMap<usize, u64> = HashMap::new();
        for (&(_, dst), &bytes) in &report.link_bytes {
            *into_node.entry(dst).or_default() += bytes;
        }
        let busiest = into_node.values().max().copied().unwrap_or(0);
        println!(
            "{strategy:<6} read {} bytes ({} stripes) with block 4 of stripe 0 erased: \
             {} KiB moved, at most {} KiB into one node",
            meta.size,
            meta.stripes.len(),
            report.network_bytes / 1024,
            busiest / 1024,
        );
    }

    // Predicted single-block repair time at the paper's scale: (14,10),
    // 64 MiB blocks in 32 KiB slices, 1 Gb/s links.
    let layout = SliceLayout::paper_default();
    let (k, s) = (10, layout.slice_count());
    let timeslot = timeslot_seconds(layout.block_size, GBIT);
    println!("\npredicted degraded-read latency for a 64 MiB block ((14,10), 1 Gb/s, §3.2):");
    for (strategy, timeslots) in [
        (Scheme::Conventional, conventional_single(k)),
        (Scheme::RepairPipelining, rp_single(k, s)),
    ] {
        println!(
            "  {strategy:<6} {timeslots:.3} timeslots = {:.2} s",
            timeslots * timeslot
        );
    }
}
