//! Quickstart: the `EcPipe` façade end to end — build a runtime with
//! `EcPipeBuilder`, `put` an object, survive an erased block, a killed node
//! and silent bit-rot, and read the object back byte-exact every time.
//!
//! Run with `cargo run --release --example quickstart`.

use repair_pipelining::ecpipe::{EcPipeBuilder, Scheme, ScrubConfig, StoreBackend};

fn main() {
    // A 16-node cluster with checksum-verifying in-memory stores, Facebook's
    // (14,10) Reed-Solomon code, 256 KiB blocks in 32 KiB slices, repairs
    // executed with repair pipelining. One builder call replaces the old
    // Cluster + Coordinator + RepairManager wiring.
    let pipe = EcPipeBuilder::new()
        .code(14, 10)
        .block_size(256 * 1024)
        .slice_size(32 * 1024)
        .store(StoreBackend::memory_checksummed(16))
        .strategy(Scheme::RepairPipelining)
        .build()
        .expect("valid configuration");

    // Write an object spanning several stripes (deliberately unaligned).
    let data: Vec<u8> = (0..2 * 10 * 256 * 1024 + 12345)
        .map(|i| ((i * 31 + 7) % 251) as u8)
        .collect();
    let meta = pipe.put("/objects/demo", &data).expect("object written");
    println!(
        "put {} ({} bytes) as {} stripes of (14,10) coded blocks",
        meta.name,
        meta.size,
        meta.stripes.len()
    );

    // --- An erased block: the read transparently becomes a degraded read --
    pipe.erase_block(meta.stripes[0], 3);
    assert_eq!(pipe.get("/objects/demo").expect("degraded read"), data);
    println!("erased block 3 of stripe 0: get() still returned every byte");

    // --- A whole node dies: background recovery + degraded reads ----------
    let victim = 2;
    let lost = pipe.kill_node(victim);
    let queued = pipe.report_node_failure(victim);
    assert_eq!(
        pipe.get("/objects/demo").expect("read during recovery"),
        data
    );
    pipe.wait_idle();
    println!(
        "killed node {victim} ({} blocks lost, {queued} repairs queued): \
         get() served during recovery, byte-exact",
        lost.len()
    );

    // --- Silent bit-rot: a scrub finds it, a range read heals through it --
    pipe.corrupt(meta.stripes[1], 1, 4096)
        .expect("inject corruption");
    let range = 10 * 256 * 1024 + 256 * 1024 + 4000..10 * 256 * 1024 + 256 * 1024 + 5000;
    let bytes = pipe
        .get_range("/objects/demo", range.clone())
        .expect("range read over the corrupt chunk");
    assert_eq!(bytes, &data[range]);
    let scrub = pipe.scrub(&ScrubConfig::default());
    println!(
        "flipped a byte in stripe 1: the range read healed it in place \
         (scrub re-verified {} blocks, {} still corrupt)",
        scrub.blocks_scanned,
        scrub.still_corrupt.len()
    );

    let report = pipe.shutdown();
    println!(
        "shutdown report: {} blocks repaired ({} re-plans, {} failures), \
         {} KiB moved for repairs",
        report.blocks_repaired,
        report.replans,
        report.failed_repairs,
        report.network_bytes / 1024
    );
    assert_eq!(report.failed_repairs, 0);
    println!("quickstart finished: every read was byte-exact");
}
