//! The full failure menu through the `EcPipe` façade: prioritized,
//! concurrent, liveness-aware repair orchestration behind an object store.
//!
//! One builder call stands up a 14-node cluster with checksum-verifying
//! stores over a bandwidth-limited transport (every link throttled, so
//! repairs are network-bound like the paper's 1 Gb/s testbed). Client
//! threads then `get` objects while the runtime faces everything at once:
//! erased blocks (served by degraded reads, highest priority), a reported
//! node failure (background recovery of every affected stripe), a node
//! that dies *silently* (liveness strikes → declared dead → auto-enqueued
//! recovery), and silent bit-rot (injected corruption caught by a paced
//! scrub cycle, repaired in place, re-verified). Every read stays
//! byte-exact throughout. The same node failure is finally replayed on two
//! fresh daemons, one worker against four, to show the concurrency win.
//!
//! Run with `cargo run --release --example repair_daemon`.

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::ReedSolomon;
use repair_pipelining::ecpipe::manager::{ManagerConfig, RepairManager};
use repair_pipelining::ecpipe::transport::ChannelTransport;
use repair_pipelining::ecpipe::{
    Cluster, Coordinator, EcPipeBuilder, NodeHealth, ScrubConfig, StoreBackend,
};
use std::sync::Arc;

const NODES: usize = 14;
const BLOCK: usize = 64 * 1024;
const SLICE: usize = 8 * 1024;
/// Per-link bandwidth, so repairs are network-bound (like the paper's
/// testbed) and concurrency pays even on one core.
const LINK_RATE: u64 = 4 * 1024 * 1024;
/// Each object spans 4 (6,4) stripes.
const OBJECT: usize = 4 * 4 * BLOCK;
const OBJECTS: usize = 6;

fn object_bytes(seed: u64) -> Vec<u8> {
    (0..OBJECT)
        .map(|i| ((i as u64 * 31 + seed * 13 + 7) % 251) as u8)
        .collect()
}

fn main() {
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .store(StoreBackend::memory_checksummed(NODES))
        .rate_limit(LINK_RATE)
        .manager(ManagerConfig {
            workers: 4,
            per_node_inflight_cap: 3,
            dead_after_misses: 1,
            ..ManagerConfig::default()
        })
        .build()
        .expect("valid configuration");
    println!(
        "cluster: {NODES} nodes, {OBJECTS} objects of {} KiB over (6,4) stripes, \
         every link throttled to {} MiB/s",
        OBJECT / 1024,
        LINK_RATE / (1024 * 1024),
    );

    let originals: Vec<Vec<u8>> = (0..OBJECTS as u64).map(object_bytes).collect();
    let metas: Vec<_> = originals
        .iter()
        .enumerate()
        .map(|(i, data)| pipe.put(&format!("/objects/{i}"), data).expect("put"))
        .collect();

    // --- Degraded reads: erased blocks under concurrent client threads ----
    pipe.erase_block(metas[0].stripes[0], 1);
    pipe.erase_block(metas[1].stripes[2], 0);
    pipe.erase_block(metas[2].stripes[1], 3);

    // --- A reported node failure: background recovery of its stripes ------
    let failed_node = 2;
    let lost = pipe.kill_node(failed_node);
    let queued = pipe.report_node_failure(failed_node);
    println!(
        "node {failed_node} reported dead: {} blocks lost, {queued} repairs \
         queued behind the degraded reads",
        lost.len()
    );

    // --- A silent failure: node 7 dies but nobody tells the runtime -------
    // The first read that needs one of its blocks earns it a liveness
    // strike; with `dead_after_misses = 1` the manager declares the node
    // dead, re-plans around it and auto-enqueues its remaining stripes.
    let silent_node = 7;
    let silently_lost = pipe.kill_node(silent_node);

    // Clients keep reading while all of that is in flight — the handle is
    // `&self` throughout, so threads share it directly.
    std::thread::scope(|scope| {
        for (i, data) in originals.iter().enumerate() {
            let pipe = &pipe;
            scope.spawn(move || {
                let read = pipe.get(&format!("/objects/{i}")).expect("get succeeds");
                assert_eq!(read, *data, "object {i} must read back byte-exact");
            });
        }
    });
    println!("{OBJECTS} concurrent client reads returned byte-exact data mid-recovery");

    pipe.wait_idle();
    println!(
        "liveness after the dust settles: node {failed_node} = {:?}, node {silent_node} = {:?}",
        pipe.node_health(failed_node),
        pipe.node_health(silent_node),
    );
    assert_eq!(pipe.node_health(silent_node), NodeHealth::Dead);

    // --- Silent bit-rot: flipped bytes nobody reported ---------------------
    // Flip one byte in two blocks; the stored checksums go stale, so the
    // next scrub (or any helper read) convicts the block instead of serving
    // poisoned bytes.
    for (meta, index) in [(&metas[3], 1usize), (&metas[4], 3)] {
        pipe.corrupt(meta.stripes[0], index, 12345)
            .expect("inject corruption");
    }
    // One paced scrub cycle: walk every live node's blocks with a
    // token-bucket budget, enqueue corruption-class repairs (above
    // background recovery, below degraded reads), wait for them to drain
    // and re-verify the repaired blocks.
    let scrub = pipe.scrub(&ScrubConfig::default().with_rate(32 * 1024 * 1024));
    println!(
        "scrub cycle: {} blocks ({} KiB) verified in {:.3}s, {} corrupt found, \
         {} repaired+re-verified, {} still corrupt",
        scrub.blocks_scanned,
        scrub.bytes_scanned / 1024,
        scrub.duration.as_secs_f64(),
        scrub.corrupt.len(),
        scrub.reverified_clean,
        scrub.still_corrupt.len(),
    );
    assert!(scrub.still_corrupt.is_empty(), "scrub must heal all rot");

    // Every object still reads back byte-identical after the whole menu —
    // and the recovery must already be *complete*: these re-reads may not
    // trigger a single further repair (a get would transparently heal a
    // missed block, which would mask a broken recovery path, so pin the
    // transport byte counter instead).
    use repair_pipelining::ecpipe::transport::Transport;
    let repair_traffic_done = pipe.transport().total_bytes();
    for (i, data) in originals.iter().enumerate() {
        assert_eq!(pipe.get(&format!("/objects/{i}")).expect("get"), *data);
    }
    assert_eq!(
        pipe.transport().total_bytes(),
        repair_traffic_done,
        "recovery must have healed every block already — re-reads move no repair traffic"
    );
    println!(
        "verified all {OBJECTS} objects byte-exact after recovering {} blocks \
         (re-reads moved zero repair traffic)",
        lost.len() + silently_lost.len()
    );

    let report = pipe.shutdown();
    println!("\nmanager report:");
    println!(
        "  {} blocks ({} KiB) repaired in {:.3}s, {} re-plans, {} failures, {} KiB on the wire",
        report.blocks_repaired,
        report.bytes_repaired / 1024,
        report.wall_time.as_secs_f64(),
        report.replans,
        report.failed_repairs,
        report.network_bytes / 1024,
    );
    println!(
        "  queue wait: degraded reads mean {:.1} ms (n={}), corruption mean {:.1} ms (n={}), \
         background mean {:.1} ms (n={})",
        report.degraded_wait.mean().as_secs_f64() * 1e3,
        report.degraded_wait.count,
        report.corruption_wait.mean().as_secs_f64() * 1e3,
        report.corruption_wait.count,
        report.background_wait.mean().as_secs_f64() * 1e3,
        report.background_wait.count,
    );
    println!(
        "  scrubbing: {} blocks verified over {} cycle(s), {} corruption(s) detected",
        report.blocks_scrubbed(),
        report.scrub_cycles.len(),
        report.corruption_detected(),
    );
    println!(
        "  per-node peak in-flight roles: max {} (cap was 3)",
        report.max_inflight()
    );
    let mut load: Vec<_> = report.node_load.iter().map(|(&n, &c)| (n, c)).collect();
    load.sort();
    println!("  per-node load histogram (repairs served):");
    for (node, count) in load {
        println!("    node {node:>2}: {}", "#".repeat(count));
    }

    // --- The same node failure: one worker vs the concurrent pool ---------
    // This comparison needs two identical fresh clusters, so it drops to
    // the daemon the façade wraps.
    let recover = |config: ManagerConfig| {
        let (coordinator, cluster) = stripes_for_comparison();
        cluster.kill_node(failed_node);
        let transport = ChannelTransport::with_rate_limit(LINK_RATE);
        let manager = RepairManager::start(coordinator, cluster, transport, config);
        manager.report_node_failure(failed_node);
        manager.wait_idle();
        let report = manager.shutdown();
        assert_eq!(
            report.failed_repairs, 0,
            "recovery failed: {:?}",
            report.failures
        );
        report
    };
    let sequential = recover(ManagerConfig::default().with_workers(1));
    let concurrent = recover(
        ManagerConfig::default()
            .with_workers(4)
            .with_inflight_cap(3),
    );
    println!(
        "\nrecovering node {failed_node} again on a fresh cluster, same throttled transport:\n\
         \x20 daemon with 1 worker:           {} blocks in {:.3}s\n\
         \x20 daemon with 4 workers (cap 3):  {} blocks in {:.3}s  ({:.1}x faster)",
        sequential.blocks_repaired,
        sequential.wall_time.as_secs_f64(),
        concurrent.blocks_repaired,
        concurrent.wall_time.as_secs_f64(),
        sequential.wall_time.as_secs_f64() / concurrent.wall_time.as_secs_f64().max(1e-9),
    );
    println!("repair_daemon finished");
}

/// A 24-stripe cluster for the one-worker-vs-four replay, stripes
/// confined to nodes 0..12, so nodes 12 and 13 start as spares of every
/// stripe.
fn stripes_for_comparison() -> (Coordinator, Cluster) {
    let code = Arc::new(ReedSolomon::new(6, 4).expect("valid parameters"));
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory(NODES)).expect("cluster builds");
    for s in 0..24u64 {
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                (0..BLOCK)
                    .map(|b| ((b as u64 * 31 + i as u64 * 7 + s * 13) % 251) as u8)
                    .collect()
            })
            .collect();
        let placement: Vec<usize> = (0..6).map(|i| (s as usize + i) % 12).collect();
        cluster
            .write_stripe_with_placement(coordinator.code(), s, &data, placement)
            .expect("stripe written");
    }
    (coordinator, cluster)
}
