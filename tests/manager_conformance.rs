//! Conformance suite for the repair manager: concurrent-repair correctness
//! over both transport backends.
//!
//! Generic cases instantiated for [`ChannelTransport`], [`TcpTransport`]
//! and [`ReactorTransport`]:
//! a full-node recovery executed by many workers at once must reconstruct
//! every block byte-exact, never exceed the per-node in-flight cap, and
//! (on rate-limited links, where repair is network-bound like the paper's
//! testbed) finish measurably faster than the one-worker
//! `ManagerConfig::sequential` baseline. Channel-only cases pin the scheduling
//! semantics: a cap of 1 reproduces the sequential results byte-for-byte,
//! degraded reads finish before queued background work, helpers that die
//! mid-flight are re-planned around, and a silently dead node is detected
//! and auto-recovered by the daemon.

use std::sync::Arc;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::stripe::{BlockId, StripeId};
use repair_pipelining::ecc::{ErasureCode, ReedSolomon};
use repair_pipelining::ecpipe::manager::{
    recover_node, run_batch, ManagerConfig, NodeHealth, RepairManager, RepairPriority,
    RepairRequest,
};
use repair_pipelining::ecpipe::transport::{
    ChannelTransport, ReactorTransport, TcpTransport, Transport,
};
use repair_pipelining::ecpipe::{Cluster, Coordinator, Scheme, StoreBackend};

const BLOCK: usize = 64 * 1024;
const SLICE: usize = 8 * 1024;
/// Stripes live on nodes `0..12`; nodes 12 and 13 are replacement
/// requestors holding no stripe blocks.
const STORAGE_NODES: usize = 12;
const NODES: usize = 14;
const STRIPES: u64 = 24;
const FAILED_NODE: usize = 2;
const REQUESTORS: [usize; 2] = [12, 13];
/// Per-link bandwidth for the network-bound cases (§3.2's setting): low
/// enough that link time, not CPU time, dominates each repair.
const LINK_RATE: u64 = 4 * 1024 * 1024;

fn build_cluster() -> (Coordinator, Cluster, Vec<Vec<Vec<u8>>>) {
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory(NODES)).unwrap();
    let mut originals = Vec::new();
    for s in 0..STRIPES {
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                (0..BLOCK)
                    .map(|b| ((b as u64 * 31 + i as u64 * 7 + s * 13) % 251) as u8)
                    .collect()
            })
            .collect();
        let placement: Vec<usize> = (0..6).map(|i| (s as usize + i) % STORAGE_NODES).collect();
        cluster
            .write_stripe_with_placement(coordinator.code(), s, &data, placement)
            .unwrap();
        originals.push(data);
    }
    (coordinator, cluster, originals)
}

/// The expected content of `block`: the original data, or a fresh re-encode
/// for parity indices.
fn expected_block(originals: &[Vec<Vec<u8>>], block: BlockId) -> Vec<u8> {
    let code = ReedSolomon::new(6, 4).unwrap();
    let data = &originals[block.stripe.0 as usize];
    if block.index < 4 {
        data[block.index].clone()
    } else {
        code.encode(data).unwrap()[block.index].clone()
    }
}

/// Runs a 4-worker full-node recovery and checks byte-exact reconstruction
/// plus the admission cap.
fn case_concurrent_recovery_byte_exact<T: Transport>(transport: &T) {
    let (coordinator, cluster, originals) = build_cluster();
    let lost = cluster.kill_node(FAILED_NODE);
    assert!(lost.len() >= 10);
    let config = ManagerConfig::default()
        .with_workers(4)
        .with_inflight_cap(3);
    let report = recover_node(
        &coordinator,
        &cluster,
        transport,
        FAILED_NODE,
        &REQUESTORS,
        &config,
    )
    .unwrap();
    assert_eq!(report.blocks_repaired, lost.len());
    assert_eq!(report.bytes_repaired, lost.len() * BLOCK);
    assert_eq!(report.failed_repairs, 0);
    assert!(report.network_bytes > 0);
    assert!(
        report.max_inflight() <= 3,
        "admission cap exceeded: {:?}",
        report.peak_inflight
    );
    for block in lost {
        let expected = expected_block(&originals, block);
        let found = REQUESTORS
            .iter()
            .any(|&r| matches!(cluster.store(r).get(block), Ok(b) if b == expected));
        assert!(found, "block {block} not reconstructed byte-exact");
    }
}

/// §3.3 at runtime: with 4 workers on rate-limited links, recovering a node
/// holding 20+ stripes is measurably faster than the sequential loop on an
/// equally-throttled transport of the same backend.
fn case_manager_beats_sequential<T: Transport>(sequential_t: &T, concurrent_t: &T) {
    let (coordinator, cluster, _) = build_cluster();
    let lost = cluster.kill_node(FAILED_NODE);
    assert!(lost.len() >= 20 / 2); // 12 stripes on the failed node
    let sequential = recover_node(
        &coordinator,
        &cluster,
        sequential_t,
        FAILED_NODE,
        &REQUESTORS,
        &ManagerConfig::sequential(Scheme::RepairPipelining),
    )
    .unwrap();

    let (coordinator, cluster, _) = build_cluster();
    cluster.kill_node(FAILED_NODE);
    let config = ManagerConfig::default()
        .with_workers(4)
        .with_inflight_cap(3);
    let concurrent = recover_node(
        &coordinator,
        &cluster,
        concurrent_t,
        FAILED_NODE,
        &REQUESTORS,
        &config,
    )
    .unwrap();

    assert_eq!(concurrent.blocks_repaired, sequential.blocks_repaired);
    assert_eq!(sequential.failed_repairs + concurrent.failed_repairs, 0);
    // Generous margin: parallel recovery routinely lands near 3x on these
    // parameters; 20% faster is the flake-proof floor.
    assert!(
        concurrent.wall_time.as_secs_f64() < 0.8 * sequential.wall_time.as_secs_f64(),
        "4 workers should beat the sequential loop: concurrent {:.3}s vs sequential {:.3}s",
        concurrent.wall_time.as_secs_f64(),
        sequential.wall_time.as_secs_f64(),
    );
}

macro_rules! manager_suite {
    ($backend:ident, $make:expr, $make_throttled:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn concurrent_recovery_byte_exact() {
                case_concurrent_recovery_byte_exact(&$make);
            }

            #[test]
            fn manager_beats_sequential_on_throttled_links() {
                case_manager_beats_sequential(&$make_throttled, &$make_throttled);
            }
        }
    };
}

manager_suite!(
    channel,
    ChannelTransport::new(),
    ChannelTransport::with_rate_limit(LINK_RATE)
);
manager_suite!(
    tcp,
    TcpTransport::new(),
    TcpTransport::with_rate_limit(LINK_RATE)
);
manager_suite!(
    reactor,
    ReactorTransport::new(),
    ReactorTransport::with_rate_limit(LINK_RATE)
);

/// A per-node in-flight cap of 1 (the most conservative admission setting)
/// still reconstructs exactly the bytes the sequential loop produces, block
/// for block and store for store.
#[test]
fn cap_one_reproduces_sequential_results() {
    let (coordinator, cluster, _) = build_cluster();
    let lost = cluster.kill_node(FAILED_NODE);
    recover_node(
        &coordinator,
        &cluster,
        &ChannelTransport::new(),
        FAILED_NODE,
        &REQUESTORS,
        &ManagerConfig::sequential(Scheme::RepairPipelining),
    )
    .unwrap();

    let (coordinator2, cluster2, _) = build_cluster();
    cluster2.kill_node(FAILED_NODE);
    let config = ManagerConfig::default()
        .with_workers(4)
        .with_inflight_cap(1);
    let report = recover_node(
        &coordinator2,
        &cluster2,
        &ChannelTransport::new(),
        FAILED_NODE,
        &REQUESTORS,
        &config,
    )
    .unwrap();
    assert_eq!(report.max_inflight(), 1);

    // Same blocks, same requestor stores, same bytes.
    for block in lost {
        let on = REQUESTORS
            .iter()
            .find(|&&r| cluster.store(r).contains(block))
            .copied()
            .expect("sequential run stored the block");
        assert_eq!(
            cluster.store(on).get(block).unwrap(),
            cluster2.store(on).get(block).unwrap(),
            "block {block} differs between sequential and cap-1 manager runs"
        );
    }
}

/// Degraded reads must finish before background work that was queued ahead
/// of them (single worker makes the pop order fully deterministic).
#[test]
fn degraded_reads_finish_before_queued_background_work() {
    let (coordinator, cluster, originals) = build_cluster();
    let mut requests = Vec::new();
    for s in 0..6u64 {
        cluster.erase_block(StripeId(s), 0);
        requests.push(RepairRequest {
            stripe: StripeId(s),
            failed: 0,
            requestor: 12,
            priority: RepairPriority::Background,
        });
    }
    for s in 6..8u64 {
        cluster.erase_block(StripeId(s), 1);
        requests.push(RepairRequest {
            stripe: StripeId(s),
            failed: 1,
            requestor: 13,
            priority: RepairPriority::DegradedRead,
        });
    }
    let transport = ChannelTransport::new();
    let config = ManagerConfig::default().with_workers(1);
    let report = run_batch(&coordinator, &cluster, &transport, &config, requests).unwrap();
    assert_eq!(report.blocks_repaired, 8);
    let max_degraded = report
        .outcomes
        .iter()
        .filter(|o| o.priority == RepairPriority::DegradedRead)
        .map(|o| o.finished_seq)
        .max()
        .unwrap();
    let min_background = report
        .outcomes
        .iter()
        .filter(|o| o.priority == RepairPriority::Background)
        .map(|o| o.finished_seq)
        .min()
        .unwrap();
    assert!(
        max_degraded < min_background,
        "degraded reads must finish first: degraded up to #{max_degraded}, \
         background from #{min_background}"
    );
    for s in 6..8u64 {
        assert_eq!(
            cluster.store(13).get(BlockId::new(s, 1)).unwrap(),
            expected_block(&originals, BlockId::new(s, 1)),
        );
    }
}

/// In the daemon, a degraded read enqueued behind a long background backlog
/// is picked up next, not last.
#[test]
fn daemon_degraded_read_preempts_backlog() {
    let (coordinator, cluster, _) = build_cluster();
    cluster.kill_node(FAILED_NODE);
    let config = ManagerConfig {
        workers: 1,
        auto_requestors: vec![12, 13],
        ..ManagerConfig::default()
    };
    let manager = RepairManager::start(
        coordinator,
        cluster,
        ChannelTransport::with_rate_limit(LINK_RATE),
        config,
    );
    let queued = manager.report_node_failure(FAILED_NODE);
    assert_eq!(queued, 12);
    manager.cluster().erase_block(StripeId(5), 1);
    assert!(manager.degraded_read(StripeId(5), 1, 13).unwrap());
    manager.wait_idle();
    let report = manager.shutdown();
    assert_eq!(report.failed_repairs, 0);
    let degraded = report
        .outcomes
        .iter()
        .find(|o| o.priority == RepairPriority::DegradedRead)
        .expect("degraded read completed");
    // The worker had at most a couple of background repairs in flight when
    // the degraded read arrived; it must jump the remaining backlog.
    assert!(
        degraded.started_seq <= 5,
        "degraded read started {}th of {} repairs",
        degraded.started_seq,
        report.outcomes.len()
    );
}

/// A helper block that vanishes after planning is excluded and the repair
/// re-planned with the survivors.
#[test]
fn replans_around_a_lost_helper() {
    let (coordinator, cluster, originals) = build_cluster();
    cluster.erase_block(StripeId(0), 0);
    // The first LRU plan for stripe 0 picks the lowest-index helpers
    // {1, 2, 3, 4}; erasing block 1 forces a mid-flight re-plan.
    cluster.erase_block(StripeId(0), 1);
    let transport = ChannelTransport::new();
    let config = ManagerConfig::default().with_workers(1);
    let report = run_batch(
        &coordinator,
        &cluster,
        &transport,
        &config,
        vec![RepairRequest {
            stripe: StripeId(0),
            failed: 0,
            requestor: 13,
            priority: RepairPriority::DegradedRead,
        }],
    )
    .unwrap();
    assert_eq!(report.blocks_repaired, 1);
    assert_eq!(report.replans, 1);
    assert_eq!(report.outcomes[0].replans, 1);
    assert_eq!(
        cluster.store(13).get(BlockId::new(0, 0)).unwrap(),
        expected_block(&originals, BlockId::new(0, 0)),
    );
}

/// A node that dies without being reported is detected through its failed
/// helper reads, declared dead, and its stripes auto-recovered.
#[test]
fn daemon_detects_and_recovers_a_silently_dead_node() {
    let (coordinator, cluster, originals) = build_cluster();
    let silent = 3usize;
    let lost = cluster.kill_node(silent);
    assert!(!lost.is_empty());
    // One worker keeps the scenario deterministic; `relocate_on_success`
    // matters here: once the degraded read rebuilds s1b0 onto a requestor,
    // later repairs of stripe 1 must find the relocated copy instead of
    // striking healthy node 1 for a block that legitimately moved.
    let config = ManagerConfig {
        workers: 1,
        dead_after_misses: 1,
        auto_requestors: vec![12, 13],
        relocate_on_success: true,
        ..ManagerConfig::default()
    };
    let manager = RepairManager::start(coordinator, cluster, ChannelTransport::new(), config);
    assert_eq!(manager.node_health(silent), NodeHealth::Alive);
    // Stripe 1 keeps block 2 on node 3: any repair of stripe 1 will try to
    // read it, miss, and tip the liveness view over.
    manager.cluster().erase_block(StripeId(1), 0);
    assert!(manager.degraded_read(StripeId(1), 0, 12).unwrap());
    manager.wait_idle();
    assert_eq!(manager.node_health(silent), NodeHealth::Dead);
    for &block in &lost {
        let expected = expected_block(&originals, block);
        let found = REQUESTORS
            .iter()
            .any(|&r| matches!(manager.cluster().store(r).get(block), Ok(b) if b == expected));
        assert!(found, "block {block} of the silent node not auto-recovered");
    }
    // No healthy node must have been declared dead along the way (the
    // degraded-read block moved to a requestor; repairs of its stripe must
    // follow the relocation instead of striking the old holder).
    assert_eq!(manager.node_health(1), NodeHealth::Alive);
    let report = manager.shutdown();
    assert_eq!(report.failed_repairs, 0);
    assert_eq!(report.blocks_repaired, 1 + lost.len());
    assert!(report.replans >= 1, "the tripping repair was re-planned");
}
