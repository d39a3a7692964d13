//! Conformance suite for the repair manager: concurrent-repair correctness
//! over both transport backends.
//!
//! Generic cases instantiated for [`ChannelTransport`] and
//! [`TcpTransport`]: a full-node recovery executed by many workers at once must reconstruct
//! every block byte-exact, never exceed the per-node in-flight cap, and
//! (on rate-limited links, where repair is network-bound like the paper's
//! testbed) finish measurably faster than a one-worker daemon. Channel-only
//! cases pin the scheduling semantics: a cap of 1 reproduces the one-worker
//! results byte-for-byte,
//! degraded reads finish before queued background work, helpers that die
//! mid-flight are re-planned around, a repair whose block moves mid-walk
//! is recorded where the block now is, and a silently dead node is
//! detected and auto-recovered by the daemon. The sever experiment runs on both:
//! every link of a node recovery cut mid-flight, and nothing left missing.

use std::sync::Arc;
use std::time::Duration;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::stripe::{BlockId, StripeId};
use repair_pipelining::ecc::{ErasureCode, ReedSolomon};
use repair_pipelining::ecpipe::manager::{
    ManagerConfig, NodeHealth, RepairManager, RepairPriority, RepairRequest, ReplanReason,
};
use repair_pipelining::ecpipe::transport::{ChannelTransport, TcpTransport, Transport};
use repair_pipelining::ecpipe::{
    Cluster, Coordinator, EcPipe, EcPipeBuilder, StoreBackend, TransportChoice,
};

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

/// Recovers `FAILED_NODE` (already killed) on a fresh daemon with
/// `REQUESTORS` as its requestor pool, and returns the daemon once idle.
fn recover<T: Transport + Send + Sync + 'static>(
    coordinator: Coordinator,
    cluster: Cluster,
    transport: T,
    config: ManagerConfig,
) -> RepairManager<T> {
    let config = ManagerConfig {
        auto_requestors: REQUESTORS.to_vec(),
        ..config
    };
    let manager = RepairManager::start(coordinator, cluster, transport, config);
    manager.report_node_failure(FAILED_NODE);
    manager.wait_idle();
    manager
}

/// Runs a 4-worker full-node recovery and checks byte-exact reconstruction
/// plus the admission cap.
fn case_concurrent_recovery_byte_exact<T: Transport + Send + Sync + 'static>(transport: T) {
    let (coordinator, cluster, originals) = build_cluster();
    let lost = cluster.kill_node(FAILED_NODE);
    assert!(lost.len() >= 10);
    let config = ManagerConfig::default()
        .with_workers(4)
        .with_inflight_cap(3);
    let manager = recover(coordinator, cluster, transport, config);
    for &block in &lost {
        let expected = expected_block(&originals, block);
        let found = REQUESTORS
            .iter()
            .any(|&r| matches!(manager.cluster().store(r).get(block), Ok(b) if b == expected));
        assert!(found, "block {block} not reconstructed byte-exact");
    }
    let report = manager.shutdown();
    assert_eq!(report.blocks_repaired, lost.len());
    assert_eq!(report.bytes_repaired, lost.len() * BLOCK);
    assert_eq!(report.failed_repairs, 0);
    assert!(report.network_bytes > 0);
    assert!(
        report.max_inflight() <= 3,
        "admission cap exceeded: {:?}",
        report.peak_inflight
    );
}

/// §3.3 at runtime: with 4 workers on rate-limited links, recovering a node
/// holding 20+ stripes is measurably faster than one worker on an
/// equally-throttled transport of the same backend.
fn case_manager_beats_sequential<T: Transport + Send + Sync + 'static>(
    sequential_t: T,
    concurrent_t: T,
) {
    let (coordinator, cluster, _) = build_cluster();
    let lost = cluster.kill_node(FAILED_NODE);
    assert!(lost.len() >= 20 / 2); // 12 stripes on the failed node
    let one_worker = ManagerConfig::default().with_workers(1);
    let sequential = recover(coordinator, cluster, sequential_t, one_worker).shutdown();

    let (coordinator, cluster, _) = build_cluster();
    cluster.kill_node(FAILED_NODE);
    let config = ManagerConfig::default()
        .with_workers(4)
        .with_inflight_cap(3);
    let concurrent = recover(coordinator, cluster, concurrent_t, config).shutdown();

    assert_eq!(concurrent.blocks_repaired, sequential.blocks_repaired);
    assert_eq!(sequential.failed_repairs + concurrent.failed_repairs, 0);
    // Generous margin: parallel recovery routinely lands near 3x on these
    // parameters; 20% faster is the flake-proof floor.
    assert!(
        concurrent.wall_time.as_secs_f64() < 0.8 * sequential.wall_time.as_secs_f64(),
        "4 workers should beat one worker: concurrent {:.3}s vs sequential {:.3}s",
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
                case_concurrent_recovery_byte_exact($make);
            }

            #[test]
            fn manager_beats_sequential_on_throttled_links() {
                case_manager_beats_sequential($make_throttled, $make_throttled);
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

/// A per-node in-flight cap of 1 (the most conservative admission setting)
/// still reconstructs exactly the bytes one worker produces, block for
/// block and store for store.
#[test]
fn cap_one_reproduces_sequential_results() {
    let (coordinator, cluster, _) = build_cluster();
    let lost = cluster.kill_node(FAILED_NODE);
    let one_worker = ManagerConfig::default().with_workers(1);
    let sequential = recover(coordinator, cluster, ChannelTransport::new(), one_worker);

    let (coordinator2, cluster2, _) = build_cluster();
    cluster2.kill_node(FAILED_NODE);
    let config = ManagerConfig::default()
        .with_workers(4)
        .with_inflight_cap(1);
    let capped = recover(coordinator2, cluster2, ChannelTransport::new(), config);

    // Same blocks, same requestor stores, same bytes.
    let (cluster, cluster2) = (sequential.cluster(), capped.cluster());
    for block in lost {
        let on = REQUESTORS
            .iter()
            .find(|&&r| cluster.store(r).contains(block))
            .copied()
            .expect("one-worker run stored the block");
        assert_eq!(
            cluster.store(on).get(block).unwrap(),
            cluster2.store(on).get(block).unwrap(),
            "block {block} differs between one-worker and cap-1 runs"
        );
    }
    let report = capped.shutdown();
    assert_eq!(report.max_inflight(), 1);
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
    cluster.erase_block(StripeId(7), 1);
    requests.push(RepairRequest {
        stripe: StripeId(7),
        failed: 1,
        requestor: 13,
        priority: RepairPriority::DegradedRead,
    });
    // One slow worker on throttled links, busy with stripe 6's degraded
    // read while the rest queue behind it.
    cluster.erase_block(StripeId(6), 1);
    let manager = RepairManager::start(
        coordinator,
        cluster,
        ChannelTransport::with_rate_limit(LINK_RATE),
        ManagerConfig::default().with_workers(1),
    );
    assert!(manager.degraded_read(StripeId(6), 1, 13).unwrap());
    while manager.queued() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for request in requests {
        assert!(manager.enqueue(request).unwrap());
    }
    manager.wait_idle();
    for s in 6..8u64 {
        assert_eq!(
            manager.cluster().store(13).get(BlockId::new(s, 1)).unwrap(),
            expected_block(&originals, BlockId::new(s, 1)),
        );
    }
    let report = manager.shutdown();
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
    let manager = RepairManager::start(
        coordinator,
        cluster,
        ChannelTransport::new(),
        ManagerConfig::default().with_workers(1),
    );
    assert!(manager.degraded_read(StripeId(0), 0, 13).unwrap());
    manager.wait_idle();
    assert_eq!(
        manager.cluster().store(13).get(BlockId::new(0, 0)).unwrap(),
        expected_block(&originals, BlockId::new(0, 0)),
    );
    let report = manager.shutdown();
    assert_eq!(report.blocks_repaired, 1);
    assert_eq!(report.replans, 1);
    assert_eq!(report.outcomes[0].replans, 1);
}

/// A node that dies without being reported is detected through its failed
/// helper reads, declared dead, and its stripes auto-recovered.
#[test]
fn daemon_detects_and_recovers_a_silently_dead_node() {
    let (coordinator, cluster, originals) = build_cluster();
    let silent = 3usize;
    let lost = cluster.kill_node(silent);
    assert!(!lost.is_empty());
    // One worker keeps the scenario deterministic. Relocation matters here:
    // once the degraded read rebuilds s1b0 onto a requestor, later repairs
    // of stripe 1 must find the relocated copy instead of striking healthy
    // node 1 for a block that legitimately moved.
    let config = ManagerConfig {
        workers: 1,
        dead_after_misses: 1,
        auto_requestors: vec![12, 13],
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

/// The stripes with a block on each of two nodes, as `(stripe, index on
/// the first, index on the second)`.
type DoublyHit = Vec<(StripeId, usize, usize)>;

/// A pipe of 14 nodes on throttled links, four workers and `pool` as the
/// auto-recovery requestors, holding six objects of four stripes each. Nodes
/// 2 and 3 are killed; the stripes that had a block on each are returned as
/// `(stripe, index on 2, index on 3)`. Nothing is reported yet.
fn overlap_setup(pool: &[usize], dead_after_misses: usize) -> (EcPipe, Vec<Vec<u8>>, DoublyHit) {
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .store(StoreBackend::memory(NODES))
        .rate_limit(LINK_RATE)
        .manager(ManagerConfig {
            auto_requestors: pool.to_vec(),
            dead_after_misses,
            ..ManagerConfig::default().with_workers(4)
        })
        .build()
        .unwrap();
    // Six objects of four stripes each: 24 stripes over the 14 nodes.
    let objects: Vec<Vec<u8>> = (0..6u64)
        .map(|o| {
            (0..16 * BLOCK as u64)
                .map(|b| ((b * 31 + o * 17 + 7) % 251) as u8)
                .collect()
        })
        .collect();
    for (i, data) in objects.iter().enumerate() {
        pipe.put(&format!("/overlap/{i}"), data).unwrap();
    }
    let mut doubly_hit = Vec::new();
    pipe.meta().for_each_stripe(|s| {
        let on = |node| s.locations.iter().position(|&n| n == node);
        if let (Some(a), Some(b)) = (on(2), on(3)) {
            doubly_hit.push((s.id, a, b));
        }
    });
    doubly_hit.sort();
    assert!(doubly_hit.len() >= 5, "{doubly_hit:?}");
    for node in [2, 3] {
        pipe.kill_node(node);
    }
    (pipe, objects, doubly_hit)
}

/// Waits out every repair, then checks that the recovery left nothing
/// behind: no repair failed, every stripe's blocks sit on distinct live
/// nodes, and re-reading every object moves no repair traffic.
fn overlap_check(pipe: EcPipe, objects: &[Vec<u8>]) {
    pipe.wait_idle();
    pipe.meta().for_each_stripe(|s| {
        for (index, &node) in s.locations.iter().enumerate() {
            assert!(
                node != 2 && node != 3,
                "block {index} of stripe {} still placed on dead node {node}",
                s.id.0
            );
            assert_eq!(
                s.locations.iter().filter(|&&n| n == node).count(),
                1,
                "stripe {} places two blocks on node {node}: {:?}",
                s.id.0,
                s.locations
            );
        }
    });
    let repaired = pipe.transport().total_bytes();
    for (i, data) in objects.iter().enumerate() {
        assert_eq!(pipe.get(&format!("/overlap/{i}")).unwrap(), *data);
    }
    assert_eq!(
        pipe.transport().total_bytes(),
        repaired,
        "a re-read repaired a block the recovery left behind"
    );
    let report = pipe.shutdown();
    assert_eq!(report.failed_repairs, 0, "{:?}", report.failures);
}

/// Two repairs of one stripe that run at once both land: each block moves
/// only from where its own repair found it, so relocating one block must
/// not turn the other completion away. Nodes 2 and 3 die together, so every stripe placed
/// across both loses two blocks; their two repairs are promoted to the head
/// of the queue side by side, where the 4 workers run them concurrently.
/// `pool` decides the two requestors of such a stripe, and `same_requestor`
/// says whether they coincide.
fn case_overlapping_repairs_of_one_stripe(pool: Vec<usize>, same_requestor: bool) {
    // Only the two reports below declare nodes dead, never a repair's
    // strikes, so they alone draw from the round-robin pool.
    let (pipe, objects, doubly_hit) = overlap_setup(&pool, usize::MAX);
    assert!(pipe.report_node_failure(2) + pipe.report_node_failure(3) > 0);
    // Every repair is still journaled: none finishes within microseconds on
    // these throttled links.
    let pending = pipe.meta().pending_repairs();
    let requestor = |stripe, index| {
        let record = pending
            .iter()
            .find(|r| r.stripe == stripe && r.index == index);
        record.expect("journaled repair").requestor
    };
    for &(stripe, a, b) in &doubly_hit {
        let same = requestor(stripe, a) == requestor(stripe, b);
        assert_eq!(same, same_requestor, "stripe {}", stripe.0);
    }
    for &(stripe, a, b) in &doubly_hit {
        for index in [a, b] {
            let _ = pipe.manager().degraded_read(stripe, index, pool[0]);
        }
    }
    overlap_check(pipe, &objects);
}

/// Round-robin over `[8, 9]` gives the two lost blocks of each doubly-hit
/// stripe different requestors.
#[test]
fn overlapping_repairs_of_one_stripe_land_with_different_requestors() {
    case_overlapping_repairs_of_one_stripe(vec![8, 9], false);
}

/// Round-robin over `[8, 9, 10]` gives both lost blocks of each doubly-hit
/// stripe the same requestor: the second relocation is refused, and the
/// block moves on to another pool node holding none of the stripe.
#[test]
fn overlapping_repairs_of_one_stripe_land_with_the_same_requestor() {
    case_overlapping_repairs_of_one_stripe(vec![8, 9, 10], true);
}

/// Nodes 2 and 3 die together but are reported one after the other, with
/// the default strike threshold: the repairs the first report queues plan
/// helpers on node 3, miss its blocks and strike it, and the strike that
/// declares it dead auto-enqueues its recovery from a worker — drawing
/// requestors from the same round-robin counter as the operator's second
/// report. The gaps between the reports span both orders: with none, the
/// report tends to come first; with milliseconds, the strikes do.
/// Whichever requestor each block gets, the recovery must end with every
/// block placed on a live node holding none of its stripe and nothing left
/// to repair.
#[test]
fn overlapping_repairs_of_one_stripe_survive_strikes_racing_the_second_report() {
    for gap_us in [0, 250, 500, 1000, 5000] {
        let dead_after_misses = ManagerConfig::default().dead_after_misses;
        let (pipe, objects, _) = overlap_setup(&[8, 9, 10], dead_after_misses);
        assert!(pipe.report_node_failure(2) > 0);
        std::thread::sleep(std::time::Duration::from_micros(gap_us));
        pipe.report_node_failure(3);
        overlap_check(pipe, &objects);
    }
}

/// A repair whose block moves while it runs publishes nothing: the block
/// stays where the move put it, the repair's copy is deleted, and the
/// repair is recorded at the block's holder, not as a failure.
#[test]
fn a_repair_whose_block_moved_mid_walk_is_recorded_at_its_holder() {
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .store(StoreBackend::memory(NODES))
        .rate_limit(256 * 1024)
        .workers(1)
        .build()
        .unwrap();
    let data: Vec<u8> = (0..4 * BLOCK).map(|b| (b % 251) as u8).collect();
    let stripe = pipe.put("/moved", &data).unwrap().stripes[0];
    let placement = pipe.cluster().placement(stripe).unwrap();
    let mut spares = (0..NODES).filter(|n| !placement.contains(n));
    let (requestor, holder) = (spares.next().unwrap(), spares.next().unwrap());
    let block = BlockId { stripe, index: 0 };
    let bytes = pipe.cluster().read_block(stripe, 0).unwrap();
    assert!(pipe.erase_block(stripe, 0));
    let request = RepairRequest {
        stripe,
        failed: 0,
        requestor,
        priority: RepairPriority::Background,
    };
    pipe.manager().enqueue(request).unwrap();
    // The walk has planned and started once slices move; a 64 KiB block
    // at 256 KiB/s keeps it running for about a quarter of a second.
    while pipe.transport().total_bytes() == 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    // An operator restores the block on another spare meanwhile.
    pipe.cluster().store(holder).put(block, bytes).unwrap();
    pipe.meta().relocate(stripe, 0, holder, None).unwrap();
    pipe.wait_idle();
    assert_eq!(pipe.cluster().node_of(stripe, 0).unwrap(), holder);
    assert!(!pipe.cluster().store(requestor).contains(block));
    let report = pipe.shutdown();
    assert_eq!(report.failed_repairs, 0, "{:?}", report.failures);
    let holders: Vec<usize> = report.outcomes.iter().map(|o| o.requestor).collect();
    assert_eq!(holders, [holder]);
}

/// The sever experiment: RS(6,4) on 10 memory nodes, 256 KiB blocks in
/// 32 KiB slices on 8 MiB/s links, two workers recovering onto nodes 6–9.
/// Node 0 is killed and reported, and every pair of the cluster is severed
/// `after` into the recovery. A walk that loses a hop ends with
/// `LinkFailed` naming it, and its repair re-plans (§3.2): after
/// `wait_idle` no repair has failed, every lost block is held by one live
/// node where the metadata places it — a node outside the pool when every
/// pool node already holds a block of its stripe — and re-reading every
/// object moves no byte. Returns how many re-plans a failed hop caused.
fn case_severed_links(choice: TransportChoice, after: Duration) -> usize {
    const NODES: usize = 10;
    const BLOCK: usize = 256 * 1024;
    const POOL: [usize; 4] = [6, 7, 8, 9];
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(32 * 1024)
        .store(StoreBackend::memory(NODES))
        .transport(choice)
        .rate_limit(8 * 1024 * 1024)
        .manager(ManagerConfig {
            auto_requestors: POOL.to_vec(),
            ..ManagerConfig::default().with_workers(2)
        })
        .build()
        .unwrap();
    // Ten one-stripe objects over the ten nodes.
    let objects: Vec<Vec<u8>> = (0..10u64)
        .map(|o| {
            (0..4 * BLOCK as u64)
                .map(|b| ((b * 31 + o * 17 + 7) % 251) as u8)
                .collect()
        })
        .collect();
    for (i, data) in objects.iter().enumerate() {
        pipe.put(&format!("/sever/{i}"), data).unwrap();
    }
    let lost = pipe.kill_node(0);
    assert_eq!(pipe.report_node_failure(0), lost.len());
    std::thread::sleep(after);
    for src in 0..NODES {
        for dst in (0..NODES).filter(|&dst| dst != src) {
            pipe.transport().disconnect_pair(src, dst);
        }
    }
    pipe.wait_idle();
    for block in &lost {
        let holders: Vec<usize> = (0..NODES)
            .filter(|&n| pipe.cluster().store(n).contains(*block))
            .collect();
        let placement = pipe.meta().stripe(block.stripe).unwrap().locations;
        assert_eq!(holders, [placement[block.index]], "block {block}");
    }
    let repaired = pipe.transport().total_bytes();
    for (i, data) in objects.iter().enumerate() {
        assert_eq!(pipe.get(&format!("/sever/{i}")).unwrap(), *data);
    }
    assert_eq!(
        pipe.transport().total_bytes(),
        repaired,
        "a re-read repaired a block the recovery left behind"
    );
    let report = pipe.shutdown();
    assert_eq!(report.failed_repairs, 0, "{:?}", report.failures);
    report.replans_because(ReplanReason::LinkFailed)
}

/// The sever experiment at 30, 100 and 300 ms. The recovery takes at
/// least three rounds of 43 ms (a 256 KiB block at 8 MiB/s, plus the
/// pipeline's fill), so the first two severs cut walks in flight; by
/// 300 ms it is usually over.
fn severed_links(choice: TransportChoice) {
    for ms in [30, 100, 300] {
        let replans = case_severed_links(choice, Duration::from_millis(ms));
        assert!(ms == 300 || replans > 0, "a sever at {ms} ms cut no walk");
    }
}

#[test]
fn severed_links_replan_over_channels() {
    severed_links(TransportChoice::Channel);
}

#[test]
fn severed_links_replan_over_tcp() {
    severed_links(TransportChoice::Tcp);
}
