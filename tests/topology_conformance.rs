//! Topology conformance suite: the runtime's topology-aware repair planning
//! measured on shaped transports.
//!
//! Pins the paper's Fig. 11 claim — weighted path selection (Algorithm 2)
//! beats topology-blind selection when links are heterogeneous — on both
//! transport backends, the rack-aware (Algorithm 1) cross-rack traffic
//! bound, local LRC repair under both topology-aware policies, the
//! per-directed-pair byte accounting the telemetry layer is
//! built on, and the mid-stream link watchdog: a link degraded while a
//! repair streams over it triggers a re-plan that still completes
//! byte-exact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::{ErasureCode, Lrc, ReedSolomon};
use repair_pipelining::ecpipe::exec::execute_single;
use repair_pipelining::ecpipe::transport::{ChannelTransport, TcpTransport, Transport};
use repair_pipelining::ecpipe::Scheme;
use repair_pipelining::ecpipe::{
    Cluster, Coordinator, EcPipeBuilder, PathPolicy, ReplanReason, StoreBackend, Topology,
    TransportChoice,
};
use repair_pipelining::repair::rack_aware;
use repair_pipelining::simnet::NodeId;

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 131 + seed as u64 * 17 + 5) % 251) as u8)
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 11: weighted path selection beats flat LRU on heterogeneous links.
// ---------------------------------------------------------------------------

/// One node's links are ~16x slower than everyone else's. The placement is
/// deterministic (`block i` of stripe 0 lands on node `i`), so with block 3
/// erased the candidate helpers are nodes {0, 1, 2, 4, 5}: fresh LRU keeps
/// the four lowest block indices and streams through slow node 2, while the
/// weighted policy (seeded from static topology weights while telemetry is
/// cold) routes around it.
fn case_weighted_beats_lru(choice: TransportChoice) {
    const BLOCK: usize = 256 * 1024;
    const SLICE: usize = 16 * 1024;
    const FAST: f64 = 4.0 * 1024.0 * 1024.0; // bytes/s
    const SLOW: f64 = 256.0 * 1024.0;
    const SLOW_NODE: NodeId = 2;

    let mut topology = Topology::flat(8, FAST);
    topology.set_node_bandwidth(SLOW_NODE, SLOW, SLOW);

    let data = pattern(4 * BLOCK, 7);
    let mut elapsed = Vec::new();
    let mut paths = Vec::new();
    let mut bottlenecks = Vec::new();
    for policy in [PathPolicy::Lru, PathPolicy::Weighted] {
        let pipe = EcPipeBuilder::new()
            .code(6, 4)
            .block_size(BLOCK)
            .slice_size(SLICE)
            .store(StoreBackend::memory(8))
            .transport(choice)
            .topology(topology.clone())
            .path_policy(policy)
            .build()
            .unwrap();
        let meta = pipe.put("/fig11", &data).unwrap();
        pipe.erase_block(meta.stripes[0], 3);
        let start = Instant::now();
        assert_eq!(
            pipe.get("/fig11").unwrap(),
            data,
            "{policy} repair must be byte-exact"
        );
        elapsed.push(start.elapsed().as_secs_f64());
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 1, "{policy}");
        assert_eq!(
            report.network_bytes,
            report.link_bytes.values().sum::<u64>(),
            "network_bytes must stay the sum of the per-link split"
        );
        paths.push(report.outcomes[0].path.clone());
        bottlenecks.push(report.outcomes[0].bottleneck);
    }

    assert!(
        paths[0].contains(&SLOW_NODE),
        "topology-blind LRU must pick the slow node: {:?}",
        paths[0]
    );
    assert!(
        !paths[1].contains(&SLOW_NODE),
        "the weighted policy must avoid the slow node: {:?}",
        paths[1]
    );
    assert_eq!(bottlenecks[0], None, "LRU plans without a weight estimate");
    let weighted_bottleneck = bottlenecks[1].expect("weighted plans carry a bottleneck estimate");
    assert!(
        (weighted_bottleneck - 1.0 / FAST).abs() < 1e-12,
        "cold telemetry must fall back to static weights: {weighted_bottleneck} vs {}",
        1.0 / FAST
    );
    // Fig. 11's shape: the slow link bottlenecks the whole pipeline (~16x
    // here); 3x leaves generous slack for a loaded CI machine.
    assert!(
        elapsed[1] * 3.0 < elapsed[0],
        "weighted ({:.3}s) should beat LRU ({:.3}s) by far more than 3x",
        elapsed[1],
        elapsed[0]
    );
}

#[test]
fn weighted_beats_lru_on_heterogeneous_channel_links() {
    case_weighted_beats_lru(TransportChoice::Channel);
}

#[test]
fn weighted_beats_lru_on_heterogeneous_tcp_links() {
    case_weighted_beats_lru(TransportChoice::Tcp);
}

// ---------------------------------------------------------------------------
// Algorithm 1: the rack-aware policy moves the provably minimal number of
// cross-rack blocks, pinned via the per-link byte split.
// ---------------------------------------------------------------------------

#[test]
fn rack_aware_moves_fewer_cross_rack_bytes_than_lru() {
    const BLOCK: usize = 64 * 1024;
    const SLICE: usize = 4 * 1024;
    const INNER: f64 = 8.0 * 1024.0 * 1024.0;
    const CROSS: f64 = 1.0 * 1024.0 * 1024.0;

    // Nodes 0-3 in rack 0, nodes 4-7 in rack 1. Stripe 0 places block i on
    // node i; erasing block 0 makes node 0 the requestor and nodes 1..=5
    // the candidates, so any repair needs at least one cross-rack hop.
    let topology = Topology::rack_based(&[4, 4], INNER, CROSS);
    let data = pattern(4 * BLOCK, 9);
    let mut cross_bytes = Vec::new();
    let mut paths = Vec::new();
    for policy in [PathPolicy::Lru, PathPolicy::RackAware] {
        let pipe = EcPipeBuilder::new()
            .code(6, 4)
            .block_size(BLOCK)
            .slice_size(SLICE)
            .store(StoreBackend::memory(8))
            .topology(topology.clone())
            .path_policy(policy)
            .build()
            .unwrap();
        let meta = pipe.put("/racks", &data).unwrap();
        pipe.erase_block(meta.stripes[0], 0);
        assert_eq!(
            pipe.get("/racks").unwrap(),
            data,
            "{policy} repair must be byte-exact"
        );
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 1, "{policy}");
        cross_bytes.push(report.cross_rack_bytes(&topology));
        paths.push(report.outcomes[0].path.clone());
    }

    let minimum = rack_aware::minimum_cross_rack_transmissions(&topology, 0, &[1, 2, 3, 4, 5], 4);
    assert_eq!(minimum, 1, "one remote helper forces exactly one hop");
    // LRU keeps blocks 1..=4: the path crosses into rack 1 and back.
    assert_eq!(
        rack_aware::cross_rack_transmissions(&topology, &paths[0], 0),
        2
    );
    assert_eq!(cross_bytes[0], 2 * BLOCK as u64);
    // The rack-aware plan achieves the CAR-style lower bound, on the wire.
    assert_eq!(
        rack_aware::cross_rack_transmissions(&topology, &paths[1], 0),
        minimum
    );
    assert_eq!(cross_bytes[1], minimum as u64 * BLOCK as u64);
    assert!(cross_bytes[1] < cross_bytes[0]);
}

// ---------------------------------------------------------------------------
// A code that is not MDS: the topology-aware policies order an LRC repair's
// candidates, and the code still picks its local group from them.
// ---------------------------------------------------------------------------

/// An LRC(12, 2, 2) stripe on a 20-node, 4-rack topology loses a data
/// block. Under each topology-aware policy the degraded read returns
/// byte-exact from the block's local group, within a deadline.
#[test]
fn topology_aware_policies_repair_lrc_locally() {
    const BLOCK: usize = 16 * 1024;
    const SLICE: usize = 2 * 1024;
    const INNER: f64 = 64.0 * 1024.0 * 1024.0;
    const CROSS: f64 = 16.0 * 1024.0 * 1024.0;
    let (k, groups) = (12, 2);

    for policy in [PathPolicy::RackAware, PathPolicy::Weighted] {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pipe = EcPipeBuilder::new()
                .erasure_code(Arc::new(Lrc::new(k, groups, 2).unwrap()))
                .block_size(BLOCK)
                .slice_size(SLICE)
                .store(StoreBackend::memory(20))
                .topology(Topology::rack_based(&[5, 5, 5, 5], INNER, CROSS))
                .path_policy(policy)
                .build()
                .unwrap();
            let data = pattern(k * BLOCK, 5);
            let meta = pipe.put("/lrc", &data).unwrap();
            pipe.erase_block(meta.stripes[0], 3);
            let exact = pipe.get("/lrc").map(|read| read == data);
            let _ = done.send((exact, pipe.shutdown()));
        });
        let (exact, report) = finished
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("{policy}: the degraded read did not return in 20 s"));
        assert!(exact.unwrap(), "{policy} repair must be byte-exact");
        assert_eq!(report.blocks_repaired, 1, "{policy}");
        assert_eq!(
            report.network_bytes,
            (k / groups * BLOCK) as u64,
            "{policy} repair must read the local group only"
        );
    }
}

// ---------------------------------------------------------------------------
// Telemetry substrate: per-directed-pair byte counters agree with the bytes
// a known repair must move, on both backends, including connection reuse.
// ---------------------------------------------------------------------------

fn case_counters_match_slice_math<T: Transport>(transport: &T) {
    const SLICE: usize = 4 * 1024;
    const SLICES_PER_BLOCK: usize = 16;
    const BLOCK: usize = SLICES_PER_BLOCK * SLICE;

    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let k = code.k();
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory(8)).unwrap();
    let data: Vec<Vec<u8>> = (0..k).map(|i| pattern(BLOCK, i as u8)).collect();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    cluster.erase_block(stripe, 1);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 1, 7)
        .unwrap();
    let helpers = directive.helper_nodes();
    let hops: Vec<(NodeId, NodeId)> = helpers
        .windows(2)
        .map(|w| (w[0], w[1]))
        .chain(std::iter::once((*helpers.last().unwrap(), 7)))
        .collect();

    // Round 2 re-runs the identical repair so the same directed pairs (and,
    // on TCP, the same pooled connections) accumulate a second block.
    for round in 1..=2u64 {
        let repaired =
            execute_single(&directive, &cluster, transport, Scheme::RepairPipelining).unwrap();
        assert_eq!(repaired, data[1]);
        for &(src, dst) in &hops {
            assert_eq!(
                transport.link_bytes(src, dst),
                round * (SLICES_PER_BLOCK * SLICE) as u64,
                "round {round}: hop {src}->{dst} must carry whole blocks"
            );
        }
        assert_eq!(transport.total_bytes(), round * (k * BLOCK) as u64);
        // The registry snapshot (what LinkTelemetry consumes) must agree
        // with the per-pair accessors it is derived from.
        let snapshot = transport.stats().snapshot();
        assert_eq!(
            snapshot.values().map(|s| s.bytes).sum::<u64>(),
            transport.total_bytes()
        );
        assert_eq!(snapshot.len(), hops.len());
    }
}

#[test]
fn counters_match_slice_math_on_channel() {
    case_counters_match_slice_math(&ChannelTransport::new());
}

#[test]
fn counters_match_slice_math_on_tcp() {
    case_counters_match_slice_math(&TcpTransport::new());
}

// ---------------------------------------------------------------------------
// Mid-stream degradation: throttling a link while a repair streams over it
// makes the watchdog cancel, re-plan around the link, and finish byte-exact.
// ---------------------------------------------------------------------------

#[test]
fn degraded_link_triggers_a_replan_that_completes_byte_exact() {
    const BLOCK: usize = 512 * 1024;
    const SLICE: usize = 32 * 1024;
    const RATE: f64 = 1024.0 * 1024.0; // nominal bytes/s on every link
    const REQUESTOR: NodeId = 2; // holder of erased block 2 heals in place

    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .store(StoreBackend::memory(8))
        .transport(TransportChoice::Tcp)
        .topology(Topology::flat(8, RATE))
        .path_policy(PathPolicy::Weighted)
        .link_watch()
        .build()
        .unwrap();
    let data = pattern(4 * BLOCK, 3);
    let meta = pipe.put("/degraded", &data).unwrap();
    pipe.erase_block(meta.stripes[0], REQUESTOR);

    // Candidate helpers for block 2 (block i sits on node i; the requestor
    // cannot help itself).
    let candidates: [NodeId; 5] = [0, 1, 3, 4, 5];
    let throttled = std::thread::scope(|scope| {
        let reader = scope.spawn(|| pipe.get("/degraded").unwrap());
        // The ~0.6s repair streams its final hop into the requestor from
        // the first slice on; watch the byte counters to learn which helper
        // won that hop, then throttle the live link to 1/32 of nominal.
        let deadline = Instant::now() + Duration::from_secs(10);
        let last_hop = loop {
            if let Some(&c) = candidates
                .iter()
                .find(|&&c| pipe.transport().link_bytes(c, REQUESTOR) > 0)
            {
                break c;
            }
            assert!(
                Instant::now() < deadline,
                "repair never reached the requestor"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(
            pipe.transport()
                .set_link_rate(last_hop, REQUESTOR, 32 * 1024),
            "a topology-shaped transport must accept per-link rate changes"
        );
        assert_eq!(reader.join().unwrap(), data, "repair must stay byte-exact");
        last_hop
    });

    let report = pipe.shutdown();
    assert_eq!(report.blocks_repaired, 1);
    assert!(
        report.replans_because(ReplanReason::LinkDegraded) >= 1,
        "the watchdog must report the degraded link: {:?}",
        report.replan_events
    );
    let outcome = &report.outcomes[0];
    assert!(outcome.replans >= 1, "the repair must have been re-planned");
    assert!(
        !outcome.path.contains(&throttled),
        "the final path {:?} must route around throttled node {throttled}",
        outcome.path
    );
}
