//! Conformance suite for the `EcPipe` façade's client data path, run
//! against all three transport backends: put→get roundtrips (multi-stripe
//! objects, unaligned sizes), degraded reads during node death, range reads
//! over corrupt chunks, every strategy over several code widths, and an LRC
//! code's local repair.

use std::sync::Arc;

use repair_pipelining::ecc::Lrc;
use repair_pipelining::ecpipe::transport::Transport;
use repair_pipelining::ecpipe::{
    EcPipe, EcPipeBuilder, ManagerConfig, NodeHealth, Scheme, ScrubConfig, StoreBackend,
    TransportChoice,
};

const BLOCK: usize = 16 * 1024;
const SLICE: usize = 2 * 1024;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 131 + seed * 17 + 5) % 251) as u8)
        .collect()
}

fn build(choice: TransportChoice, checksummed: bool, nodes: usize) -> EcPipe {
    let backend = if checksummed {
        StoreBackend::memory_checksummed(nodes)
    } else {
        StoreBackend::memory(nodes)
    };
    EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .store(backend)
        .transport(choice)
        .manager(ManagerConfig {
            workers: 2,
            dead_after_misses: 1,
            ..ManagerConfig::default()
        })
        .build()
        .expect("façade builds")
}

const BACKENDS: [TransportChoice; 3] = [
    TransportChoice::Channel,
    TransportChoice::Tcp,
    TransportChoice::Reactor,
];

/// Objects of every awkward size round-trip byte-exact, including
/// multi-stripe objects and sizes not aligned to blocks or stripes.
#[test]
fn put_get_roundtrip_on_both_backends() {
    for choice in BACKENDS {
        let pipe = build(choice, false, 9);
        let stripe_bytes = 4 * BLOCK;
        for (i, size) in [
            1,
            BLOCK - 1,
            BLOCK + 1,
            stripe_bytes,
            3 * stripe_bytes + 4321,
        ]
        .into_iter()
        .enumerate()
        {
            let name = format!("/objects/{i}");
            let data = pattern(size, i as u64);
            let meta = pipe.put(&name, &data).expect("put succeeds");
            assert_eq!(meta.size, size, "{choice:?} {name}");
            assert_eq!(meta.stripes.len(), size.div_ceil(stripe_bytes).max(1));
            assert_eq!(pipe.get(&name).expect("get succeeds"), data, "{choice:?}");
        }
        // Range reads at block and stripe boundaries of the big object.
        let data = pattern(3 * stripe_bytes + 4321, 4);
        for range in [
            0..0,
            0..1,
            BLOCK - 10..BLOCK + 10,
            stripe_bytes - 1..stripe_bytes + 1,
            2 * stripe_bytes..3 * stripe_bytes,
            data.len() - 7..data.len(),
        ] {
            assert_eq!(
                pipe.get_range("/objects/4", range.clone()).expect("range"),
                &data[range.clone()],
                "{choice:?} {range:?}"
            );
        }
        let report = pipe.shutdown();
        assert_eq!(report.failed_repairs, 0);
        assert_eq!(report.blocks_repaired, 0, "native reads repair nothing");
    }
}

/// A killed node — reported or silent — never costs a byte: reads fall
/// back to manager-prioritized degraded reads and heal the cluster.
#[test]
fn degraded_reads_survive_node_death_on_both_backends() {
    for choice in BACKENDS {
        let pipe = build(choice, false, 10);
        let data = pattern(2 * 4 * BLOCK + 999, 7);
        let meta = pipe.put("/victim", &data).expect("put succeeds");

        // Reported death: background recovery races the client read.
        let victim = pipe
            .cluster()
            .node_of(meta.stripes[0], 0)
            .expect("placed block");
        let lost = pipe.kill_node(victim);
        assert!(!lost.is_empty());
        pipe.report_node_failure(victim);
        assert_eq!(pipe.get("/victim").expect("read during recovery"), data);
        pipe.wait_idle();

        // Silent death: nobody reports it; the read itself discovers the
        // missing blocks and repairs around them.
        let silent = pipe
            .cluster()
            .node_of(meta.stripes[1], 2)
            .expect("placed block");
        assert!(!pipe.kill_node(silent).is_empty());
        assert_eq!(pipe.get("/victim").expect("read after silent death"), data);

        // Healed: a re-read moves no repair traffic at all.
        let bytes = pipe.transport().total_bytes();
        assert_eq!(pipe.get("/victim").expect("clean re-read"), data);
        assert_eq!(pipe.transport().total_bytes(), bytes, "{choice:?}");

        let report = pipe.shutdown();
        assert_eq!(report.failed_repairs, 0, "{choice:?}");
        assert!(report.degraded_wait.count > 0, "{choice:?}");
    }
}

/// Range reads over a corrupt chunk detect the rot (checksummed stores),
/// heal the block in place at degraded-read priority, and return the right
/// bytes; the store verifies clean afterwards.
#[test]
fn range_reads_heal_corrupt_chunks_on_both_backends() {
    for choice in BACKENDS {
        let pipe = build(choice, true, 9);
        let data = pattern(4 * BLOCK, 11);
        let meta = pipe.put("/rotten", &data).expect("put succeeds");

        // Flip a byte inside block 1, within the range we will read.
        let corrupt_offset = 5000;
        pipe.corrupt(meta.stripes[0], 1, corrupt_offset)
            .expect("inject corruption");
        assert!(pipe.verify_block(meta.stripes[0], 1).is_err());

        // The range covers the corrupt chunk: the read must detect the rot
        // (not serve poisoned bytes), heal in place, and return the truth.
        let range = BLOCK + 4096..BLOCK + 8192;
        assert_eq!(
            pipe.get_range("/rotten", range.clone())
                .expect("range read"),
            &data[range],
            "{choice:?}"
        );
        assert!(
            pipe.verify_block(meta.stripes[0], 1).is_ok(),
            "{choice:?}: the heal must refresh the checksums in place"
        );
        // Healed in place: the placement did not move.
        let holder = pipe.cluster().node_of(meta.stripes[0], 1).expect("placed");
        let block = repair_pipelining::ecc::stripe::BlockId {
            stripe: meta.stripes[0],
            index: 1,
        };
        assert!(pipe.cluster().store(holder).contains(block));

        // A corrupt chunk *outside* every read range stays undetected by
        // ranged reads but is caught by a scrub.
        pipe.corrupt(meta.stripes[0], 2, BLOCK - 100)
            .expect("inject corruption");
        assert_eq!(
            pipe.get_range("/rotten", 2 * BLOCK..2 * BLOCK + 64)
                .expect("range"),
            &data[2 * BLOCK..2 * BLOCK + 64]
        );
        let cycle = pipe.scrub(&ScrubConfig::default());
        assert_eq!(cycle.corrupt.len(), 1, "{choice:?}");
        assert!(cycle.still_corrupt.is_empty(), "{choice:?}");

        let report = pipe.shutdown();
        assert_eq!(report.failed_repairs, 0, "{choice:?}");
    }
}

/// On a cluster with no spare nodes (`nodes == n`), a repaired block cannot
/// take over its placement (every live node already holds a block of the
/// stripe, and the router refuses to co-locate two). Reads must still
/// serve the repaired copy — found by scanning — instead of failing or
/// re-repairing forever.
#[test]
fn reads_survive_node_death_with_no_spare_nodes() {
    let pipe = build(TransportChoice::Channel, false, 6);
    let data = pattern(4 * BLOCK + 123, 13);
    let meta = pipe
        .put("/minimal", &data)
        .expect("put on a minimal cluster");
    let victim = pipe
        .cluster()
        .node_of(meta.stripes[0], 0)
        .expect("placed block");
    pipe.kill_node(victim);
    pipe.report_node_failure(victim);
    pipe.wait_idle();
    // Two reads: the repaired-but-unplaceable copy must be found both
    // times, and the second read must not pay another repair.
    assert_eq!(pipe.get("/minimal").expect("first read"), data);
    let bytes = pipe.transport().total_bytes();
    assert_eq!(pipe.get("/minimal").expect("second read"), data);
    assert_eq!(
        pipe.transport().total_bytes(),
        bytes,
        "a stray repaired copy must be served, not re-repaired"
    );
    let report = pipe.shutdown();
    assert_eq!(report.failed_repairs, 0);
}

/// The façade surfaces node health, and `put` refuses to place stripes when
/// too few nodes are alive.
#[test]
fn put_respects_liveness() {
    let pipe = build(TransportChoice::Channel, false, 7);
    pipe.kill_node(6);
    pipe.report_node_failure(6);
    assert_eq!(pipe.node_health(6), NodeHealth::Dead);
    // 6 live nodes are exactly n: still placeable.
    let data = pattern(BLOCK, 3);
    let meta = pipe.put("/tight", &data).expect("placeable on 6 nodes");
    assert!(!pipe
        .cluster()
        .placement(meta.stripes[0])
        .expect("placement recorded")
        .contains(&6));
    pipe.kill_node(5);
    pipe.report_node_failure(5);
    pipe.wait_idle();
    assert!(pipe.put("/too-tight", &data).is_err());
    pipe.shutdown();
}

/// Strategy choice is honored end to end: degraded reads execute with the
/// configured strategy, for every code width, on unaligned objects.
#[test]
fn strategies_serve_degraded_reads() {
    for (n, k) in [(6, 4), (9, 6), (14, 10)] {
        for strategy in [
            Scheme::Conventional,
            Scheme::Ppr,
            Scheme::RepairPipelining,
            Scheme::BlockPipeline,
            Scheme::CyclicRepairPipelining,
        ] {
            let pipe = EcPipeBuilder::new()
                .code(n, k)
                .block_size(BLOCK)
                .slice_size(SLICE)
                .store(StoreBackend::memory(n + 3))
                .strategy(strategy)
                .build()
                .expect("façade builds");
            let data = pattern(k * BLOCK + 999, 21);
            let meta = pipe.put("/s", &data).expect("put");
            pipe.erase_block(meta.stripes[0], 1);
            assert_eq!(
                pipe.get("/s").expect("degraded read"),
                data,
                "({n},{k}) {strategy}"
            );
            assert_eq!(pipe.shutdown().blocks_repaired, 1);
        }
    }
}

/// An LRC-coded deployment repairs a lost data block from its local group
/// alone: `k / l` blocks cross the network, not `k`. The group stays local
/// for the next repair in it, and a group that lost two blocks repairs the
/// first from the global parities and the second locally again.
#[test]
fn lrc_backed_system_repairs_locally() {
    let (k, groups) = (12, 2);
    let local = k / groups * BLOCK;
    // The blocks of group 0 erased before each read, and the bytes all the
    // reads' repairs move.
    let cases: [(&[&[usize]], usize); 2] =
        [(&[&[3], &[1]], 2 * local), (&[&[1, 3]], k * BLOCK + local)];
    for (reads, bytes) in cases {
        let pipe = EcPipeBuilder::new()
            .erasure_code(Arc::new(Lrc::new(k, groups, 2).expect("valid LRC")))
            .block_size(BLOCK)
            .slice_size(SLICE)
            .store(StoreBackend::memory(20))
            .build()
            .expect("façade builds");
        let data = pattern(k * BLOCK, 31);
        let meta = pipe.put("/lrc", &data).expect("put");
        let mut erased = 0;
        for &blocks in reads {
            for &index in blocks {
                assert!(pipe.erase_block(meta.stripes[0], index));
            }
            erased += blocks.len();
            assert_eq!(pipe.get("/lrc").expect("degraded read"), data);
        }
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, erased, "{reads:?}");
        assert_eq!(report.failed_repairs, 0, "{reads:?}");
        assert_eq!(report.network_bytes, bytes as u64, "{reads:?}");
    }
}
