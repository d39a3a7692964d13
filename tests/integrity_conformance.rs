//! Integrity conformance suite: silent bit-rot is detected, repaired and
//! re-verified — and never poisons a repair — on both transport backends.
//!
//! Generic cases instantiated for [`ChannelTransport`] and
//! [`TcpTransport`]: a scrub cycle over a checksummed cluster finds injected corruption,
//! auto-enqueues corruption-class repairs, heals the blocks byte-exact in
//! place and re-verifies them; a helper serving a corrupt slice mid-stream
//! fails the repair cleanly (the executor surfaces `CorruptBlock`, not a
//! generic stream error), the manager re-plans around the rotten block
//! without a liveness strike, and the rot itself is auto-healed. Channel-only
//! cases pin the scheduling and pacing: corruption repairs pop between
//! degraded reads and background recovery, the scrubber's token bucket
//! actually paces the scan, and a file-backed store whose block files carry
//! their own checksum trailers survives on-disk tampering end to end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::stripe::{BlockId, StripeId};
use repair_pipelining::ecc::{ErasureCode, ReedSolomon};
use repair_pipelining::ecpipe::exec::{execute_multi, execute_single};
use repair_pipelining::ecpipe::manager::{
    ManagerConfig, NodeHealth, RepairManager, RepairPriority, RepairRequest, ScrubConfig,
};
use repair_pipelining::ecpipe::transport::{ChannelTransport, TcpTransport, Transport};
use repair_pipelining::ecpipe::{
    BlockChecksums, BlockStore, Cluster, Coordinator, EcPipeError, FileStore, Scheme, StoreBackend,
    DEFAULT_CHUNK_SIZE,
};

const BLOCK: usize = 16 * 1024;
const SLICE: usize = 2 * 1024;
/// Stripes live on nodes `0..12`; nodes 12 and 13 are replacement
/// requestors holding no stripe blocks.
const STORAGE_NODES: usize = 12;
const NODES: usize = 14;
const STRIPES: u64 = 24;

/// A 14-node cluster of checksum-verifying stores holding 24 (6,4) stripes.
fn build_cluster() -> (Coordinator, Cluster, Vec<Vec<Vec<u8>>>) {
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory_checksummed(NODES)).unwrap();
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

/// Injected corruption on three helpers is detected by a scrub cycle,
/// auto-enqueued as corruption-class repairs, healed byte-exact in place,
/// and re-verified — all folded into the manager report.
fn case_scrub_detects_repairs_and_reverifies<T: Transport + Send + Sync + 'static>(transport: T) {
    let (coordinator, cluster, originals) = build_cluster();
    // Three rotten blocks on three different healthy nodes.
    let rotten = [(2u64, 1usize), (7, 0), (11, 3)];
    for &(s, i) in &rotten {
        cluster.corrupt_block(StripeId(s), i, BLOCK / 3).unwrap();
        assert!(matches!(
            cluster.verify_block(StripeId(s), i),
            Err(EcPipeError::CorruptBlock { .. })
        ));
    }
    let config = ManagerConfig {
        workers: 2,
        ..ManagerConfig::default()
    };
    let manager = RepairManager::start(coordinator, cluster, transport, config);

    let cycle = manager.scrub(&ScrubConfig::default());
    assert_eq!(cycle.blocks_scanned, (STRIPES as usize) * 6);
    assert_eq!(
        cycle.bytes_scanned,
        ((STRIPES as usize) * 6 - rotten.len()) as u64 * BLOCK as u64,
        "corrupt blocks contribute no verified bytes"
    );
    assert_eq!(cycle.corrupt.len(), rotten.len());
    for &(s, i) in &rotten {
        assert!(cycle.corrupt.contains(&BlockId::new(s, i)));
    }
    assert_eq!(cycle.repairs_enqueued, rotten.len());
    assert_eq!(cycle.reverified_clean, rotten.len());
    assert!(cycle.still_corrupt.is_empty(), "{:?}", cycle.still_corrupt);

    // Healed in place, byte-exact, and verifiable again.
    for &(s, i) in &rotten {
        assert!(manager.cluster().verify_block(StripeId(s), i).is_ok());
        assert_eq!(
            manager.cluster().read_block(StripeId(s), i).unwrap(),
            expected_block(&originals, BlockId::new(s, i)),
            "block s{s}b{i} not healed byte-exact"
        );
    }

    // A second cycle finds nothing left to fix.
    let second = manager.scrub(&ScrubConfig::default());
    assert!(second.corrupt.is_empty());
    assert_eq!(second.repairs_enqueued, 0);

    let report = manager.shutdown();
    assert_eq!(report.blocks_repaired, rotten.len());
    assert_eq!(report.failed_repairs, 0);
    assert_eq!(report.corruption_wait.count, rotten.len());
    assert_eq!(report.scrub_cycles.len(), 2);
    assert_eq!(report.blocks_scrubbed(), 2 * (STRIPES as usize) * 6);
    assert_eq!(report.corruption_detected(), rotten.len());
}

/// A helper that reads a corrupt local slice mid-stream fails the repair
/// cleanly, whatever the repair's shape: the degraded read is re-planned
/// around the rotten block (no liveness strike — the node is healthy),
/// reconstructs byte-exact (no poisoned partials reach the requestor), and
/// the rot itself is auto-enqueued and healed in place.
fn case_corrupt_helper_replans_and_autoheals<T: Transport + Send + Sync + 'static>(
    make: impl Fn() -> T,
) {
    for strategy in [
        Scheme::Conventional,
        Scheme::Ppr,
        Scheme::RepairPipelining,
        Scheme::BlockPipeline,
        Scheme::CyclicRepairPipelining,
    ] {
        corrupt_helper_replans_and_autoheals(make(), strategy);
    }
}

fn corrupt_helper_replans_and_autoheals<T: Transport + Send + Sync + 'static>(
    transport: T,
    strategy: Scheme,
) {
    let (coordinator, cluster, originals) = build_cluster();
    // Stripe 0 lives on nodes 0..=5. Erase block 0 and rot block 1 — the
    // first LRU plan picks helpers {1, 2, 3, 4}, so the repair must trip
    // over the corruption mid-stream.
    cluster.erase_block(StripeId(0), 0);
    cluster.corrupt_block(StripeId(0), 1, BLOCK / 2).unwrap();
    let config = ManagerConfig {
        workers: 1,
        strategy,
        ..ManagerConfig::default()
    };
    let manager = RepairManager::start(coordinator, cluster, transport, config);
    assert!(manager.degraded_read(StripeId(0), 0, 13).unwrap());
    manager.wait_idle();

    // The degraded read landed byte-exact despite the corrupt helper.
    assert_eq!(
        manager.cluster().store(13).get(BlockId::new(0, 0)).unwrap(),
        expected_block(&originals, BlockId::new(0, 0)),
        "{strategy}"
    );
    // Corruption is not node death: node 1 took no strike...
    assert_eq!(manager.node_health(1), NodeHealth::Alive);
    // ...but its rotten block was auto-repaired in place and verifies.
    assert!(manager.cluster().verify_block(StripeId(0), 1).is_ok());
    assert_eq!(
        manager.cluster().read_block(StripeId(0), 1).unwrap(),
        expected_block(&originals, BlockId::new(0, 1)),
    );

    let report = manager.shutdown();
    assert_eq!(
        report.blocks_repaired, 2,
        "degraded read + corruption heal under {strategy}"
    );
    assert_eq!(report.failed_repairs, 0);
    assert_eq!(
        report.replans, 1,
        "one re-plan around the rotten helper under {strategy}"
    );
    assert_eq!(report.corruption_wait.count, 1);
    assert_eq!(report.degraded_wait.count, 1);
}

/// The executor surfaces `CorruptBlock` naming the rotten helper block — not
/// a generic stream error — under every strategy and for a multi-block plan
/// (`None`), so callers can re-plan around the actual culprit.
fn case_exec_surfaces_corrupt_block<T: Transport + Send + Sync>(transport: &T) {
    for shape in [
        Some(Scheme::Conventional),
        Some(Scheme::Ppr),
        Some(Scheme::RepairPipelining),
        Some(Scheme::BlockPipeline),
        Some(Scheme::CyclicRepairPipelining),
        None,
    ] {
        let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
        let cluster = Cluster::new(StoreBackend::memory_checksummed(8)).unwrap();
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..BLOCK).map(|b| ((b * 7 + i * 31) % 250) as u8).collect())
            .collect();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        cluster.erase_block(stripe, 2);
        // Rot one of the helpers the plan uses (block 1 is always in the
        // CodeDefault helper set {0, 1, 3, 4}, which is also all that is
        // left once blocks 2 and 5 are both lost).
        cluster.corrupt_block(stripe, 1, BLOCK - 1).unwrap();
        let result = match shape {
            Some(strategy) => {
                let directive = coordinator
                    .plan_single_repair(cluster.meta(), stripe, 2, 7)
                    .unwrap();
                execute_single(&directive, &cluster, transport, strategy).map(|block| vec![block])
            }
            None => {
                cluster.erase_block(stripe, 5);
                let directive = coordinator
                    .plan_multi_repair(cluster.meta(), stripe, &[2, 5], &[7, 6])
                    .unwrap();
                execute_multi(&directive, &cluster, transport)
            }
        };
        match result {
            Err(EcPipeError::CorruptBlock { block, .. }) => {
                assert_eq!(block, BlockId::new(0, 1), "shape {shape:?}")
            }
            other => panic!("shape {shape:?}: expected CorruptBlock, got {other:?}"),
        }
    }
}

macro_rules! integrity_suite {
    ($backend:ident, $make:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn scrub_detects_repairs_and_reverifies() {
                case_scrub_detects_repairs_and_reverifies($make);
            }

            #[test]
            fn corrupt_helper_replans_and_autoheals() {
                case_corrupt_helper_replans_and_autoheals(|| $make);
            }

            #[test]
            fn exec_surfaces_corrupt_block() {
                case_exec_surfaces_corrupt_block(&$make);
            }
        }
    };
}

integrity_suite!(channel, ChannelTransport::new());
integrity_suite!(tcp, TcpTransport::new());

/// Corruption repairs pop between degraded reads and background recovery
/// (single worker makes the completion order fully deterministic).
#[test]
fn corruption_priority_sits_between_degraded_and_background() {
    let (coordinator, cluster, originals) = build_cluster();
    let mut requests = Vec::new();
    for s in 0..4u64 {
        cluster.erase_block(StripeId(s), 0);
        requests.push(RepairRequest {
            stripe: StripeId(s),
            failed: 0,
            requestor: 12,
            priority: RepairPriority::Background,
        });
    }
    for s in 4..6u64 {
        // The corrupt copy stays on its node; the repair overwrites it.
        cluster.corrupt_block(StripeId(s), 1, 99).unwrap();
        let holder = (s as usize + 1) % STORAGE_NODES;
        requests.push(RepairRequest {
            stripe: StripeId(s),
            failed: 1,
            requestor: holder,
            priority: RepairPriority::Corruption,
        });
    }
    // Stripe 6's degraded read holds one slow worker (throttled links)
    // while the rest queue behind it.
    cluster.erase_block(StripeId(7), 2);
    requests.push(RepairRequest {
        stripe: StripeId(7),
        failed: 2,
        requestor: 13,
        priority: RepairPriority::DegradedRead,
    });
    cluster.erase_block(StripeId(6), 2);
    let manager = RepairManager::start(
        coordinator,
        cluster,
        ChannelTransport::with_rate_limit(1024 * 1024),
        ManagerConfig::default().with_workers(1),
    );
    assert!(manager.degraded_read(StripeId(6), 2, 13).unwrap());
    while manager.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for request in requests {
        assert!(manager.enqueue(request).unwrap());
    }
    manager.wait_idle();
    // The corrupt copies were overwritten in place with the true bytes.
    for s in 4..6u64 {
        assert!(manager.cluster().verify_block(StripeId(s), 1).is_ok());
        assert_eq!(
            manager.cluster().read_block(StripeId(s), 1).unwrap(),
            expected_block(&originals, BlockId::new(s, 1)),
        );
    }
    let report = manager.shutdown();
    assert_eq!(report.blocks_repaired, 8);
    let seq_of = |p: RepairPriority| {
        report
            .outcomes
            .iter()
            .filter(|o| o.priority == p)
            .map(|o| o.finished_seq)
            .collect::<Vec<_>>()
    };
    let degraded = seq_of(RepairPriority::DegradedRead);
    let corruption = seq_of(RepairPriority::Corruption);
    let background = seq_of(RepairPriority::Background);
    assert!(
        degraded.iter().max() < corruption.iter().min(),
        "degraded {degraded:?} must finish before corruption {corruption:?}"
    );
    assert!(
        corruption.iter().max() < background.iter().min(),
        "corruption {corruption:?} must finish before background {background:?}"
    );
    assert_eq!(report.corruption_wait.count, 2);
}

/// The scrubber's token bucket actually paces the scan: verifying ~1.5 MiB
/// at 4 MiB/s must take a measurable fraction of a second, while an unpaced
/// cycle over the same data is far faster.
#[test]
fn scrub_pacing_throttles_the_scan() {
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory_checksummed(8)).unwrap();
    let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; BLOCK]).collect();
    for s in 0..16u64 {
        cluster.write_stripe(coordinator.code(), s, &data).unwrap();
    }
    let manager = RepairManager::start(
        coordinator,
        cluster,
        ChannelTransport::new(),
        ManagerConfig::default(),
    );
    let total_bytes = 16 * 6 * BLOCK as u64; // 1.5 MiB

    let start = Instant::now();
    let unpaced = manager.scrub(&ScrubConfig::default());
    let unpaced_elapsed = start.elapsed();
    assert_eq!(unpaced.bytes_scanned, total_bytes);

    let rate = 4 * 1024 * 1024;
    let start = Instant::now();
    let paced = manager.scrub(&ScrubConfig::default().with_rate(rate));
    let paced_elapsed = start.elapsed();
    assert_eq!(paced.bytes_scanned, total_bytes);
    // 1.5 MiB at 4 MiB/s is ~375 ms of token-bucket time; allow slack for
    // the initial burst and scheduling, but far above the unpaced cycle.
    let floor = Duration::from_millis(200);
    assert!(
        paced_elapsed >= floor,
        "paced scrub finished in {paced_elapsed:?}, throttle not engaged"
    );
    assert!(
        paced_elapsed > unpaced_elapsed,
        "paced {paced_elapsed:?} should exceed unpaced {unpaced_elapsed:?}"
    );
    manager.shutdown();
}

/// End to end on disk: a file-backed cluster whose block files carry their
/// checksums detects bytes tampered directly in a block file, heals them
/// through a scrub, and leaves the on-disk block byte-exact and verifiable.
#[test]
fn file_backed_scrub_survives_on_disk_tampering() {
    let root = std::env::temp_dir().join(format!("ecpipe-disk-scrub-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let stores: Vec<Arc<dyn BlockStore>> = (0..8)
        .map(|n| {
            Arc::new(FileStore::open_checksummed(root.join(format!("node{n}"))).unwrap())
                as Arc<dyn BlockStore>
        })
        .collect();
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::custom(stores)).unwrap();
    let data: Vec<Vec<u8>> = (0..4)
        .map(|i| (0..BLOCK).map(|b| ((b * 13 + i * 7) % 240) as u8).collect())
        .collect();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    let victim_node = cluster.placement(stripe).unwrap()[1];

    // Tamper with the block file behind the store's back, as bit-rot would.
    let path = root.join(format!("node{victim_node}")).join("s0b1");
    let mut raw = std::fs::read(&path).unwrap();
    raw[5000] ^= 0x40;
    std::fs::write(&path, &raw).unwrap();
    assert!(matches!(
        cluster.verify_block(stripe, 1),
        Err(EcPipeError::CorruptBlock { .. })
    ));

    let manager = RepairManager::start(
        coordinator,
        cluster,
        ChannelTransport::new(),
        ManagerConfig::default(),
    );
    let cycle = manager.scrub(&ScrubConfig::default());
    assert_eq!(cycle.corrupt, vec![BlockId::new(0, 1)]);
    assert_eq!(cycle.reverified_clean, 1);
    assert!(cycle.still_corrupt.is_empty());
    manager.shutdown();

    // The on-disk file is the true bytes again, followed by their trailer:
    // the checksum record, its length and the footer magic. A *fresh* store
    // agrees they verify.
    let record = BlockChecksums::compute(&data[1], DEFAULT_CHUNK_SIZE).to_bytes();
    let footer = [&(record.len() as u32).to_le_bytes()[..], b"ECT\x01"].concat();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        [&data[1][..], &record, &footer].concat()
    );
    let reopened = FileStore::open_checksummed(root.join(format!("node{victim_node}"))).unwrap();
    assert!(reopened.verify(BlockId::new(0, 1)).is_ok());
    std::fs::remove_dir_all(&root).ok();
}
