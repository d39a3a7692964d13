//! End-to-end integration tests: the erasure-code layer, the repair planners
//! and the ECPipe runtime working together on real bytes.

use std::sync::Arc;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::stripe::BlockId;
use repair_pipelining::ecc::{ErasureCode, Lrc, ReedSolomon};
use repair_pipelining::ecpipe::exec::{execute_multi, execute_single};
use repair_pipelining::ecpipe::manager::{ManagerConfig, RepairManager};
use repair_pipelining::ecpipe::transport::{ChannelTransport, Transport};
use repair_pipelining::ecpipe::{Cluster, Coordinator, Scheme, StoreBackend};

const BLOCK: usize = 64 * 1024;

fn stripe_data(k: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..BLOCK)
                .map(|b| ((b as u64 * 131 + i as u64 * 17 + seed * 101) % 253) as u8)
                .collect()
        })
        .collect()
}

/// A degraded read through every execution strategy returns exactly the bytes
/// that were erased, for both RS and LRC codes.
#[test]
fn every_strategy_and_code_reconstructs_exact_bytes() {
    let codes: Vec<Arc<dyn ErasureCode>> = vec![
        Arc::new(ReedSolomon::new(14, 10).unwrap()),
        Arc::new(ReedSolomon::new(9, 6).unwrap()),
        Arc::new(Lrc::new(12, 2, 2).unwrap()),
    ];
    for code in codes {
        let k = code.k();
        let n = code.n();
        let layout = SliceLayout::new(BLOCK, 8 * 1024);
        let data = stripe_data(k, 7);
        let coded = code.encode(&data).unwrap();

        for failed in [0, k - 1, n - 1] {
            // A fresh cluster per failure so every helper block is in place.
            let coordinator = Coordinator::new(code.clone(), layout);
            let cluster = Cluster::new(StoreBackend::memory(n + 2)).unwrap();
            let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
            cluster.erase_block(stripe, failed);
            for strategy in [
                Scheme::Conventional,
                Scheme::Ppr,
                Scheme::RepairPipelining,
                Scheme::BlockPipeline,
                Scheme::CyclicRepairPipelining,
            ] {
                let directive = coordinator
                    .plan_single_repair(cluster.meta(), stripe, failed, n + 1)
                    .unwrap();
                let transport = ChannelTransport::new();
                let repaired = execute_single(&directive, &cluster, &transport, strategy).unwrap();
                let block = BlockId::new(stripe.0, failed);
                cluster.store(n + 1).put(block, repaired.clone()).unwrap();
                assert_eq!(repaired, coded[failed], "{} {:?}", code.name(), strategy);
            }
        }
    }
}

/// The multi-block repair of §4.4 reconstructs several failures at once with
/// each helper reading its block only once.
#[test]
fn multi_block_repair_end_to_end() {
    let code = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let layout = SliceLayout::new(BLOCK, 4 * 1024);
    let coordinator = Coordinator::new(code.clone(), layout);
    let cluster = Cluster::new(StoreBackend::memory(20)).unwrap();
    let data = stripe_data(10, 11);
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    let coded = code.encode(&data).unwrap();

    let failed = vec![0, 5, 11, 13];
    for &f in &failed {
        cluster.erase_block(stripe, f);
    }
    let directive = coordinator
        .plan_multi_repair(cluster.meta(), stripe, &failed, &[16, 17, 18, 19])
        .unwrap();
    let transport = ChannelTransport::new();
    let repaired = execute_multi(&directive, &cluster, &transport).unwrap();
    for (j, &f) in directive.plan.failed.iter().enumerate() {
        assert_eq!(repaired[j], coded[f], "failed block {f}");
    }
    // Traffic: inter-helper links carry f blocks each, deliveries one block
    // each; total = (k-1)*f + f blocks.
    let expected = (10 - 1) * failed.len() * BLOCK + failed.len() * BLOCK;
    assert_eq!(transport.total_bytes(), expected as u64);
}

/// Full-node recovery across stripes with greedy helper scheduling restores
/// every lost block bit-for-bit.
#[test]
fn full_node_recovery_end_to_end() {
    let code = Arc::new(ReedSolomon::new(9, 6).unwrap());
    let layout = SliceLayout::new(BLOCK, 16 * 1024);
    let coordinator = Coordinator::new(code.clone(), layout);
    let cluster = Cluster::new(StoreBackend::memory(14)).unwrap();
    let mut all_coded = Vec::new();
    for s in 0..12u64 {
        let data = stripe_data(6, s);
        all_coded.push(code.encode(&data).unwrap());
        cluster.write_stripe(coordinator.code(), s, &data).unwrap();
    }

    let failed_node = 3;
    let lost = cluster.kill_node(failed_node);
    assert!(!lost.is_empty());
    let config = ManagerConfig {
        auto_requestors: vec![12, 13],
        ..ManagerConfig::default().with_workers(1)
    };
    let manager = RepairManager::start(coordinator, cluster, ChannelTransport::new(), config);
    assert_eq!(manager.report_node_failure(failed_node), lost.len());
    manager.wait_idle();

    // Every block is rebuilt where the metadata now places it: on a pool
    // node, or — for stripes 10 and 11, which already hold a block on both
    // — on another live node holding none of the stripe.
    for &block in &lost {
        let expected = &all_coded[block.stripe.0 as usize][block.index];
        let node = manager
            .cluster()
            .node_of(block.stripe, block.index)
            .unwrap();
        let stored = manager.cluster().store(node).get(block);
        let found = node != failed_node && stored.is_ok_and(|b| b.as_ref() == expected.as_slice());
        assert!(
            found,
            "block {block} not correctly reconstructed on node {node}"
        );
    }
    let report = manager.shutdown();
    assert_eq!(report.blocks_repaired, lost.len());
    assert_eq!(report.failed_repairs, 0);
}

/// The plan evaluated algebraically (ecc), executed by the runtime (ecpipe)
/// and used by the planners (repair) all agree on the reconstructed bytes.
#[test]
fn plan_runtime_agreement() {
    let code = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let layout = SliceLayout::new(BLOCK, 8 * 1024);
    let coordinator = Coordinator::new(code.clone(), layout);
    let cluster = Cluster::new(StoreBackend::memory(16)).unwrap();
    let data = stripe_data(10, 21);
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    let coded = code.encode(&data).unwrap();

    cluster.erase_block(stripe, 12);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 12, 15)
        .unwrap();

    // Algebraic evaluation of the same plan.
    let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
    let algebraic = directive.plan.evaluate(&blocks);

    let transport = ChannelTransport::new();
    let runtime =
        execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining).unwrap();
    assert_eq!(algebraic, coded[12]);
    assert_eq!(runtime, coded[12]);
}
