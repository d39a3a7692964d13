//! Regression tests for degenerate inputs: the smallest legal codes, blocks
//! and paths must repair correctly rather than panic, and clearly-invalid
//! inputs must surface typed errors.

use std::sync::Arc;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::stripe::{BlockId, StripeId};
use repair_pipelining::ecc::{CodeError, ErasureCode, Lrc, ReedSolomon};
use repair_pipelining::ecpipe::exec::{execute_multi, execute_single};
use repair_pipelining::ecpipe::transport::ChannelTransport;
use repair_pipelining::ecpipe::{Cluster, Coordinator, EcPipeBuilder, Scheme, StoreBackend};
use repair_pipelining::gf256::Matrix;
use repair_pipelining::repair::weighted_path::{optimal_path, WeightMatrix};
use repair_pipelining::repair::{ppr, rp, SingleRepairJob};
use repair_pipelining::simnet::{self, NodeId};

/// Plans and walks the repair of block `failed` onto `requestor` over
/// channels, stores the block there and returns its bytes.
fn repair(
    cluster: &Cluster,
    coordinator: &Coordinator,
    (stripe, failed, requestor): (StripeId, usize, NodeId),
    strategy: Scheme,
) -> Vec<u8> {
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, failed, requestor)
        .unwrap();
    let transport = ChannelTransport::new();
    let repaired = execute_single(&directive, cluster, &transport, strategy).unwrap();
    let block = BlockId::new(stripe.0, failed);
    cluster
        .store(requestor)
        .put(block, repaired.clone())
        .unwrap();
    repaired.to_vec()
}

/// The smallest legal MDS code, `(2, 1)`: a repair job with a single helper
/// must work through every execution strategy (the pipeline degenerates to a
/// direct copy).
#[test]
fn k1_repair_through_every_strategy() {
    let code = Arc::new(ReedSolomon::new(2, 1).unwrap());
    let layout = SliceLayout::new(4096, 512);
    let data = vec![(0..4096).map(|i| (i % 251) as u8).collect::<Vec<u8>>()];
    let coded = code.encode(&data).unwrap();

    for failed in [0usize, 1] {
        let coordinator = Coordinator::new(code.clone(), layout);
        let cluster = Cluster::new(StoreBackend::memory(4)).unwrap();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        cluster.erase_block(stripe, failed);
        for strategy in [
            Scheme::Conventional,
            Scheme::Ppr,
            Scheme::RepairPipelining,
            Scheme::BlockPipeline,
            Scheme::CyclicRepairPipelining,
        ] {
            let repaired = repair(&cluster, &coordinator, (stripe, failed, 3), strategy);
            assert_eq!(repaired, coded[failed], "failed={failed} {strategy:?}");
        }
    }
}

/// A single-helper job is a valid degenerate path for every scheduler. The
/// cyclic plan's degenerate shapes — one helper, two, and fewer slices than
/// `k − 1` chains — each move exactly one block into the requestor, in the
/// simulator and through the walker, byte-exact.
#[test]
fn k1_schedules_are_well_formed() {
    let job = SingleRepairJob::new(vec![0], 1, SliceLayout::new(1024, 256));
    assert_eq!(job.k(), 1);
    // None of the schedule builders may panic on a one-hop path.
    let _ = Scheme::RepairPipelining.schedule(&job);
    let _ = Scheme::BlockPipeline.schedule(&job);
    let _ = rp::schedule_pipe_s(&job);
    let _ = Scheme::Conventional.schedule(&job);
    let _ = Scheme::Ppr.schedule(&job);
    let _ = Scheme::CyclicRepairPipelining.schedule(&job);

    let block = 1024;
    for (k, slices) in [(1, 4), (2, 4), (5, 2)] {
        let code = Arc::new(ReedSolomon::new(k + 1, k).unwrap());
        let layout = SliceLayout::new(block, block / slices);
        let coordinator = Coordinator::new(code, layout);
        let cluster = Cluster::new(StoreBackend::memory(k + 2)).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..block).map(|b| ((b * 7 + i) % 251) as u8).collect())
            .collect();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        cluster.erase_block(stripe, 0);
        let requestor = k + 1;
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 0, requestor)
            .unwrap();
        let dag = Scheme::CyclicRepairPipelining.dag(&directive.path, requestor, layout);
        let sim = simnet::Simulator::new(
            simnet::Topology::flat(k + 2, simnet::GBIT),
            simnet::CostModel::network_only(),
        );
        let report = sim.run(&dag.schedule());
        let delivered = report
            .link_bytes
            .iter()
            .filter(|((_, dst), _)| *dst == requestor);
        let case = format!("cyclic, k = {k}, {slices} slices");
        assert_eq!(
            delivered.map(|(_, bytes)| bytes).sum::<u64>(),
            block as u64,
            "{case}"
        );
        let transport = ChannelTransport::new();
        let scheme = Scheme::CyclicRepairPipelining;
        let repaired = execute_single(&directive, &cluster, &transport, scheme);
        assert_eq!(repaired.unwrap(), data[0], "{case}");
    }
}

/// PPR aggregation over a single helper is one direct delivery.
#[test]
fn ppr_rounds_single_helper() {
    let rounds = ppr::aggregation_rounds(&[4], 9);
    let transfers: usize = rounds.iter().map(|r| r.len()).sum();
    assert_eq!(transfers, 1);
    assert!(rounds
        .iter()
        .flatten()
        .any(|&(src, dst)| src == 4 && dst == 9));
}

/// One-byte blocks: the layout collapses to a single one-byte slice and the
/// whole runtime still round-trips the bytes.
#[test]
fn one_byte_block_repair() {
    let code = Arc::new(ReedSolomon::new(5, 3).unwrap());
    let layout = SliceLayout::new(1, 1);
    assert_eq!(layout.slice_count(), 1);
    assert_eq!(layout.slice_len(0), 1);

    let data = vec![vec![7u8], vec![11u8], vec![13u8]];
    let coded = code.encode(&data).unwrap();
    let coordinator = Coordinator::new(code.clone(), layout);
    let cluster = Cluster::new(StoreBackend::memory(7)).unwrap();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    cluster.erase_block(stripe, 2);
    let repaired = repair(
        &cluster,
        &coordinator,
        (stripe, 2, 6),
        Scheme::RepairPipelining,
    );
    assert_eq!(repaired, coded[2]);
}

/// Slice sizes larger than the block are clamped rather than producing
/// zero-byte slices.
#[test]
fn oversized_slice_is_clamped_not_zero() {
    let layout = SliceLayout::new(10, 1 << 20);
    assert_eq!(layout.slice_count(), 1);
    assert_eq!(layout.slice_range(0), 0..10);
}

/// Zero-sized layouts are rejected loudly (documented panic), not by
/// producing empty slices that would wedge the pipeline.
#[test]
#[should_panic(expected = "block size must be positive")]
fn zero_block_size_is_rejected() {
    let _ = SliceLayout::new(0, 1024);
}

#[test]
#[should_panic(expected = "slice size must be positive")]
fn zero_slice_size_is_rejected() {
    let _ = SliceLayout::new(1024, 0);
}

/// Singular matrices must report `None` from inversion, never panic, and the
/// codes must translate that into a typed error.
#[test]
fn singular_matrix_inversion_returns_none() {
    // Two identical rows: rank 1.
    let singular = Matrix::from_bytes(2, 2, &[3, 5, 3, 5]);
    assert!(singular.invert().is_none());
    // The all-zero matrix.
    assert!(Matrix::zero(4, 4).invert().is_none());
}

/// Asking for a decode with fewer than `k` blocks is an error, not a panic.
#[test]
fn insufficient_blocks_is_a_typed_error() {
    let rs = ReedSolomon::new(6, 4).unwrap();
    let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
    let coded = rs.encode(&data).unwrap();
    let few: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i, coded[i].clone())).collect();
    match rs.decode(&few) {
        Err(CodeError::NotEnoughBlocks { needed, available }) => {
            assert_eq!((needed, available), (4, 3));
        }
        other => panic!("expected NotEnoughBlocks, got {other:?}"),
    }
    match rs.repair_plan(0, &[1, 2, 3]) {
        Err(CodeError::NotEnoughBlocks { .. }) => {}
        other => panic!("expected NotEnoughBlocks, got {other:?}"),
    }
}

/// Invalid code parameters are rejected at construction.
#[test]
fn invalid_code_parameters_are_rejected() {
    assert!(ReedSolomon::new(4, 0).is_err());
    assert!(ReedSolomon::new(4, 4).is_err());
    assert!(ReedSolomon::new(3, 5).is_err());
    assert!(ReedSolomon::new(300, 10).is_err());
}

/// Weighted path search at the degenerate extremes: a path of one helper, and
/// a path using every candidate.
#[test]
fn weighted_path_degenerate_sizes() {
    let n = 5;
    let weights: Vec<f64> = (0..n * n).map(|i| 0.1 + (i % 7) as f64 * 0.1).collect();
    let w = WeightMatrix::new(n, weights);
    let candidates: Vec<usize> = (1..n).collect();

    let single = optimal_path(&w, 0, &candidates, 1).unwrap();
    assert_eq!(single.path.len(), 1);

    let all = optimal_path(&w, 0, &candidates, candidates.len()).unwrap();
    assert_eq!(all.path.len(), candidates.len());

    // Asking for more helpers than exist must not panic.
    assert!(optimal_path(&w, 0, &candidates, candidates.len() + 1).is_none());
    assert!(optimal_path(&w, 0, &candidates, 0).is_none());
}

/// LRC local repair when only the local group survives: the plan must use the
/// local parity alone and still reconstruct the exact bytes.
#[test]
fn lrc_local_repair_with_minimal_availability() {
    let lrc = Lrc::new(12, 2, 2).unwrap();
    let data: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8; 8]).collect();
    let coded = lrc.encode(&data).unwrap();
    let avail: Vec<usize> = lrc
        .group_members(0)
        .into_iter()
        .filter(|&i| i != 0)
        .collect();
    let plan = lrc.repair_plan(0, &avail).unwrap();
    let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
    assert_eq!(plan.evaluate(&blocks), coded[0]);
}

/// Multi-block repair where every failed block is a parity block.
#[test]
fn multi_repair_of_all_parity_blocks() {
    let code = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let layout = SliceLayout::new(4096, 1024);
    let coordinator = Coordinator::new(code.clone(), layout);
    let cluster = Cluster::new(StoreBackend::memory(20)).unwrap();
    let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 4096]).collect();
    let coded = code.encode(&data).unwrap();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    let failed = vec![10, 11, 12, 13];
    for &f in &failed {
        cluster.erase_block(stripe, f);
    }
    let directive = coordinator
        .plan_multi_repair(cluster.meta(), stripe, &failed, &[16, 17, 18, 19])
        .unwrap();
    let transport = ChannelTransport::new();
    let repaired = execute_multi(&directive, &cluster, &transport).unwrap();
    for (j, &f) in directive.plan.failed.iter().enumerate() {
        assert_eq!(repaired[j], coded[f], "parity block {f}");
    }
}

/// Objects smaller than one block (and empty objects) round-trip through the
/// façade, including a degraded read of a sub-block object whose only data
/// block is erased.
#[test]
fn sub_block_and_empty_objects() {
    let pipe = EcPipeBuilder::new()
        .code(14, 10)
        .block_size(1024)
        .slice_size(256)
        .store(StoreBackend::memory(20))
        .strategy(Scheme::RepairPipelining)
        .build()
        .unwrap();

    let meta = pipe.put("/tiny", &[1, 2, 3]).unwrap();
    pipe.erase_block(meta.stripes[0], 0);
    assert_eq!(pipe.get("/tiny").unwrap(), vec![1, 2, 3]);

    pipe.put("/empty", &[]).unwrap();
    assert!(pipe.get("/empty").unwrap().is_empty());
    assert_eq!(pipe.shutdown().blocks_repaired, 1);
}

/// An empty schedule and a single-task schedule both simulate cleanly.
#[test]
fn simulator_degenerate_schedules() {
    let topo = simnet::Topology::flat(4, 1e9);
    let sim = simnet::Simulator::new(topo, simnet::CostModel::default());
    let report = sim.run(&simnet::Schedule::new());
    assert_eq!(report.makespan, 0.0);

    let mut s = simnet::Schedule::new();
    s.transfer(0, 1, 1024, &[]);
    assert!(sim.run(&s).makespan > 0.0);
}
