//! Pins the zero-copy slice data path.
//!
//! The `bytes` shim counts every deep copy made at the `Bytes` layer
//! (`Bytes::copy_from_slice`, `Bytes::to_vec`); everything else — cloning,
//! slicing, freezing a pooled buffer, framing a message — shares the
//! allocation. These tests assert the counter stays flat across the hot
//! flows, so a future "just copy it here" regression fails loudly instead
//! of silently re-inflating memory traffic.
//!
//! The counter is process-global and monotonic, so concurrent tests can
//! only inflate a delta, never mask a copy: a zero delta is trustworthy,
//! and the flows below are all expected to be zero.

use ecpipe::exec::ExecStrategy;
use ecpipe::{Cluster, Coordinator, EcPipeBuilder, StoreBackend};

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 31 + seed * 17 + 7) % 251) as u8)
        .collect()
}

#[test]
fn degraded_get_performs_no_bytes_deep_copies() {
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(16 * 1024)
        .slice_size(2 * 1024)
        .store(StoreBackend::memory(8))
        .build()
        .unwrap();
    let data = pattern(4 * 16 * 1024, 11);

    // `put` makes its one copy of the object at the `Bytes` layer; the exact
    // count needs the counter to itself and is pinned in `put_one_copy.rs`.
    let meta = pipe.put("/pin", &data).unwrap();

    // Degraded read: the erased block is reconstructed through the full
    // encode → helper chain → store → transport framing path.
    pipe.erase_block(meta.stripes[0], 1);
    let before = bytes::shim_metrics::deep_copy_bytes();
    assert_eq!(pipe.get("/pin").unwrap(), data);
    assert_eq!(
        bytes::shim_metrics::deep_copy_bytes(),
        before,
        "a degraded get must move slices by reference, not by copy"
    );

    let report = pipe.shutdown();
    assert_eq!(report.blocks_repaired, 1);
}

#[test]
fn every_exec_strategy_repairs_without_bytes_deep_copies() {
    use std::sync::Arc;

    let code: Arc<dyn ecc::ErasureCode> = Arc::new(ecc::ReedSolomon::new(6, 4).unwrap());
    let layout = ecc::slice::SliceLayout::new(16 * 1024, 2 * 1024);
    for strategy in [
        ExecStrategy::Conventional,
        ExecStrategy::Ppr,
        ExecStrategy::RepairPipelining,
        ExecStrategy::BlockPipeline,
    ] {
        let coordinator = Coordinator::new(code.clone(), layout);
        let cluster = Cluster::new(StoreBackend::memory(8)).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| pattern(16 * 1024, i)).collect();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        cluster.erase_block(stripe, 2);

        let before = bytes::shim_metrics::deep_copy_bytes();
        let repaired = cluster
            .repair(&coordinator, stripe, 2, 7, strategy)
            .unwrap();
        assert_eq!(repaired, data[2], "strategy {strategy}");
        assert_eq!(
            bytes::shim_metrics::deep_copy_bytes(),
            before,
            "strategy {strategy} deep-copied at the Bytes layer"
        );
    }
}
