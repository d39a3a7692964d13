//! Pins the zero-copy slice data path.
//!
//! The `bytes` shim counts every deep copy made at the `Bytes` layer
//! (`Bytes::copy_from_slice`, `Bytes::to_vec`); everything else — cloning,
//! slicing, freezing a pooled buffer, framing a message, reading a window of
//! frames as views of one buffer — shares the allocation. These tests assert
//! the counter stays flat across the hot flows, so a future "just copy it
//! here" regression fails loudly instead of silently re-inflating memory
//! traffic.
//!
//! The counter is process-global, so each test holds [`COUNTER`] for its
//! whole body: whatever one test copied at the `Bytes` layer would otherwise
//! land in another test's measured window and fail it.

// xtask:allow(raw-sync): the test-only gate `COUNTER` below
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ecpipe::exec::execute_single;
use ecpipe::transport::{ChannelTransport, TcpTransport, Transport};
use ecpipe::{Cluster, Coordinator, EcPipeBuilder, Scheme, StoreBackend};

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 31 + seed * 17 + 7) % 251) as u8)
        .collect()
}

/// Held by each test of this binary for its whole body.
// xtask:allow(raw-sync): a test-only gate around the global copy counter
static COUNTER: Mutex<()> = Mutex::new(());

/// Takes [`COUNTER`]; a test that panicked while holding it leaves nothing
/// the next one depends on, so a poisoned lock is taken as it is.
fn counter_to_myself() -> MutexGuard<'static, ()> {
    COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `flow` and asserts it deep-copied nothing at the `Bytes` layer.
fn assert_no_deep_copies(what: &str, flow: impl FnOnce()) {
    let before = bytes::shim_metrics::deep_copy_bytes();
    flow();
    assert_eq!(
        bytes::shim_metrics::deep_copy_bytes(),
        before,
        "{what} deep-copied at the Bytes layer"
    );
}

#[test]
fn degraded_get_performs_no_bytes_deep_copies() {
    let _counter = counter_to_myself();
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(16 * 1024)
        .slice_size(2 * 1024)
        .store(StoreBackend::memory(8))
        .build()
        .unwrap();
    let data = pattern(4 * 16 * 1024, 11);

    // `put` makes its one copy of the object into block buffers it adopts
    // into the cluster's pool, not at the `Bytes` layer; the count is pinned
    // in `put_one_copy.rs`.
    let meta = pipe.put("/pin", &data).unwrap();

    // Degraded read: the erased block is reconstructed through the full
    // encode → helper chain → store → transport framing path.
    pipe.erase_block(meta.stripes[0], 1);
    assert_no_deep_copies("a degraded get", || {
        assert_eq!(pipe.get("/pin").unwrap(), data);
    });
    let report = pipe.shutdown();
    assert_eq!(report.blocks_repaired, 1);
}

/// Every executor strategy on its own, over in-process channels and over
/// sockets, whose receivers hand out frames as views of the buffer they read.
#[test]
fn every_exec_strategy_repairs_without_bytes_deep_copies() {
    let _counter = counter_to_myself();
    let code: Arc<dyn ecc::ErasureCode> = Arc::new(ecc::ReedSolomon::new(6, 4).unwrap());
    let layout = ecc::slice::SliceLayout::new(16 * 1024, 2 * 1024);
    let (channel, tcp) = (ChannelTransport::new(), TcpTransport::new());
    let transports: [(&str, &dyn Transport); 2] = [("channel", &channel), ("tcp", &tcp)];
    for (name, transport) in transports {
        for strategy in [
            Scheme::Conventional,
            Scheme::Ppr,
            Scheme::RepairPipelining,
            Scheme::BlockPipeline,
            Scheme::CyclicRepairPipelining,
        ] {
            let coordinator = Coordinator::new(code.clone(), layout);
            let cluster = Cluster::new(StoreBackend::memory(8)).unwrap();
            let data: Vec<Vec<u8>> = (0..4).map(|i| pattern(16 * 1024, i)).collect();
            let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
            cluster.erase_block(stripe, 2);
            assert_no_deep_copies(&format!("strategy {strategy} over {name}"), || {
                let directive = coordinator
                    .plan_single_repair(cluster.meta(), stripe, 2, 7)
                    .unwrap();
                let repaired = execute_single(&directive, &cluster, transport, strategy).unwrap();
                let block = ecc::stripe::BlockId { stripe, index: 2 };
                cluster.store(7).put(block, repaired.clone()).unwrap();
                assert_eq!(repaired, data[2], "strategy {strategy} over {name}");
            });
        }
    }
}
