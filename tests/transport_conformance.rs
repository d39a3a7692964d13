//! Transport conformance suite: every backend must provide the same
//! semantics to the repair executors.
//!
//! Each case is written once, generically over the [`Transport`] trait, and
//! instantiated for [`ChannelTransport`] (in-process channels) and
//! [`TcpTransport`] (real localhost sockets, a pooled connection per open
//! link, read by the link's receiver): slice ordering, backpressure at
//! [`PIPELINE_DEPTH`], dropped-peer error propagation, the paper's
//! one-block-per-link traffic claim, and byte-exact repairs under all four
//! execution strategies, multi-block repair and cyclic repair. A TCP-only
//! case measures the §3.2 timing claim (repair time ≈ `1 + (k-1)/s`
//! timeslots) on throttled sockets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use std::sync::Arc;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::stripe::StripeId;
use repair_pipelining::ecc::{ErasureCode, ReedSolomon};
use repair_pipelining::ecpipe::exec::{
    execute_multi, execute_single, execute_single_cancellable, OnceFlag, PIPELINE_DEPTH,
};
use repair_pipelining::ecpipe::transport::{ChannelTransport, SliceMsg, TcpTransport, Transport};
use repair_pipelining::ecpipe::{Cluster, Coordinator, Scheme, StoreBackend};

const BLOCK: usize = 16 * 1024;
const SLICE: usize = 2 * 1024;

fn stripe_data(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..BLOCK)
                .map(|b| ((b as u64 * 131 + i as u64 * 17 + 5) % 253) as u8)
                .collect()
        })
        .collect()
}

fn setup(code: Arc<dyn ErasureCode>) -> (Cluster, Coordinator, Vec<Vec<u8>>, StripeId) {
    let k = code.k();
    let n = code.n();
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory(n + 2)).unwrap();
    let data = stripe_data(k);
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    (cluster, coordinator, data, stripe)
}

fn case_slices_arrive_in_order<T: Transport>(transport: &T) {
    let (tx, rx) = transport.link(0, 1, 4);
    let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64 + i as usize]).collect();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (j, p) in payloads.iter().enumerate() {
                tx.send(SliceMsg::new(j, p.clone().into()).tagged(9, 2))
                    .unwrap();
            }
        });
        for (j, p) in payloads.iter().enumerate() {
            let msg = rx.recv().expect("stream ended early");
            assert_eq!(msg.index, j, "slices must arrive in send order");
            assert_eq!((msg.stripe, msg.repair), (9, 2), "tags travel with slices");
            assert_eq!(msg.data, *p);
        }
    });
    drop(tx);
    assert!(
        rx.recv().is_none(),
        "stream must end after the sender drops"
    );
}

fn case_backpressure_at_pipeline_depth<T: Transport>(transport: &T) {
    let (tx, rx) = transport.link(0, 1, PIPELINE_DEPTH);
    let sent = AtomicUsize::new(0);
    let total = PIPELINE_DEPTH + 4;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for j in 0..total {
                tx.send(SliceMsg::new(j, vec![0u8; 128].into())).unwrap();
                sent.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Give the sender ample time to run ahead: it must stall after
        // exactly PIPELINE_DEPTH un-consumed slices.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sent.load(Ordering::SeqCst) < PIPELINE_DEPTH && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            sent.load(Ordering::SeqCst),
            PIPELINE_DEPTH,
            "sender must block once PIPELINE_DEPTH slices are in flight"
        );
        for j in 0..total {
            assert_eq!(rx.recv().expect("stream ended early").index, j);
        }
    });
}

fn case_dropped_receiver_fails_sender<T: Transport>(transport: &T) {
    let (tx, rx) = transport.link(0, 1, 2);
    drop(rx);
    assert!(
        tx.send(SliceMsg::new(0, vec![1u8; 16].into())).is_err(),
        "sending to a dropped peer must error, not truncate silently"
    );
}

fn case_dropped_sender_ends_stream<T: Transport>(transport: &T) {
    let (tx, rx) = transport.link(3, 4, 4);
    tx.send(SliceMsg::new(0, vec![7u8; 32].into())).unwrap();
    tx.send(SliceMsg::new(1, vec![8u8; 32].into())).unwrap();
    drop(tx);
    assert_eq!(rx.recv().unwrap().index, 0);
    assert_eq!(rx.recv().unwrap().index, 1);
    assert!(rx.recv().is_none(), "drained stream must end cleanly");
}

fn case_one_block_per_link_accounting<T: Transport>(transport: &T) {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let (cluster, coordinator, data, stripe) = setup(code);
    cluster.erase_block(stripe, 0);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 0, 15)
        .unwrap();
    let repaired =
        execute_single(&directive, &cluster, transport, Scheme::RepairPipelining).unwrap();
    assert_eq!(repaired, data[0]);
    // §3.2: repair pipelining puts exactly one block on every link it uses.
    assert_eq!(transport.links_used(), 10);
    assert_eq!(transport.total_bytes(), 10 * BLOCK as u64);
    assert_eq!(transport.max_link_bytes(), BLOCK as u64);
    for window in directive.path.windows(2) {
        assert_eq!(transport.link_bytes(window[0].0, window[1].0), BLOCK as u64);
    }
}

fn case_all_strategies_byte_exact<T: Transport>(transport: &T) {
    for strategy in [
        Scheme::Conventional,
        Scheme::Ppr,
        Scheme::RepairPipelining,
        Scheme::BlockPipeline,
        Scheme::CyclicRepairPipelining,
    ] {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let (cluster, coordinator, data, stripe) = setup(code);
        cluster.erase_block(stripe, 3);
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 3, 15)
            .unwrap();
        let repaired = execute_single(&directive, &cluster, transport, strategy).unwrap();
        assert_eq!(repaired, data[3], "strategy {:?}", strategy);
    }
}

fn case_multi_repair_byte_exact<T: Transport>(transport: &T) {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(9, 6).unwrap());
    let (cluster, coordinator, data, stripe) = setup(code.clone());
    let coded = code.encode(&data).unwrap();
    for &f in &[1usize, 7] {
        cluster.erase_block(stripe, f);
    }
    let directive = coordinator
        .plan_multi_repair(cluster.meta(), stripe, &[1, 7], &[9, 10])
        .unwrap();
    let repaired = execute_multi(&directive, &cluster, transport).unwrap();
    for (j, &f) in directive.plan.failed.iter().enumerate() {
        assert_eq!(repaired[j], coded[f], "failed block {f}");
    }
}

/// §4.1's cyclic repair, walked as a plan: k = 6 over 8 slices is five
/// chains of one or two slices around the helpers. Each link carries what
/// the plan's `links()` declares — several chains share a link.
fn case_cyclic_repair_byte_exact<T: Transport>(transport: &T) {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(9, 6).unwrap());
    let (cluster, coordinator, data, stripe) = setup(code);
    cluster.erase_block(stripe, 2);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 2, 10)
        .unwrap();
    let dag =
        Scheme::CyclicRepairPipelining.dag(&directive.path, directive.requestor, directive.layout);
    let repaired =
        execute_single_cancellable(&directive, &dag, &cluster, transport, &OnceFlag::new())
            .unwrap();
    assert_eq!(repaired, data[2]);
    let declared: HashMap<_, _> = dag
        .links()
        .iter()
        .map(|link| ((link.src, link.dst), link.bytes))
        .collect();
    for (&(src, dst), &bytes) in &declared {
        assert_eq!(transport.link_bytes(src, dst), bytes, "{src} → {dst}");
    }
    assert_eq!(transport.links_used(), declared.len());
    assert_eq!(transport.total_bytes(), declared.values().sum::<u64>());
}

macro_rules! conformance_suite {
    ($backend:ident, $make:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn slices_arrive_in_order() {
                case_slices_arrive_in_order(&$make);
            }

            #[test]
            fn backpressure_at_pipeline_depth() {
                case_backpressure_at_pipeline_depth(&$make);
            }

            #[test]
            fn dropped_receiver_fails_sender() {
                case_dropped_receiver_fails_sender(&$make);
            }

            #[test]
            fn dropped_sender_ends_stream() {
                case_dropped_sender_ends_stream(&$make);
            }

            #[test]
            fn one_block_per_link_accounting() {
                case_one_block_per_link_accounting(&$make);
            }

            #[test]
            fn all_strategies_byte_exact() {
                case_all_strategies_byte_exact(&$make);
            }

            #[test]
            fn multi_repair_byte_exact() {
                case_multi_repair_byte_exact(&$make);
            }

            #[test]
            fn cyclic_repair_byte_exact() {
                case_cyclic_repair_byte_exact(&$make);
            }
        }
    };
}

conformance_suite!(channel, ChannelTransport::new());
conformance_suite!(tcp, TcpTransport::new());

/// §3.2 on real sockets: with every link throttled to the same rate, a
/// repair-pipelined block takes about `1 + (k-1)/s` timeslots (one timeslot
/// = one block over one link), while block-level pipelining (`Pipe-B`)
/// needs about `k` timeslots. Bounds are generous so a loaded CI machine
/// doesn't flake, but tight enough to separate ~1.2 timeslots from ~4.
#[test]
fn throttled_tcp_matches_paper_timing_shape() {
    const RATE: u64 = 1024 * 1024; // 1 MiB/s per link
    const TBLOCK: usize = 256 * 1024;
    const TSLICE: usize = 16 * 1024; // s = 16 slices
    let k = 4;
    let timeslot = TBLOCK as f64 / RATE as f64; // ≈ 0.25 s

    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let coordinator = Coordinator::new(code, SliceLayout::new(TBLOCK, TSLICE));
    let cluster = Cluster::new(StoreBackend::memory(8)).unwrap();
    let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 + 1; TBLOCK]).collect();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    cluster.erase_block(stripe, 2);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 2, 7)
        .unwrap();

    let rp_transport = TcpTransport::with_rate_limit(RATE);
    let start = Instant::now();
    let repaired = execute_single(
        &directive,
        &cluster,
        &rp_transport,
        Scheme::RepairPipelining,
    )
    .unwrap();
    let rp_elapsed = start.elapsed().as_secs_f64();
    assert_eq!(repaired, data[2]);

    let pipe_b_transport = TcpTransport::with_rate_limit(RATE);
    let start = Instant::now();
    execute_single(
        &directive,
        &cluster,
        &pipe_b_transport,
        Scheme::BlockPipeline,
    )
    .unwrap();
    let pipe_b_elapsed = start.elapsed().as_secs_f64();

    let s = (TBLOCK / TSLICE) as f64;
    let rp_ideal = (1.0 + (k as f64 - 1.0) / s) * timeslot; // ≈ 0.30 s
    assert!(
        rp_elapsed > 0.5 * rp_ideal,
        "throttle not engaged: rp {rp_elapsed:.3}s vs ideal {rp_ideal:.3}s"
    );
    assert!(
        rp_elapsed < 2.5 * rp_ideal,
        "rp far above the 1 + (k-1)/s prediction: {rp_elapsed:.3}s vs ideal {rp_ideal:.3}s"
    );
    // Pipe-B relays whole blocks hop by hop: ~k timeslots, well above RP.
    assert!(
        pipe_b_elapsed > 1.8 * rp_elapsed,
        "pipe-b {pipe_b_elapsed:.3}s should be far slower than rp {rp_elapsed:.3}s"
    );
}
