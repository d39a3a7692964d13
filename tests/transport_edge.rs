//! Transport shutdown and backpressure edge cases, parameterized over all
//! three backends ([`ChannelTransport`], [`TcpTransport`],
//! [`ReactorTransport`]).
//!
//! The conformance suite pins the happy paths; this file pins the ugly
//! ones: tearing a transport down while frames are still queued, credit
//! replenishment under a deliberately slow receiver, opening fresh links on
//! a pair whose previous links (or, for the reactor, whose underlying
//! connection) went away, a multi-block repair with more slices than a link
//! has credits, and the TCP backend's connection pool — reuse, teardown in
//! either order, and a receiver that abandons a full window.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::{ErasureCode, ReedSolomon};
use repair_pipelining::ecpipe::exec::execute_multi;
use repair_pipelining::ecpipe::transport::{
    ChannelTransport, ReactorTransport, SliceMsg, SliceReceiver, TcpTransport, Transport,
};
use repair_pipelining::ecpipe::{Cluster, Coordinator, StoreBackend};

/// Runs `f` on a helper thread and fails the test if it has not finished
/// within `dur` — the shape every "must not hang" assertion here takes.
fn finishes_within<F>(what: &str, dur: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    if done_rx.recv_timeout(dur).is_err() {
        panic!("{what} did not finish within {dur:?}");
    }
}

/// Dropping the transport with frames still queued on a link must leave the
/// receiver with a terminating stream — whatever was already delivered may
/// drain, but `recv` must reach end-of-stream instead of hanging.
fn case_shutdown_with_inflight_frames<T: Transport + Send + 'static>(transport: T) {
    let (tx, rx) = transport.link(0, 1, 64);
    for j in 0..32 {
        tx.send(SliceMsg::new(j, vec![j as u8; 512].into()))
            .expect("queueing ahead of any shutdown");
    }
    drop(tx);
    drop(transport);
    finishes_within(
        "draining a shut-down transport's link",
        Duration::from_secs(10),
        move || {
            let mut drained = 0usize;
            while rx.recv().is_some() {
                drained += 1;
            }
            assert!(drained <= 32, "conjured {drained} frames out of 32 sent");
        },
    );
}

/// With the receiver consuming one frame at a time, the sender must stay
/// inside the credit window the whole way: after `j` frames have been
/// consumed, at most `credits + j` may ever have left the sender.
fn case_credit_exhaustion_under_slow_receiver<T: Transport>(transport: &T) {
    const CREDITS: usize = 4;
    const TOTAL: usize = 24;
    let (tx, rx) = transport.link(2, 3, CREDITS);
    let sent = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for j in 0..TOTAL {
                tx.send(SliceMsg::new(j, vec![0u8; 256].into()))
                    .expect("receiver lives for the whole run");
                sent.fetch_add(1, Ordering::SeqCst);
            }
        });
        let wait_for_sent = |at_least: usize| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while sent.load(Ordering::SeqCst) < at_least && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        wait_for_sent(CREDITS);
        for consumed in 0..TOTAL {
            // Let the sender catch up to the newly granted credit, then
            // check it never overshot the window.
            wait_for_sent((CREDITS + consumed).min(TOTAL));
            std::thread::sleep(Duration::from_millis(5));
            let sent_now = sent.load(Ordering::SeqCst);
            assert!(
                sent_now <= CREDITS + consumed,
                "sender overran the credit window: {sent_now} sent after {consumed} consumed"
            );
            let msg = rx.recv().expect("stream ended early");
            assert_eq!(msg.index, consumed, "slow consumption must not reorder");
        }
    });
    drop(tx);
    assert!(rx.recv().is_none());
}

/// Link teardown on a pair must not poison the pair: fresh links opened
/// afterwards (over the same cached connection, for the socket backends)
/// carry traffic normally.
fn case_fresh_links_after_teardown<T: Transport>(transport: &T) {
    for round in 0..3u8 {
        let (tx, rx) = transport.link(4, 5, 8);
        tx.send(SliceMsg::new(round as usize, vec![round; 128].into()))
            .expect("fresh link must carry traffic");
        let msg = rx.recv().expect("fresh link must deliver");
        assert_eq!(msg.data, vec![round; 128]);
        // Tear down out of order across rounds: receiver first on even
        // rounds, sender first on odd.
        if round % 2 == 0 {
            drop(rx);
            assert!(tx.send(SliceMsg::new(9, vec![9u8; 8].into())).is_err());
        } else {
            drop(tx);
            assert!(rx.recv().is_none());
        }
    }
}

/// A three-block repair (§4.4) at the paper's slicing — 1 MiB blocks in
/// 32 KiB slices, so every delivery link carries four times more slices
/// than it has credits. The requestors' blocks must be collected in the
/// order the last helper sends them; collecting a row at a time hangs on
/// any backend whose receivers do their own reading.
fn case_multi_repair_with_more_slices_than_credits<T: Transport + Send + 'static>(transport: T) {
    const BLOCK: usize = 1 << 20;
    finishes_within(
        "a three-block repair of 1 MiB blocks",
        Duration::from_secs(60),
        move || {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
            let coordinator = Coordinator::new(code.clone(), SliceLayout::new(BLOCK, 32 * 1024));
            let cluster = Cluster::new(StoreBackend::memory(16)).unwrap();
            let data: Vec<Vec<u8>> = (0..10u64)
                .map(|i| {
                    (0..BLOCK as u64)
                        .map(|b| ((b * 131 + i * 17 + b / 4096) % 251) as u8)
                        .collect()
                })
                .collect();
            let coded = code.encode(&data).unwrap();
            let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
            let failed = [1usize, 6, 12];
            for &block in &failed {
                cluster.erase_block(stripe, block);
            }
            // Two requestors share a node: two links open at once on one pair.
            let directive = coordinator
                .plan_multi_repair(cluster.meta(), stripe, &failed, &[14, 15, 14])
                .unwrap();
            let repaired = execute_multi(&directive, &cluster, &transport).unwrap();
            for (row, &block) in directive.plan.failed.iter().enumerate() {
                assert!(repaired[row] == coded[block], "failed block {block}");
            }
        },
    );
}

macro_rules! edge_suite {
    ($backend:ident, $make:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn shutdown_with_inflight_frames() {
                case_shutdown_with_inflight_frames($make);
            }

            #[test]
            fn credit_exhaustion_under_slow_receiver() {
                case_credit_exhaustion_under_slow_receiver(&$make);
            }

            #[test]
            fn fresh_links_after_teardown() {
                case_fresh_links_after_teardown(&$make);
            }

            #[test]
            fn multi_repair_with_more_slices_than_credits() {
                case_multi_repair_with_more_slices_than_credits($make);
            }
        }
    };
}

edge_suite!(channel, ChannelTransport::new());
edge_suite!(tcp, TcpTransport::new());
edge_suite!(reactor, ReactorTransport::new());

/// After the transport is dropped, surviving senders on the socket
/// backends must fail fast instead of buffering into a void.
#[test]
fn send_after_shutdown_errors_on_socket_backends() {
    fn check<T: Transport>(transport: T, label: &str) {
        let (tx, _rx) = transport.link(0, 1, 4);
        drop(transport);
        assert!(
            tx.send(SliceMsg::new(0, vec![1u8; 16].into())).is_err(),
            "{label}: send into a shut-down transport must error"
        );
    }
    check(TcpTransport::new(), "tcp");
    check(ReactorTransport::new(), "reactor");
}

/// A peer "restart" on the reactor backend: the cached connection to the
/// pair is severed, in-flight senders fail, and the next link transparently
/// reconnects and carries byte-exact traffic again.
#[test]
fn reactor_connection_reuse_survives_peer_restart() {
    let transport = ReactorTransport::new();
    let (tx, rx) = transport.link(0, 1, 8);
    tx.send(SliceMsg::new(0, vec![42u8; 1024].into()))
        .expect("pre-restart traffic flows");
    assert_eq!(rx.recv().expect("pre-restart delivery").data[0], 42);

    assert!(
        transport.disconnect_pair(0, 1),
        "there was a live connection to sever"
    );
    // The severed connection must surface as send errors, possibly after
    // the frames already buffered locally are flushed into the dead socket.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut failed = false;
    while Instant::now() < deadline {
        if tx.send(SliceMsg::new(1, vec![1u8; 1024].into())).is_err() {
            failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(failed, "sends on a severed connection must start failing");
    drop((tx, rx));

    // A fresh link dials a fresh connection; the restart is invisible.
    let (tx, rx) = transport.link(0, 1, 8);
    tx.send(SliceMsg::new(7, vec![7u8; 2048].into()))
        .expect("post-restart traffic flows");
    let msg = rx.recv().expect("post-restart delivery");
    assert_eq!((msg.index, msg.data.len()), (7, 2048));
    assert_eq!(msg.data, vec![7u8; 2048]);
}

/// The TCP pool: links opened one after the other on a pair all ride the
/// connection the first one dialed; `K` links open at once need `K`
/// connections, which the next `K` reuse.
#[test]
fn tcp_pool_dials_once_per_concurrently_open_link() {
    finishes_within("pool reuse", Duration::from_secs(30), || {
        let transport = TcpTransport::new();
        let roundtrip = |index: usize| {
            let (tx, rx) = transport.link(0, 1, 4);
            tx.send(SliceMsg::new(index, vec![index as u8; 64].into()))
                .expect("pooled link must carry traffic");
            assert_eq!(rx.recv().expect("pooled link must deliver").index, index);
        };
        for index in 0..50 {
            roundtrip(index);
        }
        assert_eq!(transport.connection_counts(), (1, 1), "50 links, one dial");

        const K: usize = 4;
        for round in 0..2 {
            let links: Vec<_> = (0..K).map(|_| transport.link(0, 1, 4)).collect();
            for (i, (tx, _)) in links.iter().enumerate() {
                tx.send(SliceMsg::new(i, vec![round; 32].into())).unwrap();
            }
            for (i, (_, rx)) in links.iter().enumerate() {
                let msg = rx.recv().unwrap();
                assert_eq!((msg.index, &msg.data[..]), (i, &[round; 32][..]));
            }
            assert_eq!(
                transport.connection_counts(),
                (K as u64, K),
                "round {round}: {K} links open at once, the first round dials K - 1 more"
            );
        }
        roundtrip(99);
        assert_eq!(transport.connection_counts(), (K as u64, K));
    });
}

/// A pooled connection outlives its links whichever half goes first, and
/// what one link leaves unread (its `EOS`) never reaches the next: 100
/// rounds on one pair and one connection, every slice byte-exact with its
/// own round's tags.
#[test]
fn tcp_teardown_order_alternates_on_one_pooled_connection() {
    finishes_within("100 teardown rounds", Duration::from_secs(30), || {
        const SLICES: usize = 5;
        let transport = TcpTransport::new();
        for round in 0..100u64 {
            let (tx, rx) = transport.link(6, 7, 8);
            let payload = |j: usize| vec![(round as usize * SLICES + j) as u8; 700 + j];
            for j in 0..SLICES {
                tx.send(SliceMsg::new(j, payload(j).into()).tagged(round, round * 3 + 1))
                    .expect("a pooled connection must carry the next link");
            }
            let check = |rx: &SliceReceiver| {
                for j in 0..SLICES {
                    let msg = rx.recv().expect("stream ended early");
                    assert_eq!(
                        (msg.index, msg.stripe, msg.repair),
                        (j, round, round * 3 + 1),
                        "round {round}: a frame of another link was delivered"
                    );
                    assert_eq!(msg.data, payload(j), "round {round} slice {j}");
                }
            };
            match round % 3 {
                // Sender first; the receiver stops after its last slice and
                // leaves the EOS unread for the next link to skip.
                0 => {
                    drop(tx);
                    check(&rx);
                }
                // Sender first; the receiver reads through to end-of-stream.
                1 => {
                    drop(tx);
                    check(&rx);
                    assert!(rx.recv().is_none());
                }
                // Receiver first, after draining: the sender fails from then on.
                _ => {
                    check(&rx);
                    drop(rx);
                    assert!(tx.send(SliceMsg::new(9, vec![9u8; 8].into())).is_err());
                }
            }
        }
        assert_eq!(
            transport.connection_counts(),
            (1, 1),
            "every round must return the connection to the pool"
        );
    });
}

/// A receiver that goes away with a full window of 1 MiB slices unread
/// leaves the sender blocked in `write` on a socket nobody drains (8 MiB
/// does not fit the loopback buffers): the sender must come back with an
/// error, the connection must be discarded, and the pair must keep working.
#[test]
fn tcp_receiver_dropped_with_a_full_window_unblocks_the_sender() {
    const CAPACITY: usize = 8;
    finishes_within("the blocked sender", Duration::from_secs(20), || {
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, CAPACITY);
        let (first_sent_tx, first_sent_rx) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            // Slices are in flight from here on.
            first_sent_rx.recv().expect("the first send succeeds");
            drop(rx);
        });
        let slice = vec![0xabu8; 1 << 20];
        // One more than the window: whether the sender is caught inside a
        // socket write or at the credit gate, a send must fail.
        let failed = (0..=CAPACITY).any(|j| {
            let sent = tx.send(SliceMsg::new(j, slice.clone().into()));
            let _ = first_sent_tx.send(());
            sent.is_err()
        });
        assert!(failed, "sends into an abandoned link must fail");
        drop(tx);
        dropper.join().unwrap();
        assert_eq!(
            transport.connection_counts(),
            (1, 0),
            "the abandoned connection must be closed, not pooled"
        );
        let (tx, rx) = transport.link(0, 1, CAPACITY);
        tx.send(SliceMsg::new(3, vec![3u8; 4096].into()))
            .expect("the pair must still work");
        let msg = rx.recv().expect("fresh connection must deliver");
        assert_eq!((msg.index, &msg.data[..]), (3, &[3u8; 4096][..]));
    });
}
