//! The resource budget of a repair over `TcpTransport`: the transport runs
//! no threads of its own and holds one connection per link a pair ever had
//! open at once, and the executor walks every stage of a repair on the
//! calling thread, so a long run of repairs leaves the process where it
//! started. The footprint formula: threads = the process's own + `workers`
//! per manager + 1 store writer per cluster, and 0 per repair in flight;
//! sockets ≤ 2 per concurrently open link per pair + one listener per node.
//! The store writer is the one thread a cluster starts: it writes a put's
//! data blocks while the put encodes parity, and is joined when the cluster
//! drops.
//!
//! A watched repair (`link_watch`) is no exception: the walk samples its own
//! links, so a node recovery on a façade adds no thread to its workers. And
//! a façade dropped without `shutdown` takes its workers, its store writer
//! and its sockets with it, on memory and on checksummed file stores alike.
//!
//! The one test lives in a binary of its own because it reads process-wide
//! counters (`/proc/self/status`, `/proc/self/fd`) that tests running beside
//! it would disturb.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::{ErasureCode, ReedSolomon};
use repair_pipelining::ecpipe::exec::execute_single;
use repair_pipelining::ecpipe::transport::{TcpTransport, Transport};
use repair_pipelining::ecpipe::{Cluster, Coordinator, StoreBackend};
use repair_pipelining::ecpipe::{EcPipeBuilder, Scheme, TransportChoice};
use repair_pipelining::simnet::Topology;

const NODES: usize = 22;
const BLOCK: usize = 64 * 1024;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

fn open_sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

#[test]
fn two_hundred_repairs_leave_no_threads_and_a_bounded_number_of_sockets() {
    // A hang (a link that never ends) must fail the test, not the CI job.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        two_hundred_repairs();
        watched_node_recovery();
        dropped_facades();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the repairs did not finish (or failed) within 120 s");
}

/// A façade over shaped TCP with the link watch on recovers a killed node
/// on its 4 workers, and the thread count, sampled about every millisecond
/// on this thread, never exceeds the count right after `build()`.
fn watched_node_recovery() {
    const NODES: usize = 10;
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(8 * 1024)
        .store(StoreBackend::memory(NODES))
        .transport(TransportChoice::Tcp)
        .topology(Topology::flat(NODES, 64.0 * 1024.0 * 1024.0))
        .link_watch()
        .workers(4)
        .build()
        .unwrap();
    let built = threads();
    let data: Vec<u8> = (0..24 * 4 * BLOCK).map(|i| (i % 251) as u8).collect();
    pipe.put("/watched", &data).unwrap();
    let victim = 3;
    pipe.kill_node(victim);
    assert!(pipe.report_node_failure(victim) > 0);
    let (mut peak, deadline) = (0, Instant::now() + Duration::from_secs(60));
    while !pipe.meta().stripes_on_node(victim).is_empty() {
        peak = peak.max(threads());
        assert!(Instant::now() < deadline, "the recovery did not finish");
        std::thread::sleep(Duration::from_millis(1));
    }
    pipe.wait_idle();
    assert!(
        peak <= built,
        "{peak} threads during a watched recovery, {built} right after build"
    );
    assert_eq!(pipe.get("/watched").unwrap(), data);
    assert_eq!(pipe.shutdown().failed_repairs, 0);
}

/// Four TCP façades, each built, used for a degraded read and dropped
/// without `shutdown`: the threads and sockets are back at their count
/// before the first. A manager that outlived its façade would keep its
/// workers, blocked on the queue, and through them the transport; a cluster
/// that outlived it would keep its store writer. The last round puts onto
/// checksummed file stores, where the writer has real block files to write.
fn dropped_facades() {
    const NODES: usize = 16;
    const WORKERS: usize = 2;
    let files = std::env::temp_dir().join(format!("ecpipe-footprint-{}", std::process::id()));
    let (threads_before, sockets_before) = (threads(), open_sockets());
    for round in 0..4u64 {
        let store = match round {
            3 => StoreBackend::file_checksummed(&files, NODES),
            _ => StoreBackend::memory(NODES),
        };
        let pipe = EcPipeBuilder::new()
            .code(6, 4)
            .block_size(BLOCK)
            .slice_size(8 * 1024)
            .store(store)
            .transport(TransportChoice::Tcp)
            .workers(WORKERS)
            .build()
            .unwrap();
        let built = settled_threads(threads_before + WORKERS + 1);
        assert_eq!(
            built,
            threads_before + WORKERS + 1,
            "round {round}: the formula"
        );
        let data: Vec<u8> = (0..4 * BLOCK as u64)
            .map(|i| ((i * 7 + round) % 251) as u8)
            .collect();
        pipe.put("/dropped", &data).unwrap();
        let stripe = pipe.object_meta("/dropped").unwrap().stripes[0];
        assert!(pipe.erase_block(stripe, 0));
        assert_eq!(pipe.get("/dropped").unwrap(), data, "round {round}");
        assert!(pipe.transport().total_bytes() > 0, "the read repaired");
        drop(pipe);
    }
    settled_threads(threads_before);
    assert_eq!(threads(), threads_before, "a dropped façade left threads");
    assert_eq!(
        open_sockets(),
        sockets_before,
        "a dropped façade left sockets"
    );
    std::fs::remove_dir_all(&files).unwrap();
}

/// The thread count once it reaches `expected`, or after 2 s: a joined
/// thread can linger in the count for a moment.
fn settled_threads(expected: usize) -> usize {
    let settled = Instant::now() + Duration::from_secs(2);
    while threads() != expected && Instant::now() < settled {
        std::thread::sleep(Duration::from_millis(1));
    }
    threads()
}

fn two_hundred_repairs() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let coordinator = Coordinator::new(code.clone(), SliceLayout::new(BLOCK, 8 * 1024));
    let cluster = Cluster::new(StoreBackend::memory(NODES)).unwrap();
    // Stripe `s` occupies nodes `s .. s + 14 (mod 22)`: every node helps.
    let mut coded = Vec::new();
    for s in 0..NODES as u64 {
        let data: Vec<Vec<u8>> = (0..10u64)
            .map(|i| {
                (0..BLOCK as u64)
                    .map(|b| ((b * 31 + i * 7 + s * 3) % 251) as u8)
                    .collect()
            })
            .collect();
        coded.push(code.encode(&data).unwrap());
        cluster.write_stripe(&code, s, &data).unwrap();
    }

    let sockets_before = open_sockets();
    let transport = TcpTransport::new();
    let repair = |round: usize| {
        let s = round % NODES;
        let failed = round % 14;
        let requestor = (s + 14 + round % (NODES - 14)) % NODES;
        let stripe = repair_pipelining::ecc::stripe::StripeId(s as u64);
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, failed, requestor)
            .unwrap();
        let repaired =
            execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining).unwrap();
        assert!(repaired == coded[s][failed], "round {round}");
    };

    // One repair first, so the baseline includes whatever is lazily set up.
    repair(0);
    let threads_before = threads();
    // A sampler watches the thread count while the repairs run: it is the
    // one thread allowed beside the baseline.
    let (running, peak) = (AtomicBool::new(true), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            peak.fetch_max(threads(), Ordering::SeqCst);
            if !running.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        });
        for round in 1..200 {
            repair(round);
        }
        running.store(false, Ordering::SeqCst);
    });
    assert_eq!(
        peak.load(Ordering::SeqCst),
        threads_before + 1,
        "a repair in flight must run on its caller's thread alone"
    );
    // A joined thread can linger in the count for a moment.
    let settled = Instant::now() + Duration::from_secs(2);
    while threads() != threads_before && Instant::now() < settled {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        threads(),
        threads_before,
        "the transport must not leave threads behind"
    );

    // Repairs ran one at a time, so no pair ever had two links open: one
    // connection (two sockets) per pair that carried traffic, plus at most
    // one listener per node.
    let pairs = transport.links_used();
    let (dials, open) = transport.connection_counts();
    assert_eq!(
        dials as usize, open,
        "healthy links never discard a connection"
    );
    assert!(open <= pairs, "{open} connections for {pairs} pairs");
    let sockets = open_sockets() - sockets_before;
    assert!(
        sockets <= 2 * pairs + NODES,
        "{sockets} sockets open for {pairs} pairs on {NODES} nodes"
    );

    drop(transport);
    assert_eq!(open_sockets(), sockets_before, "drop closes every socket");
}
