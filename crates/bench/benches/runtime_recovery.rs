//! Criterion bench for full-node recovery through the ECPipe runtime: a
//! one-worker repair daemon versus a 4-worker pool, on rate-limited links
//! of both transport backends.
//!
//! Every link is token-bucket throttled so the repairs are network-bound
//! (the paper's testbed setting); the manager's concurrency then shows up
//! as recovery throughput rather than being hidden behind CPU time. The
//! `bytes_per_sec` column of `BENCH_results.json` is the recovery rate.
//! Each iteration builds a fresh cluster and daemon, since a recovery moves
//! the lost blocks' placements onto the spares its stripes had.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecc::slice::SliceLayout;
use ecc::ReedSolomon;
use ecpipe::manager::{ManagerConfig, RepairManager};
use ecpipe::transport::{ChannelTransport, TcpTransport, Transport};
use ecpipe::{Cluster, Coordinator, StoreBackend};

const BLOCK: usize = 64 * 1024;
const SLICE: usize = 8 * 1024;
const STORAGE_NODES: usize = 12;
const STRIPES: u64 = 24;
const FAILED_NODE: usize = 2;
/// The failed node holds one block of half the stripes.
const LOST_BLOCKS: usize = 12;
const LINK_RATE: u64 = 4 * 1024 * 1024;

fn setup() -> (Coordinator, Cluster) {
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, SLICE));
    let cluster = Cluster::new(StoreBackend::memory(STORAGE_NODES + 2)).unwrap();
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
    }
    cluster.kill_node(FAILED_NODE);
    (coordinator, cluster)
}

fn bench_backend<T: Transport + Send + Sync + 'static>(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    make: impl Fn() -> T,
) {
    let configs = [
        (
            "full_node_sequential",
            ManagerConfig::default().with_workers(1),
        ),
        (
            "full_node_manager_4w",
            ManagerConfig::default()
                .with_workers(4)
                .with_inflight_cap(3),
        ),
    ];
    for (row, config) in configs {
        group.bench_function(BenchmarkId::new(row, label), |b| {
            b.iter(|| {
                let (coordinator, cluster) = setup();
                let manager = RepairManager::start(coordinator, cluster, make(), config.clone());
                assert_eq!(manager.report_node_failure(FAILED_NODE), LOST_BLOCKS);
                manager.wait_idle();
                let report = manager.shutdown();
                assert_eq!(report.failed_repairs, 0);
                report
            });
        });
    }
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_recovery");
    group.throughput(Throughput::Bytes((LOST_BLOCKS * BLOCK) as u64));
    bench_backend(&mut group, "channel", || {
        ChannelTransport::with_rate_limit(LINK_RATE)
    });
    bench_backend(&mut group, "tcp", || {
        TcpTransport::with_rate_limit(LINK_RATE)
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_recovery
}
criterion_main!(benches);
