//! Criterion bench for the ECPipe runtime: end-to-end single-block repair
//! throughput of the execution strategies on an in-memory cluster.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecc::slice::SliceLayout;
use ecc::ReedSolomon;
use ecpipe::exec::{execute_single, ExecStrategy};
use ecpipe::transport::ChannelTransport;
use ecpipe::{Cluster, Coordinator, StoreBackend};

const BLOCK: usize = 4 * 1024 * 1024;

fn bench_runtime(c: &mut Criterion) {
    let code = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let layout = SliceLayout::new(BLOCK, 32 * 1024);
    let coordinator = Coordinator::new(code, layout);
    let cluster = Cluster::new(StoreBackend::memory(16)).unwrap();
    let data: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            (0..BLOCK)
                .map(|b| ((b * 13 + i * 31) % 251) as u8)
                .collect()
        })
        .collect();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    cluster.erase_block(stripe, 0);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 0, 15)
        .unwrap();

    let mut group = c.benchmark_group("runtime_exec");
    group.throughput(Throughput::Bytes(BLOCK as u64));
    for strategy in [
        ExecStrategy::Conventional,
        ExecStrategy::Ppr,
        ExecStrategy::RepairPipelining,
        ExecStrategy::BlockPipeline,
    ] {
        group.bench_with_input(
            BenchmarkId::new("single_block_repair", strategy),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let transport = ChannelTransport::new();
                    execute_single(&directive, &cluster, &transport, strategy).unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime
}
criterion_main!(benches);
