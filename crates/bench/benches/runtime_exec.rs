//! Criterion bench for the ECPipe runtime: end-to-end single-block repair
//! throughput of the execution strategies on an in-memory cluster, over
//! in-process channels (`single_block_repair/*`) and over the TCP backend
//! (`RP/tcp/*`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecc::slice::SliceLayout;
use ecc::ReedSolomon;
use ecpipe::exec::execute_single;
use ecpipe::transport::{ChannelTransport, TcpTransport};
use ecpipe::{Cluster, Coordinator, RepairDirective, Scheme, StoreBackend};

const BLOCK: usize = 4 * 1024 * 1024;
/// The socket row repairs the benchmark crate's block size, so it reads
/// next to its `exec.rp.tcp.ms`.
const SOCKET_BLOCK: usize = 1024 * 1024;

/// A 16-node memory cluster holding one RS(14,10) stripe of `block`-byte
/// blocks with block 0 erased, and the directive that rebuilds it on node 15.
fn fixture(block: usize) -> (Cluster, RepairDirective) {
    let code = Arc::new(ReedSolomon::new(14, 10).unwrap());
    let layout = SliceLayout::new(block, 32 * 1024);
    let coordinator = Coordinator::new(code, layout);
    let cluster = Cluster::new(StoreBackend::memory(16)).unwrap();
    let data: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            (0..block)
                .map(|b| ((b * 13 + i * 31) % 251) as u8)
                .collect()
        })
        .collect();
    let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
    cluster.erase_block(stripe, 0);
    let directive = coordinator
        .plan_single_repair(cluster.meta(), stripe, 0, 15)
        .unwrap();
    (cluster, directive)
}

fn bench_runtime(c: &mut Criterion) {
    let (cluster, directive) = fixture(BLOCK);

    let mut group = c.benchmark_group("runtime_exec");
    group.throughput(Throughput::Bytes(BLOCK as u64));
    for strategy in [
        Scheme::Conventional,
        Scheme::Ppr,
        Scheme::RepairPipelining,
        Scheme::BlockPipeline,
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

    // The socket data plane. One transport, alive across every iteration:
    // what is timed is a repair over pooled connections that are already up,
    // not the dials.
    let (cluster, directive) = fixture(SOCKET_BLOCK);
    let mut group = c.benchmark_group("runtime_exec/RP");
    group.throughput(Throughput::Bytes(SOCKET_BLOCK as u64));
    let transport = TcpTransport::new();
    group.bench_function(BenchmarkId::new("tcp", SOCKET_BLOCK), |b| {
        b.iter(|| {
            execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining).unwrap()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime
}
criterion_main!(benches);
