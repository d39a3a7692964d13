//! Criterion bench for the end-to-end client data path: `EcPipe::put` and
//! `EcPipe::get` through the builder-configured façade, on both transport
//! backends.
//!
//! This is the first bench whose `bytes_per_sec` column reports *client*
//! throughput (object bytes in or out of the store) rather than repair
//! traffic, so `BENCH_results.json` tracks the serving path alongside the
//! recovery rate. `put` pays erasure encoding plus `n` block writes (each
//! iteration deletes its object, keeping memory flat); `get` is the native
//! read path; `get_degraded` erases one block first, so every read pays a
//! manager-prioritized degraded read over the transport.
//!
//! A `get` returns views of the stored blocks without copying them, so both
//! read iterations compare the result with the source object, as a client
//! that consumes the bytes would: `bytes_per_sec` then counts object bytes
//! read, not block lookups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecpipe::{EcPipe, EcPipeBuilder, StoreBackend, TransportChoice};

const BLOCK: usize = 64 * 1024;
const SLICE: usize = 8 * 1024;
/// One object spans two (6,4) stripes, unaligned on purpose.
const OBJECT: usize = 2 * 4 * BLOCK - 4321;

fn object_bytes() -> Vec<u8> {
    (0..OBJECT).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

fn build_pipe(transport: TransportChoice) -> EcPipe {
    EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .store(StoreBackend::memory(10))
        .transport(transport)
        .build()
        .expect("façade builds")
}

fn bench_backend(group: &mut criterion::BenchmarkGroup<'_>, label: &str, choice: TransportChoice) {
    let data = object_bytes();

    let pipe = build_pipe(choice);
    let mut i = 0u64;
    group.bench_function(BenchmarkId::new("put", label), |b| {
        b.iter(|| {
            i += 1;
            let name = format!("/bench/{i}");
            pipe.put(&name, &data).expect("put succeeds");
            pipe.delete(&name).expect("delete succeeds");
        });
    });
    pipe.shutdown();

    let pipe = build_pipe(choice);
    pipe.put("/bench/obj", &data).expect("put succeeds");
    group.bench_function(BenchmarkId::new("get", label), |b| {
        b.iter(|| assert!(pipe.get("/bench/obj").expect("get succeeds") == data));
    });

    let meta = pipe.object_meta("/bench/obj").expect("object exists");
    group.bench_function(BenchmarkId::new("get_degraded", label), |b| {
        b.iter(|| {
            // Re-erase each round so every read pays one degraded read.
            pipe.erase_block(meta.stripes[0], 1);
            assert!(pipe.get("/bench/obj").expect("degraded get succeeds") == data);
        });
    });
    pipe.shutdown();
}

fn bench_client(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_put_get");
    group.throughput(Throughput::Bytes(OBJECT as u64));
    bench_backend(&mut group, "channel", TransportChoice::Channel);
    bench_backend(&mut group, "tcp", TransportChoice::Tcp);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_client
}
criterion_main!(benches);
