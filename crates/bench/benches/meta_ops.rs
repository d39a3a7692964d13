//! Criterion bench for the metadata plane: per-op latency of the hot
//! `MetaRouter` operations as the namespace grows 10k → 100k → 1M objects.
//!
//! The point being pinned: with the namespace in hash maps behind the
//! router's one lock, register and lookup latency is *flat* in the
//! namespace size — the 1M-object medians must stay within the regression
//! gate's tolerance of the 10k ones, not grow with it. `stripes_on_node`
//! additionally pins the iteration APIs that replaced the clone-the-world
//! coordinator accessors: one pass over the stripe map, no per-stripe
//! allocation beyond the matches themselves.
//!
//! `durable_fill` fills a fresh durable root from empty, WAL appends and
//! snapshots included: with compaction by size the fill is linear, so the
//! 1M row stays near ten times the 100k one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecpipe::{MetaBackend, MetaConfig, MetaRouter, StripeRecord};

const NODES: usize = 12;
const N: usize = 4;
const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Registers `size` objects into `meta`, one (4-location) stripe each.
fn fill(meta: &MetaRouter, size: usize) {
    for i in 0..size {
        let id = meta.allocate_stripe_id();
        let locations: Vec<usize> = (0..N).map(|b| (i + b) % NODES).collect();
        let inserted = meta
            .insert_object(
                &object_name(i),
                64 * 1024,
                vec![StripeRecord { id, locations }],
            )
            .expect("insert object");
        assert!(inserted, "object names are unique");
    }
}

/// An ephemeral router prepopulated with `size` objects.
fn populated(size: usize) -> MetaRouter {
    let meta = MetaRouter::open(MetaConfig::ephemeral()).expect("ephemeral router opens");
    fill(&meta, size);
    meta
}

fn object_name(i: usize) -> String {
    format!("/bench/meta/obj-{i:07}")
}

fn bench_meta_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("meta_ops");
    group.throughput(Throughput::Elements(1));

    for size in SIZES {
        let meta = populated(size);

        // Register one new object (one record: the object and its stripe)
        // into a namespace of `size`, then remove it (one record) so the size
        // under test stays constant.
        // The insertion keys cycle through a fixed 256-slot window for the
        // same reason the lookup keys below do: the flatness claim is about
        // the structural cost of an insert (lock, probe, WAL-less upsert)
        // staying O(1) in the namespace size, not about how much of a
        // million-entry table a CPU can keep warm.
        let ids: Vec<_> = (0..256).map(|_| meta.allocate_stripe_id()).collect();
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("register", size), |b| {
            b.iter(|| {
                i = (i + 101) % 256;
                let id = ids[i];
                let locations: Vec<usize> = (0..N).map(|b| (i + b) % NODES).collect();
                let name = object_name(size + i);
                meta.insert_object(&name, 64 * 1024, vec![StripeRecord { id, locations }])
                    .expect("insert object");
                meta.remove_object(&name).expect("remove object");
            });
        });

        // Point lookup of an existing object. The keys cycle through a
        // fixed 256-name window whose members are strided across the whole
        // namespace, keeping the touched entries cache-resident at every
        // size: the datapoint then isolates the *structural* per-op cost —
        // lock, hash, probe, record clone — which is what must stay flat as the namespace grows, from the
        // DRAM residency of a million-entry table, which cannot.
        let stride = size / 256;
        let mut j = 0usize;
        group.bench_function(BenchmarkId::new("lookup", size), |b| {
            b.iter(|| {
                j = (j + 101) % 256;
                meta.object(&object_name(j * stride))
                    .expect("object exists")
            });
        });
    }

    // The iteration path at full scale: every (stripe, block) on one node,
    // collected in a single pass over the stripe map without cloning the
    // namespace. At 1M stripes over 12 nodes this touches every entry, so
    // it is the bench most sensitive to accidental clones.
    let meta = populated(SIZES[2]);
    group.bench_function(BenchmarkId::new("stripes_on_node", SIZES[2]), |b| {
        b.iter(|| meta.stripes_on_node(3).len());
    });

    // A durable fill: each iteration opens a fresh root in the temp dir and
    // registers `size` objects, so the row is the fill's wall time (one
    // element per object) and includes every snapshot it takes. A 1M fill
    // takes seconds, so these rows take 3 samples.
    group.sample_size(3);
    let root =
        std::env::temp_dir().join(format!("ecpipe-bench-durable-fill-{}", std::process::id()));
    for size in [100_000, 1_000_000] {
        group.throughput(Throughput::Elements(size as u64));
        group.bench_function(BenchmarkId::new("durable_fill", size), |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&root);
                let meta = MetaRouter::open(MetaConfig::new(MetaBackend::durable(&root)))
                    .expect("durable router opens");
                fill(&meta, size);
                drop(meta);
                std::fs::remove_dir_all(&root).expect("remove the fill's root");
            });
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_meta_ops
}
criterion_main!(benches);
