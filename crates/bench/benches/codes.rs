//! Criterion benches for erasure-code encode / decode / repair planning:
//! `ecc_encode/{rs_9_6,rs_14_10,lrc_12_2_2}/1048576`,
//! `ecc_decode/{rs_9_6,rs_14_10}/1048576` (every parity block used, so
//! `n - k` data blocks are rebuilt) and `ecc_repair_plan/{rs_9_6,rs_14_10}`.
//! Encode times the provided `ErasureCode::encode` — the parity computation
//! plus the copy of the data blocks into the coded stripe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecc::{ErasureCode, Lrc, ReedSolomon};

const BLOCK: usize = 1024 * 1024;

fn random_data(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..BLOCK).map(|b| ((b * 31 + i * 7) % 253) as u8).collect())
        .collect()
}

fn bench_codes(c: &mut Criterion) {
    for (n, k) in [(9usize, 6usize), (14, 10)] {
        let rs = ReedSolomon::new(n, k).unwrap();
        let name = format!("rs_{n}_{k}");
        let data = random_data(k);
        let mut group = c.benchmark_group("ecc_encode");
        group.throughput(Throughput::Bytes((k * BLOCK) as u64));
        group.bench_with_input(BenchmarkId::new(&name, BLOCK), &rs, |b, rs| {
            b.iter(|| rs.encode(&data).unwrap());
        });
        group.finish();

        let coded = rs.encode(&data).unwrap();
        let available: Vec<(usize, Vec<u8>)> = (k..n)
            .chain(0..k - (n - k))
            .map(|i| (i, coded[i].clone()))
            .collect();
        let mut group = c.benchmark_group("ecc_decode");
        group.throughput(Throughput::Bytes((k * BLOCK) as u64));
        group.bench_with_input(BenchmarkId::new(&name, BLOCK), &rs, |b, rs| {
            b.iter(|| rs.decode(&available).unwrap());
        });
        group.finish();

        let helpers: Vec<usize> = (1..n).collect();
        let mut group = c.benchmark_group("ecc_repair_plan");
        group.bench_function(name.as_str(), |b| {
            b.iter(|| rs.repair_plan(0, &helpers).unwrap());
        });
        group.finish();
    }

    let lrc = Lrc::new(12, 2, 2).unwrap();
    let data = random_data(12);
    let mut group = c.benchmark_group("ecc_encode");
    group.throughput(Throughput::Bytes((12 * BLOCK) as u64));
    group.bench_with_input(BenchmarkId::new("lrc_12_2_2", BLOCK), &lrc, |b, lrc| {
        b.iter(|| lrc.encode(&data).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_codes
}
criterion_main!(benches);
