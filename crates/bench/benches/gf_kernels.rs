//! Criterion benches for the GF(2^8) slice kernels — the inner loop every
//! helper runs when combining partial slices during a repair — and for the
//! CRC-32 kernels that checksum every chunk of those slices on a
//! checksummed store, and the two together as a helper runs them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ecc::stripe::BlockId;
use ecpipe::{BlockChecksums, BlockStore, ChecksummedStore, MemoryStore};
use gf256::{Gf256, KernelPath, Kernels, Matrix};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_kernels");
    for size in [32 * 1024usize, 1024 * 1024] {
        let src: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut dst = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("mul_add_slice", size), &size, |b, _| {
            b.iter(|| gf256::mul_add_slice(Gf256::new(0x57), &src, &mut dst));
        });
        group.bench_with_input(BenchmarkId::new("add_slice", size), &size, |b, _| {
            b.iter(|| gf256::add_slice(&src, &mut dst));
        });
        group.bench_with_input(BenchmarkId::new("mul_slice", size), &size, |b, _| {
            b.iter(|| gf256::mul_slice(Gf256::new(0x57), &src, &mut dst));
        });
    }
    group.finish();
}

/// `gf_kernels/dot_prod/{10x4,10x1,1x3}/{32768,1048576}`: the fused
/// multi-row dot product at the shapes the runtime gives it — sources ×
/// outputs: a (14,10) stripe's four parities, a single repair plan's one
/// block, and a helper adding its block into three partial sums of a
/// multi-block repair. Throughput counts source bytes, so `10x4` reads
/// directly against `ecc_encode/rs_14_10` in the `codes` bench.
fn bench_dot_prod(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_kernels");
    for (srcs, rows) in [(10usize, 4usize), (10, 1), (1, 3)] {
        let coeffs: Vec<u8> = (0..rows * srcs).map(|i| (i * 29 + 3) as u8 | 2).collect();
        let coeffs = Matrix::from_bytes(rows, srcs, &coeffs);
        for size in [32 * 1024usize, 1024 * 1024] {
            let sources: Vec<Vec<u8>> = (0..srcs)
                .map(|j| (0..size).map(|i| ((i + 7 * j) % 251) as u8).collect())
                .collect();
            let sources: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
            let mut outputs = vec![vec![0u8; size]; rows];
            group.throughput(Throughput::Bytes((srcs * size) as u64));
            let id = BenchmarkId::new(format!("dot_prod/{srcs}x{rows}"), size);
            group.bench_with_input(id, &size, |b, _| {
                b.iter(|| {
                    let mut dsts: Vec<&mut [u8]> =
                        outputs.iter_mut().map(Vec::as_mut_slice).collect();
                    gf256::dot_prod(&coeffs, &sources, &mut dsts, false);
                });
            });
        }
    }
    group.finish();
}

/// The one-table, byte-at-a-time CRC-32 the integrity layer used before
/// the dispatched kernels; kept here as the yardstick row.
fn crc32_bytewise(table: &[u32; 256], data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| {
        table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    })
}

fn crc32_byte_table() -> [u32; 256] {
    std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| {
            if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            }
        })
    })
}

/// `crc32/{oracle,portable,active}/{512,32768}`: the bytewise yardstick, the
/// slicing-by-16 kernel every host has, and whatever this process
/// dispatched to (PCLMUL folding on x86 with `pclmulqdq`), at the checksum
/// chunk size and the repair slice size.
fn bench_crc32(c: &mut Criterion) {
    let portable = Kernels::for_path(KernelPath::Scalar).expect("scalar is always supported");
    let table = crc32_byte_table();
    let mut group = c.benchmark_group("crc32");
    for size in [512usize, 32 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("oracle", size), &size, |b, _| {
            b.iter(|| crc32_bytewise(&table, &data));
        });
        group.bench_with_input(BenchmarkId::new("portable", size), &size, |b, _| {
            b.iter(|| portable.crc32(&data));
        });
        group.bench_with_input(BenchmarkId::new("active", size), &size, |b, _| {
            b.iter(|| gf256::crc32(&data));
        });
    }
    group.finish();
}

/// `checksummed_get_range/mem/32768`: the helper hot path — one verified
/// 32 KiB slice read (64 chunk checksums) from a checksummed memory store,
/// so the row is CRC plus bookkeeping with no disk in it.
fn bench_checksummed_get_range(c: &mut Criterion) {
    const BLOCK: usize = 1024 * 1024;
    const SLICE: usize = 32 * 1024;
    let store = ChecksummedStore::new(MemoryStore::new());
    let block = BlockId::new(0, 0);
    let data: Vec<u8> = (0..BLOCK).map(|i| (i % 251) as u8).collect();
    store.put(block, data.into()).expect("memory put");
    let mut group = c.benchmark_group("checksummed_get_range");
    group.throughput(Throughput::Bytes(SLICE as u64));
    let mut offset = 0;
    group.bench_with_input(BenchmarkId::new("mem", SLICE), &SLICE, |b, _| {
        b.iter(|| {
            let slice = store.get_range(block, offset..offset + SLICE);
            offset = (offset + SLICE) % BLOCK;
            slice
        });
    });
    group.finish();
}

/// `helper_fold/{separate,fused}/32768`: a helper's whole job on one
/// 32 KiB slice of a checksummed block (512-byte chunks) — check the
/// chunks' CRCs, scale the slice by its coefficient, add the partial sum it
/// received. Both rows start from a copy of the stored bytes, as a `pread`
/// would leave them: `separate` into a read buffer, then the three passes
/// (`verify_chunks`, `mul_slice` into the partial, `add_slice`); `fused`
/// into the partial itself, then one `verify_fold` over it.
fn bench_helper_fold(c: &mut Criterion) {
    const SLICE: usize = 32 * 1024;
    const CHUNK: usize = 512;
    let stored: Vec<u8> = (0..SLICE).map(|i| (i % 251) as u8).collect();
    let incoming: Vec<u8> = (0..SLICE).map(|i| (i % 241) as u8).collect();
    let checksums = BlockChecksums::compute(&stored, CHUNK);
    let sums: Vec<u32> = stored.chunks(CHUNK).map(gf256::crc32).collect();
    let coeff = Gf256::new(0x57);
    let (mut read, mut partial) = (vec![0u8; SLICE], vec![0u8; SLICE]);
    let mut group = c.benchmark_group("helper_fold");
    group.throughput(Throughput::Bytes(SLICE as u64));
    group.bench_with_input(BenchmarkId::new("separate", SLICE), &SLICE, |b, _| {
        b.iter(|| {
            read.copy_from_slice(&stored);
            checksums.verify_chunks(&read, 0).expect("clean slice");
            gf256::mul_slice(coeff, &read, &mut partial);
            gf256::add_slice(&incoming, &mut partial);
        });
    });
    group.bench_with_input(BenchmarkId::new("fused", SLICE), &SLICE, |b, _| {
        b.iter(|| {
            partial.copy_from_slice(&stored);
            gf256::verify_fold(coeff, &mut partial, Some(&incoming), &sums, CHUNK)
                .expect("clean slice");
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels, bench_dot_prod, bench_crc32, bench_checksummed_get_range,
        bench_helper_fold
}
criterion_main!(benches);
