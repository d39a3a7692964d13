//! Every supported kernel path must agree with the scalar oracle.
//!
//! The scalar loops are validated against the `Gf256` field arithmetic by
//! the in-crate proptests; here each vectorized path is held to the scalar
//! result across the shapes that historically break SIMD ports: unaligned
//! base pointers, lengths that straddle the vector width (full lanes plus a
//! scalar tail), empty slices, and all 256 coefficients including the 0 and
//! 1 fast paths.
//!
//! The checked helper fold (`Kernels::verify_fold`) is held on every path
//! to the three passes it replaces — chunk checksums, multiply, add — over
//! empty, single-byte, many-chunk and short-tail buffers, and must convict
//! a flipped bit in any chunk at that chunk.
//!
//! The CRC-32 kernels get the same treatment against a bytewise oracle: the
//! portable slicing-by-16 kernel and, where the host has `pclmulqdq`, the
//! folding kernel, across every length around their 16- and 64-byte strides
//! and every source misalignment.
//!
//! The fused dot product (`Kernels::dot_prod`) is held to a bytewise oracle
//! built from `Gf256` multiplication on every path, scalar included, in both
//! its overwrite and its accumulate form: one to six output rows (a full row
//! group, and a second partial one), one to twelve sources, every length
//! around the vector widths and the strip size, every misalignment.

use gf256::{Gf256, KernelPath, Kernels, Matrix};
use proptest::prelude::*;

/// The widest vector width any path uses (AVX2: 32 bytes).
const MAX_LANE: usize = 32;

/// Slice lengths that straddle every lane width: 0..=3×32 covers 0–3 full
/// vectors for AVX2 and 0–6 for the 16-byte paths, each ±1 around the
/// boundaries via the dense sweep below.
const LENGTHS: std::ops::RangeInclusive<usize> = 0..=3 * MAX_LANE;

/// Misalignments to apply to the slice base pointers.
const OFFSETS: [usize; 5] = [0, 1, 7, 13, 15];

fn scalar() -> &'static Kernels {
    Kernels::for_path(KernelPath::Scalar).expect("scalar is always supported")
}

/// Every path the host supports except scalar itself (which would compare
/// the oracle against itself).
fn simd_paths() -> Vec<&'static Kernels> {
    KernelPath::supported_paths()
        .into_iter()
        .filter(|p| *p != KernelPath::Scalar)
        .map(|p| Kernels::for_path(p).expect("listed as supported"))
        .collect()
}

/// Deterministic byte pattern that hits every value and doesn't repeat with
/// period 16 or 32 (251 is prime), so lane mix-ups change the result.
fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 37 + salt) % 251) as u8).collect()
}

/// Runs `op` on misaligned copies of src/dst for one path and the scalar
/// oracle and asserts identical results.
fn check_op(kernels: &Kernels, coeff: u8, len: usize, offset: usize, op: SliceOp) {
    // Pad the front so `&buf[offset..]` exercises a misaligned base.
    let src_buf = pattern(offset + len, 3);
    let dst_init = pattern(offset + len, 101);

    let mut got = dst_init.clone();
    op(
        kernels,
        Gf256::new(coeff),
        &src_buf[offset..],
        &mut got[offset..],
    );

    let mut expected = dst_init.clone();
    op(
        scalar(),
        Gf256::new(coeff),
        &src_buf[offset..],
        &mut expected[offset..],
    );

    assert_eq!(
        got,
        expected,
        "path={} coeff={coeff} len={len} offset={offset}",
        kernels.path()
    );
    // The pad bytes in front of the slice must be untouched.
    assert_eq!(&got[..offset], &dst_init[..offset]);
}

fn mul(k: &Kernels, c: Gf256, s: &[u8], d: &mut [u8]) {
    k.mul_slice(c, s, d);
}

fn mul_add(k: &Kernels, c: Gf256, s: &[u8], d: &mut [u8]) {
    k.mul_add_slice(c, s, d);
}

fn add(k: &Kernels, _c: Gf256, s: &[u8], d: &mut [u8]) {
    k.add_slice(s, d);
}

fn scale(k: &Kernels, c: Gf256, s: &[u8], d: &mut [u8]) {
    d.copy_from_slice(s);
    k.scale_slice_in_place(c, d);
}

/// `d = c * s ^ d`, through the three-operand fold.
fn fold(k: &Kernels, c: Gf256, s: &[u8], d: &mut [u8]) {
    let incoming = d.to_vec();
    k.fold(c, s, Some(&incoming), d);
}

/// `d = c * d ^ s`, through the in-place fold.
fn fold_in_place(k: &Kernels, c: Gf256, s: &[u8], d: &mut [u8]) {
    k.fold_in_place(c, d, Some(s));
}

/// A slice op, `d` the destination.
type SliceOp = fn(&Kernels, Gf256, &[u8], &mut [u8]);

/// Every slice op the paths must agree on.
const OPS: [SliceOp; 6] = [mul, mul_add, add, scale, fold, fold_in_place];

#[test]
fn all_coefficients_at_boundary_lengths() {
    // Dense around every multiple of 16 and 32 up to 3×32, sparse offsets.
    let lengths: Vec<usize> = LENGTHS
        .filter(|l| l % 16 == 0 || l % 16 == 1 || l % 16 == 15)
        .collect();
    for kernels in simd_paths() {
        for coeff in 0..=255u8 {
            for &len in &lengths {
                for op in OPS {
                    check_op(kernels, coeff, len, coeff as usize % 4, op);
                }
            }
        }
    }
}

#[test]
fn every_length_in_the_three_vector_sweep() {
    // All lengths 0..=96 at every listed misalignment, a few coefficients.
    for kernels in simd_paths() {
        for len in LENGTHS {
            for &offset in &OFFSETS {
                for coeff in [0u8, 1, 2, 0x1d, 0x8e, 0xff] {
                    for op in OPS {
                        check_op(kernels, coeff, len, offset, op);
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn random_shapes_match_scalar(
        coeff in any::<u8>(),
        offset in 0usize..MAX_LANE,
        src in proptest::collection::vec(any::<u8>(), 0..4 * MAX_LANE),
        seed in any::<u8>(),
    ) {
        for kernels in simd_paths() {
            let dst_init = vec![seed; src.len() + offset];
            let src_buf: Vec<u8> = vec![0; offset]
                .into_iter()
                .chain(src.iter().copied())
                .collect();
            for op in OPS {
                let mut got = dst_init.clone();
                op(kernels, Gf256::new(coeff), &src_buf[offset..], &mut got[offset..]);
                let mut expected = dst_init.clone();
                op(scalar(), Gf256::new(coeff), &src_buf[offset..], &mut expected[offset..]);
                prop_assert_eq!(&got, &expected, "path={} coeff={}", kernels.path(), coeff);
            }
        }
    }
}

// -------------------------------------------------- fused dot product --

/// Source `j` starts this many bytes after source `j - 1` in the shared
/// random buffer (odd, so neighbouring sources never share an alignment).
const DOT_SRC_STEP: usize = 37;
/// Bytes kept in front of and behind every output, which must stay as they
/// were.
const DOT_PAD: usize = 16;

/// `table[c][b] = c · b`, from the field arithmetic rather than from the
/// crate's kernel tables.
fn product_table() -> &'static Vec<[u8; 256]> {
    static TABLE: std::sync::OnceLock<Vec<[u8; 256]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        (0..=255u8)
            .map(|c| std::array::from_fn(|b| (Gf256::new(c) * Gf256::new(b as u8)).value()))
            .collect()
    })
}

/// Checks one shape on every supported path: `rows` outputs over `srcs`
/// sources of `len` bytes cut from `buf`, the first source `offset` bytes
/// past a 16-byte boundary and every output at a different misalignment,
/// overwriting and accumulating.
fn check_dot(coeffs: &[u8], rows: usize, srcs: usize, buf: &[u8], len: usize, offset: usize) {
    let matrix = Matrix::from_bytes(rows, srcs, coeffs);
    let sources: Vec<&[u8]> = (0..srcs)
        .map(|j| &buf[offset + j * DOT_SRC_STEP..][..len])
        .collect();
    let table = product_table();
    let products: Vec<Vec<u8>> = (0..rows)
        .map(|r| {
            let mut out = vec![0u8; len];
            for (j, src) in sources.iter().enumerate() {
                let row = &table[coeffs[r * srcs + j] as usize];
                for (o, s) in out.iter_mut().zip(src.iter()) {
                    *o ^= row[*s as usize];
                }
            }
            out
        })
        .collect();
    let starts: Vec<usize> = (0..rows).map(|r| DOT_PAD + (offset + 5 * r) % 16).collect();
    let initial: Vec<Vec<u8>> = (0..rows)
        .map(|r| pattern(starts[r] + len + DOT_PAD, 7 + r))
        .collect();
    for path in KernelPath::supported_paths() {
        let kernels = Kernels::for_path(path).expect("listed as supported");
        for accumulate in [false, true] {
            let mut outputs = initial.clone();
            let mut dsts: Vec<&mut [u8]> = outputs
                .iter_mut()
                .zip(&starts)
                .map(|(out, &start)| &mut out[start..start + len])
                .collect();
            kernels.dot_prod(&matrix, &sources, &mut dsts, accumulate);
            for r in 0..rows {
                let mut expected = initial[r].clone();
                for (e, p) in expected[starts[r]..].iter_mut().zip(&products[r]) {
                    *e = if accumulate { *e ^ p } else { *p };
                }
                assert!(
                    outputs[r] == expected,
                    "path={path} accumulate={accumulate} rows={rows} srcs={srcs} \
                     len={len} offset={offset} row={r}"
                );
            }
        }
    }
}

proptest! {
    // One case — a fresh 1 MiB buffer and coefficient matrix over some
    // 15 000 shapes; the time goes to the bytewise oracle and the scalar
    // path, which run unoptimized here.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn dot_prod_matches_bytewise_oracle_on_every_path(
        buf in proptest::collection::vec(any::<u8>(), (1 << 20) + 1024..(1 << 20) + 1025),
        drawn in proptest::collection::vec(any::<u8>(), 72..73),
    ) {
        // Plant the coefficients the single-coefficient kernels special-case.
        let coeffs_of = |rows: usize, srcs: usize| -> Vec<u8> {
            (0..rows * srcs)
                .map(|i| match (i / srcs + 2 * (i % srcs)) % 7 {
                    0 => 0,
                    3 => 1,
                    _ => drawn[i % drawn.len()],
                })
                .collect()
        };
        // 0..=300 crosses the 16- and 32-byte vectors several times over; 512
        // is the checksum chunk.
        let short = (0..=300).chain([512]);
        // One to six rows (a row group and a half) by one to twelve sources,
        // at the lengths next to a vector edge.
        for rows in 1..=6 {
            for srcs in 1..=12 {
                let coeffs = coeffs_of(rows, srcs);
                for len in short.clone().filter(|len| [0, 1, 15].contains(&(len % 16))) {
                    check_dot(&coeffs, rows, srcs, &buf, len, (len + rows + srcs) % 16);
                }
            }
        }
        // The shapes the runtime uses — (14,10) parity, a helper's step in a
        // 3-failure repair — at every short length and misalignment, then
        // at the strip edge (4 KiB ± 1), the 32 KiB repair slice and the
        // 1 MiB block.
        for (rows, srcs, longest) in [(4, 10, 32 << 10), (3, 1, 1 << 20)] {
            let coeffs = coeffs_of(rows, srcs);
            for offset in 0..16 {
                for len in short.clone() {
                    check_dot(&coeffs, rows, srcs, &buf, len, offset);
                }
            }
            for len in [4095, 4096, 4097, longest] {
                check_dot(&coeffs, rows, srcs, &buf, len, len % 13);
            }
        }
        // A second, partial row group, and more sources than one pass takes.
        for (rows, srcs) in [(5, 3), (2, 17), (1, 33)] {
            let coeffs = coeffs_of(rows, srcs);
            for len in short.clone().chain([4097]) {
                check_dot(&coeffs, rows, srcs, &buf, len, (len + 3) % 16);
            }
        }
    }
}

#[test]
#[should_panic(expected = "equal length")]
fn dot_prod_rejects_unequal_lengths() {
    let (a, b) = ([0u8; 8], [0u8; 7]);
    let mut out = [0u8; 8];
    gf256::dot_prod(
        &Matrix::identity(2).select_rows(&[0]),
        &[&a, &b],
        &mut [&mut out],
        false,
    );
}

#[test]
#[should_panic(expected = "a row per output")]
fn dot_prod_rejects_a_misshapen_matrix() {
    let a = [0u8; 8];
    let mut out = [0u8; 8];
    gf256::dot_prod(&Matrix::identity(2), &[&a], &mut [&mut out], false);
}

// ------------------------------------------------------------- CRC-32 --

/// The byte-at-a-time table CRC-32 the integrity layer shipped with before
/// the dispatched kernels: the oracle both of them must reproduce exactly,
/// because its values are on disk in every checksummed block's trailer.
fn crc32_bytewise(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        std::array::from_fn(|i| {
            (0..8).fold(i as u32, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
    });
    !data.iter().fold(!0u32, |c, &b| {
        table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// Every CRC-32 entry point this host can execute: each supported path's
/// kernel (scalar = portable; the x86 paths = PCLMUL where detected) and
/// the process-wide `gf256::crc32`.
fn crc32_everywhere(data: &[u8]) -> Vec<(&'static str, u32)> {
    let mut out: Vec<(&'static str, u32)> = KernelPath::supported_paths()
        .into_iter()
        .map(|p| {
            let kernels = Kernels::for_path(p).expect("listed as supported");
            (p.name(), kernels.crc32(data))
        })
        .collect();
    out.push(("active", gf256::crc32(data)));
    out
}

#[test]
fn crc32_check_values_on_every_path() {
    for (path, got) in crc32_everywhere(b"123456789") {
        assert_eq!(got, 0xCBF4_3926, "IEEE check value, path={path}");
    }
    for (path, got) in crc32_everywhere(b"") {
        assert_eq!(got, 0, "empty input, path={path}");
    }
}

proptest! {
    // Two cases: each draws a fresh 1 MiB buffer and sweeps ~5 000 shapes.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn crc32_matches_bytewise_oracle_at_every_length_and_misalignment(
        buf in proptest::collection::vec(any::<u8>(), (1 << 20) + 16..(1 << 20) + 17),
    ) {
        // 0..=300 crosses the 16-byte slicing step and the 64-byte folding
        // stride several times over; 512 is the checksum chunk, 32 KiB the
        // repair slice, 1 MiB the block.
        let lengths = (0..=300).chain([512, 32 << 10, 1 << 20]);
        for offset in 0..16 {
            for len in lengths.clone() {
                let data = &buf[offset..offset + len];
                let expected = crc32_bytewise(data);
                for (path, got) in crc32_everywhere(data) {
                    prop_assert_eq!(got, expected, "path={} len={} offset={}", path, len, offset);
                }
            }
        }
    }
}

/// `ECPIPE_GF_FORCE=scalar` must pin the portable CRC too. The check needs a
/// process of its own — the selection is made once per process, and the
/// tests above drive the PCLMUL kernel directly through `for_path` — so the
/// test re-runs itself, alone and forced, as a child.
#[test]
fn forced_scalar_process_never_reaches_pclmul() {
    const CHILD_MARKER: &str = "GF256_TEST_FORCED_SCALAR_CHILD";
    const NAME: &str = "forced_scalar_process_never_reaches_pclmul";
    if std::env::var_os(CHILD_MARKER).is_none() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", NAME, "--test-threads=1"])
            .env("ECPIPE_GF_FORCE", "scalar")
            .env(CHILD_MARKER, "1")
            .output()
            .expect("spawn forced-scalar child");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "forced-scalar child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    assert_eq!(gf256::active_path(), KernelPath::Scalar);
    let buf = pattern(1 << 20, 11);
    for len in [0, 63, 64, 65, 512, 32 << 10, 1 << 20] {
        assert_eq!(gf256::crc32(&buf[..len]), crc32_bytewise(&buf[..len]));
    }
    // Counted in debug builds on x86 only; elsewhere there is nothing to
    // reach or nothing counting.
    if let Some(calls) = gf256::simd::crc32_pclmul_calls() {
        assert_eq!(calls, 0, "forced scalar entered the PCLMUL kernel");
    }
}

// ------------------------------------------------ checked helper fold --

/// Every path this host supports, scalar included: the fused kernel of
/// each is held to the three-pass oracle below, not to another path.
fn all_paths() -> Vec<&'static Kernels> {
    KernelPath::supported_paths()
        .into_iter()
        .map(|p| Kernels::for_path(p).expect("listed as supported"))
        .collect()
}

/// The per-chunk CRC-32s of `data`, as a checksummed block records them.
fn sums_of(data: &[u8], chunk: usize) -> Vec<u32> {
    data.chunks(chunk).map(crc32_bytewise).collect()
}

/// The three passes the fused kernel replaces: `verify_chunks` (each
/// chunk's CRC-32 against its recorded sum), then `mul_slice` and
/// `add_slice` — from the bytewise CRC and the field's product table.
fn three_passes(
    coeff: u8,
    data: &[u8],
    incoming: Option<&[u8]>,
    sums: &[u32],
    chunk: usize,
) -> Result<Vec<u8>, usize> {
    for (i, bytes) in data.chunks(chunk).enumerate() {
        if sums.get(i) != Some(&crc32_bytewise(bytes)) {
            return Err(i);
        }
    }
    let products = &product_table()[coeff as usize];
    let scaled = data.iter().map(|&b| products[b as usize]);
    Ok(match incoming {
        Some(incoming) => scaled.zip(incoming).map(|(p, i)| p ^ i).collect(),
        None => scaled.collect(),
    })
}

/// Runs the fused kernel of `kernels` on a copy of `data` placed `offset`
/// bytes into its buffer, returning the folded bytes or the failing chunk.
fn fused(
    kernels: &Kernels,
    coeff: u8,
    data: &[u8],
    incoming: Option<&[u8]>,
    sums: &[u32],
    chunk: usize,
    offset: usize,
) -> Result<Vec<u8>, usize> {
    let mut buf = vec![0xA5; offset];
    buf.extend_from_slice(data);
    kernels.verify_fold(Gf256::new(coeff), &mut buf[offset..], incoming, sums, chunk)?;
    assert!(
        buf[..offset].iter().all(|&b| b == 0xA5),
        "wrote before the buffer"
    );
    Ok(buf.split_off(offset))
}

#[test]
fn verify_fold_matches_three_passes_on_every_path() {
    let buf = pattern(32 * 1024 + 64, 5);
    let incoming_buf = pattern(32 * 1024 + 64, 77);
    // 512 is the checksum chunk; 64 one CRC stride; 100 and 1 not a
    // stride at all; 5000 spans two of the pieces a composed fold stages.
    for chunk in [512usize, 64, 100, 1, 5000] {
        let many = (64 * chunk).min(32 * 1024);
        let lengths = [0, 1, chunk - 1, chunk, chunk + 1, 4 * chunk + 37, many];
        for len in lengths {
            for offset in [0, 1, 13] {
                let data = &buf[offset..offset + len];
                let incoming = &incoming_buf[3 * offset..3 * offset + len];
                let sums = sums_of(data, chunk);
                for coeff in [0u8, 1, 2, 0x8e, (len * 31 + chunk) as u8] {
                    for incoming in [None, Some(incoming)] {
                        let expected = three_passes(coeff, data, incoming, &sums, chunk);
                        assert!(expected.is_ok());
                        for kernels in all_paths() {
                            let got = fused(kernels, coeff, data, incoming, &sums, chunk, offset);
                            assert!(
                                got == expected,
                                "path={} chunk={chunk} len={len} offset={offset} coeff={coeff} \
                                 incoming={}",
                                kernels.path(),
                                incoming.is_some()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn verify_fold_convicts_a_flipped_bit_in_any_chunk() {
    // Five whole 512-byte chunks and a short tail; ten 64-byte chunks.
    for (chunk, len) in [(512usize, 5 * 512 + 100), (64, 640)] {
        let data = pattern(len, 9);
        let incoming = pattern(len, 41);
        let sums = sums_of(&data, chunk);
        for at in 0..len {
            // Every byte of the small chunks; a spread of the large ones.
            if chunk == 512 && ![0, 1, 63, 64, 255, 256, 510, 511].contains(&(at % chunk)) {
                continue;
            }
            let mut rotten = data.clone();
            rotten[at] ^= 1 << (at % 8);
            for kernels in all_paths() {
                for incoming in [None, Some(&incoming[..])] {
                    let got = fused(kernels, 0x8e, &rotten, incoming, &sums, chunk, at % 3);
                    assert_eq!(
                        got,
                        Err(at / chunk),
                        "path={} chunk={chunk} flipped byte {at}",
                        kernels.path()
                    );
                }
            }
        }
        // A chunk with no recorded sum fails too, at that chunk.
        for kernels in all_paths() {
            let short = &sums[..sums.len() - 1];
            let got = fused(kernels, 7, &data, None, short, chunk, 0);
            assert_eq!(got, Err(sums.len() - 1), "path={}", kernels.path());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verify_fold_random_shapes_match_three_passes(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..1100,
        coeff in any::<u8>(),
        with_incoming in any::<bool>(),
        offset in 0usize..MAX_LANE,
        flip in any::<bool>(),
        flip_at in any::<usize>(),
    ) {
        let incoming: Vec<u8> = data.iter().map(|b| b.rotate_left(3) ^ 0x5c).collect();
        let incoming = with_incoming.then_some(&incoming[..]);
        let mut sums = sums_of(&data, chunk);
        if flip && !data.is_empty() {
            sums[flip_at % data.len() / chunk] ^= 1;
        }
        let expected = three_passes(coeff, &data, incoming, &sums, chunk);
        for kernels in all_paths() {
            let got = fused(kernels, coeff, &data, incoming, &sums, chunk, offset);
            prop_assert_eq!(&got, &expected, "path={}", kernels.path());
        }
    }
}

/// `fold` and `fold_in_place` work a piece at a time; across the piece
/// boundaries they still equal the field's products, on every path.
#[test]
fn folds_across_their_pieces_match_the_field() {
    let products = &product_table()[0x8e];
    for len in [4095, 4096, 4097, 10_000] {
        let (src, incoming) = (pattern(len, 21), pattern(len, 88));
        let expected: Vec<u8> = src
            .iter()
            .zip(&incoming)
            .map(|(&s, &i)| products[s as usize] ^ i)
            .collect();
        for kernels in all_paths() {
            let mut dst = vec![0u8; len];
            kernels.fold(Gf256::new(0x8e), &src, Some(&incoming), &mut dst);
            assert!(dst == expected, "fold path={} len={len}", kernels.path());
            let mut data = src.clone();
            kernels.fold_in_place(Gf256::new(0x8e), &mut data, Some(&incoming));
            assert!(
                data == expected,
                "fold_in_place path={} len={len}",
                kernels.path()
            );
        }
    }
}

#[test]
#[should_panic(expected = "incoming must be as long")]
fn verify_fold_rejects_a_short_incoming() {
    let mut data = [0u8; 64];
    let _ = scalar().verify_fold(Gf256::ONE, &mut data, Some(&[0; 63]), &[0], 64);
}
