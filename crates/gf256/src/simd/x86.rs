//! SSSE3 and AVX2 split-table kernels for x86 / x86_64.
//!
//! Both paths implement the same ISA-L scheme: the coefficient's 16-entry
//! low- and high-nibble product tables ([`crate::tables::MUL_LO`] /
//! [`crate::tables::MUL_HI`]) are loaded into vector registers once per
//! call, then each iteration computes 16 (SSSE3) or 32 (AVX2) products with
//! two byte shuffles and a XOR:
//!
//! ```text
//! prod = shuffle(lo_tbl, src & 0x0f) ^ shuffle(hi_tbl, (src >> 4) & 0x0f)
//! ```
//!
//! The fused dot product (`dot_*_body`, const-generic over one to four
//! output rows) is the same lookup with the loops turned inside out: per
//! vector of columns, each source is loaded and nibble-split once and
//! shuffled against every row's tables, which the caller has packed in
//! reading order, while the rows' accumulators stay in registers.
//!
//! The safe wrappers split the input at the last full vector and hand the
//! remainder to the scalar loops, so the vector bodies only ever see
//! whole-lane lengths. This module is the designated home for `unsafe` in
//! this crate (with `simd/neon.rs`); the workspace lint enforces that and
//! the `// SAFETY:` comments below.
//!
//! Both paths also share one CRC-32 kernel: CRC is polynomial division over
//! GF(2), and `pclmulqdq` (carry-less multiply) folds 64 input bytes into
//! four 128-bit accumulators per iteration. See [`crc32_x86`]. The AVX2
//! path runs that loop and its multiply as one: [`crc_fold_strides`]
//! loads each 64 bytes once, folds them into the CRC lanes and stores
//! their products in their place.

#![allow(unsafe_code)]

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use std::ops::Range;

use super::{scalar, KernelPath, Kernels, NibbleTables};
use crate::tables::{crc32_mul_x, CRC32_POLY, MUL_HI, MUL_LO};
use crate::Gf256;

pub(super) static SSSE3: Kernels = Kernels {
    path: KernelPath::Ssse3,
    mul: mul_ssse3,
    mul_add: mul_add_ssse3,
    add: add_ssse3,
    dot: dot_ssse3,
    crc: crc32_x86,
    verify_fold: super::verify_fold_composed,
};

pub(super) static AVX2: Kernels = Kernels {
    path: KernelPath::Avx2,
    mul: mul_avx2,
    mul_add: mul_add_avx2,
    add: add_avx2,
    dot: dot_avx2,
    crc: crc32_x86,
    verify_fold: verify_fold_avx2,
};

// ---------------------------------------------------------------- SSSE3 --

fn mul_ssse3(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: these kernels are only reachable through `Kernels::for_path`,
    // which returns the SSSE3 table solely when `is_x86_feature_detected!
    // ("ssse3")` holds, so the target-feature contract is met.
    unsafe { mul_ssse3_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul(coeff, &src[split..], &mut dst[split..]);
}

fn mul_add_ssse3(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: reachable only when runtime detection confirmed SSSE3 (see
    // `Kernels::for_path`).
    unsafe { mul_add_ssse3_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul_add(coeff, &src[split..], &mut dst[split..]);
}

fn add_ssse3(src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: reachable only when runtime detection confirmed SSSE3, which
    // implies the SSE2 loads/stores used by the body.
    unsafe { add_sse2_body(&src[..split], &mut dst[..split]) };
    scalar::add(&src[split..], &mut dst[split..]);
}

/// 16-products-per-iteration multiply. `src.len()` must be a multiple of 16
/// and equal `dst.len()`; caller must have verified SSSE3 support.
// SAFETY: every load/store below is `loadu`/`storeu` (no alignment
// requirement) over `i < len` offsets with `len % 16 == 0`, so all 16-byte
// accesses stay in bounds; the table rows are `[u8; 16]` so the table loads
// are exactly in bounds too.
#[target_feature(enable = "ssse3")]
unsafe fn mul_ssse3_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl = _mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast());
    let hi_tbl = _mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast());
    let mask = _mm_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
        let lo_n = _mm_and_si128(s, mask);
        let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
        let prod = _mm_xor_si128(
            _mm_shuffle_epi8(lo_tbl, lo_n),
            _mm_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), prod);
        i += 16;
    }
}

/// 16-products-per-iteration multiply-accumulate; same contract as
/// [`mul_ssse3_body`].
// SAFETY: same bounds argument as `mul_ssse3_body` — unaligned 16-byte
// accesses at offsets `< len` with `len % 16 == 0`.
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_ssse3_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl = _mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast());
    let hi_tbl = _mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast());
    let mask = _mm_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
        let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
        let lo_n = _mm_and_si128(s, mask);
        let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
        let prod = _mm_xor_si128(
            _mm_shuffle_epi8(lo_tbl, lo_n),
            _mm_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, prod));
        i += 16;
    }
}

/// 16-bytes-per-iteration XOR; same length contract as [`mul_ssse3_body`].
// SAFETY: unaligned 16-byte accesses at offsets `< len` with
// `len % 16 == 0`; only SSE2 instructions are used.
#[target_feature(enable = "sse2")]
unsafe fn add_sse2_body(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i < src.len() {
        let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
        let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
        _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, s));
        i += 16;
    }
}

fn dot_ssse3(
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
) {
    let body = match dsts.len() {
        1 => dot_ssse3_body::<1>,
        2 => dot_ssse3_body::<2>,
        3 => dot_ssse3_body::<3>,
        4 => dot_ssse3_body::<4>,
        rows => panic!("dot: a row group holds 1 to 4 outputs, got {rows}"),
    };
    super::dot_whole_lanes(
        16,
        coeffs,
        srcs,
        dsts,
        cols,
        accumulate,
        |tables, srcs, dsts, cols, accumulate| {
            // SAFETY: reachable only when runtime detection confirmed SSSE3
            // (see `Kernels::for_path`); the body checks its own bounds.
            unsafe { body(tables, srcs, dsts, cols, accumulate) }
        },
    );
}

/// Fused dot product, 16 columns per iteration: each source vector is loaded
/// and nibble-split once and feeds all `R` accumulators, which stay in
/// registers across the sources and are stored once. `tables` holds the
/// coefficients' nibble tables source-major, `R` per source (see
/// [`super::dot_whole_lanes`]).
///
/// Caller must have verified SSSE3 support. Everything else the accesses
/// rely on is asserted on entry: `R` outputs, `R` tables per source, `cols`
/// a whole number of vectors, every source and output reaching `cols.end`.
// SAFETY: all loads and stores are unaligned 16-byte accesses at offsets
// `i` with `i + 16 <= cols.end <=` the length of the slice accessed (the
// entry asserts); the output pointers come from distinct `&mut` slices, so
// they alias neither each other nor a source; a table is `[u8; 32]` read as
// two 16-byte halves.
#[target_feature(enable = "ssse3")]
unsafe fn dot_ssse3_body<const R: usize>(
    tables: &[NibbleTables],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
) {
    assert!(dsts.len() == R && tables.len() == R * srcs.len());
    assert!(cols.start <= cols.end && cols.len().is_multiple_of(16));
    assert!(srcs.iter().all(|s| s.len() >= cols.end) && dsts.iter().all(|d| d.len() >= cols.end));
    let out: [*mut u8; R] = std::array::from_fn(|r| dsts[r].as_mut_ptr());
    let mask = _mm_set1_epi8(0x0f);
    let mut i = cols.start;
    while i < cols.end {
        let mut acc = [_mm_setzero_si128(); R];
        if accumulate {
            for r in 0..R {
                acc[r] = _mm_loadu_si128(out[r].add(i).cast());
            }
        }
        for (src, tables) in srcs.iter().zip(tables.chunks_exact(R)) {
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let lo_n = _mm_and_si128(s, mask);
            let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
            for r in 0..R {
                let lo_tbl = _mm_loadu_si128(tables[r].as_ptr().cast());
                let hi_tbl = _mm_loadu_si128(tables[r].as_ptr().add(16).cast());
                let prod = _mm_xor_si128(
                    _mm_shuffle_epi8(lo_tbl, lo_n),
                    _mm_shuffle_epi8(hi_tbl, hi_n),
                );
                acc[r] = _mm_xor_si128(acc[r], prod);
            }
        }
        for r in 0..R {
            _mm_storeu_si128(out[r].add(i).cast(), acc[r]);
        }
        i += 16;
    }
}

// ----------------------------------------------------------------- AVX2 --

fn mul_avx2(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 32;
    // SAFETY: reachable only when runtime detection confirmed AVX2 (see
    // `Kernels::for_path`).
    unsafe { mul_avx2_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul(coeff, &src[split..], &mut dst[split..]);
}

fn mul_add_avx2(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 32;
    // SAFETY: reachable only when runtime detection confirmed AVX2 (see
    // `Kernels::for_path`).
    unsafe { mul_add_avx2_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul_add(coeff, &src[split..], &mut dst[split..]);
}

fn add_avx2(src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 32;
    // SAFETY: reachable only when runtime detection confirmed AVX2 (see
    // `Kernels::for_path`).
    unsafe { add_avx2_body(&src[..split], &mut dst[..split]) };
    scalar::add(&src[split..], &mut dst[split..]);
}

/// 32-products-per-iteration multiply. `src.len()` must be a multiple of 32
/// and equal `dst.len()`; caller must have verified AVX2 support.
///
/// `vpshufb` shuffles within each 128-bit lane, so broadcasting the same
/// 16-entry table to both lanes makes the 256-bit shuffle behave as two
/// independent copies of the SSSE3 lookup.
// SAFETY: unaligned 32-byte accesses (`loadu`/`storeu`) at offsets `< len`
// with `len % 32 == 0` stay in bounds; table rows are `[u8; 16]`, matching
// the 128-bit broadcast loads exactly.
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 32, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast()));
    let hi_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
        let lo_n = _mm256_and_si256(s, mask);
        let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo_n),
            _mm256_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), prod);
        i += 32;
    }
}

/// 32-products-per-iteration multiply-accumulate; same contract as
/// [`mul_avx2_body`].
// SAFETY: same bounds argument as `mul_avx2_body`.
#[target_feature(enable = "avx2")]
unsafe fn mul_add_avx2_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 32, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast()));
    let hi_tbl =
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
        let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
        let lo_n = _mm256_and_si256(s, mask);
        let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo_n),
            _mm256_shuffle_epi8(hi_tbl, hi_n),
        );
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, prod));
        i += 32;
    }
}

/// 32-bytes-per-iteration XOR; same contract as [`mul_avx2_body`].
// SAFETY: unaligned 32-byte accesses at offsets `< len` with
// `len % 32 == 0`.
#[target_feature(enable = "avx2")]
unsafe fn add_avx2_body(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 32, 0);
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i < src.len() {
        let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
        let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, s));
        i += 32;
    }
}

fn dot_avx2(
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
) {
    let body = match dsts.len() {
        1 => dot_avx2_body::<1>,
        2 => dot_avx2_body::<2>,
        3 => dot_avx2_body::<3>,
        4 => dot_avx2_body::<4>,
        rows => panic!("dot: a row group holds 1 to 4 outputs, got {rows}"),
    };
    super::dot_whole_lanes(
        32,
        coeffs,
        srcs,
        dsts,
        cols,
        accumulate,
        |tables, srcs, dsts, cols, accumulate| {
            // SAFETY: reachable only when runtime detection confirmed AVX2
            // (see `Kernels::for_path`); the body checks its own bounds.
            unsafe { body(tables, srcs, dsts, cols, accumulate) }
        },
    );
}

/// Fused dot product, 32 columns per iteration; [`dot_ssse3_body`] at twice
/// the width, with each 16-entry table broadcast to both lanes (see
/// [`mul_avx2_body`]). Same contract, with AVX2 verified.
// SAFETY: same bounds and aliasing argument as `dot_ssse3_body`, with
// 32-byte accesses at offsets `i` with `i + 32 <= cols.end`.
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2_body<const R: usize>(
    tables: &[NibbleTables],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
) {
    assert!(dsts.len() == R && tables.len() == R * srcs.len());
    assert!(cols.start <= cols.end && cols.len().is_multiple_of(32));
    assert!(srcs.iter().all(|s| s.len() >= cols.end) && dsts.iter().all(|d| d.len() >= cols.end));
    let out: [*mut u8; R] = std::array::from_fn(|r| dsts[r].as_mut_ptr());
    let mask = _mm256_set1_epi8(0x0f);
    let mut i = cols.start;
    while i < cols.end {
        let mut acc = [_mm256_setzero_si256(); R];
        if accumulate {
            for r in 0..R {
                acc[r] = _mm256_loadu_si256(out[r].add(i).cast());
            }
        }
        for (src, tables) in srcs.iter().zip(tables.chunks_exact(R)) {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let lo_n = _mm256_and_si256(s, mask);
            let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
            for r in 0..R {
                let halves: *const __m128i = tables[r].as_ptr().cast();
                let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(halves));
                let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(halves.add(1)));
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo_n),
                    _mm256_shuffle_epi8(hi_tbl, hi_n),
                );
                acc[r] = _mm256_xor_si256(acc[r], prod);
            }
        }
        for r in 0..R {
            _mm256_storeu_si256(out[r].add(i).cast(), acc[r]);
        }
        i += 32;
    }
}

// --------------------------------------------------------------- CRC-32 --

/// Bytes consumed per iteration of the folding loop: four 128-bit lanes.
/// Inputs shorter than this, and the tail past the last whole stride, go to
/// the portable kernel.
const CRC_STRIDE: usize = 64;

/// How many times this process entered [`crc32_pclmul_body`]; debug builds
/// only, so the test that a forced-scalar process never reaches the PCLMUL
/// kernel observes it rather than trusts the dispatch table.
#[cfg(debug_assertions)]
pub(super) static CRC_PCLMUL_CALLS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// `x^n mod P` as a fold multiplier: the bit-reflected remainder, shifted
/// left once because the carry-less product of two reflected 64-bit
/// operands lands one bit short of reflected alignment.
const fn fold_by(n: u32) -> i64 {
    ((crc32_mul_x(0x8000_0000, n) as u64) << 1) as i64
}

/// Multipliers that move a 128-bit lane `distance` bits forward in the
/// message, as `(low, high)` qwords: the lane's low qword holds the earlier
/// (higher-degree) 64 bits and is multiplied by `x^(distance+32)`, its high
/// qword by `x^(distance-32)`.
const fn fold_pair(distance: u32) -> (i64, i64) {
    (fold_by(distance + 32), fold_by(distance - 32))
}

/// One stride of the four-lane loop ahead.
const FOLD_STRIDE: (i64, i64) = fold_pair(8 * CRC_STRIDE as u32);
/// The next lane over, for collapsing four lanes into one.
const FOLD_LANE: (i64, i64) = fold_pair(128);
/// `x^64 mod P`: moves the leading 32 of 96 bits onto the 64 behind them.
const FOLD_64: i64 = fold_by(64);
/// The generator with its `x^32` term, bit-reflected over 33 bits.
const BARRETT_POLY: i64 = (((CRC32_POLY as u64) << 1) | 1) as i64;
/// `floor(x^64 / P)`, bit-reflected over its 33 coefficients: what turns
/// the last 64 bits into the quotient whose multiple of `P` cancels them.
const BARRETT_MU: i64 = {
    // Long division, one power of `x` per step: the remainder is
    // `crc32_mul_x`'s, and a quotient bit is set each time that reduces.
    let (mut quotient, mut remainder, mut i) = (0u64, 0x8000_0000u32, 0);
    while i < 64 {
        quotient = (quotient >> 1) | (((remainder & 1) as u64) << 32);
        remainder = crc32_mul_x(remainder, 1);
        i += 1;
    }
    quotient as i64
};

/// CRC-32 state update for both x86 paths: whole 64-byte strides through
/// `pclmulqdq` when the host has it, everything else through the portable
/// slicing-by-16 kernel. `ECPIPE_GF_FORCE` names a GF path, not a CRC one,
/// so a forced SSSE3/AVX2 process on a host without `pclmulqdq` quietly
/// computes its checksums portably.
fn crc32_x86(state: u32, data: &[u8]) -> u32 {
    let split = data.len() - data.len() % CRC_STRIDE;
    if split == 0 || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return scalar::crc32(state, data);
    }
    #[cfg(debug_assertions)]
    CRC_PCLMUL_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // SAFETY: `pclmulqdq` was detected on the line above (it implies the
    // SSE2 loads/stores the body uses), and `split` is a non-zero multiple
    // of `CRC_STRIDE`, the body's length contract.
    let state = unsafe { crc32_pclmul_body(state, &data[..split]) };
    scalar::crc32(state, &data[split..])
}

/// `lane` moved forward by the distance `k` encodes, plus `next` — the data
/// (or accumulator) already sitting at that position.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
    let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// 4x128-bit folding (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction"). `data.len()` must be a
/// non-zero multiple of [`CRC_STRIDE`]; caller must have verified
/// `pclmulqdq` support.
///
/// The four accumulators always hold 64 bytes that are CRC-equivalent to
/// everything consumed so far (the incoming state is XORed into the first
/// four bytes, which is what a non-zero initial state means). The end stays
/// in registers — on 512-byte checksum chunks it is paid once per eight
/// strides, so a pass through the byte tables there would cost as much as
/// the folding: collapse the lanes into one, fold its 128 bits to 96 and to
/// 64, and Barrett-reduce those to the 32-bit state.
// SAFETY: every load is `loadu` (no alignment requirement) at an offset
// `i + 16 * lane + 16 <= len`, because `i` advances in whole strides of 64
// over a length that is a multiple of 64; nothing is stored.
#[target_feature(enable = "pclmulqdq")]
unsafe fn crc32_pclmul_body(state: u32, data: &[u8]) -> u32 {
    debug_assert!(!data.is_empty());
    debug_assert_eq!(data.len() % CRC_STRIDE, 0);
    let p = data.as_ptr();
    let mut x0 = _mm_xor_si128(_mm_loadu_si128(p.cast()), _mm_cvtsi32_si128(state as i32));
    let mut x1 = _mm_loadu_si128(p.add(16).cast());
    let mut x2 = _mm_loadu_si128(p.add(32).cast());
    let mut x3 = _mm_loadu_si128(p.add(48).cast());
    let k = _mm_set_epi64x(FOLD_STRIDE.1, FOLD_STRIDE.0);
    let mut i = CRC_STRIDE;
    while i < data.len() {
        x0 = fold(x0, k, _mm_loadu_si128(p.add(i).cast()));
        x1 = fold(x1, k, _mm_loadu_si128(p.add(i + 16).cast()));
        x2 = fold(x2, k, _mm_loadu_si128(p.add(i + 32).cast()));
        x3 = fold(x3, k, _mm_loadu_si128(p.add(i + 48).cast()));
        i += CRC_STRIDE;
    }
    reduce(x0, x1, x2, x3)
}

/// The end of the folding loop, in registers: collapses the four lanes into
/// one, folds its 128 bits to 96 and to 64, and Barrett-reduces those to
/// the 32-bit state.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn reduce(x0: __m128i, x1: __m128i, x2: __m128i, x3: __m128i) -> u32 {
    let k = _mm_set_epi64x(FOLD_LANE.1, FOLD_LANE.0);
    let x = fold(fold(fold(x0, k, x1), k, x2), k, x3);
    // 128 -> 96 bits: the low qword (the earlier bytes) moves 64 bits
    // forward, onto the high qword.
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k), _mm_srli_si128::<8>(x));
    // 96 -> 64 bits: the low dword moves 32 bits forward.
    let low_dwords = _mm_set_epi32(0, -1, 0, -1);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_dwords), _mm_set_epi64x(0, FOLD_64)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: q = low32(low32(x) * mu), then x + q * P has the remainder
    // in its second dword.
    let mu_poly = _mm_set_epi64x(BARRETT_MU, BARRETT_POLY);
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_dwords), mu_poly);
    let q_poly = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low_dwords), mu_poly);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, q_poly))) as u32
}

// ------------------------------------------------------ checked fold --

/// The AVX2 path's `Kernels::verify_fold`: every chunk's whole 64-byte
/// strides through [`crc_fold_strides`] when the host has `pclmulqdq`, the
/// sub-stride tail through the portable loops; chunks shorter than a
/// stride, or a host without `pclmulqdq`, compose the path's kernels.
fn verify_fold_avx2(
    kernels: &Kernels,
    coeff: Gf256,
    data: &mut [u8],
    incoming: Option<&[u8]>,
    sums: &[u32],
    chunk_size: usize,
) -> Result<(), usize> {
    if chunk_size < CRC_STRIDE || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return super::verify_fold_composed(kernels, coeff, data, incoming, sums, chunk_size);
    }
    #[cfg(debug_assertions)]
    CRC_PCLMUL_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // SAFETY: the AVX2 table is only handed out when `avx2` was detected
    // (`Kernels::for_path`) and `pclmulqdq` was detected above; the body
    // checks its own slice contract.
    unsafe { verify_fold_avx2_body(coeff.value(), data, incoming, sums, chunk_size) }
}

/// The chunk loop of [`verify_fold_avx2`], in one function so that the
/// product tables are loaded once per call and one chunk's reduction
/// overlaps the next chunk's loads. `incoming`, if given, must be as long
/// as `data`; caller must have verified AVX2 and `pclmulqdq` support.
// SAFETY: the only unsafe operation is the call of `crc_fold_strides`
// (same target features), on a chunk's leading whole strides — a non-zero
// multiple of `CRC_STRIDE` bytes, by the `split` arithmetic and the
// emptiness check — with the piece of `incoming` cut at the same offsets,
// as long as they are by the length assertion on entry.
#[target_feature(enable = "avx2,pclmulqdq")]
unsafe fn verify_fold_avx2_body(
    coeff: u8,
    data: &mut [u8],
    incoming: Option<&[u8]>,
    sums: &[u32],
    chunk_size: usize,
) -> Result<(), usize> {
    assert!(incoming.is_none_or(|incoming| incoming.len() == data.len()));
    let tables = (
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[coeff as usize].as_ptr().cast())),
        _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[coeff as usize].as_ptr().cast())),
    );
    let chunks = data
        .chunks_mut(chunk_size)
        .zip(super::pieces_of(incoming, chunk_size));
    for (i, (chunk, incoming)) in chunks.enumerate() {
        let split = chunk.len() - chunk.len() % CRC_STRIDE;
        let (body, tail) = chunk.split_at_mut(split);
        let (body_in, tail_in) = match incoming {
            Some(incoming) => {
                let (body_in, tail_in) = incoming.split_at(split);
                (Some(body_in), Some(tail_in))
            }
            None => (None, None),
        };
        let mut state = !0;
        if !body.is_empty() {
            state = crc_fold_strides(state, tables, body, body_in);
        }
        if !tail.is_empty() {
            state = scalar::crc32(state, tail);
            scalar::fold_in_place(coeff, tail, tail_in);
        }
        if sums.get(i) != Some(&!state) {
            return Err(i);
        }
    }
    Ok(())
}

/// The CRC-32 state update over `data` as read, and `coeff * data ^
/// incoming` left in its place, in one loop: each 64 bytes are loaded once,
/// folded into the four CRC lanes of [`crc32_pclmul_body`] and multiplied
/// as two 32-byte vectors of [`mul_avx2_body`] (`tables` holds the
/// coefficient's low- and high-nibble tables, broadcast to both lanes).
/// `data.len()` must be a non-zero multiple of [`CRC_STRIDE`] and
/// `incoming`, if given, as long; caller must have verified AVX2 and
/// `pclmulqdq` support.
// SAFETY: every access is an unaligned `loadu`/`storeu` of 32 bytes at an
// offset `i + 32 * half + 32 <= len`, because `i` advances in whole
// strides of 64 over a length that is a multiple of 64 (asserted), and
// `incoming` is as long as `data` (asserted); `data` is a `&mut` slice, so
// `incoming` cannot alias it.
#[inline]
#[target_feature(enable = "avx2,pclmulqdq")]
unsafe fn crc_fold_strides(
    state: u32,
    (lo_tbl, hi_tbl): (__m256i, __m256i),
    data: &mut [u8],
    incoming: Option<&[u8]>,
) -> u32 {
    let len = data.len();
    assert!(len > 0 && len.is_multiple_of(CRC_STRIDE));
    assert!(incoming.is_none_or(|incoming| incoming.len() == len));
    let mask = _mm256_set1_epi8(0x0f);
    let p = data.as_mut_ptr();
    let inc = incoming.map(<[u8]>::as_ptr);
    // `coeff * v ^ incoming[at..at + 32]`, for the vector `v` read at `at`.
    let product = |v: __m256i, at: usize| {
        let lo_n = _mm256_and_si256(v, mask);
        let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo_n),
            _mm256_shuffle_epi8(hi_tbl, hi_n),
        );
        match inc {
            Some(inc) => _mm256_xor_si256(prod, _mm256_loadu_si256(inc.add(at).cast())),
            None => prod,
        }
    };
    // The first stride seeds the lanes (the state XORed into its first
    // four bytes); every later one is folded onto them.
    let (a, b) = (
        _mm256_loadu_si256(p.cast()),
        _mm256_loadu_si256(p.add(32).cast()),
    );
    let mut x0 = _mm_xor_si128(_mm256_castsi256_si128(a), _mm_cvtsi32_si128(state as i32));
    let mut x1 = _mm256_extracti128_si256::<1>(a);
    let mut x2 = _mm256_castsi256_si128(b);
    let mut x3 = _mm256_extracti128_si256::<1>(b);
    _mm256_storeu_si256(p.cast(), product(a, 0));
    _mm256_storeu_si256(p.add(32).cast(), product(b, 32));
    let k = _mm_set_epi64x(FOLD_STRIDE.1, FOLD_STRIDE.0);
    let mut i = CRC_STRIDE;
    while i < len {
        let (a, b) = (
            _mm256_loadu_si256(p.add(i).cast()),
            _mm256_loadu_si256(p.add(i + 32).cast()),
        );
        x0 = fold(x0, k, _mm256_castsi256_si128(a));
        x1 = fold(x1, k, _mm256_extracti128_si256::<1>(a));
        x2 = fold(x2, k, _mm256_castsi256_si128(b));
        x3 = fold(x3, k, _mm256_extracti128_si256::<1>(b));
        _mm256_storeu_si256(p.add(i).cast(), product(a, i));
        _mm256_storeu_si256(p.add(i + 32).cast(), product(b, i + 32));
        i += CRC_STRIDE;
    }
    reduce(x0, x1, x2, x3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_fold_constants_match_the_published_ones() {
        // k1..k4 of the Intel white paper for the reflected IEEE polynomial
        // (also pinned in zlib's and the Linux kernel's crc32 PCLMUL code).
        assert_eq!(FOLD_STRIDE, (0x1_5444_2bd4, 0x1_c6e4_1596));
        assert_eq!(FOLD_LANE, (0x1_7519_97d0, 0x0_ccaa_009e));
        // k5, and the Barrett pair: P' and mu.
        assert_eq!(FOLD_64, 0x1_63cd_6124);
        assert_eq!(BARRETT_POLY, 0x1_db71_0641);
        assert_eq!(BARRETT_MU, 0x1_f701_1641);
    }
}
