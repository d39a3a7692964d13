//! NEON split-table kernels for aarch64.
//!
//! Same ISA-L scheme as the x86 paths (see `simd/x86.rs`): the
//! coefficient's two 16-entry nibble tables are loaded into vector
//! registers and `vqtbl1q_u8` looks up 16 products per iteration; the fused
//! dot product (`dot_neon_body`) shuffles each nibble-split source vector
//! against up to four rows' tables with the accumulators held in registers.
//! NEON is baseline on aarch64, so no runtime detection is needed, but the
//! kernels still go through the same dispatch table for uniformity. This
//! module is one of the two designated homes for `unsafe` in this crate;
//! the workspace lint enforces that and the `// SAFETY:` comments below.

#![allow(unsafe_code)]

use core::arch::aarch64::*;

use std::ops::Range;

use super::{scalar, KernelPath, Kernels, NibbleTables};
use crate::tables::{MUL_HI, MUL_LO};
use crate::Gf256;

pub(super) static NEON: Kernels = Kernels {
    path: KernelPath::Neon,
    mul: mul_neon,
    mul_add: mul_add_neon,
    add: add_neon,
    dot: dot_neon,
    crc: scalar::crc32,
    verify_fold: super::verify_fold_composed,
};

fn mul_neon(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: NEON is part of the aarch64 baseline, and the body only
    // performs in-bounds unaligned accesses (see its SAFETY comment).
    unsafe { mul_neon_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul(coeff, &src[split..], &mut dst[split..]);
}

fn mul_add_neon(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: NEON is part of the aarch64 baseline; in-bounds accesses only.
    unsafe { mul_add_neon_body(coeff, &src[..split], &mut dst[..split]) };
    scalar::mul_add(coeff, &src[split..], &mut dst[split..]);
}

fn add_neon(src: &[u8], dst: &mut [u8]) {
    let split = src.len() - src.len() % 16;
    // SAFETY: NEON is part of the aarch64 baseline; in-bounds accesses only.
    unsafe { add_neon_body(&src[..split], &mut dst[..split]) };
    scalar::add(&src[split..], &mut dst[split..]);
}

fn dot_neon(
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
) {
    let body = match dsts.len() {
        1 => dot_neon_body::<1>,
        2 => dot_neon_body::<2>,
        3 => dot_neon_body::<3>,
        4 => dot_neon_body::<4>,
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
            // SAFETY: NEON is part of the aarch64 baseline; the body checks
            // its own bounds.
            unsafe { body(tables, srcs, dsts, cols, accumulate) }
        },
    );
}

/// 16-products-per-iteration multiply. `src.len()` must be a multiple of 16
/// and equal `dst.len()`.
// SAFETY: `vld1q_u8`/`vst1q_u8` have no alignment requirement and every
// access is at an offset `i < len` with `len % 16 == 0`, so all 16-byte
// accesses stay in bounds; the table rows are `[u8; 16]`, matching the
// table loads exactly.
#[target_feature(enable = "neon")]
unsafe fn mul_neon_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl = vld1q_u8(MUL_LO[coeff as usize].as_ptr());
    let hi_tbl = vld1q_u8(MUL_HI[coeff as usize].as_ptr());
    let mask = vdupq_n_u8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = vld1q_u8(src.as_ptr().add(i));
        let lo_n = vandq_u8(s, mask);
        let hi_n = vshrq_n_u8::<4>(s);
        let prod = veorq_u8(vqtbl1q_u8(lo_tbl, lo_n), vqtbl1q_u8(hi_tbl, hi_n));
        vst1q_u8(dst.as_mut_ptr().add(i), prod);
        i += 16;
    }
}

/// 16-products-per-iteration multiply-accumulate; same contract as
/// [`mul_neon_body`].
// SAFETY: same bounds argument as `mul_neon_body`.
#[target_feature(enable = "neon")]
unsafe fn mul_add_neon_body(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let lo_tbl = vld1q_u8(MUL_LO[coeff as usize].as_ptr());
    let hi_tbl = vld1q_u8(MUL_HI[coeff as usize].as_ptr());
    let mask = vdupq_n_u8(0x0f);
    let mut i = 0;
    while i < src.len() {
        let s = vld1q_u8(src.as_ptr().add(i));
        let d = vld1q_u8(dst.as_ptr().add(i));
        let lo_n = vandq_u8(s, mask);
        let hi_n = vshrq_n_u8::<4>(s);
        let prod = veorq_u8(vqtbl1q_u8(lo_tbl, lo_n), vqtbl1q_u8(hi_tbl, hi_n));
        vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, prod));
        i += 16;
    }
}

/// 16-bytes-per-iteration XOR; same contract as [`mul_neon_body`].
// SAFETY: same bounds argument as `mul_neon_body`.
#[target_feature(enable = "neon")]
unsafe fn add_neon_body(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len() % 16, 0);
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i < src.len() {
        let s = vld1q_u8(src.as_ptr().add(i));
        let d = vld1q_u8(dst.as_ptr().add(i));
        vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, s));
        i += 16;
    }
}

/// Fused dot product, 16 columns per iteration: each source vector is loaded
/// and nibble-split once and feeds all `R` accumulators, which stay in
/// registers across the sources and are stored once. `tables` holds the
/// coefficients' nibble tables source-major, `R` per source (see
/// [`super::dot_whole_lanes`]).
///
/// Everything the accesses rely on is asserted on entry: `R` outputs, `R`
/// tables per source, `cols` a whole number of vectors, every source and
/// output reaching `cols.end`.
// SAFETY: all loads and stores are 16-byte accesses with no alignment
// requirement at offsets `i` with `i + 16 <= cols.end <=` the length of the
// slice accessed (the entry asserts); the output pointers come from distinct
// `&mut` slices, so they alias neither each other nor a source; a table is
// `[u8; 32]` read as two 16-byte halves.
#[target_feature(enable = "neon")]
unsafe fn dot_neon_body<const R: usize>(
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
    let mask = vdupq_n_u8(0x0f);
    let mut i = cols.start;
    while i < cols.end {
        let mut acc = [vdupq_n_u8(0); R];
        if accumulate {
            for r in 0..R {
                acc[r] = vld1q_u8(out[r].add(i));
            }
        }
        for (src, tables) in srcs.iter().zip(tables.chunks_exact(R)) {
            let s = vld1q_u8(src.as_ptr().add(i));
            let lo_n = vandq_u8(s, mask);
            let hi_n = vshrq_n_u8::<4>(s);
            for r in 0..R {
                let lo_tbl = vld1q_u8(tables[r].as_ptr());
                let hi_tbl = vld1q_u8(tables[r].as_ptr().add(16));
                let prod = veorq_u8(vqtbl1q_u8(lo_tbl, lo_n), vqtbl1q_u8(hi_tbl, hi_n));
                acc[r] = veorq_u8(acc[r], prod);
            }
        }
        for r in 0..R {
            vst1q_u8(out[r].add(i), acc[r]);
        }
        i += 16;
    }
}
