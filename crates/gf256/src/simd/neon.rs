//! NEON split-table kernels for aarch64.
//!
//! Same ISA-L scheme as the x86 paths (see `simd/x86.rs`): the
//! coefficient's two 16-entry nibble tables are loaded into vector
//! registers and `vqtbl1q_u8` looks up 16 products per iteration. NEON is
//! baseline on aarch64, so no runtime detection is needed, but the kernels
//! still go through the same dispatch table for uniformity. This module is
//! one of the two designated homes for `unsafe` in this crate; the
//! workspace lint enforces that and the `// SAFETY:` comments below.

#![allow(unsafe_code)]

use core::arch::aarch64::*;

use super::{scalar, KernelPath, Kernels};
use crate::tables::{MUL_HI, MUL_LO};

pub(super) static NEON: Kernels = Kernels {
    path: KernelPath::Neon,
    mul: mul_neon,
    mul_add: mul_add_neon,
    add: add_neon,
    crc: scalar::crc32,
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
