//! Portable table-lookup loops.
//!
//! These are the fallback on hosts with no supported vector ISA and the
//! oracle every SIMD path is proptested against. The callers (the wrapper
//! methods on [`super::Kernels`]) have already peeled off the 0 and 1
//! coefficient fast paths, so `coeff` here is always a general element.

use std::ops::Range;

use crate::tables::{mul_table, CRC32_TABLES};
use crate::Gf256;

pub(super) fn mul(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let row = &mul_table()[coeff as usize];
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = row[*s as usize];
    }
}

pub(super) fn mul_add(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let row = &mul_table()[coeff as usize];
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= row[*s as usize];
    }
}

/// `data[j] = coeff * data[j] ^ incoming[j]` in place, a byte at a time:
/// the sub-stride tails of the vector paths' checked fold.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(super) fn fold_in_place(coeff: u8, data: &mut [u8], incoming: Option<&[u8]>) {
    let row = &mul_table()[coeff as usize];
    for d in data.iter_mut() {
        *d = row[*d as usize];
    }
    if let Some(incoming) = incoming {
        add(incoming, data);
    }
}

pub(super) fn add(src: &[u8], dst: &mut [u8]) {
    // XOR eight bytes at a time through safe to/from_ne_bytes round trips;
    // the tail falls back to byte-at-a-time.
    let mut d_words = dst.chunks_exact_mut(8);
    let mut s_words = src.chunks_exact(8);
    for (d, s) in (&mut d_words).zip(&mut s_words) {
        let x = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in d_words
        .into_remainder()
        .iter_mut()
        .zip(s_words.remainder().iter())
    {
        *d ^= *s;
    }
}

/// Fused dot product over columns `cols` of one row group:
/// `dsts[r][i] (=|^=) Σ_j coeffs[r * srcs.len() + j] · srcs[j][i]`. One
/// table lookup per byte, a source at a time; the vector paths finish their
/// sub-lane tails here, and their proptests hold them to it.
pub(super) fn dot(
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
) {
    let table = mul_table();
    for (dst, row) in dsts.iter_mut().zip(coeffs.chunks_exact(srcs.len())) {
        let dst = &mut dst[cols.clone()];
        if !accumulate {
            dst.fill(0);
        }
        for (src, coeff) in srcs.iter().zip(row) {
            let products = &table[coeff.0 as usize];
            for (d, s) in dst.iter_mut().zip(&src[cols.clone()]) {
                *d ^= products[*s as usize];
            }
        }
    }
}

/// Slicing-by-16 CRC-32 state update: advances the raw (un-inverted) CRC
/// state over `data`. Sixteen bytes per step, each through its own table,
/// so the lookups of one step are independent of each other; the sub-16-byte
/// tail goes one byte at a time through table 0. Words are read
/// little-endian explicitly, so the result does not depend on the host's
/// byte order.
pub(super) fn crc32(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let a = word(&block[0..4]) ^ state;
        let b = word(&block[4..8]);
        let c = word(&block[8..12]);
        let d = word(&block[12..16]);
        state = t[15][(a & 0xff) as usize]
            ^ t[14][((a >> 8) & 0xff) as usize]
            ^ t[13][((a >> 16) & 0xff) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xff) as usize]
            ^ t[10][((b >> 8) & 0xff) as usize]
            ^ t[9][((b >> 16) & 0xff) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xff) as usize]
            ^ t[6][((c >> 8) & 0xff) as usize]
            ^ t[5][((c >> 16) & 0xff) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xff) as usize]
            ^ t[2][((d >> 8) & 0xff) as usize]
            ^ t[1][((d >> 16) & 0xff) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &byte in blocks.remainder() {
        state = t[0][((state ^ byte as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}
