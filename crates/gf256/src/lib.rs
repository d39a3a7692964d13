//! Galois field GF(2^8) arithmetic and matrix algebra for erasure coding.
//!
//! This crate is the lowest-level substrate of the repair-pipelining
//! reproduction. It provides:
//!
//! * [`Gf256`] — a single field element with full arithmetic (addition is
//!   XOR; multiplication uses exp/log tables over the standard polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1`, i.e. `0x11d`).
//! * Bulk slice kernels ([`mul_slice`], [`mul_add_slice`], [`add_slice`]) —
//!   the inner loops every helper node runs when combining slices during a
//!   repair (`a_i * B_i` accumulated into a partial sum) — and [`dot_prod`],
//!   the fused matrix-times-blocks form of the same sum that encoding,
//!   decoding and multi-block repair use: several outputs from one pass
//!   over the sources.
//! * [`crc32`] — the CRC-32 (IEEE) block-integrity checksum: polynomial
//!   division over GF(2), dispatched with the slice kernels.
//! * [`fold`] and [`verify_fold`] — a helper's fold, `partial' = partial +
//!   a_i * B_i`, as one pass over memory; `verify_fold` also checks the
//!   CRC-32 of every chunk of `B_i` as it reads it.
//! * [`Matrix`] — a dense matrix over GF(2^8) with Gauss-Jordan inversion,
//!   used to derive encoding matrices and single-block repair coefficients.
//!
//! The slice kernels are runtime-dispatched: on hosts with SSSE3/AVX2
//! (x86/x86_64) or NEON (aarch64) they run vectorized split-table loops,
//! falling back to portable scalar code elsewhere. See the [`simd`] module
//! for the dispatch rules and the `ECPIPE_GF_FORCE` override.
//!
//! # Examples
//!
//! ```
//! use gf256::Gf256;
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xca);
//! assert_eq!((a * b) / b, a);
//! assert_eq!(a + a, Gf256::ZERO);
//! ```

// `deny` rather than `forbid`: the SIMD submodules opt back in with
// `#![allow(unsafe_code)]`, and the workspace lint (`cargo run -p xtask --
// lint`) confines `unsafe` to exactly those files.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod kernels;
mod matrix;
pub mod simd;
mod tables;

pub use field::Gf256;
pub use kernels::{
    add_slice, crc32, dot_prod, fold, fold_in_place, mul_add_slice, mul_slice,
    scale_slice_in_place, verify_fold,
};
pub use matrix::Matrix;
pub use simd::{active_path, KernelPath, Kernels};

/// The number of elements in GF(2^8).
pub const FIELD_SIZE: usize = 256;

/// The irreducible polynomial used for multiplication, `x^8 + x^4 + x^3 + x^2 + 1`.
pub const POLYNOMIAL: u16 = 0x11d;
