//! Erasure codes and the stripe/slice data model.
//!
//! This crate implements every code the paper evaluates:
//!
//! * [`ReedSolomon`] — systematic MDS Reed-Solomon codes for any `(n, k)`
//!   with `k < n <= 256`, built from a Vandermonde generator matrix
//!   transformed into systematic form (§2.1 of the paper).
//! * [`Lrc`] — Azure-style Local Reconstruction Codes (§6.1): `k` data
//!   blocks in `l` local groups, one local parity per group plus `g` global
//!   parities; a single data-block repair only reads its local group.
//!
//! All codes expose the same [`ErasureCode`] interface plus a linear
//! [`RepairPlan`]: the list of source blocks and the decoding coefficients
//! `a_i` such that the failed block equals `sum(a_i * B_i)`. The linearity
//! and associativity of that sum is exactly what conventional repair, PPR and
//! repair pipelining all rely on.
//!
//! The crate also provides the block/slice partitioning model of Figure 1 and
//! §3.2 ([`mod@slice`] module): blocks are split into `s` fixed-size slices and a
//! repair is pipelined slice by slice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod linear;
mod lrc;
mod plan;
mod rs;
pub mod slice;
pub mod stripe;
mod traits;

pub use error::CodeError;
pub use lrc::Lrc;
pub use plan::{MultiRepairPlan, RepairPlan, RepairSource};
pub use rs::ReedSolomon;
pub use traits::ErasureCode;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CodeError>;
