//! Umbrella crate for the repair-pipelining reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! a single dependency. See the individual crates for detailed documentation:
//!
//! * [`gf256`] — GF(2^8) arithmetic and matrices.
//! * [`ecc`] — Reed-Solomon, LRC and Rotated RS codes, stripes and slices.
//! * [`simnet`] — discrete-event cluster/network simulator.
//! * [`repair`] — repair planning algorithms (conventional, PPR, repair
//!   pipelining and its extensions).
//! * [`ecpipe`] — the ECPipe middleware runtime and its `EcPipe` object-store
//!   façade (put, get, degraded reads, node recovery).

#![forbid(unsafe_code)]

pub use ecc;
pub use ecpipe;
pub use gf256;
pub use repair;
pub use simnet;
