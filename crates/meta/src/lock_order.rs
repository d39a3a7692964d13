//! Lock classes of the metadata plane.
//!
//! These slot into the workspace-wide hierarchy maintained in
//! `crates/core/src/lock_order.rs` (and mirrored in docs/ARCHITECTURE.md):
//! ranks are globally unique — `cargo run -p xtask -- lint` rejects
//! collisions across crates — and this crate's lock has the lowest rank in
//! use: the router is locked with nothing held and released before the
//! repair engine takes anything else.

use ecpipe_sync::lock_class;

lock_class!(
    /// The metadata router: its object/stripe maps, pending repair
    /// directives and WAL appender. Taken with nothing held by the
    /// planning, publish and client read paths; never held while acquiring
    /// anything else.
    pub META_STATE = ("meta.state", rank = 12)
);
