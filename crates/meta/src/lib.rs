//! The ECPipe metadata plane: a WAL-durable object/stripe namespace.
//!
//! This crate is the single owner of every object→stripe→placement fact of
//! a deployment — the runtime's `Cluster`, repair planner and façade all
//! resolve placements through one shared [`MetaRouter`]:
//!
//! * [`MetaRouter`] — one store: the object, stripe and pending-repair maps
//!   behind one lock, as the paper's single ECPipe coordinator keeps them.
//!   Every operation is a hash-map probe, so per-op latency stays flat as
//!   the namespace grows (the `meta_ops` bench registers a million objects
//!   to pin this).
//! * A durable router owns one **write-ahead log** plus a **snapshot**,
//!   rewritten whenever the log has grown as large as it (length-prefixed,
//!   CRC-framed records — the same framing idiom the TCP transport and the
//!   integrity layer's block trailers use), so a killed process recovers
//!   every object, placement and in-flight repair directive byte-exactly
//!   on reopen. Appends are not fsynced: the journal survives a process
//!   kill, not a power loss. A torn tail record is
//!   detected by its CRC and dropped whole — never partially applied — and
//!   since there is one log, what survives is an exact prefix of the
//!   committed history.
//! * One **placement rule**: a block moves only from where its mover found
//!   it. [`MetaRouter::relocate`] with `from: Some(node)` checks that the
//!   block still sits on `node` and moves it in the same critical section,
//!   or reports where it is now ([`RelocateOutcome::Elsewhere`]) and writes
//!   nothing — so a repair completion never double-heals a block that
//!   already moved.
//!
//! Durability is opt-in per deployment: [`MetaBackend::Ephemeral`] keeps
//! everything in memory (the historical behavior), while
//! [`MetaBackend::Durable`] writes `wal.log` and `snapshot.bin` under a root
//! directory.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use ecc::stripe::StripeId;
use simnet::NodeId;

pub mod lock_order;
mod router;
pub mod wal;

pub use router::{MetaRouter, RelocateOutcome};

/// Result alias for metadata operations.
pub type Result<T> = std::result::Result<T, MetaError>;

/// Where the metadata plane keeps its state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaBackend {
    /// In-memory only: nothing survives the handle. The right choice for
    /// tests and benches.
    Ephemeral,
    /// WAL + snapshot files under this root directory; a reopened router
    /// recovers the namespace byte-exactly.
    Durable(PathBuf),
}

impl MetaBackend {
    /// Shorthand for [`MetaBackend::Durable`].
    pub fn durable(root: impl Into<PathBuf>) -> Self {
        MetaBackend::Durable(root.into())
    }
}

/// Configuration for [`MetaRouter::open`].
#[derive(Debug, Clone)]
pub struct MetaConfig {
    /// Storage backend.
    pub backend: MetaBackend,
}

impl MetaConfig {
    /// A configuration for `backend`.
    pub fn new(backend: MetaBackend) -> Self {
        MetaConfig { backend }
    }

    /// An ephemeral configuration (the default backend).
    pub fn ephemeral() -> Self {
        MetaConfig::new(MetaBackend::Ephemeral)
    }
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig::ephemeral()
    }
}

/// One named object: its true byte length and the stripes storing its
/// (zero-padded) blocks, in offset order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Object name (the routing key).
    pub name: String,
    /// Original size in bytes, before padding to whole blocks.
    pub size: usize,
    /// The stripes storing the object, in offset order.
    pub stripes: Vec<StripeId>,
}

/// One stripe: where each of its `n` blocks lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeRecord {
    /// The stripe id (the routing key).
    pub id: StripeId,
    /// `locations[i]` is the node storing block `i`.
    pub locations: Vec<NodeId>,
}

impl StripeRecord {
    /// The node storing block `index`.
    pub fn node_of(&self, index: usize) -> NodeId {
        self.locations[index]
    }
}

/// One in-flight repair directive, persisted so a crashed manager's queue
/// can be re-enqueued on reopen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairRecord {
    /// The stripe being repaired.
    pub stripe: StripeId,
    /// Index of the block being reconstructed.
    pub index: usize,
    /// Node that receives the reconstructed block.
    pub requestor: NodeId,
    /// Opaque priority tag (the manager's priority class, encoded by the
    /// caller; this crate only stores it).
    pub priority: u8,
}

/// Errors from the metadata plane.
#[derive(Debug)]
#[non_exhaustive]
pub enum MetaError {
    /// The stripe is not registered.
    UnknownStripe {
        /// The raw stripe id.
        stripe: u64,
    },
    /// The request is malformed (out-of-range index, bad configuration).
    InvalidRequest {
        /// Why the request was rejected.
        reason: String,
    },
    /// A durable file failed structural validation (a bad snapshot magic,
    /// a record of a retired format, or the marker of a sharded root this
    /// layout cannot read; a torn WAL *tail* is not corruption — it is
    /// dropped silently and counted).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        reason: String,
    },
    /// An underlying filesystem error.
    Io(std::io::Error),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::UnknownStripe { stripe } => write!(f, "unknown stripe {stripe}"),
            MetaError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            MetaError::Corrupt { path, reason } => {
                write!(f, "corrupt metadata file {}: {reason}", path.display())
            }
            MetaError::Io(e) => write!(f, "metadata I/O error: {e}"),
        }
    }
}

impl std::error::Error for MetaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MetaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MetaError {
    fn from(e: std::io::Error) -> Self {
        MetaError::Io(e)
    }
}
