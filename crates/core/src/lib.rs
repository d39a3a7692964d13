//! ECPipe: the repair-pipelining middleware runtime (§5 of the paper).
//!
//! ECPipe runs alongside a distributed storage system and performs repairs on
//! its behalf. The architecture mirrors the paper's Figure 7:
//!
//! * one [`MetaRouter`] per deployment (the `ecpipe-meta` crate) is the only
//!   holder of object records and stripe → node placements, and moves a
//!   block only from where its repair found it;
//!   [`Cluster`], the set of node stores, resolves block indices through it;
//! * a [`Coordinator`] plans against that router: it holds the erasure code
//!   and the helper-selection clock, and one planner in it chooses every
//!   single-block repair's helpers — candidates ordered by a [`PathPolicy`]
//!   (the greedy least-recently-used scheduling of §3.3, or the rack-aware
//!   and weighted paths of §4.2 and §4.3), the set picked by the code — and
//!   turns the request into a [`RepairDirective`];
//! * each storage node hosts a helper that reads blocks directly from its
//!   local [`BlockStore`] (the paper's helpers read blocks through the native
//!   file system rather than the storage-system routine);
//! * a requestor receives the repaired block.
//!
//! The [`exec`] module executes a directive for real: one thread walks the
//! whole repair, every helper role and the requestor's, and slices flow
//! through a pluggable [`transport::Transport`] —
//! bounded in-process channels ([`ChannelTransport`]) or real localhost TCP
//! sockets ([`TcpTransport`], standing in for the paper's Redis/TCP data
//! plane) — and the GF(2^8) combination is performed on actual bytes, so
//! tests can compare the reconstructed block against the erased one.
//! A [`Scheme`] names a single-block repair's shape — conventional repair,
//! PPR, repair pipelining (slice level), block-level pipelining (`Pipe-B`)
//! or cyclic repair pipelining — and the multi-block repair of §4.4 runs on
//! the same executor. Timing-shape experiments (who wins, by how much, under
//! which bandwidth) are run on the `simnet` simulator or, with
//! [`TcpTransport::with_rate_limit`], on throttled sockets; this runtime
//! demonstrates the data path and provides throughput microbenches.
//!
//! On top of the executors sits the [`manager`] subsystem: a prioritized
//! repair queue (degraded reads preempt corruption repairs, which preempt
//! background recovery), a bounded worker pool that runs many single-stripe
//! repairs concurrently, per-node in-flight admission caps enforcing the
//! §3.3 scheduling at runtime, a liveness view fed by repair outcomes (a
//! node that keeps failing its helper reads is declared dead and its
//! stripes auto-enqueued), a paced [scrubber](manager::Scrubber) that turns
//! silent bit-rot into queued repairs, and a structured [`ManagerReport`].
//! Its daemon, [`RepairManager`], is the one way to run repairs; with one
//! worker it is the one-repair-at-a-time baseline.
//!
//! The [`integrity`] module supplies the detection layer the scrubber and
//! the helpers rely on: [`ChecksummedStore`] stores every block with
//! per-chunk CRC-32 checksums in a trailer (one file per block on
//! [`FileStore`] nodes), verifies every read — slice reads check only the
//! chunks they overlap — and surfaces rot as
//! [`EcPipeError::CorruptBlock`], which fails a repair stream cleanly
//! instead of letting poisoned bytes into the GF(2^8) combination.
//!
//! The public entry point is the [`EcPipe`] façade: [`EcPipeBuilder`]
//! assembles code, layout, [`StoreBackend`], transport and manager
//! configuration into one handle, and `put`/`get`/`get_range` give the
//! runtime an object-level data path whose reads transparently fall back
//! to manager-prioritized degraded reads and hand out the stored blocks as
//! [`ObjectBytes`] views instead of copying them. The layers underneath
//! ([`Coordinator`], [`exec`], [`RepairManager`]) stay public for code
//! that orchestrates repairs directly.
//!
//! # Examples
//!
//! ```
//! use ecpipe::{EcPipeBuilder, StoreBackend};
//!
//! // An 8-node in-memory cluster with a (6, 4) code.
//! let pipe = EcPipeBuilder::new()
//!     .code(6, 4)
//!     .block_size(4096)
//!     .slice_size(1024)
//!     .store(StoreBackend::memory(8))
//!     .build()
//!     .unwrap();
//!
//! // Write an object, lose a block, read the object back byte-exact: the
//! // missing block is rebuilt by a degraded read through the repair
//! // manager on the way.
//! let data: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
//! let meta = pipe.put("/objects/demo", &data).unwrap();
//! pipe.erase_block(meta.stripes[0], 2);
//! assert_eq!(pipe.get("/objects/demo").unwrap(), data);
//! assert_eq!(pipe.shutdown().blocks_repaired, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod cluster;
mod coordinator;
mod error;
pub mod exec;
mod facade;
pub mod integrity;
pub mod lock_order;
pub mod manager;
mod store;
pub mod telemetry;
pub mod transport;
mod writer;

pub use buf::{BufPool, PooledBuf};
pub use cluster::Cluster;
pub use coordinator::{Coordinator, MultiRepairDirective, ObjectMeta, RepairDirective};
pub use ecpipe_meta::{
    MetaBackend, MetaConfig, MetaError, MetaRouter, ObjectRecord, RepairRecord, StripeRecord,
};
pub use error::{EcPipeError, LinkFailure};
pub use facade::{chunk_stripe, stripe_count, EcPipe, EcPipeBuilder, ObjectBytes, TransportChoice};
pub use integrity::{BlockChecksums, ChecksummedStore, DEFAULT_CHUNK_SIZE};
pub use manager::{
    ManagerConfig, ManagerReport, NodeHealth, PathPolicy, RepairManager, RepairOutcome,
    RepairPriority, RepairRequest, ReplanEvent, ReplanReason, ScrubConfig, ScrubCycle, Scrubber,
};
pub use store::{BlockReader, BlockStore, FileStore, MemoryStore, StoreBackend};
pub use telemetry::LinkTelemetry;
pub use transport::{AnyTransport, ChannelTransport, TcpTransport, Transport, TransportError};

pub use repair::Scheme;
pub use simnet::Topology;

/// The old name of [`Scheme`]. Its only caller is the benchmark's
/// `crates/benchmark/src/probes.rs`; the alias goes when that file moves to
/// `Scheme`, with the benchmark change ROADMAP item 11 schedules.
pub use repair::Scheme as ExecStrategy;

/// The old name of the retired reactor backend, now [`TcpTransport`]. Its
/// only caller is the benchmark's `crates/benchmark/src/probes.rs`, whose
/// `transport.reactor.*` and `exec.rp.reactor.ms` rows therefore measure
/// TCP; the alias goes when those rows go, with the benchmark change
/// ROADMAP item 11 schedules.
#[doc(hidden)]
pub type ReactorTransport = TcpTransport;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, EcPipeError>;
