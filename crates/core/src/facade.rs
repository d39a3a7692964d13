//! The `EcPipe` runtime façade: one builder-configured handle over the
//! whole middleware.
//!
//! The paper's ECPipe is a middleware that storage systems talk to through a
//! thin client API (§5); the TOS extension integrates it with HDFS and QFS
//! exactly that way. This module is that client API for our runtime:
//! [`EcPipeBuilder`] assembles the code, slice layout, store backend,
//! transport and repair-manager configuration into one [`EcPipe`] handle,
//! and the handle adds the piece every consumer used to hand-wire around —
//! an object-level data path.
//!
//! * [`EcPipe::put`] encodes an object into one or more stripes and places
//!   the blocks across the nodes;
//! * [`EcPipe::get`] / [`EcPipe::get_range`] serve native reads, and fall
//!   back *transparently* to manager-prioritized degraded reads when a
//!   block is missing or fails checksum verification — the caller sees the
//!   right bytes, the cluster heals as a side effect. The bytes come back
//!   as [`ObjectBytes`], views of the stored blocks rather than a copy;
//! * fault-injection and observability passthroughs ([`EcPipe::kill_node`],
//!   [`EcPipe::corrupt`], [`EcPipe::report_node_failure`],
//!   [`EcPipe::scrub`], [`EcPipe::shutdown`]) expose the machinery
//!   underneath without any extra wiring.
//!
//! The metadata router, cluster and [`RepairManager`] remain reachable
//! (through [`EcPipe::meta`], [`EcPipe::cluster`] and [`EcPipe::manager`])
//! for code that needs the lower layers; they are implementation details of
//! the data path, not the entry point.
//!
//! ```
//! use ecpipe::{EcPipeBuilder, StoreBackend};
//!
//! let pipe = EcPipeBuilder::new()
//!     .code(6, 4)
//!     .block_size(64 * 1024)
//!     .slice_size(8 * 1024)
//!     .store(StoreBackend::memory(8))
//!     .build()
//!     .unwrap();
//!
//! let data: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
//! pipe.put("/logs/day-001", &data).unwrap();
//!
//! // A node dies; reads still return exactly the written bytes, served by
//! // degraded reads through the repair manager.
//! pipe.kill_node(2);
//! assert_eq!(pipe.get("/logs/day-001").unwrap(), data);
//! let report = pipe.shutdown();
//! assert_eq!(report.failed_repairs, 0);
//! ```

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use ecc::slice::SliceLayout;
use ecc::stripe::StripeId;
use ecc::{ErasureCode, ReedSolomon};
use ecpipe_meta::{MetaBackend, MetaConfig, MetaRouter};
use repair::Scheme;
use simnet::{NodeId, Topology};

use crate::buf::BufPool;
use crate::cluster::Cluster;
use crate::coordinator::{rebuild_targets, Coordinator, ObjectMeta};
use crate::manager::{
    ManagerConfig, ManagerReport, NodeHealth, PathPolicy, RepairManager, RepairPriority,
    RepairRequest, ScrubConfig, ScrubCycle, Scrubber,
};
use crate::store::StoreBackend;
use crate::transport::{AnyTransport, ChannelTransport, TcpTransport};
use crate::{EcPipeError, Result};

/// Which transport backend moves repair slices between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportChoice {
    /// Bounded in-process channels — the fast default.
    Channel,
    /// Real localhost TCP sockets with the framed wire format.
    Tcp,
}

/// Builder for an [`EcPipe`] runtime handle.
///
/// Every knob has a working default: a `(6, 4)` Reed-Solomon code, 64 KiB
/// blocks in 8 KiB slices, an in-memory cluster of `n + 2` nodes, the
/// in-process channel transport and the default [`ManagerConfig`]. Override
/// what the scenario needs and call [`build`](EcPipeBuilder::build).
#[derive(Clone)]
pub struct EcPipeBuilder {
    code: Option<Arc<dyn ErasureCode>>,
    nk: (usize, usize),
    block_size: usize,
    slice_size: usize,
    backend: Option<StoreBackend>,
    transport: TransportChoice,
    rate_limit: Option<u64>,
    topology: Option<Topology>,
    manager: ManagerConfig,
    meta_backend: MetaBackend,
}

impl Default for EcPipeBuilder {
    fn default() -> Self {
        EcPipeBuilder {
            code: None,
            nk: (6, 4),
            block_size: 64 * 1024,
            slice_size: 8 * 1024,
            backend: None,
            transport: TransportChoice::Channel,
            rate_limit: None,
            topology: None,
            manager: ManagerConfig::default(),
            meta_backend: MetaBackend::Ephemeral,
        }
    }
}

impl EcPipeBuilder {
    /// Starts from the defaults.
    pub fn new() -> Self {
        EcPipeBuilder::default()
    }

    /// Uses an `(n, k)` Reed-Solomon code.
    pub fn code(mut self, n: usize, k: usize) -> Self {
        self.nk = (n, k);
        self.code = None;
        self
    }

    /// Uses an explicit erasure code (e.g. an LRC).
    pub fn erasure_code(mut self, code: Arc<dyn ErasureCode>) -> Self {
        self.code = Some(code);
        self
    }

    /// Sets the block size in bytes.
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes;
        self
    }

    /// Sets the slice size in bytes (clamped to the block size).
    pub fn slice_size(mut self, bytes: usize) -> Self {
        self.slice_size = bytes;
        self
    }

    /// Sets the block/slice layout in one call.
    pub fn layout(mut self, layout: SliceLayout) -> Self {
        self.block_size = layout.block_size;
        self.slice_size = layout.slice_size;
        self
    }

    /// Chooses the store backend (and with it the node count).
    pub fn store(mut self, backend: StoreBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Shorthand for [`store`](Self::store) with plain in-memory nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.backend = Some(StoreBackend::memory(nodes));
        self
    }

    /// Chooses the transport backend.
    pub fn transport(mut self, choice: TransportChoice) -> Self {
        self.transport = choice;
        self
    }

    /// Throttles every transport link to `bytes_per_sec` with a token
    /// bucket, so repairs are network-bound like the paper's testbed.
    pub fn rate_limit(mut self, bytes_per_sec: u64) -> Self {
        self.rate_limit = Some(bytes_per_sec);
        self
    }

    /// Attaches a network topology: racks, per-node and per-link bandwidths.
    ///
    /// The topology does three things at build time. It seeds the manager's
    /// [`LinkTelemetry`](crate::telemetry::LinkTelemetry) layer, which turns
    /// on the topology-aware [`PathPolicy`] variants and the
    /// [link watch](Self::link_watch). It is stored on the [`Cluster`] so repair planning can ask
    /// which rack a node lives in. And — unless a flat
    /// [`rate_limit`](Self::rate_limit) was set, which takes precedence —
    /// the transport is shaped per-link to the topology's bandwidths, so a
    /// slow cross-rack link is actually slow on the wire.
    ///
    /// The topology must cover at least as many nodes as the store backend.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Chooses how repair helpers are selected and ordered. The topology-
    /// aware policies need [`topology`](Self::topology) to be set; without
    /// one they fall back to plain LRU selection.
    pub fn path_policy(mut self, policy: PathPolicy) -> Self {
        self.manager.path_policy = policy;
        self
    }

    /// Enables the link watch ([`ManagerConfig::link_watch`]): a repair
    /// whose walk measures one of its links below half its nominal
    /// bandwidth ends there and is re-planned around the degraded link.
    /// Needs [`topology`](Self::topology) to be set to take effect.
    pub fn link_watch(mut self) -> Self {
        self.manager.link_watch = true;
        self
    }

    /// Replaces the repair-manager configuration wholesale.
    pub fn manager(mut self, config: ManagerConfig) -> Self {
        self.manager = config;
        self
    }

    /// Sets the execution strategy for every repair.
    pub fn strategy(mut self, strategy: Scheme) -> Self {
        self.manager.strategy = strategy;
        self
    }

    /// Sets the repair worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.manager.workers = workers;
        self
    }

    /// Chooses where the metadata plane keeps object/stripe/repair state.
    /// [`MetaBackend::Ephemeral`] (the default) keeps it in memory;
    /// [`MetaBackend::Durable`] writes one WAL and its snapshots under a
    /// root directory, and building over an existing directory *recovers*
    /// the namespace — placements and still-pending repair
    /// directives — before the runtime starts (pair it with a file-backed
    /// [`StoreBackend`] so the blocks survive too).
    pub fn meta(mut self, backend: MetaBackend) -> Self {
        self.meta_backend = backend;
        self
    }

    /// Builds the runtime: stores, cluster, coordinator, transport, and the
    /// repair-manager daemon serving the degraded-read path.
    pub fn build(self) -> Result<EcPipe> {
        // `SliceLayout::new` panics on a zero size, and a zero rate would be
        // clamped to 1 B/s links: report all three as bad settings instead.
        if self.block_size == 0 || self.slice_size == 0 || self.rate_limit == Some(0) {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "block size {}, slice size {} and rate limit {:?} must be positive",
                    self.block_size, self.slice_size, self.rate_limit
                ),
            });
        }
        let code: Arc<dyn ErasureCode> = match self.code {
            Some(code) => code,
            None => Arc::new(ReedSolomon::new(self.nk.0, self.nk.1)?),
        };
        let layout = SliceLayout::new(self.block_size, self.slice_size);
        let backend = self.backend.unwrap_or(StoreBackend::Memory {
            nodes: code.n() + 2,
        });
        let nodes = backend.num_nodes();
        if nodes < code.n() {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "the backend has {nodes} nodes but the ({}, {}) code needs {} per stripe",
                    code.n(),
                    code.k(),
                    code.n()
                ),
            });
        }
        let meta = Arc::new(MetaRouter::open(MetaConfig::new(self.meta_backend))?);
        // A recovered namespace (a fresh or ephemeral router holds nothing)
        // is validated against the configured code — a durable directory
        // from a different deployment must not silently half-work.
        let coordinator = Coordinator::new(code.clone(), layout);
        let mut mismatch = None;
        meta.for_each_stripe(|s| {
            if mismatch.is_none() {
                mismatch = coordinator.check_placement(s).err();
            }
        });
        if let Some(error) = mismatch {
            return Err(error);
        }
        let mut cluster = Cluster::with_meta(backend, meta.clone())?;
        let topology = match self.topology {
            Some(topology) => {
                let topology = Arc::new(topology);
                cluster.set_topology(topology.clone())?;
                Some(topology)
            }
            None => None,
        };
        let config = self.manager;
        // A flat rate limit takes precedence over topology shaping: an
        // explicit `rate_limit` call is the stronger signal of intent.
        let transport = match (self.transport, self.rate_limit, &topology) {
            (TransportChoice::Channel, Some(rate), _) => {
                AnyTransport::from(ChannelTransport::with_rate_limit(rate))
            }
            (TransportChoice::Channel, None, Some(topology)) => {
                AnyTransport::from(ChannelTransport::with_topology(topology.clone()))
            }
            (TransportChoice::Channel, None, None) => AnyTransport::from(ChannelTransport::new()),
            (TransportChoice::Tcp, Some(rate), _) => {
                AnyTransport::from(TcpTransport::with_rate_limit(rate))
            }
            (TransportChoice::Tcp, None, Some(topology)) => {
                AnyTransport::from(TcpTransport::with_topology(topology.clone()))
            }
            (TransportChoice::Tcp, None, None) => AnyTransport::from(TcpTransport::new()),
        };
        let manager = RepairManager::start(coordinator, cluster, transport, config);
        // Recovery: re-drive the repairs a previous process had queued or in
        // flight, exactly those whose block is still missing (or corrupt)
        // where the router places it. A directive whose block is intact
        // there was completed before the crash (stored and relocated, but
        // never resolved) and is resolved here instead of healing the block
        // twice.
        let cluster = manager.cluster();
        for pending in meta.pending_repairs() {
            let block = ecc::stripe::BlockId {
                stripe: pending.stripe,
                index: pending.index,
            };
            let missing = match meta.node_of(pending.stripe, pending.index) {
                Ok(node) if node < cluster.num_nodes() => {
                    cluster.store(node).verify(block).is_err()
                }
                _ => false,
            };
            if missing {
                let _ = manager.enqueue(RepairRequest {
                    stripe: pending.stripe,
                    failed: pending.index,
                    requestor: pending.requestor,
                    priority: RepairPriority::from_tag(pending.priority),
                });
            } else {
                let _ = meta.resolve_repair(pending.stripe, pending.index);
            }
        }
        Ok(EcPipe {
            manager,
            code,
            layout,
        })
    }
}

fn no_such_object(name: &str) -> EcPipeError {
    EcPipeError::InvalidRequest {
        reason: format!("no such object: {name}"),
    }
}

/// The number of `k`-block stripes an object of `len` bytes occupies (at
/// least one — an empty object still owns an all-zero stripe).
pub fn stripe_count(len: usize, k: usize, block_size: usize) -> usize {
    len.div_ceil(k * block_size).max(1)
}

/// The `k` data blocks of stripe `index` of an object, zero-padded to
/// `block_size`: the one copy [`EcPipe::put`] makes of an object's bytes —
/// the stores then share these blocks by reference. Each block is adopted
/// into `pool` (the cluster's [block pool](Cluster::block_pool)), so its
/// allocation serves a later repair once the block is dropped. Only the
/// padding is zeroed, and nothing is taken from the pool: a recycled buffer
/// would be zeroed or overwritten for nothing. Chunking one stripe at a time
/// keeps a large `put`'s peak memory at the object plus a single stripe.
pub fn chunk_stripe(
    data: &[u8],
    k: usize,
    block_size: usize,
    index: usize,
    pool: &BufPool,
) -> Vec<Bytes> {
    let stripe_bytes = k * block_size;
    (0..k)
        .map(|b| {
            let start = (index * stripe_bytes + b * block_size).min(data.len());
            let end = (start + block_size).min(data.len());
            let mut block = Vec::with_capacity(block_size);
            block.extend_from_slice(&data[start..end]);
            block.resize(block_size, 0);
            pool.adopt(block).freeze()
        })
        .collect()
}

/// The bytes [`EcPipe::get`] and [`EcPipe::get_range`] return: views of the
/// stored blocks the read covers, in object order, without a copy.
///
/// A whole-block read is the block the store holds (or the block a degraded
/// read just rebuilt), and a partial one a window of it, so a read touches no
/// payload byte. [`chunks`](Self::chunks) hands the views out one block at a
/// time; [`to_vec`](Self::to_vec) is the one explicit copy, for a caller that
/// needs contiguous memory. Equality is over the content alone: it compares
/// with `[u8]`, `&[u8]`, `Vec<u8>` and another `ObjectBytes` whatever their
/// split into chunks.
///
/// A view keeps the whole block it slices alive while the caller holds it.
/// A held view of a block that is then erased also keeps that buffer out of
/// the cluster's [block pool](Cluster::block_pool), so the repair that
/// replaces the block allocates afresh. Call `to_vec` and drop the views to
/// detach from the stored blocks.
///
/// ```
/// use ecpipe::{EcPipeBuilder, StoreBackend};
///
/// let pipe = EcPipeBuilder::new()
///     .block_size(4096)
///     .slice_size(1024)
///     .store(StoreBackend::memory(8))
///     .build()
///     .unwrap();
/// let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
/// pipe.put("/doc", &data).unwrap();
///
/// let got = pipe.get_range("/doc", 4000..9000).unwrap();
/// assert_eq!(got.len(), 5000);
/// assert_eq!(got.chunks().len(), 3); // blocks 0, 1 and 2
/// assert_eq!(got, &data[4000..9000]);
/// let owned: Vec<u8> = got.to_vec(); // detached from the stored blocks
/// assert_eq!(owned, data[4000..9000]);
/// pipe.shutdown();
/// ```
#[derive(Clone, Default)]
pub struct ObjectBytes {
    chunks: Vec<Bytes>,
    len: usize,
}

impl ObjectBytes {
    fn from_chunks(chunks: Vec<Bytes>) -> Self {
        let len = chunks.iter().map(Bytes::len).sum();
        ObjectBytes { chunks, len }
    }

    fn bytes(&self) -> impl Iterator<Item = &u8> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// The number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The views, in object order: one per block the read covers.
    pub fn chunks(&self) -> &[Bytes] {
        &self.chunks
    }

    /// Copies the bytes into one contiguous `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunks.concat()
    }
}

impl PartialEq<[u8]> for ObjectBytes {
    fn eq(&self, other: &[u8]) -> bool {
        if self.len != other.len() {
            return false;
        }
        let mut rest = other;
        self.chunks.iter().all(|chunk| {
            let (head, tail) = rest.split_at(chunk.len());
            rest = tail;
            head == &chunk[..]
        })
    }
}

impl PartialEq<&[u8]> for ObjectBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<u8>> for ObjectBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other[..]
    }
}

impl PartialEq for ObjectBytes {
    /// Byte by byte, since the two may be split differently: comparing two
    /// reads is for tests, the hot comparison is against the caller's slice.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes().eq(other.bytes())
    }
}

impl Eq for ObjectBytes {}

impl std::fmt::Debug for ObjectBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head: Vec<u8> = self.bytes().take(32).copied().collect();
        f.debug_struct("ObjectBytes")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .field("head", &head)
            .finish()
    }
}

/// The ECPipe runtime handle: an erasure-coded object store whose reads
/// transparently repair around missing and corrupt blocks.
///
/// Built by [`EcPipeBuilder`]; owns the cluster, coordinator, transport and
/// the [`RepairManager`] daemon. All methods take `&self`, so one handle can
/// be shared across client threads.
pub struct EcPipe {
    manager: RepairManager<AnyTransport>,
    /// The erasure code (immutable after build).
    code: Arc<dyn ErasureCode>,
    /// The block/slice layout (immutable after build).
    layout: SliceLayout,
}

impl EcPipe {
    /// How many read attempts `get`/`get_range` make on one block before
    /// giving up: the native read plus up to two heal-and-retry rounds.
    const READ_ATTEMPTS: usize = 3;

    /// Encodes `data` into one or more stripes, places the blocks across
    /// the nodes (skipping nodes known dead), and registers the object.
    ///
    /// Every stripe is encoded and written before any of it is registered;
    /// the namespace is touched only to reserve stripe ids and to publish
    /// the finished placements and the object record, one short router
    /// critical section per record — repairs keep planning and other
    /// clients keep reading while a large object lands.
    ///
    /// Fails with [`EcPipeError::InvalidRequest`] if an object of this name
    /// already exists, and with the router's error if the metadata cannot
    /// be recorded; either way no block of the attempt is left behind.
    pub fn put(&self, name: &str, data: &[u8]) -> Result<ObjectMeta> {
        let mut written = Vec::new();
        let published = self.write_and_publish(name, data, &mut written);
        if published.is_err() {
            // Roll back: unregistered stripes would leak storage forever
            // (a stripe whose own write failed cleaned itself up).
            for (stripe, placement) in &written {
                let _ = self.cluster().meta().forget_stripe(*stripe);
                self.cluster().delete_blocks(*stripe, placement);
            }
        }
        published
    }

    /// The body of [`put`](Self::put). Every stripe whose blocks are on the
    /// stores is pushed onto `written` with the placement it was written
    /// at, so the caller can undo the attempt if a later step fails.
    fn write_and_publish(
        &self,
        name: &str,
        data: &[u8],
        written: &mut Vec<(StripeId, Vec<NodeId>)>,
    ) -> Result<ObjectMeta> {
        let (n, k) = (self.code.n(), self.code.k());
        let (cluster, meta) = (self.cluster(), self.cluster().meta());
        let live: Vec<NodeId> = (0..cluster.num_nodes())
            .filter(|&node| self.manager.node_health(node) != NodeHealth::Dead)
            .collect();
        if live.len() < n {
            return Err(EcPipeError::InvalidRequest {
                reason: format!("only {} live nodes, a stripe needs {n}", live.len()),
            });
        }
        let exists = || EcPipeError::InvalidRequest {
            reason: format!("object {name} already exists"),
        };
        if meta.has_object(name) {
            return Err(exists());
        }
        let block_size = self.layout.block_size;
        // One stripe at a time, so peak memory stays at object + stripe.
        for s in 0..stripe_count(data.len(), k, block_size) {
            let id = meta.allocate_stripe_id().0;
            let placement: Vec<NodeId> = (0..n)
                .map(|i| live[(id as usize + i) % live.len()])
                .collect();
            let blocks = chunk_stripe(data, k, block_size, s, cluster.block_pool());
            let stripe = cluster.write_stripe_blocks(&self.code, id, &blocks, placement.clone())?;
            written.push((stripe, placement));
        }
        // Publish: the placements just computed, then the object record. A
        // concurrent put of the same name loses at `insert_object`.
        for (stripe, placement) in written.iter() {
            meta.register_stripe(*stripe, placement.clone())?;
        }
        let record = ObjectMeta {
            name: name.to_string(),
            size: data.len(),
            stripes: written.iter().map(|&(stripe, _)| stripe).collect(),
        };
        if !meta.insert_object(record.clone())? {
            return Err(exists());
        }
        Ok(record)
    }

    /// Reads a whole object back, byte-exact, as views of its stored blocks
    /// (see [`ObjectBytes`]). Missing or corrupt blocks are healed through
    /// the repair manager on the way.
    pub fn get(&self, name: &str) -> Result<ObjectBytes> {
        let meta = self.object_meta(name)?;
        let range = 0..meta.size;
        self.read_object_range(&meta, range)
    }

    /// Reads `range` of an object. Only the blocks the range overlaps are
    /// touched; a partial block is read at slice granularity (verifying only
    /// the checksum chunks the range covers) and returned as a window of the
    /// block. Missing or corrupt blocks are healed through the repair manager
    /// first.
    pub fn get_range(&self, name: &str, range: Range<usize>) -> Result<ObjectBytes> {
        let meta = self.object_meta(name)?;
        if range.start > range.end || range.end > meta.size {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "range {range:?} out of bounds for object {name} of {} bytes",
                    meta.size
                ),
            });
        }
        self.read_object_range(&meta, range)
    }

    /// The shared read path: walks the blocks `range` overlaps, resolving
    /// each stripe's placement once for the first read of its blocks, and
    /// keeps the view each block read returns.
    fn read_object_range(&self, meta: &ObjectMeta, range: Range<usize>) -> Result<ObjectBytes> {
        let block_size = self.layout.block_size;
        let stripe_bytes = self.code.k() * block_size;
        let mut chunks =
            Vec::with_capacity(range.end.div_ceil(block_size) - range.start / block_size);
        let mut placement = Vec::new();
        let mut offset = range.start;
        while offset < range.end {
            let stripe = meta.stripes[offset / stripe_bytes];
            let block = (offset % stripe_bytes) / block_size;
            let within = offset % block_size;
            let take = (block_size - within).min(range.end - offset);
            // A stripe's first block in the range: its placement, once.
            if offset == range.start || block == 0 {
                placement = self.cluster().placement(stripe).unwrap_or_default();
            }
            let (read, holder) = (within..within + take, placement.get(block).copied());
            chunks.push(self.read_healing(stripe, block, read, block_size, holder)?);
            offset += take;
        }
        Ok(ObjectBytes::from_chunks(chunks))
    }

    /// Reads one block range, healing the block through the manager when it
    /// is missing or corrupt (up to [`Self::READ_ATTEMPTS`] attempts). The
    /// first attempt reads from `holder` when the caller resolved it; every
    /// other attempt asks the router again, since a heal can move the block.
    fn read_healing(
        &self,
        stripe: StripeId,
        index: usize,
        range: Range<usize>,
        block_size: usize,
        mut holder: Option<NodeId>,
    ) -> Result<bytes::Bytes> {
        let block = ecc::stripe::BlockId { stripe, index };
        let whole_block = range.start == 0 && range.end == block_size;
        let read_from = |node: NodeId| {
            if whole_block {
                // Whole-block reads go through `get`, which verifies every
                // checksum chunk on a checksummed store.
                self.cluster().store(node).get(block)
            } else {
                self.cluster().store(node).get_range(block, range.clone())
            }
        };
        for attempt in 0..Self::READ_ATTEMPTS {
            let holder = match holder.take() {
                Some(node) => node,
                None => self.cluster().node_of(stripe, index)?,
            };
            match read_from(holder) {
                Ok(bytes) => return Ok(bytes),
                Err(EcPipeError::BlockNotFound { .. }) => {
                    // A repaired copy can sit on a node the placement
                    // cannot name (relocation is refused when it would
                    // co-locate two blocks of a stripe — certain when the
                    // cluster has no spare nodes). Serve such stray copies
                    // rather than repairing the block again and again.
                    if let Some(node) = self.cluster().find_block(block) {
                        if let Ok(bytes) = read_from(node) {
                            return Ok(bytes);
                        }
                    }
                    if attempt + 1 == Self::READ_ATTEMPTS {
                        return Err(EcPipeError::BlockNotFound { block });
                    }
                    self.heal(stripe, index)?;
                }
                Err(error @ EcPipeError::CorruptBlock { .. }) => {
                    if attempt + 1 == Self::READ_ATTEMPTS {
                        return Err(error);
                    }
                    self.heal(stripe, index)?;
                }
                Err(error) => return Err(error),
            }
        }
        unreachable!("the read loop returns before running off its attempts")
    }

    /// Enqueues a degraded read for one block and waits for that block (and
    /// only that block) to leave the repair queue. If the block is already
    /// queued at a lower priority (corruption or background recovery), the
    /// queued request is promoted to the degraded class — a client is
    /// blocked on it now.
    ///
    /// The block goes to the coordinator's first rebuild target: in place
    /// on its live holder (overwriting any rot and refreshing the
    /// checksums), else a live node holding nothing of the stripe.
    fn heal(&self, stripe: StripeId, index: usize) -> Result<()> {
        let record = self
            .cluster()
            .meta()
            .stripe(stripe)
            .ok_or(EcPipeError::UnknownStripe { stripe: stripe.0 })?;
        let is_dead = |node| self.manager.node_health(node) == NodeHealth::Dead;
        let nodes = self.cluster().num_nodes();
        let requestor = rebuild_targets(&record, index, nodes, &is_dead)
            .next()
            .unwrap_or(record.node_of(index));
        // A client is blocked on these bytes right now, so this is a
        // degraded read regardless of what broke the block (§3.2); the
        // scrubber's background sweeps use `Corruption` priority instead.
        self.manager.degraded_read(stripe, index, requestor)?;
        self.manager.wait_for_block(stripe, index);
        Ok(())
    }

    /// Deletes an object: unregisters it, drops its stripes' metadata and
    /// erases their blocks. Repairs already queued for those stripes fail
    /// harmlessly (the stripe is gone) and show up in the shutdown report.
    pub fn delete(&self, name: &str) -> Result<ObjectMeta> {
        let record = self
            .cluster()
            .meta()
            .remove_object(name)?
            .ok_or_else(|| no_such_object(name))?;
        for &stripe in &record.stripes {
            self.cluster().delete_stripe(stripe)?;
        }
        Ok(record)
    }

    /// Metadata of a stored object.
    pub fn object_meta(&self, name: &str) -> Result<ObjectMeta> {
        self.cluster()
            .meta()
            .object(name)
            .ok_or_else(|| no_such_object(name))
    }

    // ------------------------------------------------------------------
    // Fault injection and observability passthroughs.
    // ------------------------------------------------------------------

    /// Deletes every block a node stores (a full node failure). Pair with
    /// [`report_node_failure`](Self::report_node_failure) to start
    /// background recovery; an unreported kill is discovered by liveness
    /// strikes or the degraded reads of later `get`s.
    pub fn kill_node(&self, node: NodeId) -> Vec<ecc::stripe::BlockId> {
        self.cluster().kill_node(node)
    }

    /// Erases one block of a stripe (a lost or unavailable block) from the
    /// node the router places it on. Returns whether the block was present.
    pub fn erase_block(&self, stripe: StripeId, index: usize) -> bool {
        self.cluster().erase_block(stripe, index)
    }

    /// Flips one byte of a stored block, leaving checksums stale (silent
    /// bit-rot; detectable only on checksummed backends).
    pub fn corrupt(&self, stripe: StripeId, index: usize, offset: usize) -> Result<()> {
        self.cluster().corrupt_block(stripe, index, offset)
    }

    /// Verifies one block's integrity on the node holding it.
    pub fn verify_block(&self, stripe: StripeId, index: usize) -> Result<()> {
        self.cluster().verify_block(stripe, index)
    }

    /// Declares a node dead and enqueues background recovery of every block
    /// it held. Returns the number of repairs queued.
    pub fn report_node_failure(&self, node: NodeId) -> usize {
        self.manager.report_node_failure(node)
    }

    /// The manager's current view of a node's health.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.manager.node_health(node)
    }

    /// Runs one synchronous scrub cycle over every live node's blocks.
    pub fn scrub(&self, config: &ScrubConfig) -> ScrubCycle {
        self.manager.scrub(config)
    }

    /// Starts a background scrubber thread.
    pub fn start_scrubber(&self, config: ScrubConfig) -> Scrubber {
        self.manager.start_scrubber(config)
    }

    /// Blocks until no repair is queued or in flight.
    pub fn wait_idle(&self) {
        self.manager.wait_idle();
    }

    /// Number of repairs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.manager.queued()
    }

    /// The cluster underneath (the node stores).
    pub fn cluster(&self) -> &Cluster {
        self.manager.cluster()
    }

    /// The transport underneath (byte accounting).
    pub fn transport(&self) -> &AnyTransport {
        self.manager.transport()
    }

    /// The repair-manager daemon underneath, for lower-level orchestration
    /// (explicit priorities, liveness snapshots).
    pub fn manager(&self) -> &RepairManager<AnyTransport> {
        &self.manager
    }

    /// The metadata plane underneath: the WAL-durable namespace of
    /// objects, stripe placements and pending repair directives — the only
    /// record of where blocks live, so a placement changed here (an
    /// operator move) is what every read, repair and fault hook sees next.
    pub fn meta(&self) -> Arc<MetaRouter> {
        self.cluster().meta().clone()
    }

    /// Graceful shutdown: drains the repair queue, stops the workers and
    /// returns the run's [`ManagerReport`].
    pub fn shutdown(self) -> ManagerReport {
        self.manager.shutdown()
    }

    /// Simulated `kill -9`: stops the runtime *without* draining the repair
    /// queue or resolving journaled repair directives, as a process crash
    /// would. With a [`MetaBackend::durable`] backend and a persistent
    /// [`StoreBackend`], a subsequent [`EcPipeBuilder::build`] over the same
    /// directories recovers the namespace byte-exactly and re-drives the
    /// repairs this process abandoned. A completed one, whose block is
    /// already intact where the router places it, is resolved instead of
    /// being healed twice.
    pub fn simulate_crash(self) {
        self.manager.crash_stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64 * 31 + seed * 17 + 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn put_get_roundtrip_multi_stripe_unaligned() {
        let pipe = EcPipeBuilder::new()
            .code(6, 4)
            .block_size(4096)
            .slice_size(1024)
            .store(StoreBackend::memory(9))
            .build()
            .unwrap();
        // 2 full stripes plus a ragged tail.
        let data = pattern(2 * 4 * 4096 + 1234, 3);
        let meta = pipe.put("/obj", &data).unwrap();
        assert_eq!(meta.stripes.len(), 3);
        assert_eq!(pipe.get("/obj").unwrap(), data);
        // Range reads at awkward offsets.
        for range in [0..1, 4000..4200, 16000..17000, data.len() - 5..data.len()] {
            assert_eq!(pipe.get_range("/obj", range.clone()).unwrap(), &data[range]);
        }
        assert_eq!(pipe.meta().object_count(), 1);
        // The last stripe as stored: 1234 object bytes, then zeros to the end
        // of the tail block and in the blocks after it, and parity over that.
        let stored: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                pipe.cluster()
                    .read_block(meta.stripes[2], i)
                    .unwrap()
                    .to_vec()
            })
            .collect();
        assert_eq!(&stored[0][..1234], &data[2 * 4 * 4096..]);
        assert!(stored[0][1234..].iter().all(|&b| b == 0));
        assert!(stored[1..4].iter().all(|block| block == &vec![0u8; 4096]));
        assert_eq!(pipe.code.encode(&stored[..4]).unwrap(), stored);
        pipe.shutdown();
    }

    #[test]
    fn put_rejects_duplicates_and_get_rejects_unknown() {
        let pipe = EcPipeBuilder::new().build().unwrap();
        pipe.put("/a", &pattern(100, 1)).unwrap();
        assert!(pipe.put("/a", &pattern(100, 2)).is_err());
        assert!(pipe.get("/missing").is_err());
        assert!(pipe.get_range("/a", 50..200).is_err());
        pipe.shutdown();
    }

    #[test]
    fn delete_frees_the_name_and_the_blocks() {
        let pipe = EcPipeBuilder::new().build().unwrap();
        let data = pattern(100_000, 5);
        let meta = pipe.put("/tmp", &data).unwrap();
        let deleted = pipe.delete("/tmp").unwrap();
        assert_eq!(deleted.stripes, meta.stripes);
        assert!(pipe.get("/tmp").is_err());
        assert!(pipe.delete("/tmp").is_err());
        for &stripe in &meta.stripes {
            assert!(pipe.cluster().read_block(stripe, 0).is_err());
        }
        // The name and storage are reusable; stripe ids are not recycled.
        let again = pipe.put("/tmp", &data).unwrap();
        assert!(again.stripes.iter().all(|s| !meta.stripes.contains(s)));
        assert_eq!(pipe.get("/tmp").unwrap(), data);
        pipe.shutdown();
    }

    #[test]
    fn empty_object_roundtrips() {
        let pipe = EcPipeBuilder::new().build().unwrap();
        let meta = pipe.put("/empty", &[]).unwrap();
        assert_eq!(meta.size, 0);
        assert_eq!(meta.stripes.len(), 1);
        assert_eq!(pipe.get("/empty").unwrap(), Vec::<u8>::new());
        pipe.shutdown();
    }

    #[test]
    fn get_survives_an_erased_block() {
        let pipe = EcPipeBuilder::new()
            .block_size(4096)
            .slice_size(512)
            .store(StoreBackend::memory(8))
            .build()
            .unwrap();
        let data = pattern(4 * 4096, 9);
        let meta = pipe.put("/x", &data).unwrap();
        pipe.erase_block(meta.stripes[0], 1);
        assert_eq!(pipe.get("/x").unwrap(), data);
        // The heal wrote the block back; a second read is fully native.
        let bytes_after_heal = pipe.transport().total_bytes();
        assert_eq!(pipe.get("/x").unwrap(), data);
        assert_eq!(pipe.transport().total_bytes(), bytes_after_heal);
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 1);
        assert_eq!(report.degraded_wait.count, 1);
    }

    /// A degraded read repairs into the buffer of the block it lost: after
    /// 200 erase → `get_range` cycles the cluster has asked the allocator
    /// for at most a pool's worth of block buffers plus one, where a repair
    /// that allocates its output makes it one per cycle.
    #[test]
    fn degraded_reads_recycle_the_erased_blocks() {
        let pipe = EcPipeBuilder::new()
            .block_size(4096)
            .slice_size(512)
            .store(StoreBackend::memory(8))
            .build()
            .unwrap();
        let data = pattern(4 * 4096, 21);
        let stripe = pipe.put("/cycled", &data).unwrap().stripes[0];
        let pool = pipe.cluster().block_pool();
        let before = pool.fresh_allocations();
        for cycle in 0..200 {
            let range = (cycle % 4) * 4096..(cycle % 4 + 1) * 4096;
            assert!(pipe.erase_block(stripe, cycle % 4));
            let got = pipe.get_range("/cycled", range.clone()).unwrap();
            assert_eq!(got, &data[range]);
        }
        let fresh = pool.fresh_allocations() - before;
        let bound = crate::cluster::RETAINED_BLOCKS as u64 + 1;
        assert!(fresh <= bound, "{fresh} fresh block buffers in 200 repairs");
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 200);
        assert_eq!(report.failed_repairs, 0);
    }

    /// A read the client still holds is a view of the blocks it read, so it
    /// outlives the erasure and repair of one of them — and keeps that
    /// block's buffer out of the pool until it is dropped.
    #[test]
    fn a_held_read_survives_the_repair_of_its_block() {
        let pipe = EcPipeBuilder::new()
            .block_size(4096)
            .slice_size(512)
            .store(StoreBackend::memory(8))
            .build()
            .unwrap();
        let data = pattern(4 * 4096, 23);
        let stripe = pipe.put("/held", &data).unwrap().stripes[0];
        let pool = pipe.cluster().block_pool();
        let held = pipe.get("/held").unwrap();
        let before = pool.fresh_allocations();
        // The erased block's buffer is pinned by `held`, so the repair behind
        // this degraded read cannot take it from the pool.
        assert!(pipe.erase_block(stripe, 1));
        let healed = pipe.get("/held").unwrap();
        assert_eq!(held, data);
        assert_eq!(healed, data);
        assert_eq!(pool.fresh_allocations(), before + 1);
        // Unpinned, the next erasure's buffer serves the next repair.
        drop((held, healed));
        assert!(pipe.erase_block(stripe, 1));
        assert_eq!(pipe.get("/held").unwrap(), data);
        assert_eq!(pool.fresh_allocations(), before + 1);
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 2);
        assert_eq!(report.failed_repairs, 0);
    }

    #[test]
    fn range_reads_are_views_of_the_stored_blocks() {
        let pipe = EcPipeBuilder::new()
            .code(6, 4)
            .block_size(4096)
            .slice_size(1024)
            .store(StoreBackend::memory(8))
            .build()
            .unwrap();
        // Two full blocks and a 100-byte tail.
        let data = pattern(2 * 4096 + 100, 29);
        let stripe = pipe.put("/views", &data).unwrap().stripes[0];

        // Inside one block: one chunk, pointing into the stored block.
        let got = pipe.get_range("/views", 4100..4200).unwrap();
        assert_eq!(got, &data[4100..4200]);
        assert_eq!(got.chunks().len(), 1);
        let stored = pipe.cluster().read_block(stripe, 1).unwrap();
        assert!(stored.as_ptr_range().contains(&got.chunks()[0].as_ptr()));

        // Across three blocks: a view of each.
        let got = pipe.get_range("/views", 4000..8250).unwrap();
        assert_eq!(got.chunks().len(), 3);
        assert_eq!(
            got.chunks().iter().map(|c| c.len()).collect::<Vec<_>>(),
            [96, 4096, 58]
        );
        assert_eq!(got, &data[4000..8250]);

        // The ragged tail comes back without the zeros padding its block.
        let whole = pipe.get("/views").unwrap();
        assert_eq!(whole.len(), data.len());
        assert_eq!(whole.chunks().last().unwrap().len(), 100);
        assert_eq!(whole.to_vec(), data);
        let tail = pipe.get_range("/views", 8190..data.len()).unwrap();
        assert_eq!(tail, &data[8190..]);

        // An empty object reads back as no views at all.
        pipe.put("/empty", &[]).unwrap();
        let empty = pipe.get("/empty").unwrap();
        assert!(empty.chunks().is_empty());
        assert_eq!(empty, &[][..]);
        pipe.shutdown();
    }

    #[test]
    fn object_bytes_compare_by_content_not_chunking() {
        let data = pattern(1000, 31);
        let split = |cuts: &[usize]| {
            let mut bounds = vec![0];
            bounds.extend_from_slice(cuts);
            bounds.push(data.len());
            ObjectBytes::from_chunks(
                bounds
                    .windows(2)
                    .map(|w| Bytes::from(data[w[0]..w[1]].to_vec()))
                    .collect(),
            )
        };
        let (one, three, uneven) = (split(&[]), split(&[300, 700]), split(&[1, 1, 999]));
        for bytes in [&one, &three, &uneven] {
            assert_eq!(bytes.len(), 1000);
            assert_eq!(*bytes, data);
            assert_eq!(*bytes, &data[..]);
            assert_eq!(*bytes, one);
            assert_eq!(*bytes, three);
            assert_eq!(*bytes, uneven);
        }
        // A length mismatch or one flipped byte is unequal.
        assert_ne!(three, &data[..999]);
        assert_ne!(
            three,
            ObjectBytes::from_chunks(three.chunks()[..2].to_vec())
        );
        let mut flipped = data.clone();
        flipped[500] ^= 1;
        assert_ne!(three, flipped);
        assert_ne!(uneven, ObjectBytes::from_chunks(vec![Bytes::from(flipped)]));
        // The empty object is equal to the empty slice, however it is held.
        assert_eq!(ObjectBytes::default(), &[][..]);
        assert_eq!(
            ObjectBytes::from_chunks(vec![Bytes::new()]),
            ObjectBytes::default()
        );
        assert!(ObjectBytes::default().is_empty());
        // Debug shows the shape and at most the first 32 bytes.
        assert_eq!(
            format!("{three:?}"),
            format!(
                "ObjectBytes {{ len: 1000, chunks: 3, head: {:?} }}",
                &data[..32]
            )
        );
    }

    #[test]
    fn operator_relocation_is_honoured_by_erase_and_get() {
        let pipe = EcPipeBuilder::new()
            .block_size(4096)
            .slice_size(512)
            .store(StoreBackend::memory(8))
            .build()
            .unwrap();
        let data = pattern(4 * 4096, 13);
        let stripe = pipe.put("/moved", &data).unwrap().stripes[0];
        let placement = pipe.cluster().placement(stripe).unwrap();
        let spare = (0..8).find(|n| !placement.contains(n)).unwrap();
        // An operator physically moves block 1 to a spare node and records
        // the move in the namespace.
        let block = ecc::stripe::BlockId { stripe, index: 1 };
        let bytes = pipe.cluster().store(placement[1]).get(block).unwrap();
        pipe.cluster().store(spare).put(block, bytes).unwrap();
        pipe.cluster().store(placement[1]).delete(block).unwrap();
        pipe.meta().relocate(stripe, 1, spare, None).unwrap();
        // The fault hook and the read path both look where the namespace
        // says the block is: there is no second placement view to go stale.
        assert!(pipe.erase_block(stripe, 1));
        assert!(!pipe.cluster().store(spare).contains(block));
        assert_eq!(pipe.get("/moved").unwrap(), data);
        assert!(pipe.cluster().store(spare).contains(block));
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 1);
        assert_eq!(report.failed_repairs, 0);
    }

    #[test]
    fn erase_block_tolerates_unknown_stripes_and_indices() {
        let pipe = EcPipeBuilder::new().build().unwrap();
        let stripe = pipe.put("/a", &pattern(100, 1)).unwrap().stripes[0];
        assert!(!pipe.erase_block(stripe, 6));
        assert!(!pipe.erase_block(StripeId(99), 0));
        pipe.shutdown();
    }

    #[test]
    fn builder_rejects_too_few_nodes() {
        assert!(EcPipeBuilder::new()
            .code(6, 4)
            .store(StoreBackend::memory(5))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_zero_sizes_and_rates() {
        for builder in [
            EcPipeBuilder::new().block_size(0),
            EcPipeBuilder::new().slice_size(0),
            EcPipeBuilder::new().rate_limit(0),
        ] {
            assert!(matches!(
                builder.build(),
                Err(EcPipeError::InvalidRequest { .. })
            ));
        }
    }

    #[test]
    fn builder_rejects_a_topology_smaller_than_the_cluster() {
        assert!(EcPipeBuilder::new()
            .code(6, 4)
            .store(StoreBackend::memory(8))
            .topology(Topology::flat(6, simnet::GBIT))
            .build()
            .is_err());
    }

    #[test]
    fn topology_and_weighted_policy_heal_byte_exact() {
        let pipe = EcPipeBuilder::new()
            .code(6, 4)
            .block_size(4096)
            .slice_size(512)
            .store(StoreBackend::memory(8))
            .topology(Topology::rack_based(&[4, 4], simnet::GBIT, simnet::GBIT))
            .path_policy(PathPolicy::Weighted)
            .build()
            .unwrap();
        let data = pattern(4 * 4096, 11);
        let meta = pipe.put("/w", &data).unwrap();
        pipe.erase_block(meta.stripes[0], 2);
        assert_eq!(pipe.get("/w").unwrap(), data);
        let report = pipe.shutdown();
        assert_eq!(report.blocks_repaired, 1);
        // The weighted planner stamped the chosen path and its bottleneck.
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.path.len(), 4);
        assert!(outcome.bottleneck.is_some());
        assert_eq!(
            report.network_bytes,
            report.link_bytes.values().sum::<u64>()
        );
    }

    #[test]
    fn chunking_pads_and_tiles() {
        let data = pattern(10, 0);
        // 10 bytes over (k=2, block=4) stripes: 2 stripes, last block padded.
        assert_eq!(stripe_count(data.len(), 2, 4), 2);
        let pool = BufPool::new();
        let chunks: Vec<Vec<Bytes>> = (0..2)
            .map(|s| chunk_stripe(&data, 2, 4, s, &pool))
            .collect();
        assert!(chunks.iter().all(|s| s.len() == 2));
        assert!(chunks.iter().flatten().all(|b| b.len() == 4));
        assert_eq!(&chunks[1][0][..2], &data[8..10]);
        assert_eq!(&chunks[1][1][..], &[0u8; 4]);
        // Empty data still produces one (all-zero) stripe.
        assert_eq!(stripe_count(0, 3, 8), 1);
        assert_eq!(
            chunk_stripe(&[], 3, 8, 0, &pool),
            vec![Bytes::from(vec![0u8; 8]); 3]
        );
    }
}
