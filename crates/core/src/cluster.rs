//! A cluster of storage nodes with node-local block stores.
//!
//! [`Cluster`] is the piece of the storage system ECPipe sits next to: a set
//! of nodes, each with its own [`BlockStore`](crate::BlockStore). It holds
//! no placement of its own — which node stores block `i` of a stripe is a
//! fact of the deployment's [`MetaRouter`], and the by-index helpers here
//! (`read_block`, `erase_block`, …) resolve it there on every call. The
//! cluster supports writing encoded stripes and injecting failures (erasing
//! blocks, killing nodes); repairs run on it through the
//! [`exec`](crate::exec) walker, which the repair manager drives.
//!
//! The cluster also owns the memory of its blocks: a [`BufPool`] that
//! repairs take their output from and that `put`'s blocks are adopted into,
//! so a dropped block's allocation is the next repair's. And it owns one
//! store-writer thread, which writes a stripe's data blocks while the
//! caller encodes and writes its parity
//! ([`write_stripe_blocks`](Cluster::write_stripe_blocks)).

use std::sync::Arc;

use bytes::Bytes;

use ecc::stripe::{BlockId, StripeId};
use ecpipe_meta::{MetaConfig, MetaRouter};
use simnet::{NodeId, Topology};

use ecc::ErasureCode;

use crate::buf::BufPool;
use crate::store::{BlockStore, StoreBackend};
use crate::writer::{BlockWrite, StoreWriter};
use crate::{EcPipeError, Result};

/// How many dropped blocks the cluster's pool keeps for the next repair.
///
/// One block lies between a drop and the repair that reuses it: a degraded
/// read finds its block erased (one block dropped) and the repair it waits
/// for is the next `take`. Concurrent repairs on a file-store cluster each
/// drop their output once it is written and take again on their next
/// repair, so a worker finds a block waiting when no other finished in
/// between, and mallocs otherwise. A larger bound buys nothing there and parks whole blocks that nothing
/// drains where no repair runs: a `put`/`delete` client returns a block
/// per delete and never takes one.
pub(crate) const RETAINED_BLOCKS: usize = 1;

/// A cluster of storage nodes: the stores, the handle to the deployment's
/// metadata router, the pool its blocks live in, the network topology when
/// one is modeled, and one store-writer thread.
///
/// The writer thread starts with the cluster and is joined when the cluster
/// drops; it has no setting. It serves
/// [`write_stripe_blocks`](Self::write_stripe_blocks) alone, so a cluster
/// adds one thread to its process, busy only while a stripe is written.
pub struct Cluster {
    stores: Vec<Arc<dyn BlockStore>>,
    /// The one owner of stripe → node placement for this deployment.
    meta: Arc<MetaRouter>,
    /// Block buffers ([`Cluster::block_pool`]).
    blocks: BufPool,
    /// The network topology the nodes live in, when one is modeled. Set
    /// before the cluster is handed to a manager and immutable afterwards;
    /// repair planning consults it for rack-aware and weighted path
    /// selection.
    topology: Option<Arc<Topology>>,
    /// Writes stripes' data blocks beside their `put`s.
    writer: StoreWriter,
}

impl Cluster {
    /// Creates a cluster whose nodes store blocks as `backend` describes,
    /// over a fresh ephemeral metadata router.
    pub fn new(backend: StoreBackend) -> Result<Self> {
        let meta = MetaRouter::open(MetaConfig::ephemeral())?;
        Cluster::with_meta(backend, Arc::new(meta))
    }

    /// Creates a cluster over an existing (possibly durable, possibly
    /// recovered) metadata router.
    pub fn with_meta(backend: StoreBackend, meta: Arc<MetaRouter>) -> Result<Self> {
        Ok(Cluster {
            stores: backend.build()?,
            meta,
            blocks: BufPool::with_max_retained(RETAINED_BLOCKS),
            topology: None,
            writer: StoreWriter::start()?,
        })
    }

    /// The metadata router this cluster resolves placements through: the
    /// namespace of objects, stripe placements and pending repairs.
    pub fn meta(&self) -> &Arc<MetaRouter> {
        &self.meta
    }

    /// The pool of block buffers: repairs write their output into a buffer
    /// taken from it, and [`EcPipe::put`](crate::EcPipe::put) adopts its
    /// blocks into it ([`chunk_stripe`](crate::chunk_stripe)), so whichever
    /// block is dropped next — erased, deleted, overwritten — lends its
    /// allocation to the next repair.
    pub fn block_pool(&self) -> &BufPool {
        &self.blocks
    }

    /// Attaches a network topology (racks, link bandwidths) to the cluster,
    /// enabling topology-aware repair planning
    /// ([`PathPolicy`](crate::manager::PathPolicy)). Must describe at least
    /// every node of the cluster. Call before handing the cluster to a
    /// manager — ownership moves there, so the topology is immutable for
    /// the manager's lifetime.
    pub fn set_topology(&mut self, topology: Arc<Topology>) -> Result<()> {
        if topology.num_nodes() < self.num_nodes() {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "topology has {} nodes but the cluster has {}",
                    topology.num_nodes(),
                    self.num_nodes()
                ),
            });
        }
        self.topology = Some(topology);
        Ok(())
    }

    /// The attached network topology, if any.
    pub fn topology(&self) -> Option<&Arc<Topology>> {
        self.topology.as_ref()
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.stores.len()
    }

    /// The block store of one node.
    pub fn store(&self, node: NodeId) -> &Arc<dyn BlockStore> {
        &self.stores[node]
    }

    /// The placement (block index to node) of a stripe, as the router
    /// records it now.
    pub fn placement(&self, stripe: StripeId) -> Option<Vec<NodeId>> {
        self.meta.stripe(stripe).map(|record| record.locations)
    }

    /// Encodes `data` with `code`, writes the stripe with the default
    /// placement — block `i` goes to node `(stripe_id + i) mod num_nodes` —
    /// and registers it with the router.
    ///
    /// Returns the stripe id.
    pub fn write_stripe<B>(
        &self,
        code: &Arc<dyn ErasureCode>,
        stripe_id: u64,
        data: &[B],
    ) -> Result<StripeId>
    where
        B: AsRef<[u8]> + Clone + Into<Bytes>,
    {
        let n = code.n();
        if self.num_nodes() < n {
            return Err(EcPipeError::InvalidRequest {
                reason: format!("cluster has {} nodes, stripe needs {n}", self.num_nodes()),
            });
        }
        let placement: Vec<NodeId> = (0..n)
            .map(|i| (stripe_id as usize + i) % self.num_nodes())
            .collect();
        self.write_stripe_with_placement(code, stripe_id, data, placement)
    }

    /// Encodes and writes a stripe with an explicit placement, and registers
    /// it with the router. A stripe whose registration fails leaves no
    /// blocks behind.
    pub fn write_stripe_with_placement<B>(
        &self,
        code: &Arc<dyn ErasureCode>,
        stripe_id: u64,
        data: &[B],
        placement: Vec<NodeId>,
    ) -> Result<StripeId>
    where
        B: AsRef<[u8]> + Clone + Into<Bytes>,
    {
        let id = self.write_stripe_blocks(code, stripe_id, data, placement.clone())?;
        if let Err(error) = self.meta.register_stripe(id, placement.clone()) {
            self.delete_blocks(id, &placement);
            return Err(error.into());
        }
        Ok(id)
    }

    /// Encodes and writes a stripe's blocks *without* registering the stripe
    /// — the caller registers the placement afterwards. This lets
    /// [`EcPipe::put`](crate::EcPipe::put) write every stripe of an object
    /// before any of it becomes visible in the namespace.
    ///
    /// Two threads write the stripe. The `k` data blocks are handed to the
    /// cluster's store writer as one job, and the calling thread meanwhile
    /// encodes the parity and writes the `n − k` parity blocks. Then the
    /// caller takes back every data block the writer has not started — both
    /// sides take the next block from one shared cursor — and waits only
    /// for the one write the writer may be inside. So the call never waits
    /// on queued work: a writer busy with another stripe costs it no more
    /// than writing every block itself.
    ///
    /// Both sides have finished when this returns. If any write failed,
    /// every block of the stripe is deleted and the error of the lowest
    /// failing block index is returned; a store `put` that panics is an
    /// [`EcPipeError::Execution`] failure of its block.
    ///
    /// The data blocks are borrowed for the parity computation and cloned
    /// into the stores: a deep copy for `Vec<u8>` blocks, a reference count
    /// for [`Bytes`] ones, which is how `put` hands over blocks it has
    /// already copied out of the caller's object. The parity blocks move in
    /// without a copy either way, adopted into the [block
    /// pool](Self::block_pool).
    pub fn write_stripe_blocks<B>(
        &self,
        code: &Arc<dyn ErasureCode>,
        stripe_id: u64,
        data: &[B],
        placement: Vec<NodeId>,
    ) -> Result<StripeId>
    where
        B: AsRef<[u8]> + Clone + Into<Bytes>,
    {
        let (n, k) = (code.n(), code.k());
        if placement.len() != n || data.len() != k {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "a stripe is {k} data blocks on {n} nodes, got {} blocks on {} nodes",
                    data.len(),
                    placement.len()
                ),
            });
        }
        {
            let mut distinct = placement.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != placement.len() {
                return Err(EcPipeError::InvalidRequest {
                    reason: "a stripe's blocks must live on distinct nodes".to_string(),
                });
            }
        }
        let id = StripeId(stripe_id);
        let write = |index: usize, data: Bytes| BlockWrite {
            store: self.stores[placement[index]].clone(),
            block: BlockId { stripe: id, index },
            data,
        };
        let handed = data
            .iter()
            .enumerate()
            .map(|(index, block)| write(index, block.clone().into()))
            .collect();
        let (parity_failures, handed_failures) = self.writer.write_beside(handed, || {
            let borrowed: Vec<&[u8]> = data.iter().map(AsRef::as_ref).collect();
            let parity = code.encode_parity(&borrowed)?;
            let failures: Vec<_> = parity
                .into_iter()
                .enumerate()
                .filter_map(|(p, block)| {
                    write(k + p, self.blocks.adopt(block).freeze()).run().err()
                })
                .collect();
            Ok::<_, EcPipeError>(failures)
        });
        let failure = parity_failures.map(|mut failures| {
            failures.extend(handed_failures);
            failures.into_iter().min_by_key(|&(index, _)| index)
        });
        match failure {
            Ok(None) => Ok(id),
            Err(error) | Ok(Some((_, error))) => {
                // Nothing is in flight any more: whatever landed goes, so a
                // half-written, never-registered stripe leaks no storage.
                self.delete_blocks(id, &placement);
                Err(error)
            }
        }
    }

    /// Deletes block `i` of `stripe` from node `placement[i]` — the undo of
    /// `write_stripe_blocks` for a stripe the router does not (or no longer) know.
    pub(crate) fn delete_blocks(&self, stripe: StripeId, placement: &[NodeId]) {
        for (index, &node) in placement.iter().enumerate() {
            let _ = self.stores[node].delete(BlockId { stripe, index });
        }
    }

    /// Forgets a stripe's placement and deletes its blocks (e.g. when the
    /// object owning the stripe is deleted). Returns whether the stripe was
    /// known; when the router cannot record the removal, nothing is deleted.
    pub fn delete_stripe(&self, stripe: StripeId) -> Result<bool> {
        let Some(placement) = self.placement(stripe) else {
            return Ok(false);
        };
        self.meta.forget_stripe(stripe)?;
        self.delete_blocks(stripe, &placement);
        Ok(true)
    }

    /// Erases one block of a stripe (simulating a lost or unavailable block).
    /// Returns whether the block was present — `false` for an unknown stripe
    /// or an out-of-range index.
    pub fn erase_block(&self, stripe: StripeId, index: usize) -> bool {
        let Ok(node) = self.node_of(stripe, index) else {
            return false;
        };
        self.stores[node]
            .delete(BlockId { stripe, index })
            .unwrap_or(false)
    }

    /// Flips the byte at `offset` of one stored block without touching its
    /// integrity metadata (simulating silent bit-rot; see
    /// [`BlockStore::corrupt`]). On a checksummed store the corruption is
    /// detected by the next read or scrub; on a plain store it silently
    /// poisons whatever reads the block — which is exactly the failure mode
    /// the integrity layer exists to close.
    pub fn corrupt_block(&self, stripe: StripeId, index: usize, offset: usize) -> Result<()> {
        let node = self.node_of(stripe, index)?;
        self.stores[node].corrupt(BlockId { stripe, index }, offset)
    }

    /// Verifies one block's integrity on the node its placement maps it to.
    pub fn verify_block(&self, stripe: StripeId, index: usize) -> Result<()> {
        let node = self.node_of(stripe, index)?;
        self.stores[node].verify(BlockId { stripe, index })
    }

    /// The node a block currently lives on, per the router's placement.
    pub fn node_of(&self, stripe: StripeId, index: usize) -> Result<NodeId> {
        Ok(self.meta.node_of(stripe, index)?)
    }

    /// Scans every node's store for a copy of `block`, returning the first
    /// holder. A repaired block can land on a node the placement cannot
    /// name (the router refuses to co-locate two blocks of a stripe); this
    /// finds such stray copies so reads can still serve them.
    pub fn find_block(&self, block: BlockId) -> Option<NodeId> {
        (0..self.stores.len()).find(|&n| self.stores[n].contains(block))
    }

    /// Deletes every block stored on a node (simulating a full node failure).
    /// Returns the erased block ids.
    pub fn kill_node(&self, node: NodeId) -> Vec<BlockId> {
        let blocks = self.stores[node].list();
        for &b in &blocks {
            let _ = self.stores[node].delete(b);
        }
        blocks
    }

    /// Reads a block from wherever its stripe placement says it lives.
    pub fn read_block(&self, stripe: StripeId, index: usize) -> Result<Bytes> {
        let node = self.node_of(stripe, index)?;
        self.stores[node].get(BlockId { stripe, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::transport::ChannelTransport;
    use crate::Coordinator;
    use ecc::slice::SliceLayout;
    use ecc::ReedSolomon;
    use repair::Scheme;

    fn setup() -> (Cluster, Coordinator, Vec<Vec<u8>>) {
        let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let coordinator = Coordinator::new(code, SliceLayout::new(4096, 512));
        let cluster = Cluster::new(StoreBackend::memory(8)).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![(i * 17 + 3) as u8; 4096]).collect();
        (cluster, coordinator, data)
    }

    /// Plans and walks an RP repair of block `failed` onto `requestor` over
    /// channels, and stores the block there.
    fn repair(
        cluster: &Cluster,
        coordinator: &Coordinator,
        (stripe, failed, requestor): (StripeId, usize, NodeId),
    ) -> Bytes {
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, failed, requestor)
            .unwrap();
        let strategy = Scheme::RepairPipelining;
        let transport = ChannelTransport::new();
        let repaired = exec::execute_single(&directive, cluster, &transport, strategy).unwrap();
        let block = BlockId::new(stripe.0, failed);
        cluster
            .store(requestor)
            .put(block, repaired.clone())
            .unwrap();
        repaired
    }

    #[test]
    fn write_stripe_places_blocks_on_distinct_nodes() {
        let (cluster, coordinator, data) = setup();
        let stripe = cluster.write_stripe(coordinator.code(), 5, &data).unwrap();
        let placement = cluster.placement(stripe).unwrap();
        assert_eq!(placement.len(), 6);
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        // Data blocks readable and identical to the input.
        for (i, block) in data.iter().enumerate() {
            assert_eq!(
                cluster.read_block(stripe, i).unwrap(),
                Bytes::from(block.clone())
            );
        }
    }

    #[test]
    fn erase_and_kill_remove_blocks() {
        let (cluster, coordinator, data) = setup();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        assert!(cluster.erase_block(stripe, 1));
        assert!(!cluster.erase_block(stripe, 1));
        assert!(cluster.read_block(stripe, 1).is_err());
        // Out-of-range indices and unknown stripes erase nothing.
        assert!(!cluster.erase_block(stripe, 6));
        assert!(!cluster.erase_block(StripeId(99), 0));
        let node = cluster.placement(stripe).unwrap()[2];
        let erased = cluster.kill_node(node);
        assert!(erased.contains(&BlockId { stripe, index: 2 }));
    }

    #[test]
    fn by_index_helpers_follow_the_router() {
        let (cluster, coordinator, data) = setup();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        assert_ne!(cluster.node_of(stripe, 1).unwrap(), 7);
        // Record a move in the router (the bytes stay put): every by-index
        // helper now looks on node 7, with no second view to update.
        cluster.meta().relocate(stripe, 1, 7, None).unwrap();
        assert_eq!(cluster.node_of(stripe, 1).unwrap(), 7);
        assert!(cluster.read_block(stripe, 1).is_err());
        assert!(cluster.node_of(StripeId(99), 0).is_err());
        assert!(cluster.node_of(stripe, 9).is_err());
        assert!(cluster.delete_stripe(stripe).unwrap());
        assert!(!cluster.delete_stripe(stripe).unwrap());
    }

    #[test]
    fn backend_constructors_build_working_clusters() {
        let (cluster, coordinator, data) = setup();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        assert_eq!(cluster.read_block(stripe, 0).unwrap(), data[0]);
        let checksummed = Cluster::new(StoreBackend::memory_checksummed(3)).unwrap();
        assert_eq!(checksummed.num_nodes(), 3);
        let custom = Cluster::new(StoreBackend::custom(Vec::new())).unwrap();
        assert_eq!(custom.num_nodes(), 0);
    }

    #[test]
    fn checksummed_cluster_detects_injected_corruption() {
        let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let coordinator = Coordinator::new(code, SliceLayout::new(4096, 512));
        let cluster = Cluster::new(StoreBackend::memory_checksummed(8)).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![(i * 11 + 1) as u8; 4096]).collect();
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        assert!(cluster.verify_block(stripe, 2).is_ok());
        cluster.corrupt_block(stripe, 2, 777).unwrap();
        assert!(matches!(
            cluster.verify_block(stripe, 2),
            Err(EcPipeError::CorruptBlock { .. })
        ));
        assert!(cluster.read_block(stripe, 2).is_err());
        assert!(cluster.corrupt_block(StripeId(9), 0, 0).is_err());
        // Repairing onto the rotten copy's node overwrites the rot and
        // re-checksums.
        let holder = cluster.placement(stripe).unwrap()[2];
        let repaired = repair(&cluster, &coordinator, (stripe, 2, holder));
        assert_eq!(repaired, data[2]);
        assert!(cluster.verify_block(stripe, 2).is_ok());
    }

    /// A repair writes into the allocation of the block it replaces: the
    /// erased block's buffer waits in the cluster's pool, and the repaired
    /// block stored in its place is that same memory.
    #[test]
    fn a_repair_reuses_the_erased_blocks_allocation() {
        let (cluster, coordinator, data) = setup();
        // The blocks `put` would store: copied once, adopted into the pool.
        let blocks = crate::chunk_stripe(&data.concat(), 4, 4096, 0, cluster.block_pool());
        let stripe = cluster
            .write_stripe(coordinator.code(), 0, &blocks)
            .unwrap();
        drop(blocks);
        let ptr = cluster.read_block(stripe, 1).unwrap().as_ptr() as usize;
        assert!(cluster.erase_block(stripe, 1));
        assert_eq!(cluster.block_pool().retained(), 1, "the erased block waits");
        let requestor = cluster.placement(stripe).unwrap()[1];
        let repaired = repair(&cluster, &coordinator, (stripe, 1, requestor));
        assert_eq!(repaired, data[1]);
        let stored = cluster.read_block(stripe, 1).unwrap();
        assert_eq!(stored.as_ptr() as usize, ptr, "the same allocation");
        assert_eq!(cluster.block_pool().fresh_allocations(), 0);
    }

    #[test]
    fn rejects_duplicate_placement() {
        let (cluster, coordinator, data) = setup();
        let err = cluster.write_stripe_with_placement(
            coordinator.code(),
            0,
            &data,
            vec![0, 1, 2, 3, 4, 4],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_small_cluster() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let cluster = Cluster::new(StoreBackend::memory(3)).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 1024]).collect();
        assert!(cluster.write_stripe(&code, 0, &data).is_err());
    }
}
