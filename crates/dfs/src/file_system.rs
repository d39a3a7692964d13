//! A functional model of an erasure-coded distributed file system.
//!
//! [`SimulatedDfs`] provides the pieces of HDFS-RAID / HDFS-3 / QFS that the
//! ECPipe integration touches: a file namespace, fixed-size blocks grouped
//! into stripes, offline or online encoding, block reports that detect
//! failures, degraded reads and full-node recovery. Blocks live in per-node
//! [`ecpipe::BlockStore`]s and repairs run on the real ECPipe runtime, so
//! every reconstructed byte can be checked.
//!
//! **How this relates to the [`ecpipe::EcPipe`] façade:** the façade is the
//! runtime's own client API — the thing a production deployment would call.
//! `SimulatedDfs` deliberately stays *beside* it, modeling the semantics of
//! a third-party storage system that ECPipe integrates *into*: it has a
//! profile-driven block size and encoding mode (offline RaidNode passes),
//! counts reads served through the storage routine versus natively by
//! helpers, and chooses between the system's original repair path and the
//! ECPipe path per read ([`RepairPath`]). The two share the low-level
//! machinery (cluster, coordinator, executors) and the stripe-chunking rule
//! ([`ecpipe::chunk_into_stripes`]), so their write layouts cannot drift
//! apart — but an object written through one is intentionally not visible
//! through the other's namespace.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use ecc::stripe::{BlockId, StripeId};
use ecc::{ErasureCode, Lrc, ReedSolomon};
use ecpipe::exec::ExecStrategy;
use ecpipe::manager::{recover_node, ManagerConfig};
use ecpipe::transport::ChannelTransport;
use ecpipe::{Cluster, Coordinator, EcPipeError};
use simnet::NodeId;

use crate::profile::{EncodingMode, SystemProfile};
use crate::Result;

/// Metadata of one file: its name, its original size (before padding) and
/// the stripes that store it, in order — the runtime's object record.
pub use ecpipe::ObjectMeta as FileMeta;

/// Which repair path a degraded read or recovery uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPath {
    /// The storage system's own repair: the reconstructing node pulls `k`
    /// blocks through the storage-system read routine (conventional repair).
    Original,
    /// Repair delegated to ECPipe with the given execution strategy; helpers
    /// read blocks natively.
    EcPipe(ExecStrategy),
}

/// A simulated erasure-coded distributed file system.
pub struct SimulatedDfs {
    profile: SystemProfile,
    cluster: Cluster,
    coordinator: Coordinator,
    files: HashMap<String, FileMeta>,
    /// Stripes written but not yet encoded (offline mode only): the parity
    /// blocks are missing until the RaidNode runs.
    pending_encoding: Vec<StripeId>,
    /// Number of block reads served through the storage routine (original
    /// repair path).
    routine_reads: usize,
    /// Number of block reads served natively by ECPipe helpers.
    native_reads: usize,
}

impl SimulatedDfs {
    /// Creates a storage system with `nodes` storage nodes following
    /// `profile`, using Reed-Solomon coding.
    pub fn new(profile: SystemProfile, nodes: usize) -> Result<Self> {
        let (n, k) = profile.default_code;
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(n, k)?);
        Self::with_code(profile, nodes, code)
    }

    /// Creates a storage system with an Azure-style LRC code (used to study
    /// repair-friendly codes under the same file layer).
    pub fn new_with_lrc(
        profile: SystemProfile,
        nodes: usize,
        k: usize,
        local_groups: usize,
        global_parities: usize,
    ) -> Result<Self> {
        let code: Arc<dyn ErasureCode> = Arc::new(Lrc::new(k, local_groups, global_parities)?);
        Self::with_code(profile, nodes, code)
    }

    fn with_code(profile: SystemProfile, nodes: usize, code: Arc<dyn ErasureCode>) -> Result<Self> {
        if nodes < code.n() {
            return Err(EcPipeError::InvalidRequest {
                reason: format!("need at least {} nodes, got {nodes}", code.n()),
            });
        }
        let coordinator = Coordinator::new(code, profile.ecpipe_layout());
        Ok(SimulatedDfs {
            profile,
            cluster: Cluster::new(ecpipe::StoreBackend::memory(nodes))?,
            coordinator,
            files: HashMap::new(),
            pending_encoding: Vec::new(),
            routine_reads: 0,
            native_reads: 0,
        })
    }

    /// The system profile.
    pub fn profile(&self) -> &SystemProfile {
        &self.profile
    }

    /// The number of storage nodes.
    pub fn num_nodes(&self) -> usize {
        self.cluster.num_nodes()
    }

    /// Reads served through the storage-system routine so far.
    pub fn routine_reads(&self) -> usize {
        self.routine_reads
    }

    /// Reads served natively by ECPipe helpers so far.
    pub fn native_reads(&self) -> usize {
        self.native_reads
    }

    /// File metadata, if the file exists.
    pub fn file(&self, name: &str) -> Option<&FileMeta> {
        self.files.get(name)
    }

    /// Writes a file. The data is split into blocks of the profile's block
    /// size, grouped into stripes of `k` blocks (zero-padded), and encoded
    /// according to the profile's encoding mode.
    pub fn write_file(&mut self, name: &str, data: &[u8]) -> Result<FileMeta> {
        let k = self.coordinator.code().k();
        let block_size = self.profile.block_size;
        // Same chunking rule as the EcPipe façade's `put`, so the runtime
        // and simulation write layouts cannot drift apart.
        let chunked = ecpipe::chunk_into_stripes(data, k, block_size);
        let mut stripes = Vec::with_capacity(chunked.len());
        for blocks in chunked {
            let stripe_id = self.cluster.meta().allocate_stripe_id().0;
            let placement: Vec<NodeId> = (0..self.coordinator.code().n())
                .map(|i| (stripe_id as usize + i) % self.cluster.num_nodes())
                .collect();
            let id = self.cluster.write_stripe_with_placement(
                self.coordinator.code(),
                stripe_id,
                &blocks,
                placement,
            )?;
            if self.profile.encoding == EncodingMode::Offline {
                // Offline mode: the parity blocks are not considered durable
                // until the RaidNode has verified them; model this by
                // tracking the stripe as pending.
                self.pending_encoding.push(id);
            }
            stripes.push(id);
        }
        let meta = FileMeta {
            name: name.to_string(),
            size: data.len(),
            stripes,
        };
        self.files.insert(name.to_string(), meta.clone());
        Ok(meta)
    }

    /// Runs the background RaidNode pass (offline encoding systems only):
    /// marks all pending stripes as fully encoded and returns how many were
    /// processed.
    pub fn run_raid_node(&mut self) -> usize {
        let processed = self.pending_encoding.len();
        self.pending_encoding.clear();
        processed
    }

    /// Stripes written but not yet processed by the RaidNode.
    pub fn pending_encoding(&self) -> usize {
        self.pending_encoding.len()
    }

    /// Reads a whole file back, using degraded reads (through `path`) for any
    /// missing block.
    pub fn read_file(&mut self, name: &str, path: RepairPath) -> Result<Vec<u8>> {
        let meta = self
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| EcPipeError::InvalidRequest {
                reason: format!("no such file: {name}"),
            })?;
        let k = self.coordinator.code().k();
        let block_size = self.profile.block_size;
        let mut out = Vec::with_capacity(meta.size);
        for &stripe in &meta.stripes {
            for b in 0..k {
                if out.len() >= meta.size {
                    break;
                }
                let block = match self.cluster.read_block(stripe, b) {
                    Ok(bytes) => bytes.to_vec(),
                    Err(EcPipeError::BlockNotFound { .. }) => {
                        self.degraded_read(stripe, b, path)?
                    }
                    Err(e) => return Err(e),
                };
                let take = block_size.min(meta.size - out.len());
                out.extend_from_slice(&block[..take]);
            }
        }
        Ok(out)
    }

    /// A degraded read of one block of a stripe: reconstructs the block at a
    /// client node (the last node in the cluster) without writing it back.
    pub fn degraded_read(
        &mut self,
        stripe: StripeId,
        index: usize,
        path: RepairPath,
    ) -> Result<Vec<u8>> {
        let requestor = self.pick_requestor(stripe);
        let strategy = match path {
            RepairPath::Original => {
                // The original repair pulls k blocks through the storage
                // routine (conventional repair).
                self.routine_reads += self.coordinator.code().k();
                ExecStrategy::Conventional
            }
            RepairPath::EcPipe(strategy) => {
                self.native_reads += self.coordinator.code().k();
                strategy
            }
        };
        let directive =
            self.coordinator
                .plan_single_repair(self.cluster.meta(), stripe, index, requestor)?;
        let transport = ChannelTransport::new();
        ecpipe::exec::execute_single(&directive, &self.cluster, &transport, strategy)
    }

    /// Detects missing blocks by scanning every registered stripe (the block
    /// report / NameNode scrub).
    pub fn block_report(&self) -> Vec<BlockId> {
        let mut missing = Vec::new();
        self.cluster.meta().for_each_stripe(|record| {
            for (index, &node) in record.locations.iter().enumerate() {
                let id = BlockId {
                    stripe: record.id,
                    index,
                };
                if !self.cluster.store(node).contains(id) {
                    missing.push(id);
                }
            }
        });
        missing.sort_unstable();
        missing
    }

    /// Erases one block (failure injection).
    pub fn erase_block(&mut self, stripe: StripeId, index: usize) -> bool {
        self.cluster.erase_block(stripe, index)
    }

    /// Kills a node, erasing every block it stored (failure injection).
    pub fn kill_node(&mut self, node: NodeId) -> Vec<BlockId> {
        self.cluster.kill_node(node)
    }

    /// Recovers every block lost on `failed_node` into `replacements`,
    /// returning the number of blocks rebuilt.
    pub fn full_node_recovery(
        &mut self,
        failed_node: NodeId,
        replacements: &[NodeId],
        path: RepairPath,
    ) -> Result<usize> {
        let strategy = match path {
            RepairPath::Original => ExecStrategy::Conventional,
            RepairPath::EcPipe(strategy) => strategy,
        };
        let affected = self.cluster.meta().stripes_on_node(failed_node).len();
        match path {
            RepairPath::Original => {
                self.routine_reads += affected * self.coordinator.code().k();
            }
            RepairPath::EcPipe(_) => {
                self.native_reads += affected * self.coordinator.code().k();
            }
        }
        // One repair at a time, as the storage system's own recovery loop
        // walks the affected stripes.
        let report = recover_node(
            &self.coordinator,
            &self.cluster,
            &ChannelTransport::new(),
            failed_node,
            replacements,
            &ManagerConfig::sequential(strategy),
        )?;
        Ok(report.blocks_repaired)
    }

    /// Verifies that a block currently stored anywhere in the system matches
    /// the expected content (test helper).
    pub fn verify_block(&self, stripe: StripeId, index: usize, expected: &[u8]) -> bool {
        match self.cluster.read_block(stripe, index) {
            Ok(bytes) => bytes == Bytes::copy_from_slice(expected),
            Err(_) => false,
        }
    }

    fn pick_requestor(&self, stripe: StripeId) -> NodeId {
        // A degraded-read client runs on a node that stores no block of the
        // repaired stripe (as in the paper's testbed setup).
        let placement = self.cluster.placement(stripe).unwrap_or_default();
        (0..self.cluster.num_nodes())
            .find(|n| !placement.contains(n))
            .unwrap_or(self.cluster.num_nodes() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc::slice::MIB;

    fn small_profile(profile: SystemProfile) -> SystemProfile {
        // Shrink blocks so tests stay fast while keeping the same structure.
        profile.with_block_size(64 * 1024)
    }

    fn file_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    #[test]
    fn write_and_read_roundtrip_qfs() {
        let mut dfs = SimulatedDfs::new(small_profile(SystemProfile::qfs()), 12).unwrap();
        let data = file_bytes(5 * 64 * 1024 + 123);
        dfs.write_file("/a", &data).unwrap();
        let back = dfs
            .read_file("/a", RepairPath::EcPipe(ExecStrategy::RepairPipelining))
            .unwrap();
        assert_eq!(back, data);
        assert_eq!(dfs.file("/a").unwrap().size, data.len());
    }

    #[test]
    fn offline_encoding_tracks_pending_stripes() {
        let mut dfs = SimulatedDfs::new(small_profile(SystemProfile::hdfs_raid()), 16).unwrap();
        let data = file_bytes(11 * 64 * 1024);
        dfs.write_file("/raid", &data).unwrap();
        assert!(dfs.pending_encoding() > 0);
        let processed = dfs.run_raid_node();
        assert_eq!(dfs.pending_encoding(), 0);
        assert!(processed > 0);
    }

    #[test]
    fn degraded_read_reconstructs_lost_block() {
        let mut dfs = SimulatedDfs::new(small_profile(SystemProfile::hdfs3()), 16).unwrap();
        let data = file_bytes(10 * 64 * 1024);
        let meta = dfs.write_file("/f", &data).unwrap();
        let stripe = meta.stripes[0];
        dfs.erase_block(stripe, 2);
        assert_eq!(dfs.block_report().len(), 1);
        let back = dfs
            .read_file("/f", RepairPath::EcPipe(ExecStrategy::RepairPipelining))
            .unwrap();
        assert_eq!(back, data);
        assert!(dfs.native_reads() > 0);
        assert_eq!(dfs.routine_reads(), 0);
    }

    #[test]
    fn original_path_counts_routine_reads() {
        let mut dfs = SimulatedDfs::new(small_profile(SystemProfile::hdfs_raid()), 16).unwrap();
        let data = file_bytes(10 * 64 * 1024);
        let meta = dfs.write_file("/f", &data).unwrap();
        dfs.erase_block(meta.stripes[0], 0);
        let back = dfs.read_file("/f", RepairPath::Original).unwrap();
        assert_eq!(back, data);
        assert_eq!(dfs.routine_reads(), 10);
        assert_eq!(dfs.native_reads(), 0);
    }

    #[test]
    fn full_node_recovery_restores_blocks() {
        let mut dfs = SimulatedDfs::new(small_profile(SystemProfile::hdfs3()), 18).unwrap();
        let data = file_bytes(30 * 64 * 1024);
        dfs.write_file("/big", &data).unwrap();
        // Pick a node that stores at least one block.
        let failed = dfs.block_report_node_with_data();
        let lost = dfs.kill_node(failed);
        assert!(!lost.is_empty());
        let repaired = dfs
            .full_node_recovery(
                failed,
                &[16, 17],
                RepairPath::EcPipe(ExecStrategy::RepairPipelining),
            )
            .unwrap();
        assert_eq!(repaired, lost.len());
        assert!(dfs.block_report().len() <= lost.len());
        // The file still reads back correctly.
        let back = dfs
            .read_file("/big", RepairPath::EcPipe(ExecStrategy::RepairPipelining))
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn lrc_backed_system_repairs_locally() {
        let mut dfs =
            SimulatedDfs::new_with_lrc(small_profile(SystemProfile::hdfs_raid()), 20, 12, 2, 2)
                .unwrap();
        let data = file_bytes(12 * 64 * 1024);
        let meta = dfs.write_file("/lrc", &data).unwrap();
        dfs.erase_block(meta.stripes[0], 3);
        let back = dfs
            .read_file("/lrc", RepairPath::EcPipe(ExecStrategy::RepairPipelining))
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn files_larger_than_one_stripe_span_multiple_stripes() {
        let mut dfs = SimulatedDfs::new(small_profile(SystemProfile::qfs()), 12).unwrap();
        let data = file_bytes(2 * 6 * 64 * 1024 + 5);
        let meta = dfs.write_file("/multi", &data).unwrap();
        assert_eq!(meta.stripes.len(), 3);
        let _ = MIB;
    }

    impl SimulatedDfs {
        /// Test helper: a node that stores at least one block.
        fn block_report_node_with_data(&self) -> NodeId {
            for node in 0..self.cluster.num_nodes() {
                if !self.cluster.store(node).list().is_empty() {
                    return node;
                }
            }
            0
        }
    }
}
