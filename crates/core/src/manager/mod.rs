//! The repair manager: a concurrent, prioritized repair-orchestration
//! subsystem.
//!
//! The paper's §3.3 full-node recovery repairs the stripes of a failed node
//! *in parallel*, with greedy least-recently-used helper scheduling so that
//! no popular helper becomes the straggler. This module is the runtime layer
//! that actually does that, sitting between the planners (`repair::*`,
//! [`Coordinator`]) and the executors ([`exec`](crate::exec)):
//!
//! * a prioritized repair queue — degraded reads
//!   ([`RepairPriority::DegradedRead`]) preempt corruption repairs
//!   ([`RepairPriority::Corruption`]), which preempt background full-node
//!   recovery;
//! * a bounded worker pool executing many single-stripe repairs
//!   concurrently, generic over [`Transport`];
//! * an admission gate enforcing per-node in-flight caps on top of the
//!   coordinator's helper choice — made by its one planner under the
//!   configured [`PathPolicy`] — so no node serves more than a configured
//!   number of simultaneous repair roles;
//! * a [liveness view](NodeHealth) fed by repair outcomes — a helper whose
//!   block is missing earns strikes, a node crossing the threshold is
//!   declared dead and its remaining stripes are auto-enqueued — with
//!   re-planning around a lost block or a failed hop (§3.2 straggler
//!   handling);
//! * a [scrubber](Scrubber) that walks the cluster's stores at a paced rate,
//!   verifies block checksums (see [`ChecksummedStore`](crate::ChecksummedStore)),
//!   enqueues corrupt blocks as in-place [`RepairPriority::Corruption`]
//!   repairs and re-verifies them once repaired — bit-rot handled as a
//!   first-class failure class next to deletes and node death;
//! * a structured [`ManagerReport`]: per-node load histogram, peak
//!   in-flight roles, queue latencies per priority class, per-repair
//!   outcomes, scrub-cycle summaries, wall time and network bytes.
//!
//! [`RepairManager`] is the one way to run repairs: a long-running daemon
//! that owns the coordinator, cluster and transport, accepts work while
//! running, and reports on shutdown. A repair that fails after its re-plans
//! is recorded in the report's [`failures`](ManagerReport::failures) and the
//! rest of the work goes on. Full-node recovery is
//! [`report_node_failure`](RepairManager::report_node_failure), and one
//! worker ([`ManagerConfig::with_workers`]) is the one-repair-at-a-time
//! baseline the concurrent configurations are measured against. Every plan,
//! relocation and node-failure scan reads the cluster's
//! [`MetaRouter`](ecpipe_meta::MetaRouter), and a repaired block takes over
//! its placement there on the coordinator's first rebuild target holding
//! no other block of the stripe.

mod liveness;
mod metrics;
mod queue;
mod scrub;
mod workers;

pub use liveness::NodeHealth;
pub use metrics::{
    FailedRepair, ManagerReport, RepairOutcome, ReplanEvent, ReplanReason, ScrubCycle, WaitStats,
};
pub use queue::{RepairPriority, RepairRequest};
pub use scrub::{ScrubConfig, Scrubber};

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use repair::Scheme;
use simnet::NodeId;

use crate::cluster::Cluster;
use crate::transport::{LinkSnapshot, Transport};
use crate::{Coordinator, Result};

use workers::{worker_loop, EngineState};

/// How the planner picks (and orders) the helpers of a repair path.
///
/// The topology-aware policies need a [`Topology`](simnet::Topology)
/// attached to the cluster (see
/// [`Cluster::set_topology`](crate::Cluster::set_topology) or
/// [`EcPipeBuilder::topology`](crate::EcPipeBuilder::topology)); without one
/// they degrade to [`PathPolicy::Lru`]. They also fall back per attempt —
/// recorded as a [`ReplanReason::PlanningFallback`] event — when too few
/// candidate helpers remain for a topology-shaped choice.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathPolicy {
    /// Flat least-recently-used helper selection (§3.3): balances load, is
    /// blind to racks and link speeds. The historical default.
    #[default]
    Lru,
    /// Algorithm 1 (§4.2): pick and order helpers to minimize cross-rack
    /// transmissions, keeping same-rack helpers adjacent in the pipeline.
    RackAware,
    /// Algorithm 2 (§4.3): maximize the path's bottleneck bandwidth over
    /// live [`LinkTelemetry`](crate::LinkTelemetry) weights, falling back to
    /// static topology weights for links that are still cold.
    Weighted,
}

impl std::fmt::Display for PathPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            PathPolicy::Lru => "lru",
            PathPolicy::RackAware => "rack-aware",
            PathPolicy::Weighted => "weighted",
        };
        f.write_str(label)
    }
}

/// Tuning knobs for the repair manager. Where a rebuilt block lands is not
/// one: the coordinator picks every repair's target by one rule.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker threads executing repairs concurrently.
    pub workers: usize,
    /// Maximum simultaneous repair roles (helper or requestor) per node; the
    /// admission gate blocks repairs that would exceed it. With one worker
    /// the cap never binds.
    pub per_node_inflight_cap: usize,
    /// Consecutive block misses after which a node is declared dead (and its
    /// stripes auto-enqueued).
    pub dead_after_misses: usize,
    /// Execution strategy for every repair.
    pub strategy: Scheme,
    /// How helpers are picked and ordered. The topology-aware policies need
    /// a topology on the cluster; without one (or with too few candidates)
    /// they degrade to [`PathPolicy::Lru`].
    pub path_policy: PathPolicy,
    /// Runs every repair under the link watch: between steps, the walk
    /// samples the bytes each link of its plan has moved, and ends with
    /// [`EcPipeError::LinkFailed`](crate::EcPipeError::LinkFailed) (cause
    /// [`Degraded`](crate::LinkFailure::Degraded)) when a link that has
    /// streamed for 150 ms runs below half its nominal (topology)
    /// bandwidth. The repair then re-plans ([`ReplanReason::LinkFailed`])
    /// with the slow link's measured throughput already folded into the
    /// telemetry, so the new path routes around it. Needs a cluster
    /// topology; off by default.
    pub link_watch: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            workers: 4,
            per_node_inflight_cap: 4,
            dead_after_misses: 2,
            strategy: Scheme::RepairPipelining,
            path_policy: PathPolicy::Lru,
            link_watch: false,
        }
    }
}

impl ManagerConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-node in-flight cap.
    pub fn with_inflight_cap(mut self, cap: usize) -> Self {
        self.per_node_inflight_cap = cap;
        self
    }
}

struct DaemonShared<T> {
    engine: EngineState,
    coordinator: Coordinator,
    cluster: Cluster,
    transport: T,
    config: ManagerConfig,
}

/// The long-running repair daemon: owns the coordinator, cluster and
/// transport, keeps a worker pool alive, and accepts repair requests and
/// failure reports while running. Dropped, it stops as
/// [`crash_stop`](Self::crash_stop) does.
///
/// ```
/// use std::sync::Arc;
/// use ecc::slice::SliceLayout;
/// use ecc::ReedSolomon;
/// use ecpipe::manager::{ManagerConfig, RepairManager};
/// use ecpipe::transport::ChannelTransport;
/// use ecpipe::{Cluster, Coordinator, StoreBackend};
///
/// let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
/// let coordinator = Coordinator::new(code, SliceLayout::new(4096, 1024));
/// let cluster = Cluster::new(StoreBackend::memory(10)).unwrap();
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 4096]).collect();
/// for s in 0..4 {
///     cluster.write_stripe(coordinator.code(), s, &data).unwrap();
/// }
/// let config = ManagerConfig::default();
/// let manager = RepairManager::start(coordinator, cluster, ChannelTransport::new(), config);
/// let queued = manager.report_node_failure(2);
/// manager.wait_idle();
/// let report = manager.shutdown();
/// assert_eq!(report.blocks_repaired, queued);
/// ```
pub struct RepairManager<T: Transport + Send + Sync + 'static> {
    shared: Arc<DaemonShared<T>>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
    baseline: HashMap<(NodeId, NodeId), LinkSnapshot>,
}

impl<T: Transport + Send + Sync + 'static> RepairManager<T> {
    /// Starts the daemon: spawns `config.workers` worker threads that serve
    /// the queue until [`shutdown`](RepairManager::shutdown).
    pub fn start(
        coordinator: Coordinator,
        cluster: Cluster,
        transport: T,
        config: ManagerConfig,
    ) -> Self {
        let baseline = transport.stats().snapshot();
        let shared = Arc::new(DaemonShared {
            engine: EngineState::new(&config, &cluster),
            coordinator,
            cluster,
            transport,
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("repair-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &shared.engine,
                            &shared.coordinator,
                            &shared.cluster,
                            &shared.transport,
                            &shared.config,
                        )
                    })
                    .expect("spawn repair worker")
            })
            .collect();
        RepairManager {
            shared,
            workers,
            started: Instant::now(),
            baseline,
        }
    }

    /// Enqueues a repair. Returns `Ok(false)` if the block is already queued
    /// or in flight.
    pub fn enqueue(&self, request: RepairRequest) -> Result<bool> {
        self.shared.engine.submit(request)
    }

    /// Enqueues a degraded read — highest priority — reconstructing block
    /// `failed` of `stripe` onto `requestor`. If the block is already
    /// queued at a lower priority (e.g. as part of a background node
    /// recovery), the queued request is promoted to the degraded class
    /// instead: a client is blocked on it *now*, so it must not wait out
    /// the rest of the recovery.
    pub fn degraded_read(
        &self,
        stripe: ecc::stripe::StripeId,
        failed: usize,
        requestor: NodeId,
    ) -> Result<bool> {
        let queued = self.enqueue(RepairRequest {
            stripe,
            failed,
            requestor,
            priority: RepairPriority::DegradedRead,
        })?;
        if !queued {
            self.shared.engine.queue.promote_to_degraded(stripe, failed);
        }
        Ok(queued)
    }

    /// Declares a node dead and enqueues background recovery for every
    /// stripe that still maps a block to it, each block onto a live node
    /// holding none of its stripe, picked by stripe id and block from the
    /// placement and the liveness view alone — the same whichever report or
    /// strike comes first. Returns the number of repairs queued.
    pub fn report_node_failure(&self, node: NodeId) -> usize {
        self.shared.engine.liveness.mark_dead(node);
        self.shared.engine.enqueue_node_recovery(node)
    }

    /// The current health of a node, as inferred from repair outcomes and
    /// failure reports.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.shared.engine.liveness.health_of(node)
    }

    /// Number of repairs waiting in the queue (not counting in-flight work).
    pub fn queued(&self) -> usize {
        self.shared.engine.queue.len()
    }

    /// Blocks until no repair is queued or in flight.
    pub fn wait_idle(&self) {
        self.shared.engine.wait_idle();
    }

    /// Blocks until block `failed` of `stripe` is neither queued nor in
    /// flight — the wait a degraded read performs without draining the rest
    /// of the queue. Returns immediately when the block is not scheduled.
    /// Says nothing about success: re-read the store to find out.
    pub fn wait_for_block(&self, stripe: ecc::stripe::StripeId, failed: usize) {
        self.shared.engine.wait_for((stripe.0, failed));
    }

    /// The cluster the manager repairs into (e.g. to read reconstructed
    /// blocks back).
    pub fn cluster(&self) -> &Cluster {
        &self.shared.cluster
    }

    /// The transport the manager executes over (e.g. for byte accounting).
    pub fn transport(&self) -> &T {
        &self.shared.transport
    }

    /// Runs one synchronous scrub cycle: walks every live node's blocks
    /// (paced at [`ScrubConfig::rate`]), verifies them, enqueues each
    /// corrupt block as a [`RepairPriority::Corruption`] repair back onto
    /// the node serving the rot, waits for those repairs to drain and
    /// re-verifies. The cycle is also folded into the shutdown report's
    /// [`scrub_cycles`](ManagerReport::scrub_cycles).
    pub fn scrub(&self, config: &ScrubConfig) -> ScrubCycle {
        scrub::scrub_once(&self.shared.engine, &self.shared.cluster, config, None)
    }

    /// Starts a background scrubber thread running [`scrub`](Self::scrub)
    /// cycles every [`ScrubConfig::interval`]. Stop it (or drop the handle)
    /// before [`shutdown`](Self::shutdown); cycles that race a shutdown are
    /// harmless — their repairs are refused by the closing queue and show up
    /// as `still_corrupt` in the final cycle.
    pub fn start_scrubber(&self, config: ScrubConfig) -> Scrubber {
        let shared = self.shared.clone();
        let interval = config.interval;
        Scrubber::spawn("scrubber", interval, move |stop| {
            scrub::scrub_once(&shared.engine, &shared.cluster, &config, Some(stop));
        })
    }

    /// Simulated `kill -9`: stops the workers like
    /// [`shutdown`](Self::shutdown), but skips the graceful bookkeeping in
    /// the durable metadata journal — still-queued repairs are skipped
    /// (their pending records survive) and repairs finishing after the
    /// crash are not resolved. Reopening the same metadata directory then
    /// exercises the real crash-recovery path: pending directives are
    /// re-enqueued, and one whose block is already intact where the router
    /// places it is resolved instead of healed twice. A crashed process
    /// files no report. Dropping the manager does the same.
    pub fn crash_stop(self) {
        drop(self);
    }

    /// Graceful shutdown: stops accepting work, drains the queue, joins the
    /// workers and returns the run's report.
    pub fn shutdown(mut self) -> ManagerReport {
        self.shared.engine.queue.close();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        self.shared.engine.metrics.report(
            self.started.elapsed(),
            metrics::link_bytes_since(&self.baseline, self.shared.transport.stats().snapshot()),
        )
    }
}

impl<T: Transport + Send + Sync + 'static> Drop for RepairManager<T> {
    /// Stops the workers as a crash would: without this, a manager dropped
    /// without [`shutdown`](Self::shutdown) would leave them blocked on the
    /// queue, holding the cluster, its blocks and the transport's sockets.
    fn drop(&mut self) {
        self.shared.engine.crash();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use ecc::slice::SliceLayout;
    use ecc::stripe::StripeId;
    use ecc::ReedSolomon;

    fn setup(stripes: u64, nodes: usize) -> (Cluster, Coordinator, Vec<Vec<Vec<u8>>>) {
        setup_on(stripes, crate::StoreBackend::memory(nodes))
    }

    fn setup_on(
        stripes: u64,
        backend: crate::StoreBackend,
    ) -> (Cluster, Coordinator, Vec<Vec<Vec<u8>>>) {
        let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let coordinator = Coordinator::new(code, SliceLayout::new(2048, 256));
        let cluster = Cluster::new(backend).unwrap();
        let mut all = Vec::new();
        for s in 0..stripes {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|i| {
                    (0..2048)
                        .map(|b| ((b as u64 * 31 + i as u64 * 7 + s * 13) % 251) as u8)
                        .collect()
                })
                .collect();
            cluster.write_stripe(coordinator.code(), s, &data).unwrap();
            all.push(data);
        }
        (cluster, coordinator, all)
    }

    /// Full-node recovery under the one-worker baseline and the concurrent
    /// pool: same blocks, same accounting, different overlap.
    #[test]
    fn batch_recovers_a_node_sequentially_and_concurrently() {
        let concurrent = ManagerConfig::default()
            .with_workers(4)
            .with_inflight_cap(3);
        let sequential = ManagerConfig::default().with_workers(1);
        for (config, max_inflight) in [(sequential, 1), (concurrent, 3)] {
            let (cluster, coordinator, _) = setup(12, 10);
            let lost = cluster.kill_node(3);
            assert!(!lost.is_empty());
            let manager =
                RepairManager::start(coordinator, cluster, ChannelTransport::new(), config);
            assert_eq!(manager.report_node_failure(3), lost.len());
            manager.wait_idle();
            for &block in &lost {
                let placement = manager.cluster().placement(block.stripe).unwrap();
                let node = placement[block.index];
                let found = node != 3 && manager.cluster().store(node).contains(block);
                assert!(found, "block {block} missing on node {node}");
                assert_eq!(placement.iter().filter(|&&n| n == node).count(), 1);
            }
            let report = manager.shutdown();
            assert_eq!(report.blocks_repaired, lost.len());
            assert_eq!(report.bytes_repaired, lost.len() * 2048);
            assert!(report.max_inflight() <= max_inflight);
            // Each stripe has four spares here; the rule rotates them by
            // stripe id, so the 8 lost blocks spread over 5 nodes, at most
            // 2 on any one.
            assert_eq!(report.per_requestor.values().sum::<usize>(), lost.len());
            assert_eq!(report.per_requestor.len(), 5, "{:?}", report.per_requestor);
            assert!(report.per_requestor.values().all(|&count| count <= 2));
            assert!(report.network_bytes > 0);
            // Elapsed-time accounting: a wall time, one duration per stripe.
            assert_eq!(report.outcomes.len(), lost.len());
            assert!(report
                .outcomes
                .iter()
                .all(|o| o.duration <= report.wall_time));
        }
    }

    /// A degraded read re-plans around a straggler helper that lost its
    /// block (§3.2 straggler handling) and is reported failed once fewer than
    /// `k` blocks survive.
    #[test]
    fn degraded_read_replans_around_a_straggler() {
        // Erases `erased` of stripe 0 and reads block 0 onto node 9 through
        // a fresh daemon: the rebuilt copy and the daemon's report.
        let read_block_0 = |erased: &[usize]| {
            let (cluster, coordinator, data) = setup(1, 10);
            for &index in erased {
                cluster.erase_block(StripeId(0), index);
            }
            let manager = RepairManager::start(
                coordinator,
                cluster,
                ChannelTransport::new(),
                ManagerConfig::default(),
            );
            assert!(manager.degraded_read(StripeId(0), 0, 9).unwrap());
            manager.wait_idle();
            let block = ecc::stripe::BlockId::new(0, 0);
            let repaired = manager.cluster().store(9).get(block).ok();
            (repaired, manager.shutdown(), data)
        };
        // Erase the block being read and one of the helpers the plan uses.
        let (repaired, report, data) = read_block_0(&[0, 1]);
        assert_eq!(report.replans_because(ReplanReason::HelperLost), 1);
        assert_eq!(repaired.unwrap(), bytes::Bytes::from(data[0][0].clone()));
        // Three of six blocks gone: no plan has k = 4 helpers left.
        let (_, report, _) = read_block_0(&[0, 1, 2]);
        assert_eq!(report.failed_repairs, 1);
        let failure = &report.failures[0];
        assert_eq!((failure.stripe, failure.failed), (StripeId(0), 0));
    }

    /// Duplicates are dropped, and a repair that cannot succeed is reported
    /// without stopping the rest of the work.
    #[test]
    fn batch_drops_duplicate_requests() {
        let (cluster, coordinator, data) = setup(2, 10);
        cluster.erase_block(StripeId(0), 0);
        // Three of stripe 1's six blocks gone: no plan has k = 4 helpers.
        for index in 0..3 {
            cluster.erase_block(StripeId(1), index);
        }
        let request = RepairRequest {
            stripe: StripeId(0),
            failed: 0,
            requestor: 9,
            priority: RepairPriority::DegradedRead,
        };
        let unrecoverable = RepairRequest {
            stripe: StripeId(1),
            ..request.clone()
        };
        // One slow worker: the repair of stripe 0 is still queued or in
        // flight when its duplicate arrives.
        let manager = RepairManager::start(
            coordinator,
            cluster,
            ChannelTransport::with_rate_limit(128 * 1024),
            ManagerConfig::default().with_workers(1),
        );
        assert!(manager.enqueue(unrecoverable).unwrap());
        assert!(manager.enqueue(request.clone()).unwrap());
        assert!(!manager.enqueue(request).unwrap());
        manager.wait_idle();
        assert_eq!(
            manager
                .cluster()
                .store(9)
                .get(ecc::stripe::BlockId::new(0, 0))
                .unwrap(),
            bytes::Bytes::from(data[0][0].clone())
        );
        let report = manager.shutdown();
        assert_eq!(report.blocks_repaired, 1);
        assert_eq!(report.failed_repairs, 1);
        assert_eq!(report.failures[0].stripe, StripeId(1));
    }

    /// A reported node failure under the default configuration queues one
    /// repair per lost block, and each lands on a live node holding none of
    /// its stripe: never on the failed node or another dead one.
    #[test]
    fn recover_node_validates_requestors() {
        // Four stripes on nodes 0..9; nodes 10..13 hold nothing.
        let (cluster, coordinator, data) = setup_on(4, crate::StoreBackend::memory(14));
        let lost = cluster.kill_node(2);
        let config = ManagerConfig::default();
        let manager = RepairManager::start(coordinator, cluster, ChannelTransport::new(), config);
        assert_eq!(manager.report_node_failure(12), 0);
        // Stripes 0, 1 and 2 hold a block on node 2.
        assert_eq!(manager.report_node_failure(2), lost.len());
        assert_eq!(lost.len(), 3);
        manager.wait_idle();
        for &block in &lost {
            let placement = manager.cluster().placement(block.stripe).unwrap();
            let node = placement[block.index];
            assert!(node != 2 && node != 12, "block {block} on dead node {node}");
            assert_eq!(placement.iter().filter(|&&n| n == node).count(), 1);
            // Node 2 held data blocks only: 2, 1 and 0 of stripes 0, 1, 2.
            let expected = bytes::Bytes::from(data[block.stripe.0 as usize][block.index].clone());
            assert_eq!(manager.cluster().store(node).get(block).unwrap(), expected);
        }
        let report = manager.shutdown();
        assert_eq!((report.blocks_repaired, report.failed_repairs), (3, 0));
    }

    #[test]
    fn degraded_read_promotes_queued_background_work() {
        let (cluster, coordinator, data) = setup(3, 10);
        for s in 0..3u64 {
            cluster.erase_block(StripeId(s), 0);
        }
        // One slow worker, so the queue stays observable: links are
        // throttled hard enough that each repair takes tens of ms.
        let manager = RepairManager::start(
            coordinator,
            cluster,
            ChannelTransport::with_rate_limit(128 * 1024),
            ManagerConfig::default().with_workers(1),
        );
        for s in 0..3u64 {
            assert!(manager
                .enqueue(RepairRequest {
                    stripe: StripeId(s),
                    failed: 0,
                    requestor: 9,
                    priority: RepairPriority::Background,
                })
                .unwrap());
        }
        // Wait until the worker picked up the first repair; stripes 1 and 2
        // are still queued as background work.
        while manager.queued() > 2 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // A client now blocks on stripe 2's block: the duplicate enqueue is
        // dropped but the queued request must be promoted past stripe 1.
        assert!(!manager.degraded_read(StripeId(2), 0, 9).unwrap());
        manager.wait_for_block(StripeId(2), 0);
        let store = manager.cluster().store(9);
        assert!(store.contains(ecc::stripe::BlockId::new(2, 0)));
        assert!(
            !store.contains(ecc::stripe::BlockId::new(1, 0)),
            "stripe 2 must jump the background queue ahead of stripe 1"
        );
        manager.wait_idle();
        assert_eq!(
            manager
                .cluster()
                .store(9)
                .get(ecc::stripe::BlockId::new(2, 0))
                .unwrap(),
            bytes::Bytes::from(data[2][0].clone())
        );
        let report = manager.shutdown();
        // The promoted repair is accounted to the degraded class.
        assert_eq!(report.degraded_wait.count, 1);
        assert_eq!(report.background_wait.count, 2);
    }

    #[test]
    fn daemon_serves_degraded_reads() {
        let (cluster, coordinator, data) = setup(4, 10);
        cluster.erase_block(StripeId(2), 1);
        let manager = RepairManager::start(
            coordinator,
            cluster,
            ChannelTransport::new(),
            ManagerConfig::default().with_workers(2),
        );
        assert!(manager.degraded_read(StripeId(2), 1, 9).unwrap());
        manager.wait_idle();
        assert_eq!(
            manager
                .cluster()
                .store(9)
                .get(ecc::stripe::BlockId::new(2, 1))
                .unwrap(),
            bytes::Bytes::from(data[2][1].clone())
        );
        let report = manager.shutdown();
        assert_eq!(report.blocks_repaired, 1);
        assert_eq!(report.degraded_wait.count, 1);
        assert_eq!(report.failed_repairs, 0);
    }

    /// A store whose helper reads panic, standing in for a bug anywhere
    /// under a repair.
    struct PanickingReads(crate::MemoryStore);

    impl crate::BlockStore for PanickingReads {
        fn get(&self, block: ecc::stripe::BlockId) -> Result<bytes::Bytes> {
            self.0.get(block)
        }
        fn reader(&self, _block: ecc::stripe::BlockId) -> Result<Box<dyn crate::BlockReader + '_>> {
            panic!("helper read of a broken store")
        }
        fn put(&self, block: ecc::stripe::BlockId, data: bytes::Bytes) -> Result<()> {
            self.0.put(block, data)
        }
        fn delete(&self, block: ecc::stripe::BlockId) -> Result<bool> {
            self.0.delete(block)
        }
        fn contains(&self, block: ecc::stripe::BlockId) -> bool {
            self.0.contains(block)
        }
        fn list(&self) -> Vec<ecc::stripe::BlockId> {
            self.0.list()
        }
    }

    /// A repair that panics fails like any other: the read waiting on it
    /// returns, the report lists it, and the one worker goes on to serve
    /// the next repair.
    #[test]
    fn a_panicking_repair_fails_without_stranding_its_waiters() {
        let mut stores: Vec<Arc<dyn crate::BlockStore>> = (0..10)
            .map(|_| Arc::new(crate::MemoryStore::new()) as Arc<dyn crate::BlockStore>)
            .collect();
        stores[1] = Arc::new(PanickingReads(crate::MemoryStore::new()));
        // Stripe s lies on nodes s..s + 6: block 0 of stripe 0 is rebuilt
        // from node 1 and up, block 0 of stripe 2 from nodes 3..8 only.
        let (cluster, coordinator, data) = setup_on(3, crate::StoreBackend::custom(stores));
        cluster.erase_block(StripeId(0), 0);
        cluster.erase_block(StripeId(2), 0);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let manager = RepairManager::start(
                coordinator,
                cluster,
                ChannelTransport::new(),
                ManagerConfig::default().with_workers(1),
            );
            let read = |stripe: u64| {
                manager.degraded_read(StripeId(stripe), 0, 9).unwrap();
                manager.wait_for_block(StripeId(stripe), 0);
                let block = ecc::stripe::BlockId::new(stripe, 0);
                manager.cluster().store(9).get(block).ok()
            };
            let (broken, healthy) = (read(0), read(2));
            let _ = done.send((broken, healthy, manager.shutdown()));
        });
        let (broken, healthy, report) = finished
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a read waiting on a panicking repair must return");
        assert_eq!(broken, None);
        assert_eq!(healthy, Some(bytes::Bytes::from(data[2][0].clone())));
        assert_eq!((report.failed_repairs, report.blocks_repaired), (1, 1));
        let failure = &report.failures[0];
        assert_eq!((failure.stripe, failure.failed), (StripeId(0), 0));
        assert!(
            failure
                .error
                .contains("panicked: helper read of a broken store"),
            "{}",
            failure.error
        );
    }

    /// A scrub during a node recovery waits for its own repairs, not for the
    /// whole queue: it returns with background work still queued.
    #[test]
    fn scrub_waits_for_its_own_repairs_only() {
        let (cluster, coordinator, data) =
            setup_on(10, crate::StoreBackend::memory_checksummed(10));
        for s in 0..8u64 {
            cluster.erase_block(StripeId(s), 0);
        }
        // One worker on throttled links: each repair takes tens of ms.
        let manager = RepairManager::start(
            coordinator,
            cluster,
            ChannelTransport::with_rate_limit(128 * 1024),
            ManagerConfig::default().with_workers(1),
        );
        for s in 0..8u64 {
            assert!(manager
                .enqueue(RepairRequest {
                    stripe: StripeId(s),
                    failed: 0,
                    requestor: 9,
                    priority: RepairPriority::Background,
                })
                .unwrap());
        }
        manager
            .cluster()
            .corrupt_block(StripeId(9), 2, 100)
            .unwrap();
        let cycle = manager.scrub(&ScrubConfig::default());
        assert_eq!(cycle.corrupt, vec![ecc::stripe::BlockId::new(9, 2)]);
        assert_eq!(cycle.reverified_clean, 1);
        assert!(
            manager.queued() > 0,
            "the scrub waited for the whole background queue"
        );
        assert_eq!(
            manager.cluster().read_block(StripeId(9), 2).unwrap(),
            bytes::Bytes::from(data[9][2].clone())
        );
        manager.wait_idle();
        let report = manager.shutdown();
        assert_eq!(report.blocks_repaired, 9);
        assert_eq!(report.failed_repairs, 0);
    }
}
