//! Structured reporting for the repair manager.
//!
//! Workers feed a shared [`MetricsCollector`]; [`ManagerReport`] is the
//! snapshot handed back to callers: per-node load histogram (the §3.3
//! balance the greedy scheduler is supposed to produce), per-node peak
//! in-flight roles (proof the admission gate held), queue latencies per
//! priority class, per-repair outcomes in completion order, elapsed wall
//! time and network bytes.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use ecc::stripe::{BlockId, StripeId};
use ecpipe_sync::Mutex;
use simnet::{NodeId, Topology};

use crate::lock_order;
use crate::transport::LinkSnapshot;

use super::queue::RepairPriority;

/// Aggregate waiting-time statistics for one priority class.
#[derive(Debug, Clone, Default)]
pub struct WaitStats {
    /// Number of repairs in the class.
    pub count: usize,
    /// Sum of all queue waits.
    pub total: Duration,
    /// Longest single queue wait.
    pub max: Duration,
}

impl WaitStats {
    fn record(&mut self, wait: Duration) {
        self.count += 1;
        self.total += wait;
        self.max = self.max.max(wait);
    }

    /// Mean queue wait (zero when the class is empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// The outcome of one repair the manager executed.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired stripe.
    pub stripe: StripeId,
    /// Index of the reconstructed block.
    pub failed: usize,
    /// Node the block was reconstructed onto.
    pub requestor: NodeId,
    /// Priority class the repair ran under.
    pub priority: RepairPriority,
    /// Time spent queued before a worker picked the repair up.
    pub queue_wait: Duration,
    /// Time from pickup to the block being stored (including re-plans).
    pub duration: Duration,
    /// How many times the repair was re-planned around a dead helper.
    pub replans: usize,
    /// Global pickup order (1-based): the i-th repair any worker started.
    pub started_seq: usize,
    /// Global completion order (1-based).
    pub finished_seq: usize,
    /// The helper nodes the repair finally streamed over, in pipeline order
    /// (the requestor, listed separately, terminates the path).
    pub path: Vec<NodeId>,
    /// The planner's bottleneck-weight estimate for the chosen path
    /// (seconds per byte, lower is better). `Some` only under
    /// [`PathPolicy::Weighted`](super::PathPolicy::Weighted).
    pub bottleneck: Option<f64>,
}

/// Why one repair attempt was abandoned and the repair re-planned (or, for
/// [`ReplanReason::PlanningFallback`], why a topology-aware plan degraded
/// to flat selection).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanReason {
    /// A helper's block was missing when the walk opened it; the node
    /// earned a liveness strike and the repair was re-planned around it.
    HelperLost,
    /// A helper served a block that failed checksum verification; the block
    /// was excluded (no strike — the node itself is healthy) and an
    /// in-place corruption repair was queued.
    CorruptHelper,
    /// A hop of the walk failed, for any
    /// [`LinkFailure`](crate::LinkFailure); the repair re-planned, avoiding
    /// the hop's helper endpoint where it could (no strike).
    LinkFailed,
    /// Topology-aware selection had too few candidates (or no feasible
    /// path) and fell back to flat LRU selection for this attempt. Not a
    /// re-execution: the attempt still ran, just without the topology.
    PlanningFallback,
}

impl fmt::Display for ReplanReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            ReplanReason::HelperLost => "helper lost",
            ReplanReason::CorruptHelper => "corrupt helper",
            ReplanReason::LinkFailed => "link failed",
            ReplanReason::PlanningFallback => "planning fallback",
        };
        f.write_str(label)
    }
}

/// One re-plan (or planning-fallback) event, in occurrence order, so a
/// report shows not just *how many* times repairs re-planned but *why*.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// The stripe whose repair re-planned.
    pub stripe: StripeId,
    /// Index of the block being reconstructed.
    pub failed: usize,
    /// What triggered the re-plan.
    pub reason: ReplanReason,
    /// The node held responsible — the sick helper, or the endpoint blamed
    /// for a failed hop — when one is identifiable.
    pub node: Option<NodeId>,
}

/// A repair the manager gave up on, so an operator can tell from the
/// report which blocks are still missing.
#[derive(Debug, Clone)]
pub struct FailedRepair {
    /// The stripe whose block is still unreconstructed.
    pub stripe: StripeId,
    /// Index of the block that could not be rebuilt.
    pub failed: usize,
    /// The requestor the repair was addressed to.
    pub requestor: NodeId,
    /// Priority class the repair ran under.
    pub priority: RepairPriority,
    /// Rendering of the error that ended the repair.
    pub error: String,
    /// Re-plans attempted before giving up.
    pub replans: usize,
}

/// What one scrub cycle over the cluster's stores found and fixed.
#[derive(Debug, Clone, Default)]
pub struct ScrubCycle {
    /// Blocks whose checksums were verified this cycle.
    pub blocks_scanned: usize,
    /// Bytes read and verified this cycle (what the pacing rate meters).
    pub bytes_scanned: u64,
    /// Blocks that failed verification, in scan order.
    pub corrupt: Vec<BlockId>,
    /// Corruption-class repairs this cycle enqueued (corrupt blocks already
    /// queued or in flight are not double-counted).
    pub repairs_enqueued: usize,
    /// Corrupt blocks that verified clean when re-checked after their
    /// repair.
    pub reverified_clean: usize,
    /// Corrupt blocks that still failed verification after the cycle's
    /// repairs drained — data the operator must treat as at risk.
    pub still_corrupt: Vec<BlockId>,
    /// Wall time of the cycle, including the wait for enqueued repairs.
    pub duration: Duration,
}

/// A structured report of everything a manager run did.
#[derive(Debug, Clone, Default)]
pub struct ManagerReport {
    /// Number of blocks reconstructed.
    pub blocks_repaired: usize,
    /// Total bytes reconstructed.
    pub bytes_repaired: usize,
    /// Blocks reconstructed per requestor node.
    pub per_requestor: HashMap<NodeId, usize>,
    /// Bytes moved over the transport by this run: always the sum of
    /// [`link_bytes`](Self::link_bytes).
    pub network_bytes: u64,
    /// Bytes moved per directed link by this run, so topology experiments
    /// can tell cross-rack traffic from in-rack traffic.
    pub link_bytes: HashMap<(NodeId, NodeId), u64>,
    /// Elapsed wall time of the run: the daemon's start to its shutdown.
    pub wall_time: Duration,
    /// Per-node load histogram: how many repairs each node served a role in
    /// (helper or requestor).
    pub node_load: HashMap<NodeId, usize>,
    /// Per-node peak of simultaneously held repair roles; never exceeds the
    /// configured in-flight cap.
    pub peak_inflight: HashMap<NodeId, usize>,
    /// Queue-wait statistics for degraded reads.
    pub degraded_wait: WaitStats,
    /// Queue-wait statistics for corruption repairs (scrub finds and failed
    /// helper reads).
    pub corruption_wait: WaitStats,
    /// Queue-wait statistics for background repairs.
    pub background_wait: WaitStats,
    /// Total re-plans across all repairs (helpers lost, corrupt helper
    /// blocks, failed hops).
    pub replans: usize,
    /// Every re-plan and planning-fallback event, in occurrence order.
    pub replan_events: Vec<ReplanEvent>,
    /// Repairs that failed even after re-planning.
    pub failed_repairs: usize,
    /// Per-repair outcomes, in completion order.
    pub outcomes: Vec<RepairOutcome>,
    /// The repairs behind `failed_repairs`, with the block identity and the
    /// final error.
    pub failures: Vec<FailedRepair>,
    /// One entry per completed scrub cycle, in completion order.
    pub scrub_cycles: Vec<ScrubCycle>,
}

impl ManagerReport {
    /// The highest number of repair roles any single node held at once.
    pub fn max_inflight(&self) -> usize {
        self.peak_inflight.values().copied().max().unwrap_or(0)
    }

    /// Blocks verified across all scrub cycles.
    pub fn blocks_scrubbed(&self) -> usize {
        self.scrub_cycles.iter().map(|c| c.blocks_scanned).sum()
    }

    /// Corrupt blocks detected across all scrub cycles.
    pub fn corruption_detected(&self) -> usize {
        self.scrub_cycles.iter().map(|c| c.corrupt.len()).sum()
    }

    /// Bytes this run moved across rack boundaries under `topology` — the
    /// cost the paper's rack-aware path selection (§4.2) minimizes.
    pub fn cross_rack_bytes(&self, topology: &Topology) -> u64 {
        self.link_bytes
            .iter()
            .filter(|((src, dst), _)| topology.is_cross_rack(*src, *dst))
            .map(|(_, bytes)| bytes)
            .sum()
    }

    /// The re-plan events matching one reason.
    pub fn replans_because(&self, reason: ReplanReason) -> usize {
        self.replan_events
            .iter()
            .filter(|e| e.reason == reason)
            .count()
    }
}

/// Per-directed-link bytes moved since `baseline`, from two
/// [`StatsRegistry`](crate::transport::StatsRegistry) snapshots. Links that
/// moved nothing are omitted.
pub(crate) fn link_bytes_since(
    baseline: &HashMap<(NodeId, NodeId), LinkSnapshot>,
    now: HashMap<(NodeId, NodeId), LinkSnapshot>,
) -> HashMap<(NodeId, NodeId), u64> {
    now.into_iter()
        .filter_map(|(pair, snap)| {
            let before = baseline.get(&pair).map(|s| s.bytes).unwrap_or(0);
            let delta = snap.bytes.saturating_sub(before);
            (delta > 0).then_some((pair, delta))
        })
        .collect()
}

/// Shared, thread-safe accumulator behind a [`ManagerReport`].
pub(crate) struct MetricsCollector {
    /// Lock class: `manager.metrics` ([`lock_order::MANAGER_METRICS`]).
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    report: ManagerReport,
    started: usize,
    finished: usize,
}

impl MetricsCollector {
    pub(crate) fn new() -> Self {
        MetricsCollector {
            inner: Mutex::new(&lock_order::MANAGER_METRICS, Inner::default()),
        }
    }

    /// Assigns the next global pickup sequence number.
    pub(crate) fn begin_repair(&self) -> usize {
        let mut inner = self.inner.lock();
        inner.started += 1;
        inner.started
    }

    /// Updates a node's peak-in-flight high-water mark (called by the
    /// admission gate with the node's new in-flight count).
    pub(crate) fn record_inflight(&self, node: NodeId, current: usize) {
        let mut inner = self.inner.lock();
        let peak = inner.report.peak_inflight.entry(node).or_insert(0);
        *peak = (*peak).max(current);
    }

    /// Records a successful repair that reconstructed `bytes` with `roles`
    /// (helpers + requestor) held, stamping its completion order.
    pub(crate) fn record_success(
        &self,
        mut outcome: RepairOutcome,
        bytes: usize,
        roles: &[NodeId],
    ) {
        let mut inner = self.inner.lock();
        inner.finished += 1;
        outcome.finished_seq = inner.finished;
        let report = &mut inner.report;
        report.blocks_repaired += 1;
        report.bytes_repaired += bytes;
        *report.per_requestor.entry(outcome.requestor).or_default() += 1;
        for &node in roles {
            *report.node_load.entry(node).or_default() += 1;
        }
        match outcome.priority {
            RepairPriority::DegradedRead => report.degraded_wait.record(outcome.queue_wait),
            RepairPriority::Corruption => report.corruption_wait.record(outcome.queue_wait),
            RepairPriority::Background => report.background_wait.record(outcome.queue_wait),
        }
        report.replans += outcome.replans;
        report.outcomes.push(outcome);
    }

    /// Appends one re-plan event in occurrence order.
    pub(crate) fn record_replan(&self, event: ReplanEvent) {
        self.inner.lock().report.replan_events.push(event);
    }

    /// Records a repair the manager gave up on, keeping the block identity
    /// so the report says what is still missing.
    pub(crate) fn record_failure(&self, failure: FailedRepair) {
        let mut inner = self.inner.lock();
        inner.finished += 1;
        inner.report.failed_repairs += 1;
        inner.report.replans += failure.replans;
        inner.report.failures.push(failure);
    }

    /// Folds a finished scrub cycle into the report.
    pub(crate) fn record_scrub_cycle(&self, cycle: ScrubCycle) {
        self.inner.lock().report.scrub_cycles.push(cycle);
    }

    /// Snapshots the report, stamping wall time and the per-link byte map
    /// (the total `network_bytes` is derived as its sum).
    pub(crate) fn report(
        &self,
        wall_time: Duration,
        link_bytes: HashMap<(NodeId, NodeId), u64>,
    ) -> ManagerReport {
        let inner = self.inner.lock();
        let mut report = inner.report.clone();
        report.wall_time = wall_time;
        report.network_bytes = link_bytes.values().sum();
        report.link_bytes = link_bytes;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_orders() {
        let m = MetricsCollector::new();
        let s1 = m.begin_repair();
        let s2 = m.begin_repair();
        assert_eq!((s1, s2), (1, 2));
        m.record_inflight(4, 1);
        m.record_inflight(4, 3);
        m.record_inflight(4, 2);
        m.record_replan(ReplanEvent {
            stripe: StripeId(0),
            failed: 1,
            reason: ReplanReason::HelperLost,
            node: Some(3),
        });
        m.record_success(
            RepairOutcome {
                stripe: StripeId(0),
                failed: 1,
                requestor: 9,
                priority: RepairPriority::Background,
                queue_wait: Duration::from_millis(5),
                duration: Duration::from_millis(20),
                replans: 1,
                started_seq: s1,
                finished_seq: 0,
                path: vec![4, 5],
                bottleneck: None,
            },
            1024,
            &[4, 5, 9],
        );
        m.record_success(
            RepairOutcome {
                stripe: StripeId(1),
                failed: 0,
                requestor: 8,
                priority: RepairPriority::DegradedRead,
                queue_wait: Duration::from_millis(1),
                duration: Duration::from_millis(10),
                replans: 0,
                started_seq: s2,
                finished_seq: 0,
                path: vec![4, 6],
                bottleneck: Some(1.0 / 4096.0),
            },
            1024,
            &[4, 6, 8],
        );
        m.record_failure(FailedRepair {
            stripe: StripeId(2),
            failed: 3,
            requestor: 7,
            priority: RepairPriority::Background,
            error: "too many failures".to_string(),
            replans: 2,
        });
        m.record_scrub_cycle(ScrubCycle {
            blocks_scanned: 60,
            bytes_scanned: 60 * 1024,
            corrupt: vec![BlockId::new(4, 2)],
            repairs_enqueued: 1,
            reverified_clean: 1,
            still_corrupt: Vec::new(),
            duration: Duration::from_millis(3),
        });
        let report = m.report(
            Duration::from_millis(40),
            HashMap::from([((4, 5), 1024u64), ((5, 9), 3072u64)]),
        );
        assert_eq!(report.blocks_repaired, 2);
        assert_eq!(report.scrub_cycles.len(), 1);
        assert_eq!(report.blocks_scrubbed(), 60);
        assert_eq!(report.corruption_detected(), 1);
        assert_eq!(report.corruption_wait.count, 0);
        assert_eq!(report.bytes_repaired, 2048);
        assert_eq!(report.replans, 3);
        assert_eq!(report.failed_repairs, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].stripe, StripeId(2));
        assert_eq!(report.failures[0].failed, 3);
        assert!(report.failures[0].error.contains("failures"));
        assert_eq!(report.node_load[&4], 2);
        assert_eq!(report.peak_inflight[&4], 3);
        assert_eq!(report.max_inflight(), 3);
        assert_eq!(report.degraded_wait.count, 1);
        assert_eq!(report.background_wait.count, 1);
        assert_eq!(report.background_wait.mean(), Duration::from_millis(5));
        assert_eq!(report.outcomes[0].finished_seq, 1);
        assert_eq!(report.outcomes[1].finished_seq, 2);
        assert_eq!(report.outcomes[0].path, vec![4, 5]);
        assert_eq!(report.outcomes[1].bottleneck, Some(1.0 / 4096.0));
        // network_bytes is derived from the per-link split.
        assert_eq!(report.network_bytes, 4096);
        assert_eq!(report.link_bytes[&(4, 5)], 1024);
        assert_eq!(report.link_bytes[&(5, 9)], 3072);
        assert_eq!(report.replan_events.len(), 1);
        assert_eq!(report.replans_because(ReplanReason::HelperLost), 1);
        assert_eq!(report.replans_because(ReplanReason::LinkFailed), 0);
        assert!(report.wall_time > Duration::ZERO);
    }

    #[test]
    fn cross_rack_bytes_follow_the_topology() {
        let report = ManagerReport {
            link_bytes: HashMap::from([((0, 1), 100u64), ((0, 4), 40u64), ((5, 1), 7u64)]),
            ..ManagerReport::default()
        };
        let topology = Topology::rack_based(&[4, 4], 100.0, 10.0);
        assert_eq!(report.cross_rack_bytes(&topology), 47);
    }

    #[test]
    fn link_deltas_subtract_the_baseline() {
        let snap = |bytes| LinkSnapshot {
            bytes,
            messages: 1,
            busy_nanos: 1,
        };
        let baseline = HashMap::from([((0, 1), snap(100))]);
        let now = HashMap::from([((0, 1), snap(150)), ((2, 3), snap(30)), ((4, 5), snap(0))]);
        let deltas = link_bytes_since(&baseline, now);
        assert_eq!(deltas, HashMap::from([((0, 1), 50u64), ((2, 3), 30u64)]));
    }

    #[test]
    fn wait_stats_mean_handles_empty() {
        assert_eq!(WaitStats::default().mean(), Duration::ZERO);
    }
}
