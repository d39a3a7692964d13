//! The worker pool: admission gate, shared engine state and the per-worker
//! repair loop.
//!
//! Every worker runs [`worker_loop`]: pop the most urgent request, have the
//! coordinator's one planner ([`Coordinator::plan_repair`]) choose its
//! helpers under the configured [`PathPolicy`](super::PathPolicy), the live
//! link telemetry and the liveness view, pass the chosen nodes through the
//! admission gate (per-node in-flight caps — the runtime enforcement of the
//! paper's "no overloaded helper" scheduling), execute, and store the
//! reconstructed block. A helper whose block is gone when the walk opens it
//! earns a liveness strike and the repair is re-planned with the survivors
//! (§3.2 straggler handling). A hop that fails mid-walk
//! ([`EcPipeError::LinkFailed`]: a sever, a vanished peer, a malformed
//! frame, a socket error, or a hop the link watch measured below its
//! nominal bandwidth) is re-planned around where a plan without its helper
//! exists, with no strike. A repair that panics is recorded as failed, and
//! its worker goes on serving.

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use ecc::stripe::BlockId;
use ecpipe_meta::{MetaRouter, RelocateOutcome, RepairRecord, StripeRecord};
use ecpipe_sync::{Condvar, Mutex, OnceFlag};
use simnet::NodeId;

use crate::cluster::Cluster;
use crate::coordinator::rebuild_targets;
use crate::error::panic_message;
use crate::exec::{self, Watch};
use crate::lock_order;
use crate::telemetry::LinkTelemetry;
use crate::transport::Transport;
use crate::{Coordinator, EcPipeError, Result};

use super::liveness::Liveness;
use super::metrics::{FailedRepair, MetricsCollector, RepairOutcome, ReplanEvent, ReplanReason};
use super::queue::{QueuedRepair, RepairQueue, RepairRequest};
use super::ManagerConfig;

/// Per-node in-flight caps: a repair may only start once every node it
/// involves (helpers and requestor) is below the cap, and it holds one slot
/// on each for its whole execution. All-or-nothing acquisition under a
/// single lock, so partial reservations (and therefore deadlocks) cannot
/// occur.
pub(crate) struct AdmissionGate {
    /// Lock class: `manager.gate` ([`lock_order::MANAGER_GATE`]). Held
    /// while recording in-flight metrics, so it ranks below
    /// `manager.metrics`.
    counts: Mutex<HashMap<NodeId, usize>>,
    freed: Condvar,
    cap: usize,
}

impl AdmissionGate {
    pub(crate) fn new(cap: usize) -> Self {
        AdmissionGate {
            counts: Mutex::new(&lock_order::MANAGER_GATE, HashMap::new()),
            freed: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks until every node in `nodes` is below the cap, then reserves
    /// one slot on each distinct node (duplicates in `nodes` are collapsed,
    /// so a node never holds more than one slot per repair and the cap
    /// invariant survives odd directives). The reservation is released when
    /// the guard drops.
    ///
    /// Admission is priority-agnostic: priorities order the *queue*, but a
    /// degraded read already blocked here competes with later arrivals for
    /// a freed slot on equal terms.
    fn acquire<'a>(&'a self, nodes: &[NodeId], metrics: &MetricsCollector) -> RoleGuard<'a> {
        let mut distinct = nodes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let counts = self.counts.lock();
        let mut counts = self.freed.wait_while(counts, |c| {
            !distinct
                .iter()
                .all(|n| c.get(n).copied().unwrap_or(0) < self.cap)
        });
        for &n in &distinct {
            let slot = counts.entry(n).or_insert(0);
            *slot += 1;
            metrics.record_inflight(n, *slot);
        }
        RoleGuard {
            gate: self,
            nodes: distinct,
        }
    }
}

struct RoleGuard<'a> {
    gate: &'a AdmissionGate,
    nodes: Vec<NodeId>,
}

impl Drop for RoleGuard<'_> {
    fn drop(&mut self) {
        let mut counts = self.gate.counts.lock();
        for n in &self.nodes {
            if let Some(slot) = counts.get_mut(n) {
                *slot = slot.saturating_sub(1);
            }
        }
        drop(counts);
        self.gate.freed.notify_all();
    }
}

/// Everything the workers share: queue, gate, liveness, metrics and the
/// record of scheduled work.
pub(crate) struct EngineState {
    pub(crate) queue: RepairQueue,
    pub(crate) gate: AdmissionGate,
    pub(crate) liveness: Liveness,
    pub(crate) metrics: MetricsCollector,
    /// Blocks currently queued or in flight — the engine's one record of
    /// unfinished work. A block is never repaired twice concurrently
    /// (degraded read racing auto-recovery), and the engine is idle exactly
    /// when the set is empty.
    /// Lock class: `engine.scheduled` ([`lock_order::ENGINE_SCHEDULED`]).
    scheduled: Mutex<HashSet<(u64, usize)>>,
    /// Notified whenever a block leaves `scheduled`, so callers can wait for
    /// one specific repair without draining the whole queue.
    scheduled_changed: Condvar,
    /// Notified when `scheduled` becomes empty (`wait_idle`).
    idle: Condvar,
    /// The cluster's node count: the nodes a rebuilt block may land on.
    nodes: usize,
    /// The cluster's metadata router: planning reads placements from it, a
    /// successful repair relocates the block in it, and accepted requests
    /// are journaled in it as pending repairs (resolved on completion), so
    /// a durable deployment re-enqueues whatever a crash interrupted.
    pub(crate) meta: Arc<MetaRouter>,
    /// Live link telemetry, present when the cluster has a topology
    /// attached. Topology-aware planning and the link watch consult it;
    /// without it both degrade to the flat behavior.
    pub(crate) telemetry: Option<LinkTelemetry>,
    /// Simulated power loss: once set, queued work is skipped and finished
    /// work is no longer resolved in the journal — the WAL keeps looking
    /// exactly as it would after `kill -9`.
    crashed: OnceFlag,
}

impl EngineState {
    pub(crate) fn new(config: &ManagerConfig, cluster: &Cluster) -> Self {
        let topology = cluster.topology().cloned();
        EngineState {
            telemetry: topology.map(LinkTelemetry::new),
            queue: RepairQueue::new(),
            gate: AdmissionGate::new(config.per_node_inflight_cap),
            liveness: Liveness::new(config.dead_after_misses),
            metrics: MetricsCollector::new(),
            scheduled: Mutex::new(&lock_order::ENGINE_SCHEDULED, HashSet::new()),
            scheduled_changed: Condvar::new(),
            idle: Condvar::new(),
            nodes: cluster.num_nodes(),
            meta: cluster.meta().clone(),
            crashed: OnceFlag::new(),
        }
    }

    /// Enqueues a request. `Ok(false)` means the block is already queued or
    /// in flight (the request is dropped); an error means the queue is
    /// closed.
    pub(crate) fn submit(&self, request: RepairRequest) -> Result<bool> {
        let key = (request.stripe.0, request.failed);
        if !self.scheduled.lock().insert(key) {
            return Ok(false);
        }
        // Journal before the push (holding no locks): once the request can
        // run, a crash must find its record. Best effort — the router
        // refuses an unknown stripe (hand-driven engines may enqueue before
        // registering), and on a closed queue the record stays pending: the
        // repair never ran, so a durable reopen re-enqueueing it is right.
        let _ = self.meta.record_repair(RepairRecord {
            stripe: request.stripe,
            index: request.failed,
            requestor: request.requestor,
            priority: request.priority.tag(),
        });
        if self.queue.push(request) {
            Ok(true)
        } else {
            self.unschedule(key);
            Err(EcPipeError::ManagerShutdown)
        }
    }

    /// Marks a repair's journal record resolved — it ran to an outcome
    /// (success or terminal failure) and must not be re-enqueued by
    /// recovery. Skipped after a simulated crash.
    fn resolve_journal(&self, key: (u64, usize)) {
        if !self.crashed() {
            let _ = self
                .meta
                .resolve_repair(ecc::stripe::StripeId(key.0), key.1);
        }
    }

    /// Simulates power loss: stops serving (closing the queue) without
    /// resolving journaled repairs, so a durable reopen sees every queued
    /// and in-flight directive still pending.
    pub(crate) fn crash(&self) {
        self.crashed.set();
        self.queue.close();
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed.is_set()
    }

    /// Removes a block from the scheduled set and wakes anyone waiting for
    /// that specific repair to finish — and `wait_idle` once nothing is
    /// left.
    fn unschedule(&self, key: (u64, usize)) {
        let mut scheduled = self.scheduled.lock();
        scheduled.remove(&key);
        let idle = scheduled.is_empty();
        drop(scheduled);
        self.scheduled_changed.notify_all();
        if idle {
            self.idle.notify_all();
        }
    }

    /// Blocks until block `key.1` of stripe `key.0` is neither queued nor in
    /// flight. Returns immediately when the block was never scheduled; says
    /// nothing about whether the repair succeeded — callers re-read the
    /// store (or the metrics) to find out.
    pub(crate) fn wait_for(&self, key: (u64, usize)) {
        let scheduled = self.scheduled.lock();
        let _scheduled = self
            .scheduled_changed
            .wait_while(scheduled, |s| s.contains(&key));
    }

    /// Blocks until no request is queued or in flight.
    pub(crate) fn wait_idle(&self) {
        let scheduled = self.scheduled.lock();
        let _scheduled = self.idle.wait_while(scheduled, |s| !s.is_empty());
    }

    /// The nodes block `failed` of `record` may be rebuilt on, best first,
    /// under the current liveness view ([`rebuild_targets`]).
    fn targets(&self, record: &StripeRecord, failed: usize) -> impl Iterator<Item = NodeId> {
        rebuild_targets(record, failed, self.nodes, &|node| {
            self.liveness.is_dead(node)
        })
    }

    /// Enqueues an in-place corruption repair at
    /// [`RepairPriority::Corruption`]: `block` is rebuilt onto its holder,
    /// the rule's first target while that node is live, overwriting the rot
    /// and refreshing its checksums. Returns whether the repair was newly
    /// queued — `false` when it is already queued/in flight, the holder is
    /// dead (node recovery rebuilds the block), or the queue has closed.
    pub(crate) fn submit_corruption(&self, block: BlockId) -> bool {
        let Some(record) = self.meta.stripe(block.stripe) else {
            return false;
        };
        let holder = record.locations.get(block.index).copied();
        let first = self.targets(&record, block.index).next();
        let Some(requestor) = first.filter(|&node| Some(node) == holder) else {
            return false;
        };
        matches!(
            self.submit(RepairRequest {
                stripe: block.stripe,
                failed: block.index,
                requestor,
                priority: super::queue::RepairPriority::Corruption,
            }),
            Ok(true)
        )
    }

    /// Enqueues a background repair for every stripe still mapping a block
    /// to `node` (called when a node is declared dead), each onto the rule's
    /// first target. Returns how many repairs were queued.
    pub(crate) fn enqueue_node_recovery(&self, node: NodeId) -> usize {
        let mut queued = 0;
        for (stripe, failed) in self.meta.stripes_on_node(node) {
            let Some(record) = self.meta.stripe(stripe) else {
                continue;
            };
            let Some(requestor) = self.targets(&record, failed).next() else {
                continue;
            };
            let ok = self.submit(RepairRequest {
                stripe,
                failed,
                requestor,
                priority: super::queue::RepairPriority::Background,
            });
            if matches!(ok, Ok(true)) {
                queued += 1;
            }
        }
        queued
    }
}

/// Records a liveness strike against `node`; if this pushes it over the
/// death threshold, recovery of everything else it held is queued.
fn strike(engine: &EngineState, node: NodeId) {
    if engine.liveness.record_miss(node) {
        engine.enqueue_node_recovery(node);
    }
}

/// The body of one worker thread: drains the queue until it is closed and
/// empty.
pub(crate) fn worker_loop<T: Transport + ?Sized>(
    engine: &EngineState,
    coord: &Coordinator,
    cluster: &Cluster,
    transport: &T,
    config: &ManagerConfig,
) {
    while let Some(job) = engine.queue.pop() {
        let key = (job.request.stripe.0, job.request.failed);
        if engine.crashed() {
            // Skipped work is *not* resolved in the journal: after a crash
            // the block still needs the repair, and a durable reopen must
            // re-enqueue it.
            engine.unschedule(key);
            continue;
        }
        // A repair that panics is a failed repair like any other: its
        // waiters are released and the worker keeps serving.
        let run = || run_one(engine, coord, cluster, transport, config, &job);
        let result = panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
            let error = format!("the repair panicked: {}", panic_message(&*payload));
            Err(failure(&job.request, error, 0))
        });
        match result {
            Ok((outcome, bytes, roles)) => engine.metrics.record_success(outcome, bytes, &roles),
            Err(failed) => engine.metrics.record_failure(failed),
        }
        engine.resolve_journal(key);
        engine.unschedule(key);
    }
}

/// The failure the report keeps for `request`.
fn failure(request: &RepairRequest, error: String, replans: usize) -> FailedRepair {
    FailedRepair {
        stripe: request.stripe,
        failed: request.failed,
        requestor: request.requestor,
        priority: request.priority,
        error,
        replans,
    }
}

/// Whether `node` holds a block of the stripe placed at `locations` other
/// than block `index`.
fn holds_other(locations: &[NodeId], index: usize, node: NodeId) -> bool {
    locations
        .iter()
        .enumerate()
        .any(|(i, &n)| i != index && n == node)
}

/// Stores a repaired block on `node`, the requestor the walk delivered to,
/// and publishes the copy as the block's placement. Returns the node that
/// holds the block.
///
/// The block moves only from `planned_on`, where the repair found it
/// ([`MetaRouter::relocate`]'s placement rule). If it moved while the
/// repair ran, nothing is published: the copy is deleted unless the move
/// put the block on this very node, and the block's current holder is
/// returned. A node that by now holds another block of the stripe is
/// refused by the router; the block then goes to the next of the rule's
/// targets ([`rebuild_targets`]) not yet tried that holds none of the
/// stripe, and the refused copy is deleted. With no such node (a cluster
/// without a spare) the copy stays where it is, unplaced, and reads find
/// it by scanning the stores.
fn publish(
    engine: &EngineState,
    cluster: &Cluster,
    block: BlockId,
    planned_on: NodeId,
    mut node: NodeId,
    bytes: Bytes,
) -> Result<NodeId> {
    let mut tried = vec![node];
    cluster.store(node).put(block, bytes.clone())?;
    loop {
        let moved = engine
            .meta
            .relocate(block.stripe, block.index, node, Some(planned_on))?;
        match moved {
            RelocateOutcome::Moved => return Ok(node),
            RelocateOutcome::Elsewhere { node: holder } => {
                if holder != node {
                    let _ = cluster.store(node).delete(block);
                }
                return Ok(holder);
            }
            RelocateOutcome::Refused => {}
        }
        let Some(record) = engine.meta.stripe(block.stripe) else {
            return Ok(node);
        };
        let next = engine
            .targets(&record, block.index)
            .find(|&c| !tried.contains(&c) && !holds_other(&record.locations, block.index, c));
        let Some(next) = next else {
            return Ok(node);
        };
        cluster.store(next).put(block, bytes.clone())?;
        let _ = cluster.store(node).delete(block);
        tried.push(next);
        node = next;
    }
}

/// Executes one request end to end, re-planning around lost helpers and
/// failed hops (up to `config.max_replans` times). A stored block comes back
/// as its [`RepairOutcome`] (the collector stamps `finished_seq`), the bytes
/// reconstructed and every node that held a role; a repair given up on
/// comes back as the [`FailedRepair`] the report keeps.
fn run_one<T: Transport + ?Sized>(
    engine: &EngineState,
    coord: &Coordinator,
    cluster: &Cluster,
    transport: &T,
    config: &ManagerConfig,
    job: &QueuedRepair,
) -> std::result::Result<(RepairOutcome, usize, Vec<NodeId>), FailedRepair> {
    let request = &job.request;
    let queue_wait = job.enqueued.elapsed();
    let started_seq = engine.metrics.begin_repair();
    let started = Instant::now();
    let fail = |error: EcPipeError, replans| failure(request, error.to_string(), replans);
    // Requestors whose plan failed for holding another block of the stripe.
    let mut unplannable: Vec<NodeId> = Vec::new();
    let mut excluded: Vec<usize> = Vec::new();
    // Blocks behind a failed hop: their nodes still hold them, so they are
    // left out only while a plan without them exists.
    let mut avoided: Vec<usize> = Vec::new();
    let mut replans = 0usize;
    loop {
        // Fold the transport counters accumulated so far into the telemetry
        // before planning, so a weighted plan (and the link watch's re-plan
        // after a degraded link) sees the freshest throughput estimates.
        if let Some(telemetry) = &engine.telemetry {
            telemetry.observe(transport.stats());
        }
        // Plan fresh on each attempt, from the placement as it is now: after
        // a helper loss the helper set must shrink around the excluded block.
        let stripe = request.stripe;
        let record = engine
            .meta
            .stripe(stripe)
            .ok_or(EcPipeError::UnknownStripe { stripe: stripe.0 })
            .map_err(|error| fail(error, replans))?;
        // The requested node while it is live and holds no other block of
        // the stripe, else the rule's next target: a node declared dead
        // since the request was queued must not receive the block.
        let is_dead = |node| engine.liveness.is_dead(node);
        let requested = Some(request.requestor)
            .filter(|&r| !is_dead(r) && !holds_other(&record.locations, request.failed, r));
        let requestor = requested
            .into_iter()
            .chain(engine.targets(&record, request.failed))
            .find(|r| !unplannable.contains(r));
        let Some(requestor) = requestor else {
            let reason = format!(
                "no live node can receive block {} of stripe {}",
                request.failed, stripe.0
            );
            return Err(fail(EcPipeError::InvalidRequest { reason }, replans));
        };
        let skipped = [&excluded[..], &avoided[..]].concat();
        let paths = engine.telemetry.as_ref().map(|t| (config.path_policy, t));
        let planned = coord.plan_repair(
            &record,
            request.failed,
            requestor,
            &skipped,
            &is_dead,
            paths,
        );
        let planned = match planned {
            Ok(p) => p,
            Err(EcPipeError::Planning(_)) if !avoided.is_empty() => {
                avoided.clear();
                continue;
            }
            // A requestor holding another block of the stripe takes that
            // block out of the helpers; another requestor may not.
            Err(EcPipeError::Planning(_))
                if holds_other(&record.locations, request.failed, requestor) =>
            {
                unplannable.push(requestor);
                replans += 1;
                continue;
            }
            Err(error) => return Err(fail(error, replans)),
        };
        let planned_on = record.node_of(request.failed);
        if planned.fell_back {
            engine.metrics.record_replan(ReplanEvent {
                stripe: request.stripe,
                failed: request.failed,
                reason: ReplanReason::PlanningFallback,
                node: None,
            });
        }
        let directive = planned.directive;
        let mut roles = directive.helper_nodes();
        roles.push(requestor);
        let dag = config
            .strategy
            .dag(&directive.path, directive.requestor, directive.layout);
        // The whole execution holds one admission slot per involved node;
        // the guard releases them even on failure.
        let outcome = {
            let _roles_held = engine.gate.acquire(&roles, &engine.metrics);
            // The link watch samples the walk's own plan against the
            // topology's nominal bandwidths, from the walk's start.
            let watched = engine.telemetry.as_ref().filter(|_| config.link_watch);
            let watch = watched.map(|t| Watch::new(&dag, transport, t.topology()));
            exec::walk_single(&directive, &dag, cluster, transport, watch)
        };
        let error = match outcome {
            Ok(block) => {
                let bytes = block.len();
                let id = BlockId {
                    stripe: request.stripe,
                    index: request.failed,
                };
                let requestor = publish(engine, cluster, id, planned_on, requestor, block)
                    .map_err(|error| fail(error, replans))?;
                engine.liveness.record_success(&directive.helper_nodes());
                let outcome = RepairOutcome {
                    stripe: request.stripe,
                    failed: request.failed,
                    requestor,
                    priority: request.priority,
                    queue_wait,
                    duration: started.elapsed(),
                    replans,
                    started_seq,
                    finished_seq: 0,
                    path: directive.helper_nodes(),
                    bottleneck: planned.bottleneck,
                };
                return Ok((outcome, bytes, roles));
            }
            Err(error) => error,
        };
        if replans >= config.max_replans {
            return Err(fail(error, replans));
        }
        // Re-plan, on record, with a lost or corrupt block excluded for good.
        let (reason, node, excluding) = match error {
            EcPipeError::BlockNotFound { block } if block.stripe == request.stripe => {
                // A helper's block was gone when the walk opened it: strike
                // the node, exclude the block, re-plan with the survivors
                // (§3.2 straggler handling, generalized).
                let node = directive.path.iter().find(|e| e.1.index == block.index);
                let node = node.map(|&(node, _, _)| node);
                node.into_iter().for_each(|node| strike(engine, node));
                (ReplanReason::HelperLost, node, Some(block.index))
            }
            EcPipeError::CorruptBlock { block, .. } if block.stripe == request.stripe => {
                // A helper read a slice whose checksums no longer match:
                // bit-rot, not node death. The stream failed cleanly before
                // any poisoned partial could reach the requestor; re-plan
                // around the rotten block — without a liveness strike, the
                // node itself is healthy — and queue an in-place
                // corruption-class repair to scrub the rot out.
                engine.submit_corruption(block);
                let holder = cluster.node_of(block.stripe, block.index).ok();
                (ReplanReason::CorruptHelper, holder, Some(block.index))
            }
            EcPipeError::LinkFailed { src, dst, .. } => {
                // A hop failed. Avoid its helper endpoint (the downstream
                // helper, or the upstream one on the hop into the requestor)
                // without a strike: the walk opened every helper block, so
                // the node still holds it. After a slow hop the telemetry
                // has collapsed for that pair, so a weighted re-plan routes
                // around it whichever endpoint the blame picked.
                let helpers = directive.helper_nodes();
                let blamed = if helpers.contains(&dst) { dst } else { src };
                let index = directive.path.iter().find(|e| e.0 == blamed);
                avoided.extend(index.map(|&(_, block, _)| block.index));
                (ReplanReason::LinkFailed, Some(blamed), None)
            }
            error => return Err(fail(error, replans)),
        };
        replans += 1;
        excluded.extend(excluding);
        engine.metrics.record_replan(ReplanEvent {
            stripe: request.stripe,
            failed: request.failed,
            reason,
            node,
        });
    }
}
