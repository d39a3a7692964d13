//! The ECPipe coordinator: repair planning.
//!
//! The coordinator (one per deployment, Figure 7) answers repair requests
//! by selecting helpers and deriving the decoding coefficients. One
//! function, [`Coordinator::plan_repair`], chooses every single-block
//! repair's helpers: it orders the candidates by a [`PathPolicy`] — the
//! greedy least-recently-selected scheduling of §3.3, or the rack-aware and
//! weighted paths of §4.2 and §4.3 — and lets the erasure code pick its
//! helpers from the whole ordered list, so a code that is not MDS (LRC)
//! still repairs from its local group.
//!
//! It owns no metadata. Where a stripe's blocks live is a fact of the
//! deployment's [`MetaRouter`] alone; planning reads one [`StripeRecord`]
//! from it and turns it into a directive. What *is* the coordinator's own
//! is the code, the slice layout and the helper-selection clock, kept
//! behind a leaf lock so planning takes `&self` and concurrent repairs
//! plan without queueing behind each other's metadata reads. A completed
//! repair publishes its block through the router's one placement rule
//! ([`MetaRouter::relocate`]): the block moves only from the node the plan
//! found it on.

use std::collections::HashMap;
use std::sync::Arc;

use ecc::slice::SliceLayout;
use ecc::stripe::{BlockId, StripeId};
use ecc::{ErasureCode, MultiRepairPlan, RepairPlan};
use ecpipe_meta::{MetaRouter, StripeRecord};
use ecpipe_sync::Mutex;
use repair::rack_aware;
use repair::weighted_path::optimal_path;
use simnet::NodeId;

use crate::lock_order;
use crate::manager::PathPolicy;
use crate::telemetry::LinkTelemetry;
use crate::{EcPipeError, Result};

/// Metadata of one named object stored through the
/// [`EcPipe`](crate::EcPipe) façade: its true byte length and the stripes
/// that hold its (zero-padded) blocks, in order.
pub use ecpipe_meta::ObjectRecord as ObjectMeta;

/// Everything a set of helpers and a requestor need to execute one
/// single-block repair.
#[derive(Debug, Clone)]
pub struct RepairDirective {
    /// The stripe being repaired.
    pub stripe: StripeId,
    /// The linear repair plan (failed index, helper indices, coefficients).
    pub plan: RepairPlan,
    /// The helpers in pipeline order: `(node, block id, coefficient)`.
    pub path: Vec<(NodeId, BlockId, u8)>,
    /// The node that receives the repaired block.
    pub requestor: NodeId,
    /// Block/slice layout.
    pub layout: SliceLayout,
    /// Always 0, and read by nothing: stripes carry no epoch. The field
    /// stays until the last struct literal naming it, in the benchmark's
    /// probes, is gone.
    pub epoch: u64,
}

impl RepairDirective {
    /// The helper nodes in path order.
    pub fn helper_nodes(&self) -> Vec<NodeId> {
        self.path.iter().map(|e| e.0).collect()
    }

    /// The repair-job tag stamped on every
    /// [`SliceMsg`](crate::transport::SliceMsg) and carried in TCP wire
    /// frames: the failed block index (the stripe id travels alongside it).
    /// The tags are observability metadata — frame routing itself is by
    /// link id.
    pub fn repair_id(&self) -> u64 {
        self.plan.failed as u64
    }
}

/// A multi-block repair directive (§4.4): shared helpers, one coefficient row
/// and one requestor per failed block.
#[derive(Debug, Clone)]
pub struct MultiRepairDirective {
    /// The stripe being repaired.
    pub stripe: StripeId,
    /// The underlying multi-block plan.
    pub plan: MultiRepairPlan,
    /// The helpers in pipeline order: `(node, block id)`.
    pub path: Vec<(NodeId, BlockId)>,
    /// One requestor per failed block, in `plan.failed` order.
    pub requestors: Vec<NodeId>,
    /// Block/slice layout.
    pub layout: SliceLayout,
}

impl MultiRepairDirective {
    /// The repair-job tag for wire frames (see
    /// [`RepairDirective::repair_id`]): the lowest failed index stands in
    /// for the whole batch. Not unique across overlapping failure sets —
    /// it labels traffic for observability, it does not route it.
    pub fn repair_id(&self) -> u64 {
        self.plan.failed.first().map(|&f| f as u64).unwrap_or(0)
    }
}

/// A planned single-block repair and what choosing its helpers revealed.
pub(crate) struct PlannedRepair {
    pub(crate) directive: RepairDirective,
    /// Algorithm 2's bottleneck-weight estimate for its path, under
    /// [`PathPolicy::Weighted`].
    pub(crate) bottleneck: Option<f64>,
    /// A topology-aware policy had too few candidates (or no feasible
    /// path), so the candidates were ordered by the selection clock.
    pub(crate) fell_back: bool,
}

/// Helper-selection state of the least-recently-selected policy (§3.3):
/// a logical clock and the tick at which each node last served as a helper.
#[derive(Default)]
struct SelectionClock {
    last_selected: HashMap<NodeId, u64>,
    now: u64,
}

/// The ECPipe coordinator: the erasure code, the slice layout and the
/// helper-selection clock. Plans against whichever [`MetaRouter`] (or
/// [`StripeRecord`]) the caller hands it.
pub struct Coordinator {
    code: Arc<dyn ErasureCode>,
    layout: SliceLayout,
    /// Lock class: `coordinator.selection`
    /// ([`lock_order::COORDINATOR_SELECTION`]).
    selection: Mutex<SelectionClock>,
}

impl Coordinator {
    /// Creates a coordinator for a given code and slice layout.
    pub fn new(code: Arc<dyn ErasureCode>, layout: SliceLayout) -> Self {
        Coordinator {
            code,
            layout,
            selection: Mutex::new(
                &lock_order::COORDINATOR_SELECTION,
                SelectionClock::default(),
            ),
        }
    }

    /// The erasure code in use.
    pub fn code(&self) -> &Arc<dyn ErasureCode> {
        &self.code
    }

    /// Plans a single-block repair: the failed block of `stripe`, as `meta`
    /// places it now, is reconstructed at `requestor` from the helpers the
    /// code picks among all other blocks, least recently selected first
    /// (§3.3).
    pub fn plan_single_repair(
        &self,
        meta: &MetaRouter,
        stripe: StripeId,
        failed: usize,
        requestor: NodeId,
    ) -> Result<RepairDirective> {
        let record = meta
            .stripe(stripe)
            .ok_or(EcPipeError::UnknownStripe { stripe: stripe.0 })?;
        let planned = self.plan_repair(&record, failed, requestor, &[], &|_| false, None)?;
        Ok(planned.directive)
    }

    /// Chooses a single-block repair's helpers — the only place that does —
    /// over a placement the caller already read:
    ///
    /// 1. The candidates are every block except the failed one, the
    ///    `excluded` ones, those on a node `is_dead` reports and those on the
    ///    requestor.
    /// 2. `paths` orders them. Without it, or under [`PathPolicy::Lru`], the
    ///    selection clock does, least recently selected first. Under a
    ///    topology-aware policy the algorithm's `k`-helper path (§4.2,
    ///    §4.3) comes first and the other candidates follow.
    /// 3. The code picks its helpers from the whole ordered list: RS the
    ///    first `k`, LRC the surviving local group or else the first `k`
    ///    independent rows.
    /// 4. The chain runs in ascending block index under the clock and in the
    ///    algorithm's order otherwise.
    /// 5. The chosen helpers' nodes are stamped on the selection clock.
    pub(crate) fn plan_repair(
        &self,
        record: &StripeRecord,
        failed: usize,
        requestor: NodeId,
        excluded: &[usize],
        is_dead: &dyn Fn(NodeId) -> bool,
        paths: Option<(PathPolicy, &LinkTelemetry)>,
    ) -> Result<PlannedRepair> {
        self.check_placement(record)?;
        if failed >= self.code.n() {
            return Err(EcPipeError::InvalidRequest {
                reason: format!("block index {failed} out of range"),
            });
        }
        let candidates = candidates(record, &[failed], excluded, is_dead, &[requestor]);
        // A path reads the telemetry, not the clock, so it is found before
        // the clock is locked.
        let k = self.code.k();
        let nodes: Vec<NodeId> = candidates.iter().map(|&i| record.node_of(i)).collect();
        let mut bottleneck = None;
        let path = match paths {
            Some((PathPolicy::RackAware, telemetry)) if nodes.len() >= k => Some(
                rack_aware::select_path(telemetry.topology(), requestor, &nodes, k),
            ),
            Some((PathPolicy::Weighted, telemetry)) => {
                optimal_path(telemetry, requestor, &nodes, k).map(|selection| {
                    bottleneck = Some(selection.bottleneck_weight);
                    selection.path
                })
            }
            _ => None,
        };
        let fell_back = path.is_none() && paths.is_some_and(|(p, _)| p != PathPolicy::Lru);
        // A candidate's place on the path; the candidates off it follow.
        let rank = |path: &[NodeId], i: usize| {
            let node = record.node_of(i);
            path.iter().position(|&n| n == node).unwrap_or(path.len())
        };
        let mut ordered = candidates;
        if let Some(path) = &path {
            ordered.sort_by_key(|&i| rank(path, i));
        }
        // Ordering by the clock and stamping the chosen helpers is one step:
        // concurrent planners must not all pick the same idle nodes.
        let mut selection = self.selection.lock();
        if path.is_none() {
            ordered.sort_by_key(|&i| {
                let last = selection.last_selected.get(&record.node_of(i));
                (last.copied().unwrap_or(0), i)
            });
        }
        let mut plan = self.code.repair_plan(failed, &ordered)?;
        plan.sources.sort_by_key(|src| src.block_index);
        for src in &plan.sources {
            selection.now += 1;
            let now = selection.now;
            selection
                .last_selected
                .insert(record.node_of(src.block_index), now);
        }
        drop(selection);
        let mut chain = plan.sources.clone();
        if let Some(path) = &path {
            chain.sort_by_key(|src| rank(path, src.block_index));
        }
        let path = chain
            .iter()
            .map(|src| {
                (
                    record.node_of(src.block_index),
                    BlockId::new(record.id.0, src.block_index),
                    src.coefficient,
                )
            })
            .collect();
        Ok(PlannedRepair {
            directive: RepairDirective {
                stripe: record.id,
                plan,
                path,
                requestor,
                layout: self.layout,
                epoch: 0,
            },
            bottleneck,
            fell_back,
        })
    }

    /// Plans a multi-block repair (§4.4): every index in `failed` is
    /// reconstructed, one requestor per failed block.
    pub fn plan_multi_repair(
        &self,
        meta: &MetaRouter,
        stripe: StripeId,
        failed: &[usize],
        requestors: &[NodeId],
    ) -> Result<MultiRepairDirective> {
        if failed.len() != requestors.len() {
            return Err(EcPipeError::InvalidRequest {
                reason: "one requestor per failed block required".to_string(),
            });
        }
        let record = meta
            .stripe(stripe)
            .ok_or(EcPipeError::UnknownStripe { stripe: stripe.0 })?;
        self.check_placement(&record)?;
        let available = candidates(&record, failed, &[], &|_| false, requestors);
        let plan = self.code.multi_repair_plan(failed, &available)?;
        let path: Vec<(NodeId, BlockId)> = plan
            .helpers
            .iter()
            .map(|&i| (record.node_of(i), BlockId::new(record.id.0, i)))
            .collect();
        // Requestors ordered to match plan.failed (which is sorted).
        let mut requestor_of: HashMap<usize, NodeId> = failed
            .iter()
            .copied()
            .zip(requestors.iter().copied())
            .collect();
        let ordered_requestors: Vec<NodeId> = plan
            .failed
            .iter()
            .map(|f| requestor_of.remove(f).expect("requestor for failed block"))
            .collect();
        Ok(MultiRepairDirective {
            stripe,
            plan,
            path,
            requestors: ordered_requestors,
            layout: self.layout,
        })
    }

    /// A stripe registered with a block count other than the code's `n`
    /// cannot be planned (and would be indexed out of range above) — e.g. a
    /// durable namespace written under a different code.
    pub(crate) fn check_placement(&self, record: &StripeRecord) -> Result<()> {
        let (blocks, n) = (record.locations.len(), self.code.n());
        if blocks == n {
            return Ok(());
        }
        let stripe = record.id.0;
        Err(EcPipeError::InvalidRequest {
            reason: format!("stripe {stripe} has {blocks} blocks but the code has n = {n}"),
        })
    }
}

/// The blocks of `record` that may serve as helpers: not one being
/// repaired, not an `excluded` one, not one on a dead node and not one a
/// requestor holds.
fn candidates(
    record: &StripeRecord,
    failed: &[usize],
    excluded: &[usize],
    is_dead: &dyn Fn(NodeId) -> bool,
    requestors: &[NodeId],
) -> Vec<usize> {
    (0..record.locations.len())
        .filter(|i| !failed.contains(i) && !excluded.contains(i))
        .filter(|&i| {
            let node = record.node_of(i);
            !is_dead(node) && !requestors.contains(&node)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc::ReedSolomon;
    use ecpipe_meta::{MetaBackend, MetaConfig, RelocateOutcome};

    const S1: StripeId = StripeId(1);

    /// A coordinator for an `(n, 4)` code and an ephemeral router with
    /// stripe 1 placed on nodes `0..n`.
    fn setup(n: usize) -> (Coordinator, MetaRouter) {
        let code = Arc::new(ReedSolomon::new(n, 4).unwrap());
        let meta = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        meta.register_stripe(S1, (0..n).collect()).unwrap();
        (Coordinator::new(code, SliceLayout::new(4096, 1024)), meta)
    }

    /// A completion whose block moved since planning gets `Elsewhere`, and
    /// neither the placement nor the WAL changes; a completion planned
    /// against the current placement moves the block.
    #[test]
    fn epochs_version_placements_and_reject_stale_completions() {
        let root = std::env::temp_dir().join(format!("ecpipe-coord-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let meta = MetaRouter::open(MetaConfig::new(MetaBackend::durable(&root))).unwrap();
        meta.register_stripe(S1, (0..6).collect()).unwrap();
        let wal = || std::fs::read(root.join("wal.log")).unwrap();
        let (c, _) = setup(6);
        let planned_on = meta.node_of(S1, 2).unwrap();
        let d = c.plan_single_repair(&meta, S1, 2, 9).unwrap();
        assert_eq!(d.epoch, 0);
        // The block moves underneath the directive...
        meta.relocate(S1, 2, 8, None).unwrap();
        let (placement, journal) = (meta.stripe(S1), wal());
        // ...so its completion finds it elsewhere and writes nothing.
        assert_eq!(
            meta.relocate(S1, 2, 9, Some(planned_on)).unwrap(),
            RelocateOutcome::Elsewhere { node: 8 }
        );
        assert_eq!((meta.stripe(S1), wal()), (placement, journal));
        // A directive planned now completes.
        let planned_on = meta.node_of(S1, 2).unwrap();
        c.plan_single_repair(&meta, S1, 2, 9).unwrap();
        let moved = meta.relocate(S1, 2, 9, Some(planned_on)).unwrap();
        assert_eq!(moved, RelocateOutcome::Moved);
        assert_eq!(meta.node_of(S1, 2).unwrap(), 9);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn single_repair_directive_excludes_requestor_node() {
        let (c, meta) = setup(6);
        let d = c.plan_single_repair(&meta, S1, 0, 3).unwrap();
        assert_eq!(d.plan.failed, 0);
        assert_eq!(d.path.len(), 4);
        assert!(d.helper_nodes().iter().all(|&n| n != 3 && n != 0));
    }

    #[test]
    fn planning_rejects_unknown_stripes_and_indices() {
        let (c, meta) = setup(6);
        assert!(matches!(
            c.plan_single_repair(&meta, StripeId(9), 0, 7),
            Err(EcPipeError::UnknownStripe { stripe: 9 })
        ));
        assert!(c.plan_single_repair(&meta, S1, 6, 7).is_err());
    }

    /// A placement registered with the wrong block count is an error, not an
    /// out-of-range index.
    #[test]
    fn planning_rejects_a_placement_of_the_wrong_length() {
        let (c, meta) = setup(6);
        meta.register_stripe(StripeId(2), vec![0, 1, 2]).unwrap();
        assert!(c.plan_single_repair(&meta, StripeId(2), 0, 7).is_err());
        assert!(c.plan_multi_repair(&meta, StripeId(2), &[0], &[7]).is_err());
    }

    #[test]
    fn greedy_policy_rotates_helpers_across_repairs() {
        // Two repairs over 8 nodes: k = 4 helpers each, 7 candidates per
        // repair, so the second repair must use the 3 nodes the first one did
        // not touch and only one previously-used node.
        let (c, meta) = setup(8);
        let h1 = c
            .plan_single_repair(&meta, S1, 0, 100)
            .unwrap()
            .helper_nodes();
        let h2 = c
            .plan_single_repair(&meta, S1, 0, 100)
            .unwrap()
            .helper_nodes();
        let overlap = h2.iter().filter(|n| h1.contains(n)).count();
        assert!(overlap <= 1, "h1 {h1:?} h2 {h2:?}");
        for unused in [5, 6, 7] {
            assert!(
                h2.contains(&unused),
                "h2 {h2:?} should reuse idle node {unused}"
            );
        }
    }

    #[test]
    fn multi_repair_directive_matches_failures() {
        let (c, meta) = setup(6);
        let d = c.plan_multi_repair(&meta, S1, &[5, 1], &[10, 11]).unwrap();
        assert_eq!(d.plan.failed, vec![1, 5]);
        assert_eq!(d.requestors, vec![11, 10]);
        assert_eq!(d.path.len(), 4);
    }

    #[test]
    fn unavailable_blocks_are_not_helpers() {
        let (c, meta) = setup(6);
        let record = meta.stripe(S1).unwrap();
        let plan = |excluded: &[usize], dead: NodeId| {
            c.plan_repair(&record, 0, 9, excluded, &|n| n == dead, None)
        };
        let helper_indices = plan(&[1], 9).unwrap().directive.plan.helper_indices();
        assert!(!helper_indices.contains(&1));
        assert_eq!(helper_indices.len(), 4);
        // Block 2 sits on node 2. Losing it too leaves fewer than k helpers,
        // which is an error whether it is excluded or its node is dead.
        assert!(plan(&[1, 2], 9).is_err());
        assert!(plan(&[1], 2).is_err());
    }

    /// Planners on several threads, under every policy, share one clock:
    /// each plan has `k` distinct helpers, none of them the failed block's
    /// or the requestor's node, and each is stamped once.
    #[test]
    fn concurrent_planners_share_one_clock() {
        let (c, meta) = setup(8);
        let record = meta.stripe(S1).unwrap();
        let topology = simnet::Topology::rack_based(&[4, 4, 4], 8.0e6, 1.0e6);
        let telemetry = LinkTelemetry::new(Arc::new(topology));
        let rounds = 50;
        std::thread::scope(|scope| {
            for policy in [PathPolicy::Lru, PathPolicy::RackAware, PathPolicy::Weighted] {
                let (c, record, telemetry) = (&c, &record, &telemetry);
                scope.spawn(move || {
                    for round in 0..rounds {
                        let (failed, requestor) = (round % 8, 8 + round % 4);
                        let paths = Some((policy, telemetry));
                        let planned =
                            c.plan_repair(record, failed, requestor, &[], &|_| false, paths);
                        let mut nodes = planned.unwrap().directive.helper_nodes();
                        nodes.sort_unstable();
                        nodes.dedup();
                        assert_eq!(nodes.len(), 4, "{policy}");
                        assert!(!nodes.contains(&failed) && !nodes.contains(&requestor));
                    }
                });
            }
        });
        assert_eq!(c.selection.lock().now, 3 * rounds as u64 * 4);
    }
}
