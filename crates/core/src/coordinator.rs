//! The ECPipe coordinator: repair planning.
//!
//! The coordinator (one per deployment, Figure 7) answers repair requests
//! by selecting helpers and deriving the decoding coefficients, and
//! implements the greedy least-recently-selected helper scheduling used
//! during full-node recovery (§3.3).
//!
//! It owns no metadata. Where a stripe's blocks live is a fact of the
//! deployment's [`MetaRouter`] alone; planning reads one [`StripeRecord`]
//! from it and turns it into a directive. What *is* the coordinator's own
//! is the code, the slice layout and the helper-selection clock, kept
//! behind a leaf lock so planning takes `&self` and concurrent repairs
//! plan without queueing behind each other's metadata reads. Every
//! placement carries a monotonic epoch; directives record the epoch they
//! were planned at so a completion can be rejected as
//! [`EcPipeError::StaleRepair`] if the block moved in the meantime.

use std::collections::HashMap;
use std::sync::Arc;

use ecc::slice::SliceLayout;
use ecc::stripe::{BlockId, StripeId};
use ecc::{ErasureCode, MultiRepairPlan, RepairPlan};
use ecpipe_meta::{MetaRouter, StripeRecord};
use ecpipe_sync::Mutex;
use simnet::NodeId;

use crate::lock_order;
use crate::{EcPipeError, Result};

/// Metadata of one named object stored through the
/// [`EcPipe`](crate::EcPipe) façade: its true byte length and the stripes
/// that hold its (zero-padded) blocks, in order.
pub use ecpipe_meta::ObjectRecord as ObjectMeta;

/// How the coordinator picks helpers when more are available than needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SelectionPolicy {
    /// Let the erasure code pick from all available blocks (lowest indices
    /// first for RS; the local group for LRC).
    CodeDefault,
    /// Greedy least-recently-selected scheduling (§3.3), used for full-node
    /// recovery so that no helper is overloaded across stripes.
    LeastRecentlyUsed,
}

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
    /// The stripe's placement epoch when the repair was planned. Completing
    /// the repair through [`MetaRouter::relocate`] with this epoch rejects
    /// the completion if the block relocated in the meantime.
    pub epoch: u64,
}

impl RepairDirective {
    /// Reorders the helper path (e.g. after rack-aware or weighted path
    /// selection). The node set must stay the same.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the current helper nodes.
    pub fn with_path_order(mut self, order: &[NodeId]) -> Self {
        assert_eq!(order.len(), self.path.len(), "path length mismatch");
        let mut by_node: HashMap<NodeId, (NodeId, BlockId, u8)> =
            self.path.iter().map(|e| (e.0, *e)).collect();
        self.path = order
            .iter()
            .map(|n| by_node.remove(n).expect("order must match helper nodes"))
            .collect();
        self
    }

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
    /// The stripe's placement epoch when the repair was planned (see
    /// [`RepairDirective::epoch`]).
    pub epoch: u64,
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
    /// places it now, is reconstructed at `requestor`, from the helpers the
    /// code picks by default among all other blocks.
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
        self.plan_single_repair_of(
            &record,
            failed,
            requestor,
            &[],
            SelectionPolicy::CodeDefault,
        )
    }

    /// Plans a single-block repair over a placement the caller already
    /// read, with full control: `unavailable` lists block indices that must
    /// not be used as helpers (e.g. blocks on other failed nodes), and
    /// `policy` picks among the rest. The repair manager chooses helpers
    /// from the same record it plans with, so both see one snapshot.
    pub fn plan_single_repair_of(
        &self,
        record: &StripeRecord,
        failed: usize,
        requestor: NodeId,
        unavailable: &[usize],
        policy: SelectionPolicy,
    ) -> Result<RepairDirective> {
        self.check_placement(record)?;
        if failed >= self.code.n() {
            return Err(EcPipeError::InvalidRequest {
                reason: format!("block index {failed} out of range"),
            });
        }
        let mut available: Vec<usize> = (0..self.code.n())
            .filter(|&i| i != failed && !unavailable.contains(&i) && record.node_of(i) != requestor)
            .collect();
        // Choosing by the clock and stamping the chosen helpers is one step:
        // concurrent planners must not all pick the same idle nodes.
        let mut selection = self.selection.lock();
        if policy == SelectionPolicy::LeastRecentlyUsed && available.len() > self.code.k() {
            // Order candidates by how recently their node served as a helper
            // and keep the k least recently used.
            available.sort_by_key(|&i| {
                let last = selection.last_selected.get(&record.node_of(i));
                (last.copied().unwrap_or(0), i)
            });
            available.truncate(self.code.k());
            available.sort_unstable();
        }
        let plan = self.code.repair_plan(failed, &available)?;
        for src in &plan.sources {
            selection.now += 1;
            let now = selection.now;
            selection
                .last_selected
                .insert(record.node_of(src.block_index), now);
        }
        drop(selection);
        let path: Vec<(NodeId, BlockId, u8)> = plan
            .sources
            .iter()
            .map(|src| {
                (
                    record.node_of(src.block_index),
                    BlockId::new(record.id.0, src.block_index),
                    src.coefficient,
                )
            })
            .collect();
        Ok(RepairDirective {
            stripe: record.id,
            plan,
            path,
            requestor,
            layout: self.layout,
            epoch: record.epoch,
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
        let available: Vec<usize> = (0..self.code.n())
            .filter(|i| !failed.contains(i) && !requestors.contains(&record.node_of(*i)))
            .collect();
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
            epoch: record.epoch,
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

#[cfg(test)]
mod tests {
    use super::*;
    use ecc::ReedSolomon;
    use ecpipe_meta::MetaConfig;

    const S1: StripeId = StripeId(1);

    /// A coordinator for an `(n, 4)` code and an ephemeral router with
    /// stripe 1 placed on nodes `0..n`.
    fn setup(n: usize) -> (Coordinator, MetaRouter) {
        let code = Arc::new(ReedSolomon::new(n, 4).unwrap());
        let meta = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        meta.register_stripe(S1, (0..n).collect()).unwrap();
        (Coordinator::new(code, SliceLayout::new(4096, 1024)), meta)
    }

    #[test]
    fn epochs_version_placements_and_reject_stale_completions() {
        let (c, meta) = setup(6);
        let d = c.plan_single_repair(&meta, S1, 2, 9).unwrap();
        assert_eq!(d.epoch, 0);
        // The placement moves underneath the directive...
        meta.relocate(S1, 2, 8, None).unwrap();
        // ...so completing it at the planned epoch is rejected.
        match meta.relocate(S1, 2, 9, Some(d.epoch)).map_err(Into::into) {
            Err(EcPipeError::StaleRepair {
                planned: 0,
                current: 1,
                ..
            }) => {}
            other => panic!("expected StaleRepair, got {other:?}"),
        }
        assert_eq!(meta.node_of(S1, 2).unwrap(), 8);
        // A directive planned now carries the current epoch and completes.
        let d = c.plan_single_repair(&meta, S1, 2, 9).unwrap();
        assert_eq!(d.epoch, 1);
        meta.relocate(S1, 2, 9, Some(d.epoch)).unwrap();
        assert_eq!(meta.epoch_of(S1).unwrap(), 2);
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
        let record = meta.stripe(S1).unwrap();
        let lru = SelectionPolicy::LeastRecentlyUsed;
        let h1 = c
            .plan_single_repair_of(&record, 0, 100, &[], lru)
            .unwrap()
            .helper_nodes();
        let h2 = c
            .plan_single_repair_of(&record, 0, 100, &[], lru)
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
    fn path_reordering_preserves_entries() {
        let (c, meta) = setup(6);
        let d = c.plan_single_repair(&meta, S1, 5, 0).unwrap();
        let mut order = d.helper_nodes();
        order.reverse();
        let reordered = d.clone().with_path_order(&order);
        assert_eq!(reordered.helper_nodes(), order);
        // Coefficients still attached to the right nodes.
        for entry in &d.path {
            assert!(reordered.path.contains(entry));
        }
    }

    #[test]
    fn multi_repair_directive_matches_failures() {
        let (c, meta) = setup(6);
        let d = c.plan_multi_repair(&meta, S1, &[5, 1], &[10, 11]).unwrap();
        assert_eq!(d.plan.failed, vec![1, 5]);
        assert_eq!(d.requestors, vec![11, 10]);
        assert_eq!(d.path.len(), 4);
        assert_eq!(d.epoch, 0);
    }

    #[test]
    fn unavailable_blocks_are_not_helpers() {
        let (c, meta) = setup(6);
        let record = meta.stripe(S1).unwrap();
        let plan = |unavailable: &[usize]| {
            c.plan_single_repair_of(&record, 0, 9, unavailable, SelectionPolicy::CodeDefault)
        };
        let helper_indices = plan(&[1]).unwrap().plan.helper_indices();
        assert!(!helper_indices.contains(&1));
        assert_eq!(helper_indices.len(), 4);
        // Excluding one more block leaves fewer than k helpers, which is an
        // error.
        assert!(plan(&[1, 2]).is_err());
    }
}
