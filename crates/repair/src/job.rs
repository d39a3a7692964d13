//! Repair job descriptions shared by all schemes.

use ecc::slice::SliceLayout;
use ecc::stripe::BlockId;
use simnet::NodeId;

use crate::RepairDag;

/// Panics if a helper node is listed twice.
fn assert_distinct(helpers: &[NodeId]) {
    let mut sorted = helpers.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), helpers.len(), "duplicate helper node");
}

/// A single-block repair job: which nodes act as helpers, where the repaired
/// block is delivered, and how the block is sliced.
///
/// The helper order matters for path-based schemes (repair pipelining uses it
/// as the linear path `helpers[0] -> helpers[1] -> ... -> requestor`); the
/// order is irrelevant for conventional repair and PPR.
#[derive(Debug, Clone)]
pub struct SingleRepairJob {
    /// Nodes storing the helper blocks, in path order.
    pub helpers: Vec<NodeId>,
    /// The node that receives the reconstructed block (a degraded-read client
    /// or a replacement node).
    pub requestor: NodeId,
    /// Block and slice sizes.
    pub layout: SliceLayout,
}

impl SingleRepairJob {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if there are no helpers, if the requestor is listed as a
    /// helper, or if a helper appears twice.
    pub fn new(helpers: Vec<NodeId>, requestor: NodeId, layout: SliceLayout) -> Self {
        assert!(!helpers.is_empty(), "at least one helper required");
        assert!(
            !helpers.contains(&requestor),
            "the requestor cannot also be a helper"
        );
        assert_distinct(&helpers);
        SingleRepairJob {
            helpers,
            requestor,
            layout,
        }
    }

    /// The number of helpers (`k` for MDS codes).
    pub fn k(&self) -> usize {
        self.helpers.len()
    }

    /// The number of slices per block.
    pub fn slice_count(&self) -> usize {
        self.layout.slice_count()
    }

    /// The helpers as the `(node, block, coefficient)` path that
    /// [`Scheme::dag`](crate::Scheme::dag) takes. A job names nodes, not
    /// blocks or a code, so the block ids are placeholders and every
    /// coefficient is 1; timing a plan reads neither.
    pub(crate) fn path(&self) -> Vec<(NodeId, BlockId, u8)> {
        let helpers = self.helpers.iter().enumerate();
        helpers.map(|(i, &n)| (n, BlockId::new(0, i), 1)).collect()
    }
}

/// A multi-block repair job (§4.4): `f` failed blocks of one stripe repaired
/// from a shared set of helpers into `f` requestors.
#[derive(Debug, Clone)]
pub struct MultiRepairJob {
    /// Nodes storing the helper blocks, in path order.
    pub helpers: Vec<NodeId>,
    /// One requestor per failed block.
    pub requestors: Vec<NodeId>,
    /// Block and slice sizes.
    pub layout: SliceLayout,
}

impl MultiRepairJob {
    /// Creates a multi-block job.
    ///
    /// # Panics
    ///
    /// Panics if there are no helpers or no requestors, if a requestor is
    /// also a helper, or if a helper appears twice.
    pub fn new(helpers: Vec<NodeId>, requestors: Vec<NodeId>, layout: SliceLayout) -> Self {
        assert!(!helpers.is_empty(), "at least one helper required");
        assert!(!requestors.is_empty(), "at least one requestor required");
        assert_distinct(&helpers);
        for r in &requestors {
            assert!(
                !helpers.contains(r),
                "requestor {r} cannot also be a helper"
            );
        }
        MultiRepairJob {
            helpers,
            requestors,
            layout,
        }
    }

    /// The number of failed blocks being repaired.
    pub fn f(&self) -> usize {
        self.requestors.len()
    }

    /// The number of helpers.
    pub fn k(&self) -> usize {
        self.helpers.len()
    }

    /// The job as a [`RepairDag`]: the chain of its helpers carrying one row
    /// of partial sums per requestor (§4.4), with placeholder block ids and
    /// unit coefficients as in [`SingleRepairJob::path`].
    pub(crate) fn dag(&self) -> RepairDag {
        let helpers = self.helpers.iter().enumerate();
        let columns = helpers.map(|(i, &n)| (n, BlockId::new(0, i), vec![1; self.f()]));
        RepairDag::chain(columns, &self.requestors, self.layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SliceLayout {
        SliceLayout::new(1024, 128)
    }

    #[test]
    fn job_accessors() {
        let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, layout());
        assert_eq!(job.k(), 4);
        assert_eq!(job.slice_count(), 8);
    }

    #[test]
    #[should_panic(expected = "requestor cannot also be a helper")]
    fn requestor_as_helper_panics() {
        SingleRepairJob::new(vec![0, 1], 0, layout());
    }

    #[test]
    #[should_panic(expected = "duplicate helper node")]
    fn duplicate_helper_panics() {
        SingleRepairJob::new(vec![1, 1, 2], 0, layout());
    }

    #[test]
    fn multi_job_counts() {
        let job = MultiRepairJob::new(vec![1, 2, 3], vec![10, 11], layout());
        assert_eq!(job.k(), 3);
        assert_eq!(job.f(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot also be a helper")]
    fn multi_job_requestor_overlap_panics() {
        MultiRepairJob::new(vec![1, 2, 3], vec![2], layout());
    }

    #[test]
    #[should_panic(expected = "duplicate helper node")]
    fn multi_job_duplicate_helper_panics() {
        MultiRepairJob::new(vec![1, 1], vec![9], layout());
    }
}
