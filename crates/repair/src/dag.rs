//! Repair plans as data: every scheme is one fold over a DAG of helpers.
//!
//! Whatever the scheme, a helper does the same thing: it reads a slice of
//! its local block, scales it by the block's decode coefficients, adds the
//! partial sums its upstream helpers sent, and forwards the result. The
//! schemes differ only in the *shape* those forwards draw — a star into the
//! requestor is conventional repair (§2.2), a binary tree is PPR, a chain is
//! repair pipelining (§3.2), a chain carrying `f` rows of partial sums is
//! multi-block repair (§4.4). A [`RepairDag`] is that shape as a value; the
//! `ecpipe` runtime executes any of them with one walker, and
//! [`RepairDag::links`] tells an observer which links the repair will load
//! and by how much before a byte has moved.

use ecc::slice::SliceLayout;
use ecc::stripe::BlockId;
use simnet::NodeId;

use crate::ppr::aggregation_rounds;

/// Where a stage's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// The partial sums travel to one downstream stage, all rows bundled in
    /// one message per slice.
    Stage(usize),
    /// The sums are complete: row `r` is delivered to requestor `r`.
    Requestors,
    /// Conventional repair (§2.2): the local slices go to the requestors
    /// unscaled, and requestor `r` applies the stage's coefficient for row
    /// `r` itself. Only a stage without upstream stages can do this.
    RawToRequestors,
}

/// One helper's part in a repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The node that runs the stage.
    pub node: NodeId,
    /// The local block the stage reads.
    pub block: BlockId,
    /// The block's column of the decode matrix: `coeffs[r]` scales the block
    /// into row `r` of the partial sums.
    pub coeffs: Vec<u8>,
    /// The stages whose output this one folds in, in fold order. Each comes
    /// earlier in [`RepairDag::stages`].
    pub upstream: Vec<usize>,
    /// Cut-through or store-and-forward. A cut-through stage forwards each
    /// slice as soon as it is folded, so the stages of a path work on
    /// different slices at once (repair pipelining, `Pipe-B`, multi-block
    /// repair); otherwise nothing is forwarded until every slice of every
    /// upstream stage is folded, one upstream after the other (a PPR round).
    pub cut_through: bool,
    /// Where the stage's output goes.
    pub output: Output,
}

/// A directed link a repair loads, and the bytes it will carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The sending node.
    pub src: NodeId,
    /// The receiving node.
    pub dst: NodeId,
    /// Payload bytes the repair moves over the link.
    pub bytes: u64,
}

/// A repair as a DAG of [`Stage`]s, in topological order, ending at the
/// requestors.
///
/// The constructors keep the two directions of every edge consistent (a
/// stage's [`Output::Stage`] and its downstream stage's `upstream` entry),
/// which is why the fields are read-only from outside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairDag {
    layout: SliceLayout,
    stages: Vec<Stage>,
    requestors: Vec<NodeId>,
    deliveries: Vec<usize>,
}

impl RepairDag {
    /// Repair pipelining (§3.2): the helpers form a linear path in the given
    /// order, each adding `coefficient · block` to the partial slice it
    /// received, and the last one delivers to the requestor. With a layout
    /// of one slice per block this is the `Pipe-B` baseline of §6.4; with
    /// `f` requestors it is multi-block repair (§4.4), the path carrying one
    /// row of partial sums per requestor so that every helper block is read
    /// once for all `f` failed blocks. Each helper comes with its column of
    /// the decode matrix, one coefficient per requestor.
    pub fn chain(
        helpers: impl IntoIterator<Item = (NodeId, BlockId, Vec<u8>)>,
        requestors: &[NodeId],
        layout: SliceLayout,
    ) -> Self {
        let mut dag = Self::unconnected(helpers, requestors, layout, true);
        for next in 1..dag.stages.len() {
            dag.connect(next - 1, next);
        }
        if let Some(last) = dag.stages.len().checked_sub(1) {
            dag.deliver(last, Output::Requestors);
        }
        dag
    }

    /// Conventional repair (§2.2): every helper sends its raw block straight
    /// to the requestor, which decodes.
    pub fn star(helpers: &[(NodeId, BlockId, u8)], requestor: NodeId, layout: SliceLayout) -> Self {
        let columns = helpers.iter().map(|&(n, b, c)| (n, b, vec![c]));
        let mut dag = Self::unconnected(columns, &[requestor], layout, true);
        for stage in 0..dag.stages.len() {
            dag.deliver(stage, Output::RawToRequestors);
        }
        dag
    }

    /// Partial-parallel repair (§2.2): the binary aggregation tree of
    /// [`aggregation_rounds`], each node folding its children in round
    /// order and forwarding only once the last one is in.
    pub fn tree(helpers: &[(NodeId, BlockId, u8)], requestor: NodeId, layout: SliceLayout) -> Self {
        let columns = helpers.iter().map(|&(n, b, c)| (n, b, vec![c]));
        let mut dag = Self::unconnected(columns, &[requestor], layout, false);
        // The rounds pair stage indices, with one index past the last stage
        // standing for the requestor; a sender always precedes its receiver,
        // so path order is already topological.
        let root = dag.stages.len();
        let indices: Vec<usize> = (0..root).collect();
        for (sender, receiver) in aggregation_rounds(&indices, root).into_iter().flatten() {
            if receiver == root {
                dag.deliver(sender, Output::Requestors);
            } else {
                dag.connect(sender, receiver);
            }
        }
        dag
    }

    /// The stages with no edges yet.
    fn unconnected(
        helpers: impl IntoIterator<Item = (NodeId, BlockId, Vec<u8>)>,
        requestors: &[NodeId],
        layout: SliceLayout,
        cut_through: bool,
    ) -> Self {
        let stages = helpers
            .into_iter()
            .map(|(node, block, coeffs)| Stage {
                node,
                block,
                coeffs,
                upstream: Vec::new(),
                cut_through,
                output: Output::Requestors,
            })
            .collect();
        RepairDag {
            layout,
            stages,
            requestors: requestors.to_vec(),
            deliveries: Vec::new(),
        }
    }

    /// Adds the edge `from → to` as the next one `to` folds.
    fn connect(&mut self, from: usize, to: usize) {
        debug_assert!(from < to, "stages must stay in topological order");
        self.stages[from].output = Output::Stage(to);
        self.stages[to].upstream.push(from);
    }

    /// Makes `from` the next stage the requestors fold.
    fn deliver(&mut self, from: usize, output: Output) {
        self.stages[from].output = output;
        self.deliveries.push(from);
    }

    /// How a block is cut into slices.
    pub fn layout(&self) -> SliceLayout {
        self.layout
    }

    /// The number of partial-sum rows every stage carries: one per
    /// requestor (`1`, or `f` for multi-block repair).
    pub fn rows(&self) -> usize {
        self.requestors.len()
    }

    /// The stages, in topological order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The stages that send to the requestors, in the order the requestors
    /// fold them.
    pub fn deliveries(&self) -> &[usize] {
        &self.deliveries
    }

    /// The nodes stage `stage` sends to: its downstream stage's, or every
    /// requestor's.
    pub fn destinations(&self, stage: usize) -> Vec<NodeId> {
        match self.stages[stage].output {
            Output::Stage(next) => vec![self.stages[next].node],
            Output::Requestors | Output::RawToRequestors => self.requestors.clone(),
        }
    }

    /// Every directed link the repair uses and the bytes it will carry, in
    /// stage order. Edges that share a node pair (two requestors on one
    /// node) are one link.
    pub fn links(&self) -> Vec<Link> {
        let block = self.layout.block_size as u64;
        let mut links: Vec<Link> = Vec::new();
        for (index, stage) in self.stages.iter().enumerate() {
            let bytes = match stage.output {
                Output::Stage(_) => self.rows() as u64 * block,
                Output::Requestors | Output::RawToRequestors => block,
            };
            for dst in self.destinations(index) {
                match links
                    .iter_mut()
                    .find(|l| (l.src, l.dst) == (stage.node, dst))
                {
                    Some(link) => link.bytes += bytes,
                    None => links.push(Link {
                        src: stage.node,
                        dst,
                        bytes,
                    }),
                }
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 4096;

    fn helpers(nodes: std::ops::RangeInclusive<usize>) -> Vec<(NodeId, BlockId, u8)> {
        nodes
            .map(|n| (n, BlockId::new(0, n), n as u8 + 1))
            .collect()
    }

    /// The same helpers with a `rows`-coefficient column each.
    fn columns(
        nodes: std::ops::RangeInclusive<usize>,
        rows: u8,
    ) -> impl Iterator<Item = (NodeId, BlockId, Vec<u8>)> {
        helpers(nodes)
            .into_iter()
            .map(move |(n, b, c)| (n, b, (c..c + rows).collect()))
    }

    fn layout() -> SliceLayout {
        SliceLayout::new(BLOCK, 1024)
    }

    fn link(src: NodeId, dst: NodeId, blocks: usize) -> Link {
        Link {
            src,
            dst,
            bytes: (blocks * BLOCK) as u64,
        }
    }

    #[test]
    fn chain_is_the_path_then_the_requestor() {
        let dag = RepairDag::chain(columns(1..=4, 1), &[0], layout());
        assert_eq!(
            dag.links(),
            vec![link(1, 2, 1), link(2, 3, 1), link(3, 4, 1), link(4, 0, 1)]
        );
        assert_eq!(dag.deliveries(), &[3]);
        assert!(dag.stages().iter().all(|s| s.cut_through));
        assert_eq!(dag.stages()[2].upstream, vec![1]);
        assert_eq!(dag.stages()[2].coeffs, vec![4]);
    }

    #[test]
    fn star_sends_every_raw_block_to_the_requestor() {
        let dag = RepairDag::star(&helpers(1..=4), 0, layout());
        assert_eq!(
            dag.links(),
            vec![link(1, 0, 1), link(2, 0, 1), link(3, 0, 1), link(4, 0, 1)]
        );
        assert_eq!(dag.deliveries(), &[0, 1, 2, 3]);
        assert!(dag
            .stages()
            .iter()
            .all(|s| s.output == Output::RawToRequestors && s.upstream.is_empty()));
    }

    #[test]
    fn tree_matches_the_paper_example() {
        // Figure 2(b): k = 4 aggregates 1→2 and 3→4, then 2→4, then 4→R.
        let dag = RepairDag::tree(&helpers(1..=4), 0, layout());
        assert_eq!(
            dag.links(),
            vec![link(1, 2, 1), link(2, 4, 1), link(3, 4, 1), link(4, 0, 1)]
        );
        // Node 4 folds its round-one child before its round-two child.
        assert_eq!(dag.stages()[3].upstream, vec![2, 1]);
        assert_eq!(dag.deliveries(), &[3]);
        assert!(dag.stages().iter().all(|s| !s.cut_through));
    }

    #[test]
    fn tree_requestor_folds_its_children_in_round_order() {
        // k = 10: the requestor is paired with helper 10 in round two and
        // with helper 8 in round four.
        let dag = RepairDag::tree(&helpers(1..=10), 0, layout());
        assert_eq!(dag.deliveries(), &[9, 7]);
        assert_eq!(dag.links().len(), 10);
        for (index, stage) in dag.stages().iter().enumerate() {
            assert!(stage.upstream.iter().all(|&u| u < index), "stage {index}");
        }
    }

    #[test]
    fn chain_of_rows_bundles_between_helpers_and_splits_at_the_end() {
        // Two of the three requestors share node 8: one link, two blocks.
        let dag = RepairDag::chain(columns(1..=3, 3), &[8, 9, 8], layout());
        assert_eq!(dag.rows(), 3);
        assert_eq!(
            dag.links(),
            vec![link(1, 2, 3), link(2, 3, 3), link(3, 8, 2), link(3, 9, 1)]
        );
        assert_eq!(dag.destinations(2), vec![8, 9, 8]);
    }

    #[test]
    fn no_helpers_means_no_stages_and_no_links() {
        let dag = RepairDag::chain([], &[0], layout());
        assert!(dag.stages().is_empty() && dag.links().is_empty() && dag.deliveries().is_empty());
    }
}
