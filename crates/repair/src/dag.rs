//! Repair plans as data: every scheme is one fold over a DAG of helpers.
//!
//! Whatever the scheme, a helper does the same thing: it reads a slice of
//! its local block, scales it by the block's decode coefficients, adds the
//! partial sums its upstream helpers sent, and forwards the result. The
//! schemes differ only in the *shape* those forwards draw — a star into the
//! requestor is conventional repair (§2.2), a binary tree is PPR, a chain is
//! repair pipelining (§3.2), a chain carrying `f` rows of partial sums is
//! multi-block repair (§4.4). A [`RepairDag`] is that shape as a value, and
//! it has two consumers: the `ecpipe` runtime executes any of them with one
//! walker, and [`RepairDag::schedule`] lowers any of them to the slice-level
//! tasks the [`simnet`] simulator times — the only place in this crate that
//! turns a chain, star or tree into simulator tasks. [`RepairDag::links`]
//! tells an observer which links the repair will load and by how much before
//! a byte has moved.

use ecc::slice::SliceLayout;
use ecc::stripe::BlockId;
use simnet::{NodeId, Schedule, TaskId};

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

    /// The plan as simulator tasks: what the runtime's walker does, slice by
    /// slice, for a [`simnet::Simulator`] to time.
    ///
    /// Per stage and slice there is one disk read, one fold (a compute over
    /// `rows × slice` bytes that waits for the read and for every upstream
    /// stage's transfer of that slice) and one transfer per destination:
    /// all rows bundled to a downstream stage, one slice to each requestor.
    /// An [`Output::RawToRequestors`] stage ships its read unscaled, and each
    /// requestor decodes a slice once every such stage's copy of it is in. A
    /// store-and-forward stage with upstream stages sends nothing before its
    /// whole block is folded, as [`Stage::cut_through`] defines.
    ///
    /// The simulator serves every resource in submission order, so the order
    /// of the tasks is part of the lowering. The reads come first: nothing
    /// holds them back, so a disk runs ahead of the network. The rest follows
    /// in the order a lock-step execution would run it, every hop one step:
    /// a cut-through stage (and a stage with nothing upstream, which has
    /// nothing to wait for) takes slice `j` one step after its upstream
    /// stages did, which makes a chain a wavefront; a store-and-forward stage
    /// takes its block a block's worth of steps after them, which makes a
    /// tree run round by round. Within a step the oldest slice goes first.
    /// (In plain stage order a tree would queue a first-round transfer behind
    /// a second-round one on a downlink the two share.)
    pub fn schedule(&self) -> Schedule {
        let slices = self.layout.slice_count();
        let len = |slice| self.layout.slice_len(slice) as u64;
        let rows = self.rows() as u64;
        let raw = |stage: &Stage| stage.output == Output::RawToRequestors;
        let raw_stages = self.stages.iter().filter(|s| raw(s)).count();
        // The slices a stage takes in one step, as in the runtime's walker.
        let window_len = |stage: &Stage| {
            if stage.cut_through || stage.upstream.is_empty() {
                1
            } else {
                slices
            }
        };
        // Every (step, first slice of the window, stage) of the lock-step run.
        let mut start = vec![0; self.stages.len()];
        let mut visits = Vec::new();
        for (index, stage) in self.stages.iter().enumerate() {
            let ready = stage
                .upstream
                .iter()
                .map(|&up| start[up] + window_len(stage));
            start[index] = ready.max().unwrap_or(0);
            let firsts = (0..slices).step_by(window_len(stage));
            visits.extend(firsts.map(|first| (start[index] + first, first, index)));
        }
        visits.sort_unstable();

        let mut schedule = Schedule::new();
        // reads[stage][slice]: the disk read of the stage's local slice.
        let mut reads: Vec<Vec<TaskId>> = Vec::new();
        for stage in &self.stages {
            let block = (0..slices).map(|slice| schedule.disk_read(stage.node, len(slice), &[]));
            reads.push(block.collect());
        }
        // sent[stage][slice]: the transfer of the slice to the next stage.
        let mut sent: Vec<Vec<TaskId>> = vec![Vec::new(); self.stages.len()];
        // arrived[slice][row]: the raw copies of the slice sent to a requestor.
        let mut arrived = vec![vec![Vec::new(); self.requestors.len()]; slices];
        for (_, first, index) in visits {
            let stage = &self.stages[index];
            let window = first..(first + window_len(stage)).min(slices);
            let fold = |slice| {
                if raw(stage) {
                    return reads[index][slice];
                }
                let inputs = stage.upstream.iter().map(|&up| sent[up][slice]);
                let deps: Vec<TaskId> = inputs.chain([reads[index][slice]]).collect();
                schedule.compute(stage.node, rows * len(slice), &deps)
            };
            let folded: Vec<TaskId> = window.clone().map(fold).collect();
            // A window of several slices leaves only once all are folded.
            let all_folded = (folded.len() > 1).then(|| schedule.compute(stage.node, 0, &folded));
            for (slice, &sum) in window.zip(&folded) {
                let deps: Vec<TaskId> = all_folded.into_iter().chain([sum]).collect();
                if let Output::Stage(next) = stage.output {
                    let (from, to) = (stage.node, self.stages[next].node);
                    sent[index].push(schedule.transfer(from, to, rows * len(slice), &deps));
                    continue;
                }
                for (row, &requestor) in self.requestors.iter().enumerate() {
                    let arrival = schedule.transfer(stage.node, requestor, len(slice), &deps);
                    if !raw(stage) {
                        continue;
                    }
                    let copies = &mut arrived[slice][row];
                    copies.push(arrival);
                    if copies.len() == raw_stages {
                        schedule.compute(requestor, raw_stages as u64 * len(slice), copies);
                    }
                }
            }
        }
        schedule
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
        assert!(dag.schedule().is_empty());
    }

    /// The lowering over constructor × `k` × slices per block × `f`: the
    /// tasks are in dependency order, the simulator moves the bytes `links()`
    /// declares, and on a flat network it takes the paper's closed-form time.
    #[test]
    fn schedule_moves_the_declared_bytes_in_the_closed_form_time() {
        use crate::analysis;
        use simnet::{CostModel, Simulator, Topology, GBIT};

        let sim = Simulator::new(Topology::flat(16, GBIT), CostModel::network_only());
        let timeslot = analysis::timeslot_seconds(BLOCK, GBIT);
        for k in [1, 2, 3, 10] {
            // 3 slices do not divide the block: the last one is shorter.
            for slices in [1, 3, 32] {
                let layout = SliceLayout::new(BLOCK, BLOCK.div_ceil(slices));
                let single = helpers(1..=k);
                let star = RepairDag::star(&single, 11, layout);
                let tree = RepairDag::tree(&single, 11, layout);
                let mut cases = vec![
                    ("star", star, analysis::conventional_single(k)),
                    ("tree", tree, analysis::ppr_single(k)),
                ];
                for f in [1, 3] {
                    let columns = columns(1..=k, f as u8);
                    let chain = RepairDag::chain(columns, &[11, 12, 13][..f], layout);
                    cases.push(("chain", chain, analysis::rp_multi(k, slices, f)));
                }
                for (shape, dag, timeslots) in cases {
                    let case = format!("{shape}, k = {k}, {slices} slices, f = {}", dag.rows());
                    let schedule = dag.schedule();
                    for task in schedule.tasks() {
                        assert!(task.deps.iter().all(|&dep| dep < task.id), "{case}");
                    }
                    let report = sim.run(&schedule);
                    let declared = dag.links().into_iter().map(|l| ((l.src, l.dst), l.bytes));
                    assert_eq!(report.link_bytes, declared.collect(), "{case}");
                    let expected = timeslots * timeslot;
                    assert!(
                        (report.makespan - expected).abs() / expected < 0.01,
                        "{case}: {} s, expected {expected} s",
                        report.makespan
                    );
                }
            }
        }
    }
}
