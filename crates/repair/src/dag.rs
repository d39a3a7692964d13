//! Repair plans as data: every scheme is one fold over a DAG of helpers.
//!
//! Whatever the scheme, a helper does the same thing: it reads a slice of
//! its local block, scales it by the block's decode coefficients, adds the
//! partial sums its upstream helpers sent, and forwards the result. The
//! schemes differ only in the *shape* those forwards draw — a star into the
//! requestor is conventional repair (§2.2), a binary tree is PPR, a chain is
//! repair pipelining (§3.2), a chain carrying `f` rows of partial sums is
//! multi-block repair (§4.4), and `k − 1` chains around the same helpers,
//! each carrying every `(k − 1)`-th slice, are cyclic repair (§4.1). A
//! [`RepairDag`] is that shape as a value, and it has two consumers: the
//! `ecpipe` runtime executes any of them with one walker, and
//! [`RepairDag::schedule`] lowers any of them to the slice-level tasks the
//! [`simnet`] simulator times — the only place in this crate that turns a
//! plan into simulator tasks. [`RepairDag::links`] tells an observer which
//! links the repair will load and by how much before a byte has moved.

use std::collections::HashMap;
use std::iter::StepBy;
use std::ops::Range;

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

/// One helper's part in a repair: one fold over its slice set.
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
    /// earlier in [`RepairDag::stages`] and carries the same slice set.
    pub upstream: Vec<usize>,
    /// Cut-through or store-and-forward. A cut-through stage forwards each
    /// slice as soon as it is folded, so the stages of a path work on
    /// different slices at once (repair pipelining, `Pipe-B`, multi-block
    /// repair); otherwise nothing is forwarded until its slice set is folded
    /// from every upstream stage, one upstream after the other (a PPR round).
    pub cut_through: bool,
    /// Where the stage's output goes.
    pub output: Output,
    /// The first slice of the stage's slice set: it carries slices `first`,
    /// `first + stride`, … of the block, in that order.
    pub first: usize,
    /// The distance between consecutive slices of the set.
    pub stride: usize,
}

impl Stage {
    /// The slices the stage carries, in order.
    pub fn slices(&self, layout: SliceLayout) -> StepBy<Range<usize>> {
        (self.first..layout.slice_count()).step_by(self.stride)
    }
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

/// A single-coefficient helper with its one-row decode-matrix column.
fn column(&(node, block, coeff): &(NodeId, BlockId, u8)) -> (NodeId, BlockId, Vec<u8>) {
    (node, block, vec![coeff])
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
        Self::empty(requestors, layout).with_chain(helpers, 0, 1)
    }

    /// Conventional repair (§2.2): every helper sends its raw block straight
    /// to the requestor, which decodes.
    pub fn star(helpers: &[(NodeId, BlockId, u8)], requestor: NodeId, layout: SliceLayout) -> Self {
        let mut dag = Self::empty(&[requestor], layout);
        for stage in dag.push(helpers.iter().map(column), true, 0, 1) {
            dag.deliver(stage, Output::RawToRequestors);
        }
        dag
    }

    /// Partial-parallel repair (§2.2): the binary aggregation tree of
    /// [`aggregation_rounds`], each node folding its children in round
    /// order and forwarding only once the last one is in.
    pub fn tree(helpers: &[(NodeId, BlockId, u8)], requestor: NodeId, layout: SliceLayout) -> Self {
        let mut dag = Self::empty(&[requestor], layout);
        // The rounds pair stage indices, with one index past the last stage
        // standing for the requestor; a sender always precedes its receiver,
        // so path order is already topological.
        let indices: Vec<usize> = dag.push(helpers.iter().map(column), false, 0, 1).collect();
        let root = indices.len();
        for (sender, receiver) in aggregation_rounds(&indices, root).into_iter().flatten() {
            if receiver == root {
                dag.deliver(sender, Output::Requestors);
            } else {
                dag.connect(sender, receiver);
            }
        }
        dag
    }

    /// Cyclic repair pipelining (§4.1), for a requestor behind a slow edge
    /// link: `k − 1` chains around the same helpers, chain `c` starting at
    /// helper `c` (`N_c → N_{c+1} → … → N_{c−1}`) and carrying slices `c`,
    /// `c + (k − 1)`, … to the requestor, which so reads from `k − 1`
    /// helpers at once. One helper is a plain chain, and a block of fewer
    /// than `k − 1` slices gets a chain per slice.
    pub fn cyclic(
        helpers: &[(NodeId, BlockId, u8)],
        requestor: NodeId,
        layout: SliceLayout,
    ) -> Self {
        let k = helpers.len();
        let stride = k.saturating_sub(1).max(1);
        let chains = 0..stride.min(layout.slice_count());
        chains.fold(Self::empty(&[requestor], layout), |dag, c| {
            let rotated = helpers.iter().cycle().skip(c).take(k);
            dag.with_chain(rotated.map(column), c, stride)
        })
    }

    /// A plan with no stages yet.
    fn empty(requestors: &[NodeId], layout: SliceLayout) -> Self {
        RepairDag {
            layout,
            stages: Vec::new(),
            requestors: requestors.to_vec(),
            deliveries: Vec::new(),
        }
    }

    /// Appends the helpers as stages with no edges yet, carrying the slice
    /// set `first`, `first + stride`, …, and returns their indices.
    fn push(
        &mut self,
        helpers: impl IntoIterator<Item = (NodeId, BlockId, Vec<u8>)>,
        cut_through: bool,
        first: usize,
        stride: usize,
    ) -> Range<usize> {
        let start = self.stages.len();
        let stages = helpers.into_iter().map(|(node, block, coeffs)| Stage {
            node,
            block,
            coeffs,
            upstream: Vec::new(),
            cut_through,
            output: Output::Requestors,
            first,
            stride,
        });
        self.stages.extend(stages);
        start..self.stages.len()
    }

    /// Appends the helpers as a path of cut-through stages over one slice
    /// set, the last delivering to the requestors.
    fn with_chain(
        mut self,
        helpers: impl IntoIterator<Item = (NodeId, BlockId, Vec<u8>)>,
        first: usize,
        stride: usize,
    ) -> Self {
        let stages = self.push(helpers, true, first, stride);
        for next in stages.clone().skip(1) {
            self.connect(next - 1, next);
        }
        if let Some(last) = stages.last() {
            self.deliver(last, Output::Requestors);
        }
        self
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
    /// stage order: each stage's slice set, once per row to a downstream
    /// stage. Edges that share a node pair (two requestors on one node, or
    /// two chains of a cyclic plan) are one link.
    pub fn links(&self) -> Vec<Link> {
        let mut links: Vec<Link> = Vec::new();
        for (index, stage) in self.stages.iter().enumerate() {
            let rows = match stage.output {
                Output::Stage(_) => self.rows(),
                Output::Requestors | Output::RawToRequestors => 1,
            };
            let set = stage.slices(self.layout);
            let bytes = set.map(|j| (rows * self.layout.slice_len(j)) as u64).sum();
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
    /// Per helper block and slice there is one disk read (the chains of a
    /// cyclic plan share their helpers' blocks). Per stage and slice of its
    /// set there is one fold (a compute over `rows × slice` bytes that waits
    /// for the read and for every upstream stage's transfer of that slice)
    /// and one transfer per destination: all rows bundled to a downstream
    /// stage, one slice to each requestor. An [`Output::RawToRequestors`]
    /// stage ships its read unscaled, and each requestor decodes a slice once
    /// every such stage's copy of it is in. A store-and-forward stage with
    /// upstream stages sends nothing before its slice set is folded, as
    /// [`Stage::cut_through`] defines.
    ///
    /// The simulator serves every resource in submission order, so the order
    /// of the tasks is part of the lowering. The reads come first, block by
    /// block in the order the stages name them: nothing holds them back, so
    /// a disk runs ahead of the network. The rest follows in the order a
    /// lock-step execution would run it, every hop one step: a cut-through
    /// stage (and a stage with nothing upstream, which has nothing to wait
    /// for) takes the `q`-th slice of its set `q` steps after its start, one
    /// step after its upstream stages did, which makes a chain a wavefront;
    /// a store-and-forward stage takes its set a set's worth of steps after
    /// them, which makes a tree run round by round. Within a step the lowest
    /// slice goes first, then the earliest stage. (In plain stage order a
    /// tree would queue a first-round transfer behind a second-round one on
    /// a downlink the two share.)
    pub fn schedule(&self) -> Schedule {
        let layout = self.layout;
        let len = |slice| layout.slice_len(slice) as u64;
        let rows = self.rows() as u64;
        let raw = |stage: &Stage| stage.output == Output::RawToRequestors;
        let raw_stages = self.stages.iter().filter(|s| raw(s)).count();
        // The slices a stage takes in one step, as in the runtime's walker.
        let window_len = |stage: &Stage| {
            if stage.cut_through || stage.upstream.is_empty() {
                1
            } else {
                stage.slices(layout).len()
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
            let firsts = stage.slices(layout).step_by(window_len(stage));
            let steps = firsts.enumerate();
            visits.extend(steps.map(|(q, first)| (start[index] + q, first, index)));
        }
        visits.sort_unstable();

        let mut schedule = Schedule::new();
        // reads[(node, block)][slice]: the disk read of a slice of a block.
        let mut reads = HashMap::new();
        for stage in &self.stages {
            reads.entry((stage.node, stage.block)).or_insert_with(|| {
                let slices = 0..layout.slice_count();
                slices
                    .map(|j| schedule.disk_read(stage.node, len(j), &[]))
                    .collect::<Vec<_>>()
            });
        }
        // sent[(stage, slice)]: the transfer of the slice to the next stage.
        let mut sent = HashMap::new();
        // arrived[slice][row]: the raw copies of the slice sent to a requestor.
        let mut arrived = vec![vec![Vec::new(); self.requestors.len()]; layout.slice_count()];
        for (_, first, index) in visits {
            let stage = &self.stages[index];
            let reads = &reads[&(stage.node, stage.block)];
            let set = (first..layout.slice_count()).step_by(stage.stride);
            let window = set.take(window_len(stage));
            let fold = |slice: usize| {
                if raw(stage) {
                    return reads[slice];
                }
                let inputs = stage.upstream.iter().map(|&up| sent[&(up, slice)]);
                let deps: Vec<TaskId> = inputs.chain([reads[slice]]).collect();
                schedule.compute(stage.node, rows * len(slice), &deps)
            };
            let folded: Vec<TaskId> = window.clone().map(fold).collect();
            // A window of several slices leaves only once all are folded.
            let all_folded = (folded.len() > 1).then(|| schedule.compute(stage.node, 0, &folded));
            for (slice, &sum) in window.zip(&folded) {
                let deps: Vec<TaskId> = all_folded.into_iter().chain([sum]).collect();
                if let Output::Stage(next) = stage.output {
                    let (from, to) = (stage.node, self.stages[next].node);
                    let transfer = schedule.transfer(from, to, rows * len(slice), &deps);
                    sent.insert((index, slice), transfer);
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

    #[test]
    fn cyclic_rotates_k_minus_1_chains_over_interleaved_slices() {
        // k = 4 and 8 slices: chains start at helpers 1, 2 and 3, carrying
        // slices {0, 3, 6}, {1, 4, 7} and {2, 5}.
        let dag = RepairDag::cyclic(&helpers(1..=4), 0, SliceLayout::new(BLOCK, 512));
        assert_eq!(dag.stages().len(), 3 * 4);
        let chains: Vec<Vec<NodeId>> = dag
            .stages()
            .chunks(4)
            .map(|chain| chain.iter().map(|s| s.node).collect())
            .collect();
        assert_eq!(chains, [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2]]);
        let sets: Vec<Vec<usize>> = dag
            .stages()
            .iter()
            .step_by(4)
            .map(|s| s.slices(dag.layout()).collect())
            .collect();
        assert_eq!(sets, [vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
        assert_eq!(dag.deliveries(), &[3, 7, 11]);
        // 512-byte slices: three or two of them per chain and hop.
        let slices = |n: u64| n * 512;
        assert_eq!(
            dag.links(),
            [
                (1, 2, slices(3 + 2)),
                (2, 3, slices(3 + 3)),
                (3, 4, slices(3 + 3 + 2)),
                (4, 0, slices(3)),
                (4, 1, slices(3 + 2)),
                (1, 0, slices(3)),
                (2, 0, slices(2)),
            ]
            .map(|(src, dst, bytes)| Link { src, dst, bytes })
        );
    }

    #[test]
    fn cyclic_builds_no_chain_without_slices() {
        // Two slices and k = 4: two chains, one slice each.
        let dag = RepairDag::cyclic(&helpers(1..=4), 0, SliceLayout::new(BLOCK, BLOCK / 2));
        assert_eq!(dag.deliveries(), &[3, 7]);
        // One helper is a plain chain.
        let one = RepairDag::cyclic(&helpers(1..=1), 0, layout());
        assert_eq!(one, RepairDag::chain(columns(1..=1, 1), &[0], layout()));
    }

    mod cyclic {
        use crate::{analysis, Scheme, SingleRepairJob};
        use ecc::slice::SliceLayout;
        use simnet::{CostModel, Simulator, Topology, GBIT, MBIT};

        const MIB: usize = 1024 * 1024;

        #[test]
        fn matches_basic_rp_on_homogeneous_network() {
            let block = 32 * MIB;
            let layout = SliceLayout::new(block, 32 * 1024);
            let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
            let sim = Simulator::new(Topology::flat(12, GBIT), CostModel::network_only());
            let cyclic_time = sim
                .run(&Scheme::CyclicRepairPipelining.schedule(&job))
                .makespan;
            let basic_time = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
            let timeslot = analysis::timeslot_seconds(block, GBIT);
            assert!((cyclic_time - basic_time).abs() / basic_time < 0.05);
            assert!(cyclic_time < 1.05 * timeslot);
        }

        #[test]
        fn beats_basic_rp_under_limited_edge_bandwidth() {
            // Figure 8(g): 1 Gb/s inside the storage system, 100 Mb/s from
            // every helper to the requestor.
            let block = 64 * MIB;
            let layout = SliceLayout::new(block, 32 * 1024);
            let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
            let mut topo = Topology::flat(12, GBIT);
            topo.limit_ingress(0, 100.0 * MBIT);
            let sim = Simulator::new(topo, CostModel::network_only());
            let cyclic_time = sim
                .run(&Scheme::CyclicRepairPipelining.schedule(&job))
                .makespan;
            let basic_time = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
            // The basic version is bottlenecked by the single delivery link;
            // the cyclic version spreads delivery over k-1 edge links.
            assert!(
                cyclic_time < 0.4 * basic_time,
                "cyclic {cyclic_time} vs basic {basic_time}"
            );
        }

        #[test]
        fn requestor_reads_from_k_minus_1_helpers() {
            let block = 4 * MIB;
            let layout = SliceLayout::new(block, 256 * 1024);
            let job = SingleRepairJob::new(vec![1, 2, 3, 4, 5], 0, layout);
            let sim = Simulator::new(Topology::flat(7, GBIT), CostModel::network_only());
            let report = sim.run(&Scheme::CyclicRepairPipelining.schedule(&job));
            let delivery_links: Vec<_> = report
                .link_bytes
                .keys()
                .filter(|(_, dst)| *dst == 0)
                .collect();
            assert_eq!(delivery_links.len(), 4);
        }

        #[test]
        fn total_traffic_is_k_blocks_worth() {
            let block = 4 * MIB;
            let layout = SliceLayout::new(block, 256 * 1024);
            let job = SingleRepairJob::new(vec![1, 2, 3, 4], 0, layout);
            let sim = Simulator::new(Topology::flat(6, GBIT), CostModel::network_only());
            let report = sim.run(&Scheme::CyclicRepairPipelining.schedule(&job));
            assert_eq!(report.network_bytes, 4 * block as u64);
        }

        #[test]
        fn single_helper_degenerate_case() {
            let layout = SliceLayout::new(MIB, 128 * 1024);
            let job = SingleRepairJob::new(vec![1], 0, layout);
            let sim = Simulator::new(Topology::flat(2, GBIT), CostModel::network_only());
            let report = sim.run(&Scheme::CyclicRepairPipelining.schedule(&job));
            assert_eq!(report.network_bytes, MIB as u64);
        }
    }
}
