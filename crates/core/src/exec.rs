//! The repair executor: one thread walks a whole repair, moving real bytes.
//!
//! Every repair the paper describes is one fold — a helper reads a slice of
//! its block, scales it by the block's decode coefficients, adds the
//! partial sums it received and forwards — over a different shape, and the
//! shape is data: a [`RepairDag`]. One walker (`Walk::run`) runs any of
//! them against the cluster's block stores, so the reconstructed block can
//! be checked byte-for-byte against the erased one. A one-row stage takes
//! the received partial sums first and has its block reader fold its slice
//! into them as it reads it ([`BlockReader::fold_into`]): on a checksummed
//! store, one pass that verifies, scales and adds.
//!
//! A single-block repair's shape is a [`Scheme`], which
//! [`Scheme::dag`] turns into its plan:
//!
//! * [`Scheme::Conventional`] — a star: every helper streams its raw
//!   block to the requestor, which performs the decoding combination (§2.2).
//! * [`Scheme::Ppr`] — partial-parallel repair: a binary aggregation
//!   tree whose nodes forward only once their children are folded (§2.2).
//! * [`Scheme::RepairPipelining`] — the paper's contribution: a chain;
//!   slices flow along the helper path, each helper adding `a_i * B_i`
//!   (§3.2).
//! * [`Scheme::BlockPipeline`] — the `Pipe-B` baseline of §6.4: the
//!   same chain with one slice per block.
//! * [`Scheme::CyclicRepairPipelining`] — `k − 1` chains over interleaved
//!   slice sets (§4.1).
//!
//! [`execute_multi`] walks the chain carrying `f` rows of partial sums
//! (§4.4).
//!
//! # One thread, every stage
//!
//! §3.2's pipeline has every helper working on a different slice in the
//! same timeslot. The walker gets that overlap without a thread per helper:
//! the calling thread holds both halves of every link of the plan and a
//! cursor per stage (which slice it is on, and whether it folds an input or
//! sends next), and repeatedly takes the most-downstream step that cannot
//! wait on another thread — the requestors first, then the stages from the
//! last. A fold takes a slice only from a link that already holds a frame
//! this walker wrote, which both transports hand over without waiting on
//! another thread; a send goes only into a free credit of its link
//! ([`PIPELINE_DEPTH`] per link) and only once the link's token bucket has
//! paid for it, polled without blocking.
//!
//! A send queues its frame on the link (over `TcpTransport`; channels write
//! it at once), and a link writes its queue when it holds a credit window
//! of frames — one `writev` for [`PIPELINE_DEPTH`] slices, read back with
//! one `read` — or when a scan finds no step at all, so no frame waits for
//! company that is not coming. When the scan after that flush still finds
//! no step, the walker sleeps until the earliest pacing deadline, so shaped
//! links pace in parallel as they would on separate machines, each paid
//! frame written on its own. In an unshaped chain a window of slices
//! travels the whole path before the next one is read.
//!
//! A watched repair (the manager's
//! [`link_watch`](crate::ManagerConfig::link_watch), §3.2's straggler
//! handling on §4.3's weighted paths) carries a `Watch` over its plan's
//! links: between steps the walker samples their byte counters at most
//! once per `WATCH_TICK`, and caps its pacing sleep at the next sample. A
//! hop that has streamed for `WATCH_GRACE` below `DEGRADED_BELOW` × its
//! nominal bandwidth ends the walk with [`EcPipeError::LinkFailed`], as
//! any failed hop does, and the manager re-plans around it.
//!
//! The walker is generic over the [`Transport`] trait: the same plans run
//! over in-process channels
//! ([`ChannelTransport`](crate::transport::ChannelTransport), no bandwidth
//! limits, used for correctness tests and throughput microbenches) or real
//! localhost sockets ([`TcpTransport`](crate::transport::TcpTransport),
//! optionally throttled so the §3.2 timing claims can be measured on the
//! wire). Timing-shape experiments at scale still run on the `simnet`
//! simulator.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gf256::Gf256;
use repair::dag::{Output, RepairDag, Stage};
use repair::Scheme;
use simnet::{NodeId, Topology};

use ecc::slice::SliceLayout;

use crate::buf::{BufPool, PooledBuf};
use crate::cluster::Cluster;
use crate::coordinator::{MultiRepairDirective, RepairDirective};
use crate::store::BlockReader;
use crate::transport::{SliceMsg, SliceReceiver, SliceSender, Transport};
use crate::{EcPipeError, LinkFailure, Result};

/// The number of slices a stage may run ahead of the stage (or requestor)
/// it sends to: the credit window of every link of a plan.
pub const PIPELINE_DEPTH: usize = 8;

fn execution_error(reason: impl Into<String>) -> EcPipeError {
    EcPipeError::Execution {
        reason: reason.into(),
    }
}

/// The shape of a multi-block repair: the helper path carrying one row of
/// partial sums per failed block, helper `i` holding column `i` of the
/// plan's coefficient matrix.
pub fn multi_dag(directive: &MultiRepairDirective) -> RepairDag {
    let columns = directive
        .path
        .iter()
        .enumerate()
        .map(|(i, &(node, block))| {
            let column = directive.plan.coefficients.iter().map(|row| row[i]);
            (node, block, column.collect())
        });
    RepairDag::chain(columns, &directive.requestors, directive.layout)
}

/// Executes a single-block repair and returns the reconstructed block, a
/// buffer of the cluster's [block pool](Cluster::block_pool).
pub fn execute_single<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    strategy: Scheme,
) -> Result<Bytes> {
    let dag = strategy.dag(&directive.path, directive.requestor, directive.layout);
    walk_single(directive, &dag, cluster, transport, None)
}

/// Walks `dag`, a plan for `directive`, under `watch` when one is given. A
/// walk that fails — on a failed hop too — stores nothing: the caller
/// stores the block, and only on success.
pub(crate) fn walk_single<T: Transport + ?Sized>(
    directive: &RepairDirective,
    dag: &RepairDag,
    cluster: &Cluster,
    transport: &T,
    watch: Option<Watch>,
) -> Result<Bytes> {
    let walk = Walk {
        dag,
        tags: (directive.stripe.0, directive.repair_id()),
        cluster,
    };
    Ok(walk.run(transport, watch)?.remove(0))
}

/// Executes a multi-block repair (§4.4): each helper reads its block once and
/// forwards a bundle of `f` partial slices per offset; the last helper
/// delivers each reconstructed slice to its requestor. Returns the blocks in
/// `plan.failed` order, each a buffer of the cluster's block pool.
pub fn execute_multi<T: Transport + ?Sized>(
    directive: &MultiRepairDirective,
    cluster: &Cluster,
    transport: &T,
) -> Result<Vec<Bytes>> {
    Walk {
        dag: &multi_dag(directive),
        tags: (directive.stripe.0, directive.repair_id()),
        cluster,
    }
    .run(transport, None)
}

/// A watched hop is judged only once it has been streaming (moving bytes)
/// for this long, so pipeline fill and startup jitter cannot end a healthy
/// repair.
const WATCH_GRACE: Duration = Duration::from_millis(150);

/// How often a watched walk samples its hops' byte counters.
const WATCH_TICK: Duration = Duration::from_millis(25);

/// A hop is degraded when its observed throughput (bytes moved over the
/// wall time since its first byte) drops below this fraction of its nominal
/// bandwidth.
const DEGRADED_BELOW: f64 = 0.5;

/// The link watch over one walk: its plan's hops, each with the pair's byte
/// counter when the walk began and the moment it was first seen streaming.
///
/// The observed rate is bytes moved over *wall time*, not the telemetry's
/// busy-time EWMA: a fully stalled link accrues no send time, which a
/// busy-time estimate would never notice. Counters are pair-wide, so traffic
/// from concurrent repairs sharing a pair only inflates the observed rate
/// and cannot flag a healthy link.
pub(crate) struct Watch {
    hops: Vec<WatchedHop>,
    next_sample: Instant,
}

struct WatchedHop {
    src: NodeId,
    dst: NodeId,
    /// The rate, in bytes per second, below which the hop is degraded.
    floor: f64,
    /// The pair's byte counter when the walk began.
    baseline: u64,
    /// The first sample that saw the hop move bytes.
    first: Option<Instant>,
}

impl Watch {
    /// Watches `dag`'s links over `transport`, each against its nominal
    /// bandwidth in `topology`.
    pub(crate) fn new<T: Transport + ?Sized>(
        dag: &RepairDag,
        transport: &T,
        topology: &Topology,
    ) -> Self {
        let hops = dag.links().into_iter().map(|hop| WatchedHop {
            src: hop.src,
            dst: hop.dst,
            floor: DEGRADED_BELOW * topology.bandwidth(hop.src, hop.dst),
            baseline: transport.link_bytes(hop.src, hop.dst),
            first: None,
        });
        Watch {
            hops: hops.collect(),
            next_sample: Instant::now(),
        }
    }

    /// Samples the hops once a tick has passed since the last sample. A hop
    /// is judged from the sample that first sees it move bytes, not from
    /// the start of the walk: in a chain the hop into the requestor streams
    /// only once the pipeline has filled, and a hop that has moved nothing
    /// is still filling (or its helper is gone, which the walk reports on
    /// its own).
    fn sample<T: Transport + ?Sized>(&mut self, transport: &T) -> Result<()> {
        let now = Instant::now();
        if now < self.next_sample {
            return Ok(());
        }
        self.next_sample = now + WATCH_TICK;
        for hop in &mut self.hops {
            let moved = transport
                .link_bytes(hop.src, hop.dst)
                .saturating_sub(hop.baseline);
            if moved == 0 {
                continue;
            }
            let since = now.duration_since(*hop.first.get_or_insert(now));
            if since >= WATCH_GRACE && (moved as f64) < hop.floor * since.as_secs_f64() {
                let (src, dst, cause) = (hop.src, hop.dst, LinkFailure::Degraded);
                return Err(EcPipeError::LinkFailed { src, dst, cause });
            }
        }
        Ok(())
    }

    /// Sleeps until `at` or the next sample, whichever comes first.
    /// Whatever made the sleep return late (a loaded host, a stopped
    /// process) kept the senders off the CPU too: that time is not the
    /// links', so every hop's clock starts that much later.
    fn sleep_until(&mut self, at: Instant) {
        let asleep = Instant::now();
        let planned = at.min(self.next_sample).saturating_duration_since(asleep);
        std::thread::sleep(planned);
        let overslept = asleep.elapsed().saturating_sub(planned);
        for first in self.hops.iter_mut().filter_map(|hop| hop.first.as_mut()) {
            *first += overslept;
        }
    }
}

/// One repair in progress: the plan, and what all of its stages share.
struct Walk<'a> {
    dag: &'a RepairDag,
    /// The stripe and repair ids that label the repair's slices on the wire.
    tags: (u64, u64),
    cluster: &'a Cluster,
}

impl Walk<'_> {
    /// Runs the plan end to end on the calling thread and returns one
    /// reconstructed block per requestor, each taken from the cluster's
    /// block pool: one [`PIPELINE_DEPTH`]-slice link per edge of the plan,
    /// both of its halves held here, and the most-downstream step that can
    /// run taken again and again — with `watch`'s samples between them.
    fn run<T: Transport + ?Sized>(
        &self,
        transport: &T,
        mut watch: Option<Watch>,
    ) -> Result<Vec<Bytes>> {
        let dag = self.dag;
        if dag.stages().is_empty() {
            return Err(execution_error("repair path has no helpers"));
        }
        // Pre-flight: every helper opens its block, once for all the slices
        // of all its stages, before any link exists. A block that disappeared
        // after planning surfaces as `BlockNotFound`, which lets the caller
        // restart with a different helper set (§3.2).
        let mut readers = HashMap::new();
        for stage in dag.stages() {
            if let Entry::Vacant(entry) = readers.entry((stage.node, stage.block)) {
                entry.insert(self.cluster.store(stage.node).reader(stage.block)?);
            }
        }

        let mut links = Vec::new();
        let mut stages: Vec<Cursor<'_>> = Vec::with_capacity(dag.stages().len());
        for (index, stage) in dag.stages().iter().enumerate() {
            let block = &*readers[&(stage.node, stage.block)];
            let outputs = dag
                .destinations(index)
                .into_iter()
                .map(|dst| {
                    let (tx, rx) = transport.link(stage.node, dst, PIPELINE_DEPTH);
                    links.push(Link::new((stage.node, dst), tx, rx));
                    links.len() - 1
                })
                .collect();
            let inputs = stage
                .upstream
                .iter()
                .flat_map(|&up| stages[up].outputs.clone())
                .collect();
            stages.push(Cursor::new(dag, stage, block, inputs, outputs));
        }
        let deliveries = dag
            .deliveries()
            .iter()
            .map(|&from| (from, stages[from].outputs.clone()))
            .collect();
        let mut requestors = Requestors::new(dag, deliveries, self.cluster.block_pool());

        // One pool serves the whole plan: a partial buffer freed by the
        // downstream consumer is reused for a later slice, so the steady
        // state allocates nothing per slice.
        let pool = &BufPool::new();
        while !requestors.done() {
            // Every step is one slice's worth of one stage's work.
            if let Some(watch) = &mut watch {
                watch.sample(transport)?;
            }
            // A step that can run; failing that, the queued frames written
            // and one more scan; failing that, every send left is waiting
            // for its pacing.
            let mut turn = self.step(&mut requestors, &mut stages, &mut links, pool)?;
            if let Turn::Blocked(_) = turn {
                for link in &mut links {
                    link.flush()?;
                }
                turn = self.step(&mut requestors, &mut stages, &mut links, pool)?;
            }
            if let Turn::Blocked(wake) = turn {
                let at = wake.ok_or_else(|| execution_error("repair stalled: no step can run"))?;
                match &mut watch {
                    Some(watch) => watch.sleep_until(at),
                    None => std::thread::sleep(at.saturating_duration_since(Instant::now())),
                }
            }
        }
        Ok(requestors
            .blocks
            .into_iter()
            .map(PooledBuf::freeze)
            .collect())
    }

    /// Takes the most-downstream step that can run — the requestors', else
    /// the stages' from the last — or reports the earliest pacing deadline
    /// met on the way.
    fn step(
        &self,
        requestors: &mut Requestors<'_>,
        stages: &mut [Cursor<'_>],
        links: &mut [Link],
        pool: &BufPool,
    ) -> Result<Turn> {
        let mut wake: Option<Instant> = None;
        let mut turn = requestors.turn(links)?;
        let mut upstream = stages.iter_mut().rev();
        while let Turn::Blocked(at) = turn {
            wake = wake.into_iter().chain(at).min();
            match upstream.next() {
                Some(stage) => turn = stage.turn(self, links, pool)?,
                None => return Ok(Turn::Blocked(wake)),
            }
        }
        Ok(Turn::Took)
    }

    /// Sends slice `j` on: whole to a downstream stage, or cut into one row
    /// per requestor — each a view into the shared buffer, not its own copy.
    fn send(&self, j: usize, data: Bytes, outputs: &[usize], links: &mut [Link]) -> Result<()> {
        let (stripe, repair) = self.tags;
        let row = data.len() / outputs.len();
        for (r, &out) in outputs.iter().enumerate() {
            let view = data.slice(r * row..(r + 1) * row);
            links[out].send(SliceMsg::new(j, view).tagged(stripe, repair))?;
        }
        Ok(())
    }
}

/// One edge of the plan, both halves held by the walker, and how many
/// frames it has carried each way.
struct Link {
    /// Declared before `tx`, so the receiver goes first: a finished link's
    /// sender then has nobody to tell that the stream ended (and over TCP
    /// writes no end-of-stream frame).
    rx: SliceReceiver,
    tx: SliceSender,
    /// The hop, which a `LinkFailed` for whatever fails on the link names.
    hop: (NodeId, NodeId),
    /// Frames sent and waiting in the sender's queue for its next flush.
    queued: usize,
    /// Frames written to the receiver's side, and frames received.
    written: usize,
    received: usize,
}

impl Link {
    fn new(hop: (NodeId, NodeId), tx: SliceSender, rx: SliceReceiver) -> Self {
        Link {
            rx,
            tx,
            hop,
            queued: 0,
            written: 0,
            received: 0,
        }
    }

    /// A frame this walker wrote is waiting to be received.
    fn holds_a_frame(&self) -> bool {
        self.received < self.written
    }

    /// A send cannot block on the credit window, which queued frames take
    /// their share of.
    fn has_credit(&self) -> bool {
        self.queued + self.written - self.received < PIPELINE_DEPTH
    }

    /// The hop failed with `cause`.
    fn failed(&self, cause: impl Into<LinkFailure>) -> EcPipeError {
        let (src, dst, cause) = (self.hop.0, self.hop.1, cause.into());
        EcPipeError::LinkFailed { src, dst, cause }
    }

    /// Sends a frame, writing the queue once it holds a credit window.
    fn send(&mut self, msg: SliceMsg) -> Result<()> {
        if self.tx.queue(msg).map_err(|e| self.failed(e))? {
            self.written += 1;
        } else {
            self.queued += 1;
        }
        if self.queued == PIPELINE_DEPTH {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the frames queued so far.
    fn flush(&mut self) -> Result<()> {
        if self.queued > 0 {
            self.tx.flush().map_err(|e| self.failed(e))?;
            self.written += std::mem::take(&mut self.queued);
        }
        Ok(())
    }

    /// Receives the next frame, which the plan says is slice `index`, `len`
    /// bytes long; a frame that is not fails the repair.
    fn recv(&mut self, index: usize, len: usize) -> Result<SliceMsg> {
        let msg = self
            .rx
            .recv()
            .ok_or_else(|| self.failed(LinkFailure::PeerGone))?;
        self.received += 1;
        if (msg.index, msg.data.len()) != (index, len) {
            return Err(self.failed(LinkFailure::Malformed));
        }
        Ok(msg)
    }
}

/// What a cursor did when its turn came.
enum Turn {
    /// It took one step.
    Took,
    /// It cannot step until the instant given (a link's pacing) or, with
    /// `None`, until some other cursor steps.
    Blocked(Option<Instant>),
}

/// A helper stage's next step.
#[derive(Clone, Copy)]
enum Step {
    /// Fold the `pos`-th slice of the set from input `input` into the
    /// window's partial sums.
    Fold {
        input: usize,
        pos: usize,
    },
    /// Send the `pos`-th slice of the set on.
    Send {
        pos: usize,
    },
    Done,
}

/// Where one helper stage is in its slice set. It works a window of slices
/// at a time — each input's slices of the window folded in fold order, then
/// the window sent on. A cut-through stage's window is one slice, so it
/// works on one slice while its downstream stage works on the one before; a
/// store-and-forward stage's window is its whole set — unless it has no
/// inputs to wait for.
struct Cursor<'a> {
    stage: &'a Stage,
    block: &'a dyn BlockReader,
    /// The links it folds, in fold order, and the links it sends on (one per
    /// destination), as indices into the walker's links.
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    /// The stage's column of the decode matrix, one coefficient per row.
    coeffs: gf256::Matrix,
    layout: SliceLayout,
    /// Slices in the set, and per window.
    count: usize,
    width: usize,
    /// The window being worked, as positions in the set.
    window: Range<usize>,
    next: Step,
    /// The window's partial sums, from its first slice on.
    held: VecDeque<PooledBuf>,
}

impl<'a> Cursor<'a> {
    fn new(
        dag: &RepairDag,
        stage: &'a Stage,
        block: &'a dyn BlockReader,
        inputs: Vec<usize>,
        outputs: Vec<usize>,
    ) -> Self {
        let layout = dag.layout();
        let count = stage.slices(layout).len();
        let per_slice = stage.cut_through || inputs.is_empty();
        let mut cursor = Cursor {
            stage,
            block,
            inputs,
            outputs,
            coeffs: gf256::Matrix::from_bytes(dag.rows(), 1, &stage.coeffs),
            layout,
            count,
            width: if per_slice { 1 } else { count },
            window: 0..0,
            next: Step::Done,
            held: VecDeque::new(),
        };
        cursor.next = cursor.window_from(0);
        cursor
    }

    /// Opens the window that starts at `pos` and returns its first step.
    fn window_from(&mut self, pos: usize) -> Step {
        self.window = pos..(pos + self.width).min(self.count);
        match (pos == self.count, self.inputs.is_empty()) {
            (true, _) => Step::Done,
            (false, true) => Step::Send { pos },
            (false, false) => Step::Fold { input: 0, pos },
        }
    }

    /// The block's slice at `pos` in the set.
    fn slice(&self, pos: usize) -> usize {
        self.stage.first + pos * self.stage.stride
    }

    /// Takes the stage's next step if nothing it needs is missing.
    fn turn(&mut self, walk: &Walk<'_>, links: &mut [Link], pool: &BufPool) -> Result<Turn> {
        match self.next {
            Step::Done => Ok(Turn::Blocked(None)),
            Step::Fold { input, pos } => {
                let link = &mut links[self.inputs[input]];
                if !link.holds_a_frame() {
                    return Ok(Turn::Blocked(None));
                }
                let slice = self.slice(pos);
                let len = self.coeffs.rows() * self.layout.slice_range(slice).len();
                let msg = link.recv(slice, len)?;
                if input == 0 {
                    let partial = self.local_partial(slice, Some(&msg.data), pool)?;
                    self.held.push_back(partial);
                } else {
                    gf256::add_slice(&msg.data, &mut self.held[pos - self.window.start]);
                }
                let start = self.window.start;
                self.next = if pos + 1 < self.window.end {
                    Step::Fold {
                        input,
                        pos: pos + 1,
                    }
                } else if input + 1 < self.inputs.len() {
                    Step::Fold {
                        input: input + 1,
                        pos: start,
                    }
                } else {
                    Step::Send { pos: start }
                };
                Ok(Turn::Took)
            }
            Step::Send { pos } => {
                let slice = self.slice(pos);
                if let Some(wait) = self.blocked_send(slice, links) {
                    return Ok(Turn::Blocked(wait));
                }
                let raw = self.stage.output == Output::RawToRequestors;
                let data = match self.held.pop_front() {
                    Some(partial) => partial.freeze(),
                    None if raw => self.block.read(self.layout.slice_range(slice))?,
                    None => self.local_partial(slice, None, pool)?.freeze(),
                };
                walk.send(slice, data, &self.outputs, links)?;
                self.next = if pos + 1 < self.window.end {
                    Step::Send { pos: pos + 1 }
                } else {
                    self.window_from(pos + 1)
                };
                Ok(Turn::Took)
            }
        }
    }

    /// Why slice `slice` cannot be sent yet, if it cannot: a link out of
    /// credit (`Some(None)`), or links whose pacing has not paid for it
    /// (`Some(Some(instant))`: when the first of them is worth polling
    /// again). Every output's pacing is polled, so they all pay at once.
    fn blocked_send(&self, slice: usize, links: &[Link]) -> Option<Option<Instant>> {
        if !self.outputs.iter().all(|&out| links[out].has_credit()) {
            return Some(None);
        }
        let slice_len = self.layout.slice_range(slice).len();
        let payload = match self.stage.output {
            Output::RawToRequestors => slice_len,
            _ => self.coeffs.rows() * slice_len,
        };
        let per_output = payload / self.outputs.len();
        self.outputs
            .iter()
            .filter_map(|&out| links[out].tx.poll_pacing(per_output))
            .min()
            .map(Some)
    }

    /// Slice `j` of the local block scaled by the stage's coefficients — the
    /// stage's own term of every row, rows back to back — plus the partial
    /// sums `incoming` from upstream, if any. A one-row stage has its block
    /// reader fold the slice straight into the buffer it sends on (checked,
    /// scaled and added in one pass on a checksummed store).
    fn local_partial(
        &self,
        j: usize,
        incoming: Option<&[u8]>,
        pool: &BufPool,
    ) -> Result<PooledBuf> {
        let range = self.layout.slice_range(j);
        let mut partial = pool.take(self.coeffs.rows() * range.len());
        if let [coeff] = self.stage.coeffs[..] {
            self.block
                .fold_into(range, Gf256::new(coeff), incoming, &mut partial)?;
        } else {
            // One fused kernel call scales the slice into all rows.
            let local = self.block.read(range)?;
            let mut rows: Vec<&mut [u8]> = partial.chunks_exact_mut(local.len()).collect();
            gf256::dot_prod(&self.coeffs, &[&local], &mut rows, false);
            if let Some(incoming) = incoming {
                gf256::add_slice(incoming, &mut partial);
            }
        }
        Ok(partial)
    }
}

/// The requestors' side: they fold what is delivered to them, one
/// delivering stage after the other, and within a stage slice by slice of
/// its set in its send order, every row of a slice before the next slice.
/// On shaped links that link-by-link drain is what makes a star cost `k`
/// timeslots: the stages not being read yet stop at their credit window.
///
/// The blocks they fold into come from the cluster's block pool, holding
/// whatever the block that last used them held: the first delivery that
/// covers a slice writes it, in every row, and only later ones (a star's)
/// accumulate.
struct Requestors<'a> {
    dag: &'a RepairDag,
    /// Per delivering stage, in fold order: the stage and its links, one
    /// per requestor.
    deliveries: Vec<(usize, Vec<usize>)>,
    /// The next slice to fold: (delivery, slice, row); `None` once done.
    next: Option<(usize, usize, usize)>,
    blocks: Vec<PooledBuf>,
    /// Per slice, whether a delivery has written it.
    written: Vec<bool>,
}

impl<'a> Requestors<'a> {
    fn new(dag: &'a RepairDag, deliveries: Vec<(usize, Vec<usize>)>, pool: &BufPool) -> Self {
        let layout = dag.layout();
        let first = dag.stages()[deliveries[0].0].first;
        Requestors {
            dag,
            deliveries,
            next: Some((0, first, 0)),
            blocks: (0..dag.rows())
                .map(|_| pool.take(layout.block_size))
                .collect(),
            written: vec![false; layout.slice_count()],
        }
    }

    fn done(&self) -> bool {
        self.next.is_none()
    }

    fn turn(&mut self, links: &mut [Link]) -> Result<Turn> {
        let Some((delivery, slice, row)) = self.next else {
            return Ok(Turn::Blocked(None));
        };
        let (from, ref delivered) = self.deliveries[delivery];
        let link = &mut links[delivered[row]];
        if !link.holds_a_frame() {
            return Ok(Turn::Blocked(None));
        }
        let layout = self.dag.layout();
        let dst = &mut self.blocks[row][layout.slice_range(slice)];
        let msg = link.recv(slice, dst.len())?;
        let stages = self.dag.stages();
        let coeff = match stages[from].output {
            Output::RawToRequestors => stages[from].coeffs[row],
            _ => 1,
        };
        if self.written[slice] {
            gf256::mul_add_slice(Gf256::new(coeff), &msg.data, dst);
        } else {
            gf256::mul_slice(Gf256::new(coeff), &msg.data, dst);
        }
        if row + 1 < delivered.len() {
            self.next = Some((delivery, slice, row + 1));
            return Ok(Turn::Took);
        }
        self.written[slice] = true;
        let next = slice + stages[from].stride;
        self.next = if next < layout.slice_count() {
            Some((delivery, next, 0))
        } else {
            let later = self.deliveries.get(delivery + 1);
            later.map(|&(from, _)| (delivery + 1, stages[from].first, 0))
        };
        Ok(Turn::Took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{
        ChannelTransport, LinkStats, SliceRx, SliceTx, StatsRegistry, TcpTransport, TransportError,
    };
    use crate::{BlockStore, Cluster, Coordinator};
    use ecc::stripe::StripeId;
    use ecc::{ErasureCode, Lrc, ReedSolomon};
    use simnet::{CostModel, NodeId, Simulator, Topology, GBIT};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const BLOCK: usize = 8192;

    fn make_data(k: usize, block: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..block)
                    .map(|b| ((b as u64 * 131 + i as u64 * 17 + seed * 7) % 253) as u8)
                    .collect()
            })
            .collect()
    }

    fn setup(code: Arc<dyn ErasureCode>) -> (Cluster, Coordinator, Vec<Vec<u8>>, StripeId) {
        setup_sized(code, SliceLayout::new(BLOCK, 1024))
    }

    fn setup_sized(
        code: Arc<dyn ErasureCode>,
        layout: SliceLayout,
    ) -> (Cluster, Coordinator, Vec<Vec<u8>>, StripeId) {
        let k = code.k();
        let n = code.n();
        let coordinator = Coordinator::new(code, layout);
        let cluster = Cluster::new(crate::StoreBackend::memory(n + 2)).unwrap();
        let data = make_data(k, layout.block_size, 3);
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        (cluster, coordinator, data, stripe)
    }

    /// Every single-block shape.
    const SINGLE_PLANS: [Scheme; 5] = [
        Scheme::Conventional,
        Scheme::Ppr,
        Scheme::RepairPipelining,
        Scheme::BlockPipeline,
        Scheme::CyclicRepairPipelining,
    ];

    /// The plan `scheme` gives `directive`.
    fn plan(scheme: Scheme, directive: &RepairDirective) -> RepairDag {
        scheme.dag(&directive.path, directive.requestor, directive.layout)
    }

    /// Walks `dag`, a plan for `directive`, to the end.
    fn walk(
        directive: &RepairDirective,
        dag: &RepairDag,
        cluster: &Cluster,
        transport: &dyn Transport,
    ) -> Result<Bytes> {
        walk_single(directive, dag, cluster, transport, None)
    }

    /// Plans and walks the repair of block `failed` onto `requestor`, and
    /// stores the block there.
    fn repair(
        cluster: &Cluster,
        coordinator: &Coordinator,
        (stripe, failed, requestor): (StripeId, usize, NodeId),
        strategy: Scheme,
        transport: &dyn Transport,
    ) -> Bytes {
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, failed, requestor)
            .unwrap();
        let repaired = execute_single(&directive, cluster, transport, strategy).unwrap();
        let block = ecc::stripe::BlockId::new(stripe.0, failed);
        cluster
            .store(requestor)
            .put(block, repaired.clone())
            .unwrap();
        repaired
    }

    /// A watch over `dag` that finds every hop degraded at its first
    /// sample: each is charged all the bytes its pair ever moved, over the
    /// whole grace period, against an unreachable nominal bandwidth.
    fn tripped(dag: &RepairDag) -> Watch {
        let since = Instant::now() - WATCH_GRACE;
        let hops = dag.links().into_iter().map(|hop| WatchedHop {
            src: hop.src,
            dst: hop.dst,
            floor: f64::INFINITY,
            baseline: 0,
            first: Some(since),
        });
        Watch {
            hops: hops.collect(),
            next_sample: Instant::now(),
        }
    }

    /// A [`ChannelTransport`] whose links fail the test instead of
    /// blocking: a `recv` that finds no frame, or a `send` that finds no free
    /// credit, would wait on another thread — which the walker, the only
    /// thread of a repair, must never need to.
    #[derive(Default)]
    struct NoWaitTransport(ChannelTransport);

    /// Frames sent on a link and not yet received.
    type InFlight = Arc<AtomicUsize>;

    struct NoWaitTx(SliceSender, InFlight, usize);

    impl SliceTx for NoWaitTx {
        fn queue(&self, msg: SliceMsg) -> std::result::Result<bool, TransportError> {
            let NoWaitTx(tx, in_flight, capacity) = self;
            let sent = in_flight.fetch_add(1, Ordering::SeqCst);
            assert!(
                sent < *capacity,
                "a send found no free credit: it would block"
            );
            tx.send(msg).map(|()| true)
        }
    }

    struct NoWaitRx(SliceReceiver, InFlight);

    impl SliceRx for NoWaitRx {
        fn recv(&self) -> Option<SliceMsg> {
            let NoWaitRx(rx, in_flight) = self;
            let waiting = in_flight.load(Ordering::SeqCst);
            assert!(waiting > 0, "a recv found no frame: it would block");
            in_flight.store(waiting - 1, Ordering::SeqCst);
            rx.recv()
        }
    }

    impl Transport for NoWaitTransport {
        fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
            let (tx, rx) = self.0.link(src, dst, capacity);
            let in_flight = InFlight::default();
            // The inner link counts the traffic; this wrapper only watches.
            (
                SliceSender::new(
                    NoWaitTx(tx, in_flight.clone(), capacity),
                    Arc::new(LinkStats::default()),
                    None,
                    0,
                ),
                SliceReceiver::new(NoWaitRx(rx, in_flight)),
            )
        }

        fn stats(&self) -> &StatsRegistry {
            self.0.stats()
        }
    }

    #[test]
    fn every_strategy_reconstructs_a_data_block() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        // Pipe-B at 4 MiB: every hop is one frame larger than a socket's
        // buffers, written and then read by the one thread walking the plan.
        let big_code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let (big, big_coordinator, big_data, big_stripe) =
            setup_sized(big_code, SliceLayout::new(4 << 20, 64 << 10));
        big.erase_block(big_stripe, 2);
        let big_directive = big_coordinator
            .plan_single_repair(big.meta(), big_stripe, 2, 7)
            .unwrap();
        let (channel, tcp) = (ChannelTransport::new(), TcpTransport::new());
        let transports: [(&str, &dyn Transport); 2] = [("channel", &channel), ("tcp", &tcp)];
        for (name, transport) in transports {
            for strategy in SINGLE_PLANS {
                let (cluster, coordinator, data, stripe) = setup(code.clone());
                cluster.erase_block(stripe, 3);
                let repaired = repair(&cluster, &coordinator, (stripe, 3, 15), strategy, transport);
                assert_eq!(repaired, data[3], "strategy {strategy:?} over {name}");
            }
            let repaired =
                execute_single(&big_directive, &big, transport, Scheme::BlockPipeline).unwrap();
            assert!(repaired == big_data[2], "4 MiB Pipe-B over {name}");
        }
    }

    /// A repair's output is a block buffer recycled from the cluster's pool,
    /// holding the bytes of whatever block used it last; none of them may
    /// survive into the repaired block. Before every repair the pool is
    /// filled with `0xAA` buffers, and every shape still comes out
    /// byte-exact, over channels and TCP: Conventional, whose requestor folds
    /// `k` deliveries into each slice, PPR, RP, Pipe-B, cyclic, whose
    /// requestor takes each slice from one of `k − 1` deliveries, and
    /// multi-block, with whole slices and with a block whose last slice is
    /// short. The mutation this catches is accumulating into an unzeroed
    /// buffer: the first delivery that covers a slice folded with
    /// `mul_add_slice` instead of written with `mul_slice`.
    #[test]
    fn stale_pool_bytes_never_reach_a_repaired_block() {
        /// Parks as many `0xAA` block buffers in the pool as it keeps.
        fn fill_stale(cluster: &Cluster, len: usize) {
            let pool = cluster.block_pool();
            let parked: Vec<PooledBuf> = (0..4)
                .map(|_| {
                    let mut buf = pool.take(len);
                    buf.fill(0xAA);
                    buf
                })
                .collect();
            drop(parked);
            assert!(pool.retained() > 0);
        }
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let (channel, tcp) = (ChannelTransport::new(), TcpTransport::new());
        let transports: [(&str, &dyn Transport); 2] = [("channel", &channel), ("tcp", &tcp)];
        for layout in [
            SliceLayout::new(BLOCK, 1024),
            SliceLayout::new(BLOCK + 300, 1024),
        ] {
            let size = layout.block_size;
            for (name, transport) in transports {
                for shape in SINGLE_PLANS {
                    let (cluster, coordinator, data, stripe) = setup_sized(code.clone(), layout);
                    cluster.erase_block(stripe, 1);
                    let directive = coordinator
                        .plan_single_repair(cluster.meta(), stripe, 1, 7)
                        .unwrap();
                    fill_stale(&cluster, size);
                    let fresh = cluster.block_pool().fresh_allocations();
                    let repaired = walk(&directive, &plan(shape, &directive), &cluster, transport);
                    let what = format!("{shape} over {name}, {size}-byte block");
                    assert!(repaired.unwrap() == data[1], "{what}");
                    let fresh = cluster.block_pool().fresh_allocations() - fresh;
                    assert_eq!(fresh, 0, "{what} took no stale buffer");
                }
                let (cluster, coordinator, data, stripe) = setup_sized(code.clone(), layout);
                let coded = code.encode(&data).unwrap();
                cluster.erase_block(stripe, 1);
                cluster.erase_block(stripe, 4);
                let directive = coordinator
                    .plan_multi_repair(cluster.meta(), stripe, &[1, 4], &[7, 6])
                    .unwrap();
                fill_stale(&cluster, size);
                let fresh = cluster.block_pool().fresh_allocations();
                let repaired = execute_multi(&directive, &cluster, transport).unwrap();
                for (j, &f) in directive.plan.failed.iter().enumerate() {
                    assert!(
                        repaired[j] == coded[f],
                        "multi-block over {name}, block {f}"
                    );
                }
                let fresh = cluster.block_pool().fresh_allocations() - fresh;
                assert!(fresh < 2, "multi-block over {name} took no stale buffer");
            }
        }
    }

    #[test]
    fn every_strategy_reconstructs_a_parity_block() {
        let code = Arc::new(ReedSolomon::new(9, 6).unwrap());
        for strategy in SINGLE_PLANS {
            let (cluster, coordinator, data, stripe) = setup(code.clone());
            let expected = code.encode(&data).unwrap()[7].clone();
            cluster.erase_block(stripe, 7);
            let transport = ChannelTransport::new();
            let repaired = repair(
                &cluster,
                &coordinator,
                (stripe, 7, 10),
                strategy,
                &transport,
            );
            assert_eq!(repaired, expected, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn rp_traffic_is_balanced_across_links() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let (cluster, coordinator, _data, stripe) = setup(code);
        cluster.erase_block(stripe, 0);
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 0, 15)
            .unwrap();
        let transport = ChannelTransport::new();
        execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining).unwrap();
        // k links, each carrying exactly one block.
        assert_eq!(transport.links_used(), 10);
        assert_eq!(transport.total_bytes(), 10 * BLOCK as u64);
        assert_eq!(transport.max_link_bytes(), BLOCK as u64);
    }

    #[test]
    fn conventional_traffic_funnels_into_the_requestor() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let (cluster, coordinator, _data, stripe) = setup(code);
        cluster.erase_block(stripe, 0);
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 0, 15)
            .unwrap();
        let transport = ChannelTransport::new();
        execute_single(&directive, &cluster, &transport, Scheme::Conventional).unwrap();
        assert_eq!(transport.total_bytes(), 10 * BLOCK as u64);
        // Every link ends at the requestor.
        for &(node, _, _) in &directive.path {
            assert_eq!(transport.link_bytes(node, 15), BLOCK as u64);
        }
    }

    #[test]
    fn lrc_repair_reads_only_the_local_group() {
        let code: Arc<dyn ErasureCode> = Arc::new(Lrc::new(12, 2, 2).unwrap());
        let (cluster, coordinator, data, stripe) = setup(code);
        cluster.erase_block(stripe, 4);
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 4, 17)
            .unwrap();
        assert_eq!(directive.path.len(), 6);
        let transport = ChannelTransport::new();
        let repaired =
            execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining).unwrap();
        assert_eq!(repaired, data[4]);
        assert_eq!(transport.total_bytes(), 6 * BLOCK as u64);
    }

    #[test]
    fn reordered_path_still_reconstructs() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(9, 6).unwrap());
        let (cluster, coordinator, data, stripe) = setup(code);
        cluster.erase_block(stripe, 2);
        let mut directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 2, 10)
            .unwrap();
        directive.path.reverse();
        let transport = ChannelTransport::new();
        let repaired =
            execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining).unwrap();
        assert_eq!(repaired, data[2]);
    }

    #[test]
    fn missing_helper_block_surfaces_as_error() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
        let (cluster, coordinator, _data, stripe) = setup(code);
        cluster.erase_block(stripe, 0);
        // Also erase a block that will be used as a helper, *after* planning.
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 0, 7)
            .unwrap();
        let helper_index = directive.plan.sources[0].block_index;
        cluster.erase_block(stripe, helper_index);
        let transport = ChannelTransport::new();
        let result = execute_single(&directive, &cluster, &transport, Scheme::RepairPipelining);
        assert!(result.is_err());
    }

    /// A walk its watch finds degraded ends with the hop it flagged and
    /// stores nothing, whatever the shape. Each shape walks once unwatched
    /// first, so every pair of its plan has moved bytes to be judged on.
    #[test]
    fn cancelled_execution_fails_without_storing_anything() {
        // `None` is the multi-block plan, which is watched like the rest.
        for shape in SINGLE_PLANS.map(Some).into_iter().chain([None]) {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
            let (cluster, coordinator, _data, stripe) = setup(code);
            cluster.erase_block(stripe, 1);
            let transport = ChannelTransport::new();
            let (dag, result) = match shape {
                Some(strategy) => {
                    let directive = coordinator
                        .plan_single_repair(cluster.meta(), stripe, 1, 7)
                        .unwrap();
                    let dag = plan(strategy, &directive);
                    walk(&directive, &dag, &cluster, &transport).unwrap();
                    let watch = Some(tripped(&dag));
                    let result = walk_single(&directive, &dag, &cluster, &transport, watch);
                    (dag, result.map(|block| vec![block]))
                }
                None => {
                    cluster.erase_block(stripe, 4);
                    let directive = coordinator
                        .plan_multi_repair(cluster.meta(), stripe, &[1, 4], &[7, 6])
                        .unwrap();
                    execute_multi(&directive, &cluster, &transport).unwrap();
                    let dag = multi_dag(&directive);
                    let walk = Walk {
                        dag: &dag,
                        tags: (directive.stripe.0, directive.repair_id()),
                        cluster: &cluster,
                    };
                    let result = walk.run(&transport, Some(tripped(&dag)));
                    (dag, result)
                }
            };
            let first = &dag.links()[0];
            assert!(
                matches!(result, Err(EcPipeError::LinkFailed { src, dst, cause: LinkFailure::Degraded })
                    if (src, dst) == (first.src, first.dst)),
                "shape {shape:?} must end at its first degraded hop"
            );
            assert!(
                !cluster.store(7).contains(ecc::stripe::BlockId::new(0, 1)),
                "an abandoned repair must leave no partial block"
            );
        }
    }

    /// A link writes a credit window per syscall: an unshaped 1 MiB / 32 KiB
    /// RP repair over TCP writes each of its 10 links 32 / `PIPELINE_DEPTH`
    /// = 4 times, and reads each window back with about one `read` — 40
    /// and about 40 for the block, where a write and a read per slice would
    /// be 320 and more. On a shaped link a paid frame is written the moment
    /// nothing else can run, alone: once per slice.
    #[test]
    fn a_tcp_link_writes_a_window_per_syscall() {
        /// Repairs block 0 twice over `transport` and returns the second
        /// repair's `(writes, reads)`: the first dials the connections.
        fn syscalls(layout: SliceLayout, transport: &TcpTransport) -> (u64, u64) {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
            let (cluster, coordinator, data, stripe) = setup_sized(code, layout);
            cluster.erase_block(stripe, 0);
            let directive = coordinator
                .plan_single_repair(cluster.meta(), stripe, 0, 15)
                .unwrap();
            let strategy = Scheme::RepairPipelining;
            execute_single(&directive, &cluster, transport, strategy).unwrap();
            let (writes, reads) = transport.syscall_counts();
            let repaired = execute_single(&directive, &cluster, transport, strategy).unwrap();
            assert!(repaired == data[0]);
            let (all_writes, all_reads) = transport.syscall_counts();
            (all_writes - writes, all_reads - reads)
        }
        let (writes, reads) = syscalls(SliceLayout::new(1 << 20, 32 << 10), &TcpTransport::new());
        // A write carries at most a credit window, so no link can make do
        // with fewer than 4: a total of 40 is 4 on every link.
        assert_eq!(writes, 10 * 32 / PIPELINE_DEPTH as u64);
        assert!((40..=48).contains(&reads), "{reads} reads for 40 windows");
        // 4 MB/s banks 8 KB, less than a slice: every slice is paid alone.
        let shaped = TcpTransport::with_rate_limit(4_000_000);
        let (writes, _) = syscalls(SliceLayout::new(64 << 10, 16 << 10), &shaped);
        assert_eq!(writes, 10 * 4, "one write per slice on a shaped link");
    }

    /// The plan is the traffic: on a fresh transport, the links that moved
    /// bytes are exactly the plan's `links()`, each with its declared load.
    /// A watched walk samples `links()`, so a shape that sent over an
    /// undeclared link would go unwatched. The simulator times the
    /// same plan value (`RepairDag::schedule`), so its per-link bytes are the
    /// third side of the same equation: model ≡ plan ≡ runtime. Every shape
    /// also runs over [`NoWaitTransport`], which fails the walk the moment a
    /// step could wait on another thread.
    #[test]
    fn every_shape_loads_exactly_the_links_its_plan_declares() {
        fn assert_moved_as_declared(dag: &RepairDag, transport: &dyn Transport) {
            let declared: HashMap<(NodeId, NodeId), u64> = dag
                .links()
                .iter()
                .map(|link| ((link.src, link.dst), link.bytes))
                .collect();
            let simulated = Simulator::new(Topology::flat(16, GBIT), CostModel::network_only())
                .run(&dag.schedule())
                .link_bytes;
            assert_eq!(simulated, declared);
            let moved: HashMap<(NodeId, NodeId), u64> = transport
                .stats()
                .snapshot()
                .into_iter()
                .filter(|(_, link)| link.bytes > 0)
                .map(|(pair, link)| (pair, link.bytes))
                .collect();
            assert_eq!(moved, declared);
        }
        let transports: [fn() -> Box<dyn Transport>; 2] = [
            || Box::new(ChannelTransport::new()),
            || Box::new(NoWaitTransport::default()),
        ];
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        for fresh in transports {
            for shape in SINGLE_PLANS {
                let (cluster, coordinator, _data, stripe) = setup(code.clone());
                cluster.erase_block(stripe, 0);
                let directive = coordinator
                    .plan_single_repair(cluster.meta(), stripe, 0, 15)
                    .unwrap();
                let transport = fresh();
                let dag = plan(shape, &directive);
                walk(&directive, &dag, &cluster, &*transport).unwrap();
                // k links; a block of 8 slices gets 8 cyclic chains, which
                // go round all 10 helpers and deliver from 8 of them.
                let links = match shape {
                    Scheme::CyclicRepairPipelining => 10 + 8,
                    _ => 10,
                };
                assert_eq!(dag.links().len(), links, "{shape}");
                assert_moved_as_declared(&dag, &*transport);
            }
            let (cluster, coordinator, _data, stripe) = setup(code.clone());
            let failed = [1, 6, 12];
            for &f in &failed {
                cluster.erase_block(stripe, f);
            }
            // Two requestors on one node: their delivery edges are one link.
            let directive = coordinator
                .plan_multi_repair(cluster.meta(), stripe, &failed, &[14, 15, 14])
                .unwrap();
            let transport = fresh();
            execute_multi(&directive, &cluster, &*transport).unwrap();
            let dag = multi_dag(&directive);
            assert_eq!(dag.links().len(), 9 + 2);
            assert_moved_as_declared(&dag, &*transport);
        }
    }

    /// A helper opens its block once and reads it once: whatever the shape,
    /// each helper's file store sees one `open` and `BLOCK` bytes plus the
    /// block's checksum trailer per repair — not one `open` per slice — and
    /// the requestor's sees neither.
    /// The stores are `StoreBackend::file_checksummed`'s, built by hand only
    /// so that the test keeps typed handles to their counters.
    #[test]
    fn a_repair_opens_each_helper_block_once() {
        let root = std::env::temp_dir().join(format!("ecpipe-opens-{}", std::process::id()));
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, 1024));
        // What a helper reads besides the payload: its block's checksum
        // record and footer, once.
        let trailer = crate::BlockChecksums::compute(&[0; BLOCK], crate::DEFAULT_CHUNK_SIZE)
            .to_bytes()
            .len()
            + crate::integrity::FOOTER_LEN;
        // `None` is the multi-block plan.
        for (round, shape) in SINGLE_PLANS.map(Some).into_iter().chain([None]).enumerate() {
            let files: Vec<_> = (0..16)
                .map(|node| {
                    let dir = root.join(format!("round-{round}/node-{node}"));
                    Arc::new(crate::FileStore::open_checksummed(dir).unwrap())
                })
                .collect();
            let stores = files.iter().map(|s| s.clone() as Arc<dyn BlockStore>);
            let cluster = Cluster::new(crate::StoreBackend::custom(stores.collect())).unwrap();
            let stripe = cluster
                .write_stripe(coordinator.code(), 0, &make_data(10, BLOCK, 3))
                .unwrap();
            let transport = ChannelTransport::new();
            let counters = || -> Vec<(u64, u64)> {
                let of = |s: &Arc<crate::ChecksummedStore<crate::FileStore>>| {
                    (s.inner().opens(), s.inner().bytes_read())
                };
                files.iter().map(of).collect()
            };
            assert_eq!(counters(), [(0, 0); 16], "writing a stripe reads nothing");
            cluster.erase_block(stripe, 1);
            let helpers = match shape {
                Some(scheme) => {
                    let directive = coordinator
                        .plan_single_repair(cluster.meta(), stripe, 1, 15)
                        .unwrap();
                    walk(&directive, &plan(scheme, &directive), &cluster, &transport).unwrap();
                    directive.helper_nodes()
                }
                None => {
                    cluster.erase_block(stripe, 6);
                    let directive = coordinator
                        .plan_multi_repair(cluster.meta(), stripe, &[1, 6], &[15, 14])
                        .unwrap();
                    execute_multi(&directive, &cluster, &transport).unwrap();
                    directive.path.iter().map(|&(node, _)| node).collect()
                }
            };
            assert_eq!(helpers.len(), 10);
            for (node, seen) in counters().into_iter().enumerate() {
                let expected = if helpers.contains(&node) {
                    (1, (BLOCK + trailer) as u64)
                } else {
                    (0, 0)
                };
                assert_eq!(seen, expected, "{shape:?}, node {node}");
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// A [`ChannelTransport`] whose link `hop` relabels slice 0 as slice
    /// `index`, payload untouched.
    struct MislabelTransport {
        inner: ChannelTransport,
        hop: (NodeId, NodeId),
        index: usize,
    }

    struct MislabelTx(SliceSender, usize);

    impl SliceTx for MislabelTx {
        fn queue(&self, mut msg: SliceMsg) -> std::result::Result<bool, TransportError> {
            if msg.index == 0 {
                msg.index = self.1;
            }
            self.0.send(msg).map(|()| true)
        }
    }

    impl Transport for MislabelTransport {
        fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
            let (tx, rx) = self.inner.link(src, dst, capacity);
            if (src, dst) != self.hop {
                return (tx, rx);
            }
            let stats = Arc::new(LinkStats::default());
            (
                SliceSender::new(MislabelTx(tx, self.index), stats, None, 0),
                rx,
            )
        }

        fn stats(&self) -> &StatsRegistry {
            self.inner.stats()
        }
    }

    /// A frame is folded only where the plan expects it. Slice 0 relabelled
    /// on a helper→helper hop, or on the hop into the requestor, fails the
    /// repair as a malformed frame on that hop and stores nothing — whether
    /// the label names another slice of the block (which would leave a
    /// slice of stale pool bytes) or none (which would index past the
    /// block).
    #[test]
    fn a_frame_the_plan_does_not_expect_fails_the_repair() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
        for index in [1, 1 << 40] {
            for into_requestor in [false, true] {
                let (cluster, coordinator, _data, stripe) = setup(code.clone());
                cluster.erase_block(stripe, 1);
                let directive = coordinator
                    .plan_single_repair(cluster.meta(), stripe, 1, 7)
                    .unwrap();
                let path = directive.helper_nodes();
                let hop = match into_requestor {
                    false => (path[0], path[1]),
                    true => (path[path.len() - 1], 7),
                };
                let transport = MislabelTransport {
                    inner: ChannelTransport::new(),
                    hop,
                    index,
                };
                let strategy = Scheme::RepairPipelining;
                let result = execute_single(&directive, &cluster, &transport, strategy);
                assert!(
                    matches!(result, Err(EcPipeError::LinkFailed { src, dst, cause: LinkFailure::Malformed })
                        if (src, dst) == hop),
                    "slice 0 relabelled {index} on {hop:?}: {result:?}"
                );
                assert!(!cluster.store(7).contains(ecc::stripe::BlockId::new(0, 1)));
            }
        }
    }

    /// A transport whose hop `hop` is severed (by the inner transport's
    /// own `disconnect_pair`) just before its frame `after` is sent.
    struct SeverTransport<T> {
        inner: Arc<T>,
        hop: (NodeId, NodeId),
        after: usize,
        sever: fn(&T, NodeId, NodeId) -> bool,
    }

    struct SeverTx<T> {
        tx: SliceSender,
        transport: Arc<T>,
        hop: (NodeId, NodeId),
        sent: AtomicUsize,
        after: usize,
        sever: fn(&T, NodeId, NodeId) -> bool,
    }

    impl<T: Send + Sync> SliceTx for SeverTx<T> {
        fn queue(&self, msg: SliceMsg) -> std::result::Result<bool, TransportError> {
            if self.sent.fetch_add(1, Ordering::SeqCst) == self.after {
                assert!((self.sever)(&self.transport, self.hop.0, self.hop.1));
            }
            self.tx.send(msg).map(|()| true)
        }
    }

    impl<T: Transport + 'static> Transport for SeverTransport<T> {
        fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
            let (tx, rx) = self.inner.link(src, dst, capacity);
            if (src, dst) != self.hop {
                return (tx, rx);
            }
            let tx = SeverTx {
                tx,
                transport: self.inner.clone(),
                hop: self.hop,
                sent: AtomicUsize::new(0),
                after: self.after,
                sever: self.sever,
            };
            let stats = Arc::new(LinkStats::default());
            (SliceSender::new(tx, stats, None, 0), rx)
        }

        fn stats(&self) -> &StatsRegistry {
            self.inner.stats()
        }
    }

    /// A hop severed mid-stream ends the walk with `LinkFailed` naming that
    /// hop, whichever half of the link notices first, on both transports;
    /// its message names the hop as `src → dst`, and nothing is stored.
    #[test]
    fn a_severed_hop_fails_the_walk_naming_it() {
        fn case<T: Transport + 'static>(inner: T, sever: fn(&T, NodeId, NodeId) -> bool) {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
            let inner = Arc::new(inner);
            for into_requestor in [false, true] {
                let (cluster, coordinator, _data, stripe) = setup(code.clone());
                cluster.erase_block(stripe, 1);
                let directive = coordinator
                    .plan_single_repair(cluster.meta(), stripe, 1, 7)
                    .unwrap();
                let path = directive.helper_nodes();
                let hop = match into_requestor {
                    false => (path[1], path[2]),
                    true => (path[path.len() - 1], 7),
                };
                let transport = SeverTransport {
                    inner: inner.clone(),
                    hop,
                    after: 3,
                    sever,
                };
                let strategy = Scheme::RepairPipelining;
                let error = execute_single(&directive, &cluster, &transport, strategy)
                    .expect_err("a severed hop must fail the walk");
                assert!(
                    matches!(error, EcPipeError::LinkFailed { src, dst, .. } if (src, dst) == hop),
                    "{error:?} on {hop:?}"
                );
                let named = format!("{} → {}", hop.0, hop.1);
                assert!(error.to_string().contains(&named), "{error}");
                assert!(!cluster.store(7).contains(ecc::stripe::BlockId::new(0, 1)));
            }
        }
        case(ChannelTransport::new(), ChannelTransport::disconnect_pair);
        case(TcpTransport::new(), TcpTransport::disconnect_pair);
    }

    #[test]
    fn multi_block_repair_reconstructs_all_failures() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let (cluster, coordinator, data, stripe) = setup(code.clone());
        let coded = code.encode(&data).unwrap();
        let failed = vec![1, 6, 12];
        for &f in &failed {
            cluster.erase_block(stripe, f);
        }
        let directive = coordinator
            .plan_multi_repair(cluster.meta(), stripe, &failed, &[14, 15, 14])
            .unwrap();
        let transport = ChannelTransport::new();
        let repaired = execute_multi(&directive, &cluster, &transport).unwrap();
        for (j, &f) in directive.plan.failed.iter().enumerate() {
            assert_eq!(repaired[j], coded[f], "failed block {f}");
        }
        // Each helper read its block once: inter-helper links carry f blocks,
        // delivery links one block each.
        assert_eq!(
            transport.total_bytes(),
            ((directive.path.len() - 1) * failed.len() * BLOCK + failed.len() * BLOCK) as u64
        );
    }
}
