//! The repair executor: real threads moving real bytes.
//!
//! Every repair the paper describes is one fold — a helper reads a slice of
//! its block, scales it by the block's decode coefficients, adds the
//! partial sums it received and forwards — over a different shape, and the
//! shape is data: a [`RepairDag`]. One walker (`Walk::run`) runs any of
//! them, one thread per helper stage and the calling thread as the
//! requestor, against the cluster's block stores, so the reconstructed block
//! can be checked byte-for-byte against the erased one.
//!
//! * [`ExecStrategy::Conventional`] — a star: every helper streams its raw
//!   block to the requestor, which performs the decoding combination (§2.2).
//! * [`ExecStrategy::Ppr`] — partial-parallel repair: a binary aggregation
//!   tree whose nodes forward only once their children are folded (§2.2).
//! * [`ExecStrategy::RepairPipelining`] — the paper's contribution: a chain;
//!   slices flow along the helper path, each helper adding `a_i * B_i`
//!   (§3.2).
//! * [`ExecStrategy::BlockPipeline`] — the `Pipe-B` baseline of §6.4: the
//!   same chain with one slice per block.
//! * [`execute_multi`] — the chain carrying `f` rows of partial sums (§4.4).
//!
//! The walker is generic over the [`Transport`] trait: the same plans run
//! over in-process channels
//! ([`ChannelTransport`](crate::transport::ChannelTransport), no bandwidth
//! limits, used for correctness tests and throughput microbenches) or real
//! localhost sockets ([`TcpTransport`](crate::transport::TcpTransport),
//! optionally throttled so the §3.2 timing claims can be measured on the
//! wire). Timing-shape experiments at scale still run on the `simnet`
//! simulator.

use std::ops::Range;

use bytes::Bytes;
use ecpipe_sync::OnceFlag;
use gf256::Gf256;
use repair::dag::{Output, RepairDag, Stage};

use ecc::slice::SliceLayout;

use crate::buf::{BufPool, PooledBuf};
use crate::cluster::Cluster;
use crate::coordinator::{MultiRepairDirective, RepairDirective};
use crate::store::BlockReader;
use crate::transport::{SliceMsg, SliceReceiver, SliceSender, Transport};
use crate::{EcPipeError, Result};

/// The number of slices that may be buffered between two pipeline stages.
/// Senders block (backpressure) once this many slices are in flight on one
/// link.
pub const PIPELINE_DEPTH: usize = 8;

/// How a single-block repair is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecStrategy {
    /// Requestor fetches all helper blocks and decodes locally.
    Conventional,
    /// Partial-parallel repair over a binary aggregation tree.
    Ppr,
    /// Slice-level repair pipelining along the helper path.
    RepairPipelining,
    /// Block-level pipelining along the helper path (`Pipe-B`).
    BlockPipeline,
}

impl std::fmt::Display for ExecStrategy {
    /// Formats as the short label used in the paper's figures (`Conv.`,
    /// `PPR`, `RP`, `Pipe-B`), so strategy names are uniform across reports
    /// and benches.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` honors width/alignment options in table output.
        f.pad(match self {
            ExecStrategy::Conventional => "Conv.",
            ExecStrategy::Ppr => "PPR",
            ExecStrategy::RepairPipelining => "RP",
            ExecStrategy::BlockPipeline => "Pipe-B",
        })
    }
}

fn execution_error(reason: impl Into<String>) -> EcPipeError {
    EcPipeError::Execution {
        reason: reason.into(),
    }
}

/// The shape `strategy` gives a single-block repair.
pub fn single_dag(directive: &RepairDirective, strategy: ExecStrategy) -> RepairDag {
    let (path, requestor, layout) = (&directive.path, directive.requestor, directive.layout);
    let columns = path
        .iter()
        .map(|&(node, block, coeff)| (node, block, vec![coeff]));
    match strategy {
        ExecStrategy::Conventional => RepairDag::star(path, requestor, layout),
        ExecStrategy::Ppr => RepairDag::tree(path, requestor, layout),
        ExecStrategy::RepairPipelining => RepairDag::chain(columns, &[requestor], layout),
        ExecStrategy::BlockPipeline => {
            let whole = SliceLayout::new(layout.block_size, layout.block_size);
            RepairDag::chain(columns, &[requestor], whole)
        }
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

/// Executes a single-block repair and returns the reconstructed block.
pub fn execute_single<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    strategy: ExecStrategy,
) -> Result<Vec<u8>> {
    execute_single_cancellable(directive, cluster, transport, strategy, &OnceFlag::new())
}

/// [`execute_single`] with cooperative cancellation: once `cancel` is set,
/// every stage bails out at its next slice boundary and the repair fails
/// with an [`EcPipeError::Execution`] error instead of completing.
///
/// The repair manager's link watchdog uses this to abandon a stream whose
/// path crosses a degraded link, then re-plans the repair around it. A
/// cancelled execution leaves no partial block in any store — only the
/// requestor writes, and only on success.
pub fn execute_single_cancellable<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    strategy: ExecStrategy,
    cancel: &OnceFlag,
) -> Result<Vec<u8>> {
    let dag = single_dag(directive, strategy);
    let tags = (directive.stripe.0, directive.repair_id());
    let walk = Walk {
        dag: &dag,
        tags,
        cluster,
        cancel,
    };
    Ok(walk.run(transport)?.remove(0))
}

/// Executes a multi-block repair (§4.4): each helper reads its block once and
/// forwards a bundle of `f` partial slices per offset; the last helper
/// delivers each reconstructed slice to its requestor. Returns the blocks in
/// `plan.failed` order.
pub fn execute_multi<T: Transport + ?Sized>(
    directive: &MultiRepairDirective,
    cluster: &Cluster,
    transport: &T,
) -> Result<Vec<Vec<u8>>> {
    let dag = multi_dag(directive);
    let tags = (directive.stripe.0, directive.repair_id());
    let cancel = &OnceFlag::new();
    Walk {
        dag: &dag,
        tags,
        cluster,
        cancel,
    }
    .run(transport)
}

/// One repair in progress: the plan, and what all of its stages share.
struct Walk<'a> {
    dag: &'a RepairDag,
    /// The stripe and repair ids that label the repair's slices on the wire.
    tags: (u64, u64),
    cluster: &'a Cluster,
    cancel: &'a OnceFlag,
}

impl Walk<'_> {
    /// Visits the slices of `window` in order. Every pass over slices — a
    /// helper's and the requestors' alike — goes through here, which makes
    /// this the one place a repair notices that it was cancelled.
    fn each_slice(
        &self,
        window: Range<usize>,
        mut step: impl FnMut(usize) -> Result<()>,
    ) -> Result<()> {
        for j in window {
            if self.cancel.is_set() {
                return Err(execution_error("repair cancelled mid-stream"));
            }
            step(j)?;
        }
        Ok(())
    }

    /// Runs the plan end to end and returns one reconstructed block per
    /// requestor: a thread per helper stage, the calling thread as the
    /// requestors, one [`PIPELINE_DEPTH`]-slice link per edge of the plan.
    fn run<T: Transport + ?Sized>(&self, transport: &T) -> Result<Vec<Vec<u8>>> {
        let dag = self.dag;
        if dag.stages().is_empty() {
            return Err(execution_error("repair path has no helpers"));
        }
        // Pre-flight: every helper opens its block, once for all its slices,
        // before any link or thread exists. A block that disappeared after
        // planning surfaces as `BlockNotFound`, which lets the caller restart
        // with a different helper set (§3.2).
        let readers = dag
            .stages()
            .iter()
            .map(|stage| self.cluster.store(stage.node).reader(stage.block))
            .collect::<Result<Vec<_>>>()?;
        let layout = dag.layout();

        // One pool serves the whole plan: a partial buffer freed by the
        // downstream consumer is reused for a later slice, so the steady
        // state allocates nothing per slice.
        let pool = &BufPool::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            // The receiving ends of the links opened so far, by sending
            // stage, until the stage (or requestor side) that reads them
            // picks them up.
            let mut open: Vec<Vec<SliceReceiver>> = Vec::new();
            for (index, (stage, reader)) in dag.stages().iter().zip(readers).enumerate() {
                let (outputs, receivers): (Vec<_>, Vec<_>) = dag
                    .destinations(index)
                    .into_iter()
                    .map(|dst| transport.link(stage.node, dst, PIPELINE_DEPTH))
                    .unzip();
                open.push(receivers);
                let inputs: Vec<SliceReceiver> = stage
                    .upstream
                    .iter()
                    .flat_map(|&up| std::mem::take(&mut open[up]))
                    .collect();
                handles.push(
                    scope.spawn(move || self.run_stage(stage, &*reader, &inputs, &outputs, pool)),
                );
            }

            // The requestors fold what is delivered to them, one delivering
            // stage after the other. Every stage sends from a thread of its
            // own, so the ones not being read yet just wait at their credit
            // window — and on shaped links that link-by-link drain is what
            // makes a star cost `k` timeslots. Within a stage the rows are
            // collected slice by slice, in its send order: one thread drains
            // all its links here, and it blocks once `PIPELINE_DEPTH` slices
            // are unread on any.
            let mut blocks = vec![vec![0u8; layout.block_size]; dag.rows()];
            let folded = dag.deliveries().iter().try_for_each(|&from| {
                let stage = &dag.stages()[from];
                self.each_slice(0..layout.slice_count(), |_| {
                    for (row, rx) in open[from].iter().enumerate() {
                        let msg = rx.recv().ok_or_else(|| {
                            execution_error("delivery ended before the block was complete")
                        })?;
                        let coeff = match stage.output {
                            Output::RawToRequestors => stage.coeffs[row],
                            _ => 1,
                        };
                        gf256::mul_add_slice(
                            Gf256::new(coeff),
                            &msg.data,
                            &mut blocks[row][layout.slice_range(msg.index)],
                        );
                    }
                    Ok(())
                })
            });
            // After a failed fold this is what fails the delivering stages'
            // sends, so the join below returns.
            drop(open);
            // Join the helpers before reporting that failure: a helper that
            // failed a local read (a vanished or checksum-corrupt block)
            // carries the specific error; the requestors only saw the stream
            // end early.
            join_all(handles)?;
            folded?;
            Ok(blocks)
        })
    }

    /// One helper stage: folds and forwards its block a window of slices at
    /// a time — the local slices scaled into fresh partial sums, then each
    /// input added in fold order, then the window sent on. A cut-through
    /// stage's window is one slice, so it works on slice `j` while its
    /// downstream stage works on `j - 1`; a store-and-forward stage's window
    /// is the whole block — unless it has no inputs to wait for.
    fn run_stage(
        &self,
        stage: &Stage,
        block: &dyn BlockReader,
        inputs: &[SliceReceiver],
        outputs: &[SliceSender],
        pool: &BufPool,
    ) -> Result<()> {
        let layout = self.dag.layout();
        let slices = layout.slice_count();
        if stage.output == Output::RawToRequestors {
            return self.each_slice(0..slices, |j| {
                self.send(j, block.read(layout.slice_range(j))?, outputs)
            });
        }
        // Slice `j` of the local block scaled by the stage's coefficients:
        // the stage's own term of every row, rows back to back.
        let coeffs = gf256::Matrix::from_bytes(self.dag.rows(), 1, &stage.coeffs);
        let local_partial = |j: usize| -> Result<PooledBuf> {
            let local = block.read(layout.slice_range(j))?;
            let mut partial = pool.take(coeffs.rows() * local.len());
            if let [coeff] = stage.coeffs[..] {
                gf256::mul_slice(Gf256::new(coeff), &local, &mut partial);
            } else {
                // One fused kernel call scales the slice into all rows.
                let mut rows: Vec<&mut [u8]> = partial.chunks_exact_mut(local.len()).collect();
                gf256::dot_prod(&coeffs, &[&local], &mut rows, false);
            }
            Ok(partial)
        };
        let per_slice = stage.cut_through || inputs.is_empty();
        let width = if per_slice { 1 } else { slices };
        let mut held = Vec::with_capacity(width);
        for start in (0..slices).step_by(width) {
            let window = start..slices.min(start + width);
            self.each_slice(window.clone(), |j| {
                held.push(local_partial(j)?);
                Ok(())
            })?;
            for rx in inputs {
                self.each_slice(window.clone(), |j| {
                    let msg = rx
                        .recv()
                        .ok_or_else(|| execution_error("upstream helper stopped early"))?;
                    gf256::add_slice(&msg.data, &mut held[j - start]);
                    Ok(())
                })?;
            }
            let mut folded = held.drain(..);
            self.each_slice(window, |j| {
                let partial = folded.next().expect("one partial per slice of the window");
                self.send(j, partial.freeze(), outputs)
            })?;
        }
        Ok(())
    }

    /// Sends slice `j` on: whole to a downstream stage, or cut into one row
    /// per requestor — each a view into the shared buffer, not its own copy.
    fn send(&self, j: usize, data: Bytes, outputs: &[SliceSender]) -> Result<()> {
        let (stripe, repair) = self.tags;
        let row = data.len() / outputs.len();
        for (r, tx) in outputs.iter().enumerate() {
            let view = data.slice(r * row..(r + 1) * row);
            tx.send(SliceMsg::new(j, view).tagged(stripe, repair))?;
        }
        Ok(())
    }
}

/// Joins every helper thread. When several failed, the most *specific* error
/// wins: a local-read failure (a corrupt or vanished block) explains the
/// repair's failure, while `Execution` errors are usually just the
/// downstream echo of that same event ("peer gone", "upstream stopped
/// early"). The manager relies on this to re-plan around the actual culprit
/// instead of seeing a generic stream failure.
fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, Result<()>>>) -> Result<()> {
    fn specificity(e: &EcPipeError) -> u8 {
        match e {
            EcPipeError::CorruptBlock { .. } | EcPipeError::BlockNotFound { .. } => 2,
            EcPipeError::Execution { .. } => 0,
            _ => 1,
        }
    }
    let mut worst: Option<EcPipeError> = None;
    for h in handles {
        let outcome = match h.join() {
            Ok(result) => result,
            Err(_) => Err(execution_error("worker thread panicked")),
        };
        if let Err(e) = outcome {
            if worst
                .as_ref()
                .is_none_or(|w| specificity(&e) > specificity(w))
            {
                worst = Some(e);
            }
        }
    }
    match worst {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use crate::{BlockStore, Cluster, Coordinator};
    use ecc::stripe::StripeId;
    use ecc::{ErasureCode, Lrc, ReedSolomon};
    use simnet::{CostModel, NodeId, Simulator, Topology, GBIT};
    use std::collections::HashMap;
    use std::sync::Arc;

    const BLOCK: usize = 8192;

    fn make_data(k: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..BLOCK)
                    .map(|b| ((b as u64 * 131 + i as u64 * 17 + seed * 7) % 253) as u8)
                    .collect()
            })
            .collect()
    }

    fn setup(code: Arc<dyn ErasureCode>) -> (Cluster, Coordinator, Vec<Vec<u8>>, StripeId) {
        let k = code.k();
        let n = code.n();
        let coordinator = Coordinator::new(code, ecc::slice::SliceLayout::new(BLOCK, 1024));
        let cluster = Cluster::new(crate::StoreBackend::memory(n + 2)).unwrap();
        let data = make_data(k, 3);
        let stripe = cluster.write_stripe(coordinator.code(), 0, &data).unwrap();
        (cluster, coordinator, data, stripe)
    }

    #[test]
    fn every_strategy_reconstructs_a_data_block() {
        for strategy in [
            ExecStrategy::Conventional,
            ExecStrategy::Ppr,
            ExecStrategy::RepairPipelining,
            ExecStrategy::BlockPipeline,
        ] {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
            let (cluster, coordinator, data, stripe) = setup(code);
            cluster.erase_block(stripe, 3);
            let repaired = cluster
                .repair(&coordinator, stripe, 3, 15, strategy)
                .unwrap();
            assert_eq!(repaired, data[3], "strategy {:?}", strategy);
        }
    }

    #[test]
    fn every_strategy_reconstructs_a_parity_block() {
        let code = Arc::new(ReedSolomon::new(9, 6).unwrap());
        for strategy in [
            ExecStrategy::Conventional,
            ExecStrategy::Ppr,
            ExecStrategy::RepairPipelining,
            ExecStrategy::BlockPipeline,
        ] {
            let (cluster, coordinator, data, stripe) = setup(code.clone());
            let expected = code.encode(&data).unwrap()[7].clone();
            cluster.erase_block(stripe, 7);
            let repaired = cluster
                .repair(&coordinator, stripe, 7, 10, strategy)
                .unwrap();
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
        execute_single(
            &directive,
            &cluster,
            &transport,
            ExecStrategy::RepairPipelining,
        )
        .unwrap();
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
        execute_single(&directive, &cluster, &transport, ExecStrategy::Conventional).unwrap();
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
        let repaired = execute_single(
            &directive,
            &cluster,
            &transport,
            ExecStrategy::RepairPipelining,
        )
        .unwrap();
        assert_eq!(repaired, data[4]);
        assert_eq!(transport.total_bytes(), 6 * BLOCK as u64);
    }

    #[test]
    fn reordered_path_still_reconstructs() {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(9, 6).unwrap());
        let (cluster, coordinator, data, stripe) = setup(code);
        cluster.erase_block(stripe, 2);
        let directive = coordinator
            .plan_single_repair(cluster.meta(), stripe, 2, 10)
            .unwrap();
        let mut order = directive.helper_nodes();
        order.reverse();
        let directive = directive.with_path_order(&order);
        let transport = ChannelTransport::new();
        let repaired = execute_single(
            &directive,
            &cluster,
            &transport,
            ExecStrategy::RepairPipelining,
        )
        .unwrap();
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
        let result = execute_single(
            &directive,
            &cluster,
            &transport,
            ExecStrategy::RepairPipelining,
        );
        assert!(result.is_err());
    }

    #[test]
    fn cancelled_execution_fails_without_storing_anything() {
        // `None` is the multi-block plan, which is cancelled like the rest.
        for shape in [
            Some(ExecStrategy::Conventional),
            Some(ExecStrategy::Ppr),
            Some(ExecStrategy::RepairPipelining),
            Some(ExecStrategy::BlockPipeline),
            None,
        ] {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
            let (cluster, coordinator, _data, stripe) = setup(code);
            cluster.erase_block(stripe, 1);
            let transport = ChannelTransport::new();
            let cancel = OnceFlag::new();
            cancel.set();
            let result = match shape {
                Some(strategy) => {
                    let directive = coordinator
                        .plan_single_repair(cluster.meta(), stripe, 1, 7)
                        .unwrap();
                    execute_single_cancellable(&directive, &cluster, &transport, strategy, &cancel)
                        .map(|block| vec![block])
                }
                None => {
                    cluster.erase_block(stripe, 4);
                    let directive = coordinator
                        .plan_multi_repair(cluster.meta(), stripe, &[1, 4], &[7, 6])
                        .unwrap();
                    let walk = Walk {
                        dag: &multi_dag(&directive),
                        tags: (directive.stripe.0, directive.repair_id()),
                        cluster: &cluster,
                        cancel: &cancel,
                    };
                    walk.run(&transport)
                }
            };
            assert!(
                matches!(result, Err(EcPipeError::Execution { .. })),
                "shape {shape:?} must fail once cancelled"
            );
            assert!(
                !cluster.store(7).contains(ecc::stripe::BlockId::new(0, 1)),
                "a cancelled repair must leave no partial block"
            );
        }
    }

    /// The plan is the traffic: on a fresh transport, the links that moved
    /// bytes are exactly the plan's `links()`, each with its declared load.
    /// The manager's link watchdog samples `links()`, so a shape that sent
    /// over an undeclared link would go unwatched. The simulator times the
    /// same plan value (`RepairDag::schedule`), so its per-link bytes are the
    /// third side of the same equation: model ≡ plan ≡ runtime.
    #[test]
    fn every_shape_loads_exactly_the_links_its_plan_declares() {
        fn assert_moved_as_declared(dag: &RepairDag, transport: &ChannelTransport) {
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
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        for strategy in [
            ExecStrategy::Conventional,
            ExecStrategy::Ppr,
            ExecStrategy::RepairPipelining,
            ExecStrategy::BlockPipeline,
        ] {
            let (cluster, coordinator, _data, stripe) = setup(code.clone());
            cluster.erase_block(stripe, 0);
            let directive = coordinator
                .plan_single_repair(cluster.meta(), stripe, 0, 15)
                .unwrap();
            let transport = ChannelTransport::new();
            execute_single(&directive, &cluster, &transport, strategy).unwrap();
            let dag = single_dag(&directive, strategy);
            assert_eq!(dag.links().len(), 10, "strategy {strategy:?}");
            assert_moved_as_declared(&dag, &transport);
        }
        let (cluster, coordinator, _data, stripe) = setup(code);
        let failed = [1, 6, 12];
        for &f in &failed {
            cluster.erase_block(stripe, f);
        }
        // Two requestors on one node: their delivery edges are one link.
        let directive = coordinator
            .plan_multi_repair(cluster.meta(), stripe, &failed, &[14, 15, 14])
            .unwrap();
        let transport = ChannelTransport::new();
        execute_multi(&directive, &cluster, &transport).unwrap();
        let dag = multi_dag(&directive);
        assert_eq!(dag.links().len(), 9 + 2);
        assert_moved_as_declared(&dag, &transport);
    }

    /// A helper opens its block once and reads it once: whatever the shape,
    /// each helper's file store sees one `open` and `BLOCK` bytes per
    /// repair — not one `open` per slice — and the requestor's sees neither.
    /// The stores are `StoreBackend::file_checksummed`'s, built by hand only
    /// so that the test keeps typed handles to their counters.
    #[test]
    fn a_repair_opens_each_helper_block_once() {
        let root = std::env::temp_dir().join(format!("ecpipe-opens-{}", std::process::id()));
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(14, 10).unwrap());
        let coordinator = Coordinator::new(code, SliceLayout::new(BLOCK, 1024));
        // `None` is the multi-block plan.
        for (round, shape) in [
            Some(ExecStrategy::Conventional),
            Some(ExecStrategy::Ppr),
            Some(ExecStrategy::RepairPipelining),
            Some(ExecStrategy::BlockPipeline),
            None,
        ]
        .into_iter()
        .enumerate()
        {
            let files: Vec<_> = (0..16)
                .map(|node| {
                    let dir = root.join(format!("round-{round}/node-{node}"));
                    Arc::new(crate::FileStore::open_checksummed(dir).unwrap())
                })
                .collect();
            let stores = files.iter().map(|s| s.clone() as Arc<dyn BlockStore>);
            let cluster = Cluster::new(crate::StoreBackend::custom(stores.collect())).unwrap();
            let stripe = cluster
                .write_stripe(coordinator.code(), 0, &make_data(10, 3))
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
                Some(strategy) => {
                    let directive = coordinator
                        .plan_single_repair(cluster.meta(), stripe, 1, 15)
                        .unwrap();
                    execute_single(&directive, &cluster, &transport, strategy).unwrap();
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
                    (1, BLOCK as u64)
                } else {
                    (0, 0)
                };
                assert_eq!(seen, expected, "shape {shape:?}, node {node}");
            }
        }
        std::fs::remove_dir_all(&root).ok();
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
