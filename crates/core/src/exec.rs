//! Repair executors: real threads moving real bytes.
//!
//! Each strategy wires helper worker threads together with bounded channels
//! and runs the repair end to end against the cluster's block stores, so the
//! reconstructed block can be checked byte-for-byte against the erased one.
//!
//! * [`ExecStrategy::Conventional`] — every helper streams its whole block to
//!   the requestor, which performs the decoding combination (§2.2).
//! * [`ExecStrategy::Ppr`] — partial-parallel repair: helpers combine
//!   pairwise along a binary aggregation tree (§2.2).
//! * [`ExecStrategy::RepairPipelining`] — the paper's contribution: slices
//!   flow along the linear helper path, each helper adding `a_i * B_i` (§3.2).
//! * [`ExecStrategy::BlockPipeline`] — the `Pipe-B` baseline of §6.4: the
//!   same path but at whole-block granularity.
//!
//! The executors are generic over the [`Transport`] trait: the same
//! strategies run over in-process channels
//! ([`ChannelTransport`](crate::transport::ChannelTransport), no bandwidth
//! limits, used for correctness tests and throughput microbenches) or real
//! localhost sockets ([`TcpTransport`](crate::transport::TcpTransport),
//! optionally throttled so the §3.2 timing claims can be measured on the
//! wire). Timing-shape experiments at scale still run on the `simnet`
//! simulator.

use bytes::Bytes;
use ecpipe_sync::OnceFlag;
use gf256::Gf256;

use ecc::slice::SliceLayout;

use crate::buf::BufPool;
use crate::cluster::Cluster;
use crate::coordinator::{MultiRepairDirective, RepairDirective};
use crate::transport::{SliceMsg, Transport};
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
    // Pre-flight: every helper block must still be present. A block that
    // disappeared after planning surfaces as `BlockNotFound`, which lets the
    // caller restart with a different helper set (§3.2).
    for &(node, block, _) in &directive.path {
        if !cluster.store(node).contains(block) {
            return Err(EcPipeError::BlockNotFound { block });
        }
    }
    match strategy {
        ExecStrategy::Conventional => run_conventional(directive, cluster, transport, cancel),
        ExecStrategy::Ppr => run_ppr(directive, cluster, transport, cancel),
        ExecStrategy::RepairPipelining => {
            run_pipeline(directive, cluster, transport, directive.layout, cancel)
        }
        ExecStrategy::BlockPipeline => {
            let block_layout =
                SliceLayout::new(directive.layout.block_size, directive.layout.block_size);
            run_pipeline(directive, cluster, transport, block_layout, cancel)
        }
    }
}

fn cancelled_error() -> EcPipeError {
    execution_error("repair cancelled mid-stream")
}

/// Slice-level (or block-level) pipelining along the helper path.
fn run_pipeline<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    layout: SliceLayout,
    cancel: &OnceFlag,
) -> Result<Vec<u8>> {
    let slices = layout.slice_count();
    let path = &directive.path;
    if path.is_empty() {
        return Err(execution_error("repair path has no helpers"));
    }
    let (stripe, repair) = (directive.stripe.0, directive.repair_id());

    // One pool serves the whole path: a partial buffer freed by the
    // downstream consumer is reused for a later slice, so the steady state
    // allocates nothing per slice.
    let pool = BufPool::new();
    std::thread::scope(|scope| -> Result<Vec<u8>> {
        let mut handles = Vec::new();
        let mut prev_rx = None;
        for (i, &(node, block, coeff)) in path.iter().enumerate() {
            let next_node = if i + 1 < path.len() {
                path[i + 1].0
            } else {
                directive.requestor
            };
            let (tx, rx) = transport.link(node, next_node, PIPELINE_DEPTH);
            let store = cluster.store(node).clone();
            let incoming = prev_rx.replace(rx);
            let pool = pool.clone();
            handles.push(scope.spawn(move || -> Result<()> {
                for j in 0..slices {
                    if cancel.is_set() {
                        return Err(cancelled_error());
                    }
                    let local = store.get_range(block, layout.slice_range(j))?;
                    let mut partial = pool.take(local.len());
                    gf256::mul_slice(Gf256::new(coeff), &local, &mut partial);
                    if let Some(rx) = &incoming {
                        let msg = rx
                            .recv()
                            .ok_or_else(|| execution_error("upstream helper stopped early"))?;
                        gf256::add_slice(&msg.data, &mut partial);
                    }
                    tx.send(SliceMsg::new(j, partial.freeze()).tagged(stripe, repair))?;
                }
                Ok(())
            }));
        }

        // The requestor assembles the repaired block.
        let rx = prev_rx.expect("path has at least one helper");
        let mut out = vec![0u8; layout.block_size];
        let mut stalled = false;
        for _ in 0..slices {
            if cancel.is_set() {
                stalled = true;
                break;
            }
            match rx.recv() {
                Some(msg) => out[layout.slice_range(msg.index)].copy_from_slice(&msg.data),
                None => {
                    stalled = true;
                    break;
                }
            }
        }
        drop(rx);
        // Join the helpers before reporting a stall: a helper that failed a
        // local read (a vanished or checksum-corrupt block) carries the
        // specific error; the requestor only saw the stream end early.
        join_all(handles)?;
        if stalled {
            return Err(execution_error(
                "pipeline ended before the block was complete",
            ));
        }
        Ok(out)
    })
}

/// Conventional repair: the requestor pulls every helper block and decodes.
fn run_conventional<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    cancel: &OnceFlag,
) -> Result<Vec<u8>> {
    let layout = directive.layout;
    let slices = layout.slice_count();
    let (stripe, repair) = (directive.stripe.0, directive.repair_id());

    std::thread::scope(|scope| -> Result<Vec<u8>> {
        let mut handles = Vec::new();
        let mut receivers = Vec::new();
        for &(node, block, coeff) in &directive.path {
            let (tx, rx) = transport.link(node, directive.requestor, PIPELINE_DEPTH);
            receivers.push((rx, coeff));
            let store = cluster.store(node).clone();
            handles.push(scope.spawn(move || -> Result<()> {
                for j in 0..slices {
                    if cancel.is_set() {
                        return Err(cancelled_error());
                    }
                    let local = store.get_range(block, layout.slice_range(j))?;
                    tx.send(SliceMsg::new(j, local).tagged(stripe, repair))?;
                }
                Ok(())
            }));
        }

        // Draining the links one after the other is safe: every helper sends
        // from a thread of its own, so the ones not being read yet just wait
        // at their credit window.
        let mut out = vec![0u8; layout.block_size];
        let mut stalled = false;
        'links: for (rx, coeff) in receivers {
            for _ in 0..slices {
                if cancel.is_set() {
                    stalled = true;
                    break 'links;
                }
                let Some(msg) = rx.recv() else {
                    stalled = true;
                    // Breaking drops the remaining receivers, so the other
                    // helpers fail their sends and terminate.
                    break 'links;
                };
                gf256::mul_add_slice(
                    Gf256::new(coeff),
                    &msg.data,
                    &mut out[layout.slice_range(msg.index)],
                );
            }
        }
        join_all(handles)?;
        if stalled {
            return Err(execution_error("helper stopped before sending its block"));
        }
        Ok(out)
    })
}

/// Partial-parallel repair: pairwise aggregation along a binary tree.
fn run_ppr<T: Transport + ?Sized>(
    directive: &RepairDirective,
    cluster: &Cluster,
    transport: &T,
    cancel: &OnceFlag,
) -> Result<Vec<u8>> {
    let layout = directive.layout;
    let slices = layout.slice_count();
    let (stripe, repair) = (directive.stripe.0, directive.repair_id());

    // Initial partials: every helper scales its local block by its
    // coefficient (in parallel).
    let mut partials: std::collections::HashMap<simnet::NodeId, Vec<u8>> =
        std::thread::scope(|scope| -> Result<_> {
            let handles: Vec<_> = directive
                .path
                .iter()
                .map(|&(node, block, coeff)| {
                    let store = cluster.store(node).clone();
                    scope.spawn(move || -> Result<(simnet::NodeId, Vec<u8>)> {
                        let local = store.get(block)?;
                        let mut partial = vec![0u8; local.len()];
                        gf256::mul_slice(Gf256::new(coeff), &local, &mut partial);
                        Ok((node, partial))
                    })
                })
                .collect();
            let mut map = std::collections::HashMap::new();
            for h in handles {
                let (node, partial) = h
                    .join()
                    .map_err(|_| execution_error("helper thread panicked"))??;
                map.insert(node, partial);
            }
            Ok(map)
        })?;
    // The requestor starts with an all-zero partial.
    partials.insert(directive.requestor, vec![0u8; layout.block_size]);

    let rounds = repair::ppr::aggregation_rounds(&directive.helper_nodes(), directive.requestor);
    for round in rounds {
        // All pairs of a round run in parallel; senders stream their partial
        // to receivers slice by slice.
        let mut work = Vec::new();
        for (sender, receiver) in round {
            let sender_partial = partials
                .remove(&sender)
                .ok_or_else(|| execution_error("sender has no partial result"))?;
            let receiver_partial = partials
                .remove(&receiver)
                .ok_or_else(|| execution_error("receiver has no partial result"))?;
            work.push((sender, receiver, sender_partial, receiver_partial));
        }
        let results = std::thread::scope(|scope| -> Result<Vec<(simnet::NodeId, Vec<u8>)>> {
            let handles: Vec<_> = work
                .into_iter()
                .map(|(sender, receiver, sender_partial, mut receiver_partial)| {
                    let (tx, rx) = transport.link(sender, receiver, PIPELINE_DEPTH);
                    let send_handle = scope.spawn(move || -> Result<()> {
                        // Freeze the whole partial once; each slice message
                        // is a view into the same allocation.
                        let sender_bytes = Bytes::from(sender_partial);
                        for j in 0..slices {
                            if cancel.is_set() {
                                return Err(cancelled_error());
                            }
                            let data = sender_bytes.slice(layout.slice_range(j));
                            tx.send(SliceMsg::new(j, data).tagged(stripe, repair))?;
                        }
                        Ok(())
                    });
                    let recv_handle = scope.spawn(move || -> Result<(simnet::NodeId, Vec<u8>)> {
                        for _ in 0..slices {
                            if cancel.is_set() {
                                return Err(cancelled_error());
                            }
                            let msg = rx
                                .recv()
                                .ok_or_else(|| execution_error("sender stopped early"))?;
                            gf256::add_slice(
                                &msg.data,
                                &mut receiver_partial[layout.slice_range(msg.index)],
                            );
                        }
                        Ok((receiver, receiver_partial))
                    });
                    (send_handle, recv_handle)
                })
                .collect();
            let mut results = Vec::new();
            for (send_handle, recv_handle) in handles {
                send_handle
                    .join()
                    .map_err(|_| execution_error("sender thread panicked"))??;
                results.push(
                    recv_handle
                        .join()
                        .map_err(|_| execution_error("receiver thread panicked"))??,
                );
            }
            Ok(results)
        })?;
        for (node, partial) in results {
            partials.insert(node, partial);
        }
    }

    partials
        .remove(&directive.requestor)
        .ok_or_else(|| execution_error("aggregation did not reach the requestor"))
}

/// Executes a multi-block repair (§4.4): each helper reads its block once and
/// forwards a bundle of `f` partial slices per offset; the last helper
/// delivers each reconstructed slice to its requestor.
pub fn execute_multi<T: Transport + ?Sized>(
    directive: &MultiRepairDirective,
    cluster: &Cluster,
    transport: &T,
) -> Result<Vec<Vec<u8>>> {
    let layout = directive.layout;
    let slices = layout.slice_count();
    let (stripe, repair) = (directive.stripe.0, directive.repair_id());
    let f = directive.plan.failure_count();
    let path = &directive.path;
    if path.is_empty() {
        return Err(execution_error("repair path has no helpers"));
    }
    for &(node, block) in path {
        if !cluster.store(node).contains(block) {
            return Err(EcPipeError::BlockNotFound { block });
        }
    }

    // Delivery links from the last helper to each requestor.
    let last_helper = path.last().expect("path checked non-empty").0;
    let (delivery_senders, delivery_receivers): (Vec<_>, Vec<_>) = directive
        .requestors
        .iter()
        .map(|&r| transport.link(last_helper, r, PIPELINE_DEPTH))
        .unzip();

    let pool = BufPool::new();
    std::thread::scope(|scope| -> Result<Vec<Vec<u8>>> {
        let mut handles = Vec::new();
        let mut prev_rx = None;
        let mut delivery_senders = Some(delivery_senders);
        for (i, &(node, block)) in path.iter().enumerate() {
            let is_last = i + 1 == path.len();
            // This helper's column of the coefficient matrix: one fused
            // kernel call per slice adds its block into all `f` partial sums.
            let coeffs: Vec<u8> = directive
                .plan
                .coefficients
                .iter()
                .map(|row| row[i])
                .collect();
            let coeffs = gf256::Matrix::from_bytes(f, 1, &coeffs);
            let store = cluster.store(node).clone();
            let incoming = prev_rx.take();
            let forward = if !is_last {
                let (tx, rx) = transport.link(node, path[i + 1].0, PIPELINE_DEPTH);
                prev_rx = Some(rx);
                Some(tx)
            } else {
                None
            };
            let delivery = if is_last {
                delivery_senders.take()
            } else {
                None
            };
            let pool = pool.clone();
            handles.push(scope.spawn(move || -> Result<()> {
                for j in 0..slices {
                    let local = store.get_range(block, layout.slice_range(j))?;
                    let mut bundle = pool.take(f * local.len());
                    if let Some(rx) = &incoming {
                        let msg = rx
                            .recv()
                            .ok_or_else(|| execution_error("upstream helper stopped early"))?;
                        bundle.copy_from_slice(&msg.data);
                    }
                    let mut partials: Vec<&mut [u8]> =
                        bundle.chunks_exact_mut(local.len()).collect();
                    gf256::dot_prod(&coeffs, &[&local], &mut partials, true);
                    let bundle = bundle.freeze();
                    if let Some(tx) = &forward {
                        tx.send(SliceMsg::new(j, bundle).tagged(stripe, repair))?;
                    } else if let Some(delivery) = &delivery {
                        // Each requestor receives a view into the shared
                        // bundle, not its own copy.
                        for (row, tx) in delivery.iter().enumerate() {
                            let slice = bundle.slice(row * local.len()..(row + 1) * local.len());
                            tx.send(SliceMsg::new(j, slice).tagged(stripe, repair))?;
                        }
                    }
                }
                Ok(())
            }));
        }

        // Collect the requestors' blocks in the order the last helper sends
        // them — slice by slice, row by row. One thread drains all `f`
        // links here, and that helper blocks once `PIPELINE_DEPTH` slices
        // are unread on any of them, so collecting a whole row at a time
        // would deadlock as soon as a block has more slices than a link has
        // credits.
        let mut outputs = vec![vec![0u8; layout.block_size]; f];
        let mut stalled = false;
        'slices: for _ in 0..slices {
            for (rx, output) in delivery_receivers.iter().zip(&mut outputs) {
                let Some(msg) = rx.recv() else {
                    stalled = true;
                    break 'slices;
                };
                output[layout.slice_range(msg.index)].copy_from_slice(&msg.data);
            }
        }
        // After a stall this is what fails the last helper's sends, so the
        // join below returns.
        drop(delivery_receivers);
        join_all(handles)?;
        if stalled {
            return Err(execution_error("delivery ended before block was complete"));
        }
        Ok(outputs)
    })
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
    use crate::{Cluster, Coordinator};
    use ecc::stripe::StripeId;
    use ecc::{ErasureCode, Lrc, ReedSolomon};
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
        for strategy in [
            ExecStrategy::Conventional,
            ExecStrategy::Ppr,
            ExecStrategy::RepairPipelining,
            ExecStrategy::BlockPipeline,
        ] {
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
            let (cluster, coordinator, _data, stripe) = setup(code);
            cluster.erase_block(stripe, 1);
            let directive = coordinator
                .plan_single_repair(cluster.meta(), stripe, 1, 7)
                .unwrap();
            let transport = ChannelTransport::new();
            let cancel = OnceFlag::new();
            cancel.set();
            let result =
                execute_single_cancellable(&directive, &cluster, &transport, strategy, &cancel);
            assert!(
                matches!(result, Err(EcPipeError::Execution { .. })),
                "strategy {strategy:?} must fail once cancelled"
            );
            assert!(
                !cluster.store(7).contains(ecc::stripe::BlockId::new(0, 1)),
                "a cancelled repair must leave no partial block"
            );
        }
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
