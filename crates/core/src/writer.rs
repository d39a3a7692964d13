//! The cluster's store writer: one long-lived thread that writes a stripe's
//! data blocks while the `put` that handed them over encodes and writes the
//! parity.
//!
//! HDFS and QFS stream a stripe's `n` blocks to `n` nodes at once, so a
//! striped write costs about one block write. A block write to a file store
//! costs about as much page-cache work as encoding a parity block, so a
//! `put` that writes its blocks one after the other leaves a core idle.
//! [`StoreWriter::write_beside`] hands a stripe's data blocks to the writer
//! and runs the caller's own work (encoding and writing the parity) in the
//! meantime. Then the caller *takes back* every handed-over block the writer
//! has not started, through one next-block cursor that both sides advance,
//! and waits only for the one write the writer may be inside. So a `put`
//! never waits on the writer's queue, and a writer busy with another
//! stripe costs a `put` no more than writing every block itself.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use ecc::stripe::BlockId;
use ecpipe_sync::{Condvar, Mutex};

use crate::error::panic_message;
use crate::lock_order;
use crate::store::BlockStore;
use crate::{EcPipeError, Result};

/// One block write: the block, its bytes and the store that takes them.
pub(crate) struct BlockWrite {
    pub(crate) store: Arc<dyn BlockStore>,
    pub(crate) block: BlockId,
    pub(crate) data: Bytes,
}

/// A failed block write: the block's index in its stripe, and the error.
pub(crate) type Failure = (usize, EcPipeError);

impl BlockWrite {
    /// Writes the block. A store whose `put` panics fails the write with
    /// [`EcPipeError::Execution`] instead of unwinding through the writer's
    /// thread or the caller's.
    pub(crate) fn run(self) -> std::result::Result<(), Failure> {
        let BlockWrite { store, block, data } = self;
        let put = panic::catch_unwind(AssertUnwindSafe(|| store.put(block, data)));
        let result = put.unwrap_or_else(|payload| {
            Err(EcPipeError::Execution {
                reason: format!(
                    "the store's put of block {block} panicked: {}",
                    panic_message(&*payload)
                ),
            })
        });
        result.map_err(|error| (block.index, error))
    }
}

/// The writer thread and its hand-over state. Started with its cluster and
/// joined when the cluster drops.
pub(crate) struct StoreWriter {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

struct Shared {
    /// Lock class: `cluster.writer` ([`lock_order::CLUSTER_WRITER`]).
    pending: Mutex<Pending>,
    /// Wakes the writer: a stripe was handed over, or the cluster closed.
    work: Condvar,
    /// Wakes the callers: the writer finished a write.
    written: Condvar,
}

struct Pending {
    /// The stripes handed over and not yet taken back, oldest first.
    handoffs: VecDeque<Handoff>,
    next_ticket: u64,
    closed: bool,
}

struct Handoff {
    ticket: u64,
    /// The blocks neither side has started, in index order: the one cursor
    /// both the writer and the caller take their next block from.
    unclaimed: std::vec::IntoIter<BlockWrite>,
    /// Whether the writer is inside a write of this stripe.
    writing: bool,
    /// The writer's failed writes of this stripe.
    failures: Vec<Failure>,
}

impl Pending {
    /// The hand-over of `ticket`, which stays queued until its caller takes
    /// it back.
    fn handoff(&mut self, ticket: u64) -> &mut Handoff {
        self.handoffs
            .iter_mut()
            .find(|handoff| handoff.ticket == ticket)
            .expect("a hand-over stays queued until its caller takes it back")
    }

    fn has_unclaimed(&self) -> bool {
        self.handoffs
            .iter()
            .any(|handoff| handoff.unclaimed.len() > 0)
    }

    /// The oldest handed-over block nobody has started, marked as the
    /// writer's.
    fn claim_for_writer(&mut self) -> Option<(u64, BlockWrite)> {
        let handoff = self
            .handoffs
            .iter_mut()
            .find(|handoff| handoff.unclaimed.len() > 0)?;
        let write = handoff.unclaimed.next()?;
        handoff.writing = true;
        Some((handoff.ticket, write))
    }
}

impl StoreWriter {
    /// Starts the writer thread.
    pub(crate) fn start() -> Result<Self> {
        let shared = Arc::new(Shared {
            pending: Mutex::new(
                &lock_order::CLUSTER_WRITER,
                Pending {
                    handoffs: VecDeque::new(),
                    next_ticket: 0,
                    closed: false,
                },
            ),
            work: Condvar::new(),
            written: Condvar::new(),
        });
        let serving = shared.clone();
        let thread = std::thread::Builder::new()
            .name("store-writer".to_string())
            .spawn(move || serve(&serving))?;
        Ok(StoreWriter {
            shared,
            thread: Some(thread),
        })
    }

    /// Hands `blocks` to the writer, runs `meanwhile` on the calling thread,
    /// then writes every block of `blocks` the writer has not started and
    /// waits for the ones it has. Returns `meanwhile`'s value and every
    /// failed write of `blocks`, whichever side made it. When this returns,
    /// no write of `blocks` is in flight.
    pub(crate) fn write_beside<T>(
        &self,
        blocks: Vec<BlockWrite>,
        meanwhile: impl FnOnce() -> T,
    ) -> (T, Vec<Failure>) {
        let ticket = {
            let mut pending = self.shared.pending.lock();
            let ticket = pending.next_ticket;
            pending.next_ticket += 1;
            pending.handoffs.push_back(Handoff {
                ticket,
                unclaimed: blocks.into_iter(),
                writing: false,
                failures: Vec::new(),
            });
            ticket
        };
        self.shared.work.notify_one();
        let value = panic::catch_unwind(AssertUnwindSafe(meanwhile));
        let failures = self.take_back(ticket);
        match value {
            Ok(value) => (value, failures),
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Writes the blocks of `ticket` nobody has started, waits out the
    /// writer's write of it, if any, and removes the hand-over.
    fn take_back(&self, ticket: u64) -> Vec<Failure> {
        let mut failures = Vec::new();
        loop {
            // One statement, so the guard drops before the write.
            let next = self.shared.pending.lock().handoff(ticket).unclaimed.next();
            let Some(write) = next else { break };
            failures.extend(write.run().err());
        }
        let pending = self.shared.pending.lock();
        let mut pending = self
            .shared
            .written
            .wait_while(pending, |pending| pending.handoff(ticket).writing);
        let position = pending
            .handoffs
            .iter()
            .position(|handoff| handoff.ticket == ticket);
        let handoff = position.and_then(|position| pending.handoffs.remove(position));
        drop(pending);
        failures.extend(handoff.into_iter().flat_map(|handoff| handoff.failures));
        failures
    }
}

/// The writer thread: takes the oldest handed-over block nobody has
/// started, writes it and records the outcome, until the cluster closes.
fn serve(shared: &Shared) {
    let mut pending = shared.pending.lock();
    loop {
        pending = shared.work.wait_while(pending, |pending| {
            !pending.closed && !pending.has_unclaimed()
        });
        // Nothing is handed over once the cluster closes: a `put` borrows it.
        let Some((ticket, write)) = pending.claim_for_writer() else {
            return;
        };
        drop(pending);
        let result = write.run();
        pending = shared.pending.lock();
        let handoff = pending.handoff(ticket);
        handoff.writing = false;
        handoff.failures.extend(result.err());
        shared.written.notify_all();
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        self.shared.pending.lock().closed = true;
        self.shared.work.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
