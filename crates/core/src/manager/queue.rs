//! The prioritized repair queue.
//!
//! Two FIFO classes: degraded reads (a client is blocked on the block right
//! now) always pop before background full-node recovery work. Workers block
//! on [`RepairQueue::pop`] until work arrives or the queue is closed and
//! drained, which is how the daemon's shutdown finishes its queued work.

use std::collections::VecDeque;
use std::time::Instant;

use ecc::stripe::StripeId;
use ecpipe_sync::{Condvar, Mutex};
use simnet::NodeId;

use crate::lock_order;

/// Priority class of a repair. Lower is more urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum RepairPriority {
    /// A degraded read: a client is waiting for this block (§3.2). Pops
    /// before any queued corruption or background work.
    DegradedRead,
    /// A corruption repair: a scrubber (or a failed helper read) caught a
    /// block whose bytes no longer match their checksums. Nobody is blocked
    /// on it, but the stripe is one failure closer to data loss than the
    /// metadata believes, so it pops before routine background recovery.
    Corruption,
    /// Background single-stripe repair, typically part of a full-node
    /// recovery (§3.3).
    Background,
}

impl RepairPriority {
    /// The stable one-byte tag this priority is journaled as in the durable
    /// metadata plane's pending-repair records.
    pub(crate) fn tag(self) -> u8 {
        match self {
            RepairPriority::DegradedRead => 0,
            RepairPriority::Corruption => 1,
            RepairPriority::Background => 2,
        }
    }

    /// Decodes a journaled tag; unknown tags (from a newer writer) degrade
    /// to background priority rather than failing recovery.
    pub(crate) fn from_tag(tag: u8) -> RepairPriority {
        match tag {
            0 => RepairPriority::DegradedRead,
            1 => RepairPriority::Corruption,
            _ => RepairPriority::Background,
        }
    }
}

impl std::fmt::Display for RepairPriority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` honors width/alignment options in table output.
        f.pad(match self {
            RepairPriority::DegradedRead => "degraded-read",
            RepairPriority::Corruption => "corruption",
            RepairPriority::Background => "background",
        })
    }
}

/// One repair the manager should perform: reconstruct block `failed` of
/// `stripe` onto `requestor`.
#[derive(Debug, Clone)]
pub struct RepairRequest {
    /// The stripe with the missing block.
    pub stripe: StripeId,
    /// Index of the block to reconstruct.
    pub failed: usize,
    /// Node that receives (and stores) the reconstructed block.
    pub requestor: NodeId,
    /// Priority class.
    pub priority: RepairPriority,
}

/// A queued request plus the instant it entered the queue (for queue-latency
/// accounting).
pub(crate) struct QueuedRepair {
    pub request: RepairRequest,
    pub enqueued: Instant,
}

#[derive(Default)]
struct QueueInner {
    degraded: VecDeque<QueuedRepair>,
    corruption: VecDeque<QueuedRepair>,
    background: VecDeque<QueuedRepair>,
    closed: bool,
}

impl QueueInner {
    fn is_empty(&self) -> bool {
        self.degraded.is_empty() && self.corruption.is_empty() && self.background.is_empty()
    }
}

/// A blocking two-class priority queue.
pub(crate) struct RepairQueue {
    /// Lock class: `manager.queue` ([`lock_order::MANAGER_QUEUE`]).
    inner: Mutex<QueueInner>,
    available: Condvar,
}

impl RepairQueue {
    pub(crate) fn new() -> Self {
        RepairQueue {
            inner: Mutex::new(&lock_order::MANAGER_QUEUE, QueueInner::default()),
            available: Condvar::new(),
        }
    }

    /// Enqueues a request. Returns `false` (dropping the request) once the
    /// queue is closed.
    pub(crate) fn push(&self, request: RepairRequest) -> bool {
        let mut inner = self.inner.lock();
        if inner.closed {
            return false;
        }
        let queued = QueuedRepair {
            request,
            enqueued: Instant::now(),
        };
        match queued.request.priority {
            RepairPriority::DegradedRead => inner.degraded.push_back(queued),
            RepairPriority::Corruption => inner.corruption.push_back(queued),
            RepairPriority::Background => inner.background.push_back(queued),
        }
        drop(inner);
        self.available.notify_one();
        true
    }

    /// Pops the most urgent request, blocking while the queue is open but
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub(crate) fn pop(&self) -> Option<QueuedRepair> {
        let inner = self.inner.lock();
        let mut inner = self
            .available
            .wait_while(inner, |q| !q.closed && q.is_empty());
        if let Some(job) = inner.degraded.pop_front() {
            return Some(job);
        }
        if let Some(job) = inner.corruption.pop_front() {
            return Some(job);
        }
        if let Some(job) = inner.background.pop_front() {
            return Some(job);
        }
        debug_assert!(inner.closed);
        None
    }

    /// Promotes a still-queued repair of `(stripe, failed)` to the
    /// degraded-read class — a client is now blocked on a block that was
    /// only queued for corruption or background repair. Returns `false`
    /// when the request is not waiting in a lower class (already degraded,
    /// in flight, or unknown); in-flight work cannot be promoted.
    pub(crate) fn promote_to_degraded(&self, stripe: StripeId, failed: usize) -> bool {
        let mut inner = self.inner.lock();
        let matches = |q: &QueuedRepair| q.request.stripe == stripe && q.request.failed == failed;
        let found = if let Some(pos) = inner.corruption.iter().position(matches) {
            inner.corruption.remove(pos)
        } else if let Some(pos) = inner.background.iter().position(matches) {
            inner.background.remove(pos)
        } else {
            None
        };
        let Some(mut queued) = found else {
            return false;
        };
        // Reclassify so the wait is accounted to the degraded class; the
        // original enqueue instant is kept (the client inherits the whole
        // wait).
        queued.request.priority = RepairPriority::DegradedRead;
        inner.degraded.push_back(queued);
        drop(inner);
        self.available.notify_one();
        true
    }

    /// Closes the queue: no further pushes are accepted, and `pop` returns
    /// `None` once the remaining work is drained.
    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }

    /// Number of requests currently waiting (not counting in-flight work).
    pub(crate) fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.degraded.len() + inner.corruption.len() + inner.background.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(stripe: u64, priority: RepairPriority) -> RepairRequest {
        RepairRequest {
            stripe: StripeId(stripe),
            failed: 0,
            requestor: 9,
            priority,
        }
    }

    #[test]
    fn degraded_reads_pop_before_corruption_before_background() {
        let q = RepairQueue::new();
        assert!(q.push(request(1, RepairPriority::Background)));
        assert!(q.push(request(2, RepairPriority::Background)));
        assert!(q.push(request(4, RepairPriority::Corruption)));
        assert!(q.push(request(3, RepairPriority::DegradedRead)));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().request.stripe, StripeId(3));
        assert_eq!(q.pop().unwrap().request.stripe, StripeId(4));
        assert_eq!(q.pop().unwrap().request.stripe, StripeId(1));
        assert_eq!(q.pop().unwrap().request.stripe, StripeId(2));
    }

    #[test]
    fn promote_moves_queued_background_work_to_degraded() {
        let q = RepairQueue::new();
        q.push(request(1, RepairPriority::Background));
        q.push(request(2, RepairPriority::Background));
        q.push(request(3, RepairPriority::Corruption));
        assert!(q.promote_to_degraded(StripeId(2), 0));
        assert!(q.promote_to_degraded(StripeId(3), 0));
        // Unknown or already-degraded requests are not promoted.
        assert!(!q.promote_to_degraded(StripeId(9), 0));
        assert!(!q.promote_to_degraded(StripeId(2), 0));
        let popped = q.pop().unwrap();
        assert_eq!(popped.request.stripe, StripeId(2));
        assert_eq!(popped.request.priority, RepairPriority::DegradedRead);
        assert_eq!(q.pop().unwrap().request.stripe, StripeId(3));
        assert_eq!(q.pop().unwrap().request.stripe, StripeId(1));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = RepairQueue::new();
        q.push(request(1, RepairPriority::Background));
        q.close();
        assert!(!q.push(request(2, RepairPriority::Background)));
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_blocks_until_work_arrives() {
        let q = std::sync::Arc::new(RepairQueue::new());
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop().map(|j| j.request.stripe));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(request(7, RepairPriority::DegradedRead));
        assert_eq!(handle.join().unwrap(), Some(StripeId(7)));
    }
}
