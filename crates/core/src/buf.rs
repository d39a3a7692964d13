//! Pooled, reference-counted buffers.
//!
//! A [`BufPool`] is a bounded free-list of byte buffers: [`BufPool::take`]
//! hands out a [`PooledBuf`] to write into, [`PooledBuf::freeze`] turns it
//! into an immutable [`Bytes`] view that flows through transport framing and
//! store writes without copying, and when the last view drops, the
//! allocation returns to the pool for the next `take`.
//!
//! The runtime keeps three pools, each with one owner and one size of
//! buffer:
//!
//! * **Partials, one pool per walk.** The repair executor builds one
//!   partial sum per slice per helper; at the paper's slice sizes (tens of
//!   KiB) and pipeline depths that is thousands of short-lived buffers per
//!   repaired block, recycled within the walk.
//! * **Read buffers, one pool per transport.** A
//!   [`TcpTransport`](crate::transport::TcpTransport) reads a credit window
//!   of frames into one buffer and hands the frames out as views of it.
//! * **Blocks, one pool per [`Cluster`](crate::Cluster).** Every block that
//!   outlives the thread that made it is a buffer of the cluster's pool: a
//!   repair's output is taken from it, and `put`'s data and parity blocks
//!   are [adopted](BufPool::adopt) into it. A stored block that is dropped —
//!   erased, deleted, overwritten, lost with its node — returns its
//!   allocation there, and the next repair writes into that same memory
//!   instead of asking the allocator for a fresh block on whichever thread
//!   happens to run it.
//!
//! The pool is deliberately simple — a bounded free-list, not a slab with
//! size classes — because each pool's traffic is monoculture: every buffer
//! of one walk has the same slice (or bundle) size, every read buffer a
//! credit window's, every block the cluster's block size, so the head of
//! the free-list almost always fits and mismatched buffers are just resized
//! in place.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ecpipe_sync::Mutex;

use crate::lock_order;

/// How many returned buffers a walk's or a transport's pool retains before
/// letting extras drop. (A cluster's block pool has a bound of its own, argued
/// where the cluster makes it: a parked block is a whole block of memory.)
/// A repair is walked by one thread that takes the most-downstream step
/// first, so in steady state a chain holds about one partial per stage,
/// plus the partials a stage has queued on its outgoing link and not yet
/// flushed — up to a window of
/// [`PIPELINE_DEPTH`](crate::exec::PIPELINE_DEPTH), on about one link at a
/// time, since a window travels the chain before the next is read: `k + 8`
/// buffers, 18 for RS(14,10). A PPR round's store-and-forward window (a
/// whole block of slices) is the one transient burst beyond that, and it
/// costs a malloc per slice rather than keeping a block's worth of memory
/// parked per repair. `TcpTransport`'s read buffers, a credit window of
/// frames each, share one pool per transport under the same bound: a
/// buffer is out only while a link has frames of it left to fold, a
/// couple per repair in flight.
const DEFAULT_MAX_RETAINED: usize = 32;

struct PoolInner {
    /// Lock class: `buf.pool` ([`lock_order::BUF_POOL`]).
    free: Mutex<Vec<Vec<u8>>>,
    max_retained: usize,
    /// `take`s that found no recycled buffer large enough and allocated.
    fresh: AtomicU64,
}

/// A bounded free-list of slice buffers shared by the stages of a repair.
///
/// Cloning the pool is cheap (it is an `Arc` handle); every clone feeds the
/// same free-list.
///
/// ```
/// use ecpipe::BufPool;
///
/// let pool = BufPool::new();
/// let mut buf = pool.take(8);
/// buf.copy_from_slice(b"01234567");
/// let bytes = buf.freeze();
/// assert_eq!(&bytes[..], b"01234567");
/// drop(bytes); // allocation returns to the pool
/// assert_eq!(pool.retained(), 1);
/// ```
#[derive(Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

impl BufPool {
    /// Creates a pool retaining up to a small default number of buffers.
    pub fn new() -> Self {
        BufPool::with_max_retained(DEFAULT_MAX_RETAINED)
    }

    /// Creates a pool retaining at most `max_retained` returned buffers.
    pub fn with_max_retained(max_retained: usize) -> Self {
        BufPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(&lock_order::BUF_POOL, Vec::new()),
                max_retained,
                fresh: AtomicU64::new(0),
            }),
        }
    }

    /// Takes a buffer of exactly `len` bytes, reusing a previously returned
    /// allocation when one is available. Contents unspecified, the caller
    /// overwrites: a recycled buffer keeps the bytes of its last use (only
    /// what it grows by is zeroed), because clearing 32 KiB per slice per
    /// stage that the GF kernel then writes over is `memset` for nothing.
    pub fn take(&self, len: usize) -> PooledBuf {
        let recycled = self.inner.free.lock().pop();
        let data = match recycled {
            Some(mut vec) => {
                if vec.capacity() < len {
                    self.inner.fresh.fetch_add(1, Ordering::Relaxed);
                }
                vec.resize(len, 0);
                vec
            }
            None => {
                self.inner.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0u8; len]
            }
        };
        self.adopt(data)
    }

    /// Adopts an allocation made elsewhere, so that it returns to this pool
    /// once its last view drops. This is how `put` hands the stores blocks
    /// it has already filled, without a second copy or a `take`'s zeroing.
    pub fn adopt(&self, data: Vec<u8>) -> PooledBuf {
        PooledBuf {
            data,
            pool: Arc::clone(&self.inner),
        }
    }

    /// How many buffers are currently parked in the free-list.
    pub fn retained(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// How many `take`s so far found no recycled buffer of the length asked
    /// for and went to the allocator — for the tests that pin recycling.
    #[doc(hidden)]
    pub fn fresh_allocations(&self) -> u64 {
        self.inner.fresh.load(Ordering::Relaxed)
    }
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("retained", &self.retained())
            .field("max_retained", &self.inner.max_retained)
            .finish()
    }
}

/// A mutable buffer checked out of a [`BufPool`].
///
/// Dereferences to `[u8]` for in-place accumulation;
/// [`freeze`](PooledBuf::freeze) converts it into an immutable shared
/// [`Bytes`] without copying. Whether frozen or simply dropped, the
/// allocation returns to its pool once the last reference goes away.
pub struct PooledBuf {
    data: Vec<u8>,
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// Converts into an immutable [`Bytes`] view sharing this allocation.
    /// Clones and sub-slices of the result all reference the same memory;
    /// the buffer re-enters the pool when the last of them drops.
    pub fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let vec = std::mem::take(&mut self.data);
        if vec.capacity() == 0 {
            return;
        }
        let mut free = self.pool.free.lock();
        if free.len() < self.pool.max_retained {
            free.push(vec);
        }
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled_through_freeze_and_drop() {
        let pool = BufPool::new();
        assert_eq!(pool.retained(), 0);

        let buf = pool.take(1024);
        let ptr = buf.as_ref().as_ptr() as usize;
        let bytes = buf.freeze();
        let view = bytes.slice(100..200);
        drop(bytes);
        assert_eq!(pool.retained(), 0, "a live view keeps the buffer out");
        drop(view);
        assert_eq!(pool.retained(), 1, "last view returns the buffer");

        // The next take reuses the same allocation, at the length asked for
        // (its contents are the caller's to overwrite).
        let again = pool.take(512);
        assert_eq!(again.as_ref().as_ptr() as usize, ptr);
        assert_eq!(again.len(), 512);
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn recycled_buffers_are_resized_not_cleared() {
        let pool = BufPool::new();
        let mut buf = pool.take(16);
        buf.copy_from_slice(&[0xAA; 16]);
        drop(buf);
        // Grown: the exact length asked for; what was added is zeroed, what
        // was there is the caller's to overwrite.
        let grown = pool.take(64);
        assert_eq!(grown.len(), 64);
        assert!(grown[16..].iter().all(|&b| b == 0));
        drop(grown);
        // Shrunk, then grown again within the capacity already paid for.
        assert_eq!(pool.take(8).len(), 8);
        assert_eq!(pool.take(64).len(), 64);
        assert_eq!(pool.retained(), 1, "every take reused the one buffer");
    }

    #[test]
    fn adopted_buffers_return_to_the_pool() {
        let pool = BufPool::new();
        let vec = vec![5u8; 256];
        let ptr = vec.as_ptr() as usize;
        let bytes = pool.adopt(vec).freeze();
        assert_eq!(&bytes[..], &[5u8; 256][..]);
        drop(bytes);
        assert_eq!(pool.retained(), 1);
        let again = pool.take(256);
        assert_eq!(again.as_ptr() as usize, ptr);
        assert_eq!(pool.fresh_allocations(), 0, "nothing was allocated");
        drop(again);
        // Growing past the capacity paid for is an allocation too.
        drop(pool.take(512));
        drop(pool.take(64));
        assert_eq!(pool.fresh_allocations(), 1);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufPool::with_max_retained(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take(8)).collect();
        drop(bufs);
        assert_eq!(pool.retained(), 2);
    }

    #[test]
    fn freeze_then_slice_is_zero_copy() {
        let before = bytes::shim_metrics::deep_copy_bytes();
        let pool = BufPool::new();
        let mut buf = pool.take(4096);
        buf[0] = 7;
        let bytes = buf.freeze();
        let s = bytes.slice(0..1);
        assert_eq!(s[0], 7);
        assert_eq!(
            bytes::shim_metrics::deep_copy_bytes(),
            before,
            "take → freeze → slice must not deep-copy"
        );
    }
}
