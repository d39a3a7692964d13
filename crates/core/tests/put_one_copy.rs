//! Pins the copies of a façade round trip: one copy in, none out. Every byte
//! of an object is copied exactly once on its way into the stores, and not
//! at all on its way back out of them.
//!
//! `EcPipe::put` copies each data block out of the caller's slice into a
//! `Vec` that it adopts into the cluster's block pool, and everything after
//! that (parity computation, the hand-over to `Cluster::write_stripe_blocks`,
//! the memory stores) borrows or shares those blocks. A copy into a `Vec` is
//! invisible to the `bytes` shim's deep-copy counter, so this binary also
//! counts what the allocator hands the calling thread: a put allocates the
//! blocks it stores — `k` data blocks and `n - k` parity blocks — and less
//! than a block of bookkeeping besides. Copying the object a second time on
//! the way (`data.to_vec()` at the top of `put`, a `Vec` clone of each block
//! in `write_stripe_blocks`, a `Bytes::copy_from_slice` of an adopted block)
//! allocates at least another block and fails the bound.
//!
//! A healthy `EcPipe::get` returns views of the stored blocks, so it
//! allocates less than a block (the object record and the list of views)
//! and deep-copies nothing. Gathering the views into one buffer in the read
//! path (a `to_vec()` or an `extend_from_slice` of each block read)
//! allocates the whole object and fails that bound.
//!
//! The deep-copy counter is process-global, so this file holds a single
//! test: nothing else can run beside it and inflate the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ecpipe::{EcPipeBuilder, StoreBackend};

/// The system allocator, counting the bytes each thread is handed.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes as u64));
}

/// Bytes allocated by the calling thread so far (a `realloc` counts its new
/// size).
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// callers' obligations under `GlobalAlloc` are exactly `System`'s; counting
// touches only a thread-local `Cell` with no destructor, and allocates nothing.
// xtask:allow(unsafe-code): a global allocator has no safe interface
unsafe impl GlobalAlloc for Counting {
    // xtask:allow(unsafe-code): the trait's signature; see the impl's SAFETY
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        // xtask:allow(unsafe-code): forwarding to the system allocator
        unsafe { System.alloc(layout) }
    }

    // xtask:allow(unsafe-code): the trait's signature; see the impl's SAFETY
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        // xtask:allow(unsafe-code): forwarding to the system allocator
        unsafe { System.alloc_zeroed(layout) }
    }

    // xtask:allow(unsafe-code): the trait's signature; see the impl's SAFETY
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        // xtask:allow(unsafe-code): forwarding to the system allocator
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // xtask:allow(unsafe-code): the trait's signature; see the impl's SAFETY
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`.
        // xtask:allow(unsafe-code): forwarding to the system allocator
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn put_copies_each_object_byte_exactly_once() {
    const BLOCK: usize = 16 * 1024;
    // A (6, 4) stripe stores six blocks, whatever part of them is object.
    const STORED: u64 = 6 * BLOCK as u64;
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(2 * 1024)
        .store(StoreBackend::memory(8))
        .build()
        .unwrap();
    let object: Vec<u8> = (0..4 * BLOCK).map(|i| (i * 31 % 251) as u8).collect();
    // The first put and get also build what every later one shares (the GF
    // kernels' tables among them).
    pipe.put("/warm-up", &object).unwrap();
    assert_eq!(pipe.get("/warm-up").unwrap(), object);

    // One full stripe, and an object ending inside a block (its tail block
    // copied and zero-padded, the blocks after it zeros).
    let ragged = &object[..2 * BLOCK + 100];
    let objects = [("/one-stripe", &object[..]), ("/ragged", ragged)];
    for (name, data) in objects {
        let (copied, allocated_before) = (bytes::shim_metrics::deep_copy_bytes(), allocated());
        pipe.put(name, data).unwrap();
        let spent = allocated() - allocated_before;
        assert_eq!(
            bytes::shim_metrics::deep_copy_bytes(),
            copied,
            "{name}: a put copies into adopted blocks, not at the Bytes layer"
        );
        assert!(
            (STORED..STORED + BLOCK as u64).contains(&spent),
            "{name}: a put allocated {spent} bytes for {STORED} stored"
        );
    }

    for (name, data) in objects {
        let (copied, allocated_before) = (bytes::shim_metrics::deep_copy_bytes(), allocated());
        let got = pipe.get(name).unwrap();
        let spent = allocated() - allocated_before;
        assert_eq!(
            bytes::shim_metrics::deep_copy_bytes(),
            copied,
            "{name}: a get hands out the stored blocks, not Bytes-layer copies"
        );
        assert!(
            spent < BLOCK as u64,
            "{name}: a get of {} bytes allocated {spent}",
            data.len()
        );
        assert_eq!(got, data);
    }
    pipe.shutdown();
}
