//! Pins the one-copy `put`: every byte of an object is copied exactly once on
//! its way into the stores.
//!
//! `EcPipe::put` cuts the caller's slice into data blocks with
//! `Bytes::copy_from_slice` — the one deep copy the `bytes` shim counts — and
//! everything after that (parity computation, the hand-over to
//! `Cluster::write_stripe_blocks`, the memory stores) borrows or shares those
//! blocks. The counter is process-global, so this file holds a single test:
//! nothing else can run beside it and inflate the delta, which makes an
//! exact figure trustworthy.

use ecpipe::{EcPipeBuilder, StoreBackend};

#[test]
fn put_copies_each_object_byte_exactly_once() {
    const BLOCK: usize = 16 * 1024;
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(2 * 1024)
        .store(StoreBackend::memory(8))
        .build()
        .unwrap();
    let object: Vec<u8> = (0..4 * BLOCK).map(|i| (i * 31 % 251) as u8).collect();

    // One full stripe: the delta is the object, not the object per hand-off.
    let before = bytes::shim_metrics::deep_copy_bytes();
    pipe.put("/one-stripe", &object).unwrap();
    assert_eq!(
        bytes::shim_metrics::deep_copy_bytes() - before,
        object.len() as u64,
        "a put must deep-copy exactly the object's bytes"
    );

    // An object ending inside a block: the whole blocks are counted copies,
    // the tail block is built (copied and zero-padded) as a `Vec`, which the
    // counter does not see — so nothing is copied twice here either.
    let ragged = &object[..2 * BLOCK + 100];
    let before = bytes::shim_metrics::deep_copy_bytes();
    pipe.put("/ragged", ragged).unwrap();
    assert_eq!(
        bytes::shim_metrics::deep_copy_bytes() - before,
        2 * BLOCK as u64
    );

    let before = bytes::shim_metrics::deep_copy_bytes();
    assert_eq!(pipe.get("/one-stripe").unwrap(), object);
    assert_eq!(pipe.get("/ragged").unwrap(), ragged);
    assert_eq!(bytes::shim_metrics::deep_copy_bytes(), before);
    pipe.shutdown();
}
