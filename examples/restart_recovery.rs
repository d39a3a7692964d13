//! Kill the process mid-repair, restart, and watch the metadata plane put
//! everything back: the WAL-durable namespace (`MetaBackend::durable`)
//! recovers every object, placement and pending repair byte-exactly, serves
//! degraded reads immediately, and re-drives the repairs the dead process
//! abandoned.
//!
//! The run has two incarnations of the same cluster directory:
//!
//! 1. **Incarnation 1** stores objects, loses a node, queues its recovery —
//!    then dies (`simulate_crash`, the in-process `kill -9`) with the queue
//!    half-drained: journaled repair directives are left unresolved on disk.
//! 2. **Incarnation 2** reopens the same store + metadata directories. The
//!    namespace is back before any repair runs, so client reads succeed
//!    degraded; the journaled directives whose block is still missing
//!    re-enqueue automatically (ones already healed before the crash are
//!    resolved instead of double-healing) and the cluster finishes healing.
//!
//! `RESTART_BACKEND=file` (default) or `file-checksummed` selects the
//! on-disk store flavor, so CI exercises both.
//!
//! Run with `cargo run --example restart_recovery`.

use std::path::Path;

use repair_pipelining::ecpipe::{EcPipeBuilder, MetaBackend, StoreBackend};

const NODES: usize = 6;
const BLOCK: usize = 32 * 1024;
const OBJECTS: usize = 3;
/// Each object spans 3 (4,2) stripes.
const OBJECT: usize = 3 * 2 * BLOCK;
/// Slow links so the first incarnation reliably dies mid-repair.
const LINK_RATE: u64 = 256 * 1024;

fn object_bytes(seed: u64) -> Vec<u8> {
    (0..OBJECT)
        .map(|i| ((i as u64 * 37 + seed * 11 + 3) % 251) as u8)
        .collect()
}

fn store_backend(root: &Path) -> StoreBackend {
    let flavor = std::env::var("RESTART_BACKEND").unwrap_or_else(|_| "file".to_string());
    match flavor.as_str() {
        "file" => StoreBackend::file(root.join("store"), NODES),
        "file-checksummed" => StoreBackend::file_checksummed(root.join("store"), NODES),
        other => panic!("RESTART_BACKEND must be file or file-checksummed, got {other:?}"),
    }
}

fn builder(root: &Path) -> EcPipeBuilder {
    EcPipeBuilder::new()
        .code(4, 2)
        .block_size(BLOCK)
        .slice_size(8 * 1024)
        .store(store_backend(root))
        .meta(MetaBackend::durable(root.join("meta")))
}

fn main() {
    let root = std::env::temp_dir().join(format!("ecpipe-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let originals: Vec<Vec<u8>> = (0..OBJECTS as u64).map(object_bytes).collect();

    // --- Incarnation 1: populate, lose a node, die mid-recovery -----------
    let failed_node = 1;
    let (stripes_before, pending_at_crash) = {
        let pipe = builder(&root).rate_limit(LINK_RATE).build().expect("build");
        for (i, data) in originals.iter().enumerate() {
            pipe.put(&format!("/restart/{i}"), data).expect("put");
        }
        let lost = pipe.kill_node(failed_node);
        let queued = pipe.report_node_failure(failed_node);
        println!(
            "incarnation 1: {OBJECTS} objects stored, node {failed_node} lost \
             {} blocks, {queued} repairs queued",
            lost.len()
        );

        let meta = pipe.meta();
        let stripes = meta.stripe_count();
        pipe.simulate_crash();
        // The crash resolved nothing: whatever had not finished is still
        // journaled on disk.
        let pending = meta.pending_repairs().len();
        println!("incarnation 1: killed mid-repair with {pending} directives journaled");
        (stripes, pending)
    };
    assert!(
        pending_at_crash > 0,
        "the crash must strand journaled repairs"
    );

    // --- Incarnation 2: reopen the same directories ------------------------
    let pipe = builder(&root).build().expect("rebuild over the same dirs");
    let meta = pipe.meta();
    assert_eq!(meta.object_count(), OBJECTS, "every object recovered");
    assert_eq!(
        meta.stripe_count(),
        stripes_before,
        "every stripe recovered"
    );
    println!(
        "incarnation 2: recovered {} objects / {} stripes from the WAL; \
         {} journaled directives re-examined (healed ones resolved, \
         missing blocks re-enqueued)",
        meta.object_count(),
        meta.stripe_count(),
        pending_at_crash,
    );

    // Degraded reads work before the re-driven repairs finish — the
    // namespace is back, so missing blocks are reconstructed on the fly.
    for (i, data) in originals.iter().enumerate() {
        let read = pipe.get(&format!("/restart/{i}")).expect("degraded read");
        assert_eq!(&read, data, "object {i} must read back byte-exact");
    }
    println!("incarnation 2: all {OBJECTS} objects read byte-exact while healing");

    // Let the re-enqueued repairs drain: every directive resolves, and no
    // stripe is left missing the failed node's block.
    pipe.wait_idle();
    assert!(
        meta.pending_repairs().is_empty(),
        "all re-driven repairs must resolve"
    );
    drop(meta);
    let report = pipe.shutdown();
    assert_eq!(report.failed_repairs, 0, "no repair may fail");
    println!(
        "incarnation 2: healing complete — {} blocks repaired, {} KiB on the wire",
        report.blocks_repaired,
        report.network_bytes / 1024,
    );

    let _ = std::fs::remove_dir_all(&root);
    println!("restart_recovery finished");
}
