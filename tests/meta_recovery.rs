//! Kill-and-restart acceptance tests for the durable metadata plane.
//!
//! A durable [`EcPipe`] is killed (`simulate_crash`, the in-process stand-in
//! for `kill -9`) with one repair in flight and one still queued. A rebuilt
//! handle over the same directories must recover every object, placement and
//! pending repair byte-exactly, re-drive the queued repair, and resolve the
//! stale directive left behind by the repair that completed-but-never-resolved.
//! A directive is re-driven exactly when its block is still missing where
//! the router places it: that check is what stands between a crash and
//! double-healing, and what keeps a repair whose stripe moved under it.

use std::path::{Path, PathBuf};

use repair_pipelining::ecc::stripe::{BlockId, StripeId};
use repair_pipelining::ecpipe::transport::Transport;
use repair_pipelining::ecpipe::{
    EcPipeBuilder, EcPipeError, MetaBackend, MetaConfig, MetaError, MetaRouter, ObjectRecord,
    RepairPriority, RepairRecord, RepairRequest, StoreBackend, StripeRecord,
};

const NODES: usize = 6;
const BLOCK: usize = 16 * 1024;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecpipe-meta-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn builder(root: &Path) -> EcPipeBuilder {
    EcPipeBuilder::new()
        .code(4, 2)
        .block_size(BLOCK)
        .slice_size(4 * 1024)
        .store(StoreBackend::file(root.join("store"), NODES))
        .meta(MetaBackend::durable(root.join("meta")))
        .workers(1)
}

/// Everything the metadata plane is responsible for remembering, collected
/// for whole-namespace equality checks across a crash.
#[derive(Debug, PartialEq)]
struct Namespace {
    objects: Vec<ObjectRecord>,
    stripes: Vec<StripeRecord>,
    pending: Vec<RepairRecord>,
}

fn namespace(meta: &MetaRouter) -> Namespace {
    let mut objects = Vec::new();
    meta.for_each_object(|o| objects.push(o.clone()));
    objects.sort_by(|a, b| a.name.cmp(&b.name));
    let mut stripes = Vec::new();
    meta.for_each_stripe(|s| stripes.push(s.clone()));
    stripes.sort_by_key(|s| s.id);
    Namespace {
        objects,
        stripes,
        pending: meta.pending_repairs(),
    }
}

/// A node outside the stripe's current placement, for relocating repairs.
fn spare_node(stripe: &StripeRecord) -> usize {
    (0..NODES)
        .find(|n| !stripe.locations.contains(n))
        .expect("6 nodes, 4 blocks: a spare always exists")
}

#[test]
fn kill_and_restart_recovers_namespace_and_rejects_stale_directives() {
    let root = fresh_dir("kill-restart");
    let data: Vec<u8> = (0..100_000).map(|i| (i % 249) as u8).collect();

    // --- Run 1: populate, wound two stripes, crash mid-repair. -----------
    // The low transport rate makes the in-flight repair take ~300 ms, so
    // the crash below lands while it is mid-transfer, deterministically.
    let pipe = builder(&root).rate_limit(96 * 1024).build().unwrap();
    pipe.put("/acceptance/object", &data).unwrap();

    let meta = pipe.meta();
    let mut stripes = Vec::new();
    meta.for_each_stripe(|s| stripes.push(s.clone()));
    stripes.sort_by_key(|s| s.id);
    assert!(
        stripes.len() >= 3,
        "need >= 3 stripes, got {}",
        stripes.len()
    );
    let (s0, s1) = (stripes[0].clone(), stripes[1].clone());
    let (r0, r1) = (spare_node(&s0), spare_node(&s1));

    // Repair 1 goes in flight on the single worker...
    assert!(pipe.erase_block(s0.id, 0));
    pipe.manager()
        .enqueue(RepairRequest {
            stripe: s0.id,
            failed: 0,
            requestor: r0,
            priority: RepairPriority::Background,
        })
        .unwrap();
    let popped = std::time::Instant::now();
    while pipe.manager().queued() > 0 {
        assert!(
            popped.elapsed().as_secs() < 10,
            "repair never went in flight"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // ...and repair 2 queues behind it, never reaching a worker.
    assert!(pipe.erase_block(s1.id, 0));
    pipe.manager()
        .enqueue(RepairRequest {
            stripe: s1.id,
            failed: 0,
            requestor: r1,
            priority: RepairPriority::Corruption,
        })
        .unwrap();

    pipe.simulate_crash();

    // The crash joined the in-flight repair: it stored + relocated (the
    // move persisted) but never resolved its journal record — the stale
    // directive. The queued repair was dropped unrun — still pending, and
    // still current.
    assert_eq!(meta.stripe(s0.id).unwrap().node_of(0), r0);
    assert_eq!(meta.stripe(s1.id).unwrap().node_of(0), s1.node_of(0));
    let expected = namespace(&meta);
    assert_eq!(expected.pending.len(), 2, "both directives journaled");
    drop(meta);
    drop(stripes);

    // --- Byte-exact reopen: a raw router over the same directory sees the
    // identical namespace. ---
    {
        let raw =
            MetaRouter::open(MetaConfig::new(MetaBackend::durable(root.join("meta")))).unwrap();
        assert_eq!(raw.dropped_tail_records(), 0, "clean crash: no torn tail");
        assert_eq!(namespace(&raw), expected);
    }

    // --- Run 2: rebuild over the same directories. -----------------------
    let pipe = builder(&root).build().unwrap();
    let meta = pipe.meta();

    // The stale directive (s0: its block is intact at r0 already) was
    // resolved, not double-healed: the placement is exactly what the crash
    // left behind.
    assert_eq!(meta.stripe(s0.id).unwrap().node_of(0), r0);
    assert!(
        !meta
            .pending_repairs()
            .iter()
            .any(|p| p.stripe == s0.id && p.index == 0),
        "stale directive must be resolved on reopen"
    );

    // The current directive (s1) was re-enqueued and completes.
    pipe.manager().wait_idle();
    assert_eq!(meta.stripe(s1.id).unwrap().node_of(0), r1);
    assert!(meta.pending_repairs().is_empty());
    drop(meta);

    // The data path survived the whole ordeal byte-exactly.
    assert_eq!(pipe.get("/acceptance/object").unwrap(), data);
    let report = pipe.shutdown();
    assert_eq!(report.failed_repairs, 0);

    let _ = std::fs::remove_dir_all(&root);
}

/// A crash leaves two journaled repairs of one stripe: block 0's completed
/// (stored and relocated, never resolved) and block 1's never ran. Block 0's
/// relocation changed the stripe's placement after block 1's directive was
/// journaled, but block 1 is still missing where the router places it:
/// a reopen must re-drive that repair, and resolve block 0's.
#[test]
fn reopen_redrives_a_repair_whose_stripe_moved() {
    let root = fresh_dir("two-blocks");
    let data: Vec<u8> = (0..100_000).map(|i| (i % 241) as u8).collect();

    // --- Run 1: two repairs of one stripe, the crash lands between them. -
    let pipe = builder(&root).rate_limit(96 * 1024).build().unwrap();
    pipe.put("/two/blocks", &data).unwrap();
    let meta = pipe.meta();
    let id = pipe.object_meta("/two/blocks").unwrap().stripes[0];
    let stripe = meta.stripe(id).unwrap();
    let spares: Vec<usize> = (0..NODES)
        .filter(|n| !stripe.locations.contains(n))
        .collect();
    assert!(pipe.erase_block(id, 0));
    assert!(pipe.erase_block(id, 1));
    let repair = |failed: usize, requestor: usize| RepairRequest {
        stripe: id,
        failed,
        requestor,
        priority: RepairPriority::Background,
    };
    // Block 0's repair goes in flight on the single worker...
    pipe.manager().enqueue(repair(0, spares[0])).unwrap();
    let popped = std::time::Instant::now();
    while pipe.manager().queued() > 0 {
        assert!(
            popped.elapsed().as_secs() < 10,
            "repair never went in flight"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // ...and block 1's queues behind it.
    pipe.manager().enqueue(repair(1, spares[1])).unwrap();
    pipe.simulate_crash();
    assert_eq!(meta.stripe(id).unwrap().node_of(0), spares[0]);
    assert_eq!(meta.pending_repairs().len(), 2, "both directives journaled");
    drop(meta);

    // --- Run 2: reopen; block 1 is rebuilt, nothing is rebuilt twice. -----
    let pipe = builder(&root).build().unwrap();
    pipe.manager().wait_idle();
    let meta = pipe.meta();
    for index in [0, 1] {
        let node = meta.node_of(id, index).unwrap();
        let block = BlockId::new(id.0, index);
        assert!(
            pipe.cluster().store(node).contains(block),
            "block {index} missing on node {node} after reopen"
        );
    }
    assert!(meta.pending_repairs().is_empty());
    drop(meta);
    let repaired = pipe.transport().total_bytes();
    assert_eq!(pipe.get("/two/blocks").unwrap(), data);
    assert_eq!(
        pipe.transport().total_bytes(),
        repaired,
        "a read after reopen repaired a block"
    );
    let report = pipe.shutdown();
    assert_eq!((report.blocks_repaired, report.failed_repairs), (1, 0));
    let _ = std::fs::remove_dir_all(&root);
}

/// An ephemeral pipe over a durable store directory starts from an empty
/// namespace — durability is the metadata backend's property, not the
/// store's.
#[test]
fn ephemeral_backend_forgets_across_handles() {
    let root = fresh_dir("ephemeral");
    let data = vec![7u8; 40_000];
    {
        let pipe = EcPipeBuilder::new()
            .code(4, 2)
            .block_size(BLOCK)
            .store(StoreBackend::file(root.join("store"), NODES))
            .build()
            .unwrap();
        pipe.put("/gone/after/drop", &data).unwrap();
        pipe.shutdown();
    }
    let pipe = EcPipeBuilder::new()
        .code(4, 2)
        .block_size(BLOCK)
        .store(StoreBackend::file(root.join("store"), NODES))
        .build()
        .unwrap();
    assert!(pipe.get("/gone/after/drop").is_err());
    assert_eq!(pipe.meta().object_count(), 0);
    pipe.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Reopening a durable namespace with no crash and no pending repairs is a
/// plain byte-exact restore: the recovered router is the only record of where
/// blocks live, so every object reads back with no repair — including a block
/// that moved before the restart — and a directory written under another code
/// is refused.
#[test]
fn clean_restart_restores_reads_without_repairs() {
    let root = fresh_dir("clean");
    let objects: Vec<(String, Vec<u8>)> = (0..5)
        .map(|i| {
            let name = format!("/clean/obj-{i}");
            let bytes = (0..20_000 + i * 3_000)
                .map(|b| ((b * 7 + i) % 251) as u8)
                .collect();
            (name, bytes)
        })
        .collect();
    let (moved, spare) = {
        let pipe = builder(&root).build().unwrap();
        for (name, bytes) in &objects {
            pipe.put(name, bytes).unwrap();
        }
        // Rebuild one block onto a spare node: the repair relocates it.
        let stripe = pipe.object_meta(&objects[0].0).unwrap().stripes[0];
        let spare = spare_node(&pipe.meta().stripe(stripe).unwrap());
        assert!(pipe.erase_block(stripe, 0));
        pipe.manager()
            .enqueue(RepairRequest {
                stripe,
                failed: 0,
                requestor: spare,
                priority: RepairPriority::Background,
            })
            .unwrap();
        pipe.wait_idle();
        assert_eq!(pipe.shutdown().blocks_repaired, 1);
        (stripe, spare)
    };
    let pipe = builder(&root).build().unwrap();
    assert_eq!(pipe.meta().object_count(), objects.len());
    assert_eq!(pipe.cluster().node_of(moved, 0).unwrap(), spare);
    for (name, bytes) in &objects {
        assert_eq!(&pipe.get(name).unwrap(), bytes, "{name}");
    }
    assert!(pipe.meta().pending_repairs().is_empty());
    let report = pipe.shutdown();
    assert_eq!(report.blocks_repaired + report.failed_repairs, 0);

    // The recovered stripes have 4 blocks each; a (6, 4) deployment must
    // not half-work over them.
    assert!(matches!(
        builder(&root).code(6, 4).build(),
        Err(EcPipeError::InvalidRequest { .. })
    ));
    let _ = std::fs::remove_dir_all(&root);
}

/// A metadata I/O error reaches the caller as an error, not a panic, and a
/// `put` that cannot publish leaves no blocks behind.
#[test]
fn metadata_io_errors_fail_put_and_delete_cleanly() {
    let root = fresh_dir("wal-error");
    let pipe = builder(&root).build().unwrap();
    let data = vec![5u8; 3 * BLOCK];
    pipe.put("/kept", &data).unwrap();
    // Bring the journal to one record short of a due snapshot, then pull
    // its directory out from under it: the WAL handle stays writable, but
    // the next commit is due a snapshot and cannot create the snapshot
    // file. A snapshot is due once the WAL holds as many bytes as the last
    // snapshot (and at least a fixed floor). The first snapshot, learned
    // from the first truncation of `wal.log`, holds every record the WAL
    // held, so it is past that floor and its size is the next threshold.
    let meta = pipe.meta();
    let len = |file: &str| {
        std::fs::metadata(root.join("meta").join(file))
            .unwrap()
            .len()
    };
    let mut next = 1_000_000u64;
    let mut register = || {
        meta.register_stripe(StripeId(next), vec![0, 1, 2, 3])
            .unwrap();
        next += 1;
    };
    let mut wal = len("wal.log");
    register();
    let frame = len("wal.log") - wal; // the size of `put`'s stripe records too
    loop {
        wal = len("wal.log");
        register();
        if len("wal.log") < wal {
            break;
        }
    }
    let threshold = len("snapshot.bin");
    while len("wal.log") + frame < threshold {
        register();
    }
    std::fs::remove_dir_all(root.join("meta")).unwrap();

    let stored = || -> usize {
        (0..NODES)
            .map(|n| pipe.cluster().store(n).list().len())
            .sum()
    };
    let before = stored();
    assert!(matches!(pipe.put("/lost", &data), Err(EcPipeError::Io(_))));
    assert!(pipe.get("/lost").is_err());
    assert_eq!(stored(), before, "the failed put leaked blocks");
    assert!(matches!(pipe.delete("/kept"), Err(EcPipeError::Io(_))));
    pipe.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A metadata root written by the sharded layout (a `manifest.bin` and one
/// WAL per `shard-NNN` directory) is refused as corrupt, by the router and
/// by the façade, rather than opened as an empty namespace beside the old
/// data — and the refusal writes nothing into the root.
#[test]
fn sharded_metadata_root_is_refused() {
    let root = fresh_dir("sharded-root");
    let meta_root = root.join("meta");
    std::fs::create_dir_all(meta_root.join("shard-000")).unwrap();
    std::fs::write(meta_root.join("manifest.bin"), b"ECM\x02").unwrap();
    std::fs::write(meta_root.join("shard-000").join("wal.log"), b"").unwrap();

    match MetaRouter::open(MetaConfig::new(MetaBackend::durable(&meta_root))) {
        Err(MetaError::Corrupt { path, .. }) => {
            assert_eq!(path, meta_root.join("manifest.bin"));
        }
        other => panic!("expected a corrupt-metadata error, got {:?}", other.err()),
    }
    match builder(&root).build() {
        Err(EcPipeError::Execution { reason }) => {
            assert!(
                reason.contains("corrupt metadata file") && reason.contains("manifest.bin"),
                "{reason}"
            );
        }
        other => panic!("expected a corrupt-metadata error, got {:?}", other.err()),
    }
    assert!(
        !meta_root.join("wal.log").exists(),
        "the refusal wrote a WAL"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// One framed record in the layout's WAL framing: length, CRC-32, payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&repair_pipelining::gf256::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A metadata root written by the layout that versioned placements with a
/// stripe epoch is refused as corrupt, by the router and by the façade,
/// naming the file of the old format — and the file is left byte for byte
/// as it was, never truncated to the records this layout can read.
#[test]
fn epoch_format_metadata_root_is_refused() {
    // Stripe 0 on nodes 0..4 at epoch 0, then block 1 moved to node 5 at
    // epoch 1: the retired `PutStripe` (tag 3) and `Relocate` (tag 5).
    let mut put_stripe = vec![3u8];
    put_stripe.extend_from_slice(&0u64.to_le_bytes());
    put_stripe.extend_from_slice(&0u64.to_le_bytes());
    put_stripe.extend_from_slice(&4u32.to_le_bytes());
    for node in 0..4u64 {
        put_stripe.extend_from_slice(&node.to_le_bytes());
    }
    let mut relocate = vec![5u8];
    relocate.extend_from_slice(&0u64.to_le_bytes());
    relocate.extend_from_slice(&1u32.to_le_bytes());
    relocate.extend_from_slice(&5u64.to_le_bytes());
    relocate.extend_from_slice(&1u64.to_le_bytes());
    // An object record, whose format did not change, comes first.
    let mut put_object = vec![1u8];
    put_object.extend_from_slice(&4u32.to_le_bytes());
    put_object.extend_from_slice(b"/old");
    put_object.extend_from_slice(&100u64.to_le_bytes());
    put_object.extend_from_slice(&1u32.to_le_bytes());
    put_object.extend_from_slice(&0u64.to_le_bytes());
    let wal = [frame(&put_object), frame(&put_stripe), frame(&relocate)].concat();
    let snapshot = [&b"ECM\x01"[..], &frame(&put_object), &frame(&put_stripe)].concat();

    for (file, bytes) in [("wal.log", wal), ("snapshot.bin", snapshot)] {
        let root = fresh_dir(&format!("epoch-root-{file}"));
        let meta_root = root.join("meta");
        std::fs::create_dir_all(&meta_root).unwrap();
        let path = meta_root.join(file);
        std::fs::write(&path, &bytes).unwrap();
        match MetaRouter::open(MetaConfig::new(MetaBackend::durable(&meta_root))) {
            Err(MetaError::Corrupt { path: named, .. }) => assert_eq!(named, path),
            other => panic!(
                "{file}: expected a corrupt-metadata error, got {:?}",
                other.err()
            ),
        }
        match builder(&root).build() {
            Err(EcPipeError::Execution { reason }) => assert!(
                reason.contains("corrupt metadata file") && reason.contains(file),
                "{reason}"
            ),
            other => panic!(
                "{file}: expected a corrupt-metadata error, got {:?}",
                other.err()
            ),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{file} was rewritten");
        let _ = std::fs::remove_dir_all(&root);
    }
}
