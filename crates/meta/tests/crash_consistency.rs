//! Crash-consistency torture tests for the durable metadata plane.
//!
//! Each case drives a randomized operation script against a durable
//! [`MetaRouter`], recording the whole namespace after every mutation, closes
//! it, then mutilates the WAL — truncating it at an arbitrary byte offset, or
//! flipping a byte anywhere in it — and reopens. The recovered namespace must
//! be an exact *global prefix* of the committed history:
//!
//! * reopening never fails and never panics — a torn or corrupt tail is
//!   detected by the CRC framing and dropped whole;
//! * the recovered namespace equals the namespace as it stood after some
//!   mutation of the script: no record is partially applied, none is
//!   invented, and no later record survives an earlier one that was lost;
//! * recovery truncates the torn tail, so a second reopen is byte-exact and
//!   reports nothing dropped;
//! * with no mutilation at all, reopen is byte-exact, snapshots included;
//! * every stripe an object names exists after every reopen: an object and
//!   its stripes are one record, so no cut separates them.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ecc::stripe::StripeId;
use ecpipe_meta::{MetaBackend, MetaConfig, MetaRouter, ObjectRecord, RepairRecord, StripeRecord};
use proptest::prelude::*;

const NODES: usize = 8;
const N: usize = 4;

fn fresh_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ecpipe-meta-torture-{tag}-{case}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(root: &Path) -> MetaConfig {
    MetaConfig::new(MetaBackend::durable(root))
}

#[derive(Debug, Clone, PartialEq)]
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

/// Pushes the namespace onto `history` after a mutating call, and snapshots
/// after every 8th one: a script of a few dozen records stays far below
/// the size that makes a snapshot due, and the frequent snapshots make many
/// cases exercise the snapshot + WAL-suffix recovery path, not just pure
/// WAL replay.
fn committed(meta: &MetaRouter, history: &mut Vec<Namespace>) {
    history.push(namespace(meta));
    if (history.len() - 1).is_multiple_of(8) {
        meta.snapshot_now().unwrap();
    }
}

/// Applies a scripted operation decoded from one random word, recording the
/// namespace after every mutating call.
fn apply_op(
    meta: &MetaRouter,
    history: &mut Vec<Namespace>,
    word: u64,
    stripes: &mut Vec<StripeId>,
) {
    let pick = |seed: u64, len: usize| (seed as usize) % len.max(1);
    match word % 8 {
        // Register an object with its stripe, in one call.
        0 | 1 => {
            let id = meta.allocate_stripe_id();
            let locations: Vec<usize> = (0..N).map(|i| (i + word as usize) % NODES).collect();
            let name = format!("/torture/{}", id.0);
            let size = (word % 100_000) as usize;
            assert!(meta
                .insert_object(&name, size, vec![StripeRecord { id, locations }])
                .unwrap());
            stripes.push(id);
        }
        // Relocate a block of an existing stripe (possibly refused).
        2..=4 => {
            if stripes.is_empty() {
                return;
            }
            let id = stripes[pick(word >> 8, stripes.len())];
            meta.relocate(id, pick(word >> 24, N), pick(word >> 32, NODES), None)
                .unwrap();
        }
        // Journal a repair directive (possibly a duplicate).
        5 | 6 => {
            if stripes.is_empty() {
                return;
            }
            meta.record_repair(RepairRecord {
                stripe: stripes[pick(word >> 8, stripes.len())],
                index: pick(word >> 24, N),
                requestor: pick(word >> 32, NODES),
                priority: (word >> 40) as u8 % 3,
            })
            .unwrap();
        }
        // Resolve a (possibly absent) repair directive, or delete an object
        // with its stripe.
        _ => {
            if stripes.is_empty() {
                return;
            }
            let at = pick(word >> 8, stripes.len());
            if (word >> 48) & 1 == 0 {
                meta.resolve_repair(stripes[at], pick(word >> 24, N))
                    .unwrap();
            } else {
                let id = stripes.swap_remove(at);
                assert!(meta
                    .remove_object(&format!("/torture/{}", id.0))
                    .unwrap()
                    .is_some());
            }
        }
    }
    committed(meta, history);
}

/// The prefix property: the recovered router serves exactly the namespace
/// as it stood after some mutation of the script (or before the first),
/// and in it every stripe an object names exists.
fn assert_global_prefix(recovered: &Namespace, history: &[Namespace]) {
    assert!(
        history.contains(recovered),
        "recovered namespace {recovered:?} is no prefix of the committed history"
    );
    assert_objects_own_their_stripes(recovered);
}

fn assert_objects_own_their_stripes(ns: &Namespace) {
    for object in &ns.objects {
        for id in &object.stripes {
            assert!(
                ns.stripes.iter().any(|s| s.id == *id),
                "object {} names stripe {} that does not exist",
                object.name,
                id.0
            );
        }
    }
}

/// Runs `ops` against a fresh durable router, closes it, and returns every
/// namespace it passed through, starting with the empty one.
fn run_script(root: &Path, ops: &[u64]) -> Vec<Namespace> {
    let meta = MetaRouter::open(config(root)).unwrap();
    let mut history = vec![namespace(&meta)];
    let mut stripes = Vec::new();
    for &word in ops {
        apply_op(&meta, &mut history, word, &mut stripes);
    }
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncated_wal_recovers_a_prefix_never_a_partial_record(
        ops in proptest::collection::vec(any::<u64>(), 24..64),
        cut_pick in any::<u64>(),
    ) {
        let root = fresh_dir("trunc", ops.iter().fold(0u64, |a, &b| a.wrapping_add(b)) ^ cut_pick);
        let history = run_script(&root, &ops);

        // Truncate the WAL at an arbitrary byte offset — including
        // mid-frame, mid-header and zero.
        let wal = root.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = cut_pick % (len + 1);
        OpenOptions::new().write(true).open(&wal).unwrap().set_len(cut).unwrap();

        let reopened = MetaRouter::open(config(&root)).unwrap();
        let recovered = namespace(&reopened);
        assert_global_prefix(&recovered, &history);
        if cut == len {
            prop_assert_eq!(&recovered, history.last().unwrap(), "a full-length cut loses nothing");
        }
        let dropped = reopened.dropped_tail_records();
        drop(reopened);

        // Recovery truncated the torn tail off the file, so a second reopen
        // is byte-exact and clean.
        let again = MetaRouter::open(config(&root)).unwrap();
        prop_assert_eq!(again.dropped_tail_records(), 0, "first recovery dropped {} and truncated", dropped);
        assert_objects_own_their_stripes(&namespace(&again));
        prop_assert_eq!(namespace(&again), recovered);
        drop(again);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_wal_byte_is_caught_by_crc_and_dropped(
        ops in proptest::collection::vec(any::<u64>(), 24..64),
        pos_pick in any::<u64>(),
        xor in 1..=255u8,
    ) {
        let root = fresh_dir("flip", ops.iter().fold(0u64, |a, &b| a.wrapping_add(b)) ^ pos_pick);
        let history = run_script(&root, &ops);

        let wal = root.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        if len > 0 {
            // Flip one byte anywhere in the log. Every frame from the
            // damaged one onward is dropped (decode stops at the first bad
            // CRC) — the surviving prefix must still be a committed state.
            let pos = pos_pick % len;
            let mut file = OpenOptions::new().read(true).write(true).open(&wal).unwrap();
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(pos)).unwrap();
            file.read_exact(&mut byte).unwrap();
            byte[0] ^= xor;
            file.seek(SeekFrom::Start(pos)).unwrap();
            file.write_all(&byte).unwrap();
        }

        let reopened = MetaRouter::open(config(&root)).unwrap();
        assert_global_prefix(&namespace(&reopened), &history);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn untouched_directory_reopens_byte_exactly(
        ops in proptest::collection::vec(any::<u64>(), 24..64),
    ) {
        let root = fresh_dir("clean", ops.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
        let history = run_script(&root, &ops);
        let reopened = MetaRouter::open(config(&root)).unwrap();
        prop_assert_eq!(reopened.dropped_tail_records(), 0);
        assert_objects_own_their_stripes(&namespace(&reopened));
        prop_assert_eq!(&namespace(&reopened), history.last().unwrap());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }
}
