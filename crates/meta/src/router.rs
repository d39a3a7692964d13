//! [`MetaRouter`]: the metadata plane's one store.
//!
//! The router owns the whole namespace behind one lock: the object, stripe
//! and pending-repair maps, plus — for a durable root — the WAL appender
//! and snapshots. Mutations go through `commit_with`: the record is
//! appended to `wal.log` *first* (WAL-then-apply — an append failure leaves
//! memory untouched), then applied to the maps; after
//! [`snapshot_every`](crate::MetaConfig::snapshot_every) appends the router
//! serializes its full state to `snapshot.tmp`, renames it over
//! `snapshot.bin` (atomic on POSIX) and truncates the WAL. Reopen loads the
//! snapshot, replays the WAL's valid prefix on top, and truncates any torn
//! tail off the file before appending again.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ecc::stripe::StripeId;
use ecpipe_sync::Mutex;
use simnet::NodeId;

use crate::lock_order;
use crate::wal::{decode_log, Record};
use crate::{MetaBackend, MetaConfig, MetaError, ObjectRecord, RepairRecord, Result, StripeRecord};

/// Magic + version header of a snapshot file.
/// Version 2 dropped the stripe epoch from its `PutStripe` records.
const SNAPSHOT_MAGIC: &[u8; 4] = b"ECM\x02";

/// The file that marks a root written by the sharded layout, which kept one
/// WAL per shard directory. This layout cannot read such a root.
const SHARDED_MARKER: &str = "manifest.bin";

/// Outcome of a [`MetaRouter::relocate`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocateOutcome {
    /// The block now sits on the destination.
    Moved,
    /// The destination already stores another block of the same stripe;
    /// moving would break the erasure code's one-block-per-node invariant.
    /// Nothing changed and no WAL record was written.
    Refused,
    /// The block no longer sits where the caller found it: it is on `node`.
    /// Nothing changed and no WAL record was written.
    Elsewhere {
        /// The node the block sits on now.
        node: NodeId,
    },
}

/// The WAL appender of a durable router.
struct Wal {
    root: PathBuf,
    file: File,
    appended_since_snapshot: usize,
    snapshot_every: usize,
}

/// Everything the router owns, behind its lock.
#[derive(Default)]
struct State {
    objects: HashMap<String, ObjectRecord>,
    stripes: HashMap<u64, StripeRecord>,
    pending: HashMap<(u64, usize), RepairRecord>,
    /// `None` for ephemeral backends.
    wal: Option<Wal>,
}

/// A WAL-durable metadata store. See the crate docs for the design; every
/// method takes the one lock with nothing else held.
pub struct MetaRouter {
    /// Lock class: `meta.state` ([`lock_order::META_STATE`]). Never held
    /// while acquiring another lock.
    state: Mutex<State>,
    next_stripe: AtomicU64,
    dropped_tail: bool,
    backend: MetaBackend,
}

impl MetaRouter {
    /// Opens (creating or recovering) a router per `config`. A durable root
    /// written by the sharded layout is refused with [`MetaError::Corrupt`]
    /// naming its marker file, and nothing is created in it.
    pub fn open(config: MetaConfig) -> Result<MetaRouter> {
        let mut state = State::default();
        let mut dropped_tail = false;
        if let MetaBackend::Durable(root) = &config.backend {
            let marker = root.join(SHARDED_MARKER);
            if marker.exists() {
                return Err(MetaError::Corrupt {
                    path: marker,
                    reason: "a sharded metadata root, which this single-journal \
                             layout cannot read"
                        .to_string(),
                });
            }
            std::fs::create_dir_all(root)?;
            dropped_tail = state.recover(root, config.snapshot_every)?;
        }
        let next_stripe = state.stripes.keys().max().map_or(0, |m| m + 1);
        Ok(MetaRouter {
            state: Mutex::new(&lock_order::META_STATE, state),
            next_stripe: AtomicU64::new(next_stripe),
            dropped_tail,
            backend: config.backend,
        })
    }

    /// A mutation in one critical section: `decide` inspects the state
    /// under the lock and returns the record to commit (`None` commits
    /// nothing) plus a value for the caller; the record is appended to the
    /// WAL (durable routers), applied, and the router snapshots when the
    /// cadence says so. A decision and the append it leads to must not be
    /// separated by an unlock — two movers of one block would otherwise
    /// both find it where they left it.
    fn commit_with<R>(
        &self,
        decide: impl FnOnce(&State) -> Result<(Option<Record>, R)>,
    ) -> Result<R> {
        let mut state = self.state.lock();
        let (record, out) = decide(&state)?;
        if let Some(record) = record {
            state.append(&record)?;
            state.apply(&record);
            state.maybe_snapshot()?;
        }
        Ok(out)
    }

    /// The backend this router was opened with.
    pub fn backend(&self) -> &MetaBackend {
        &self.backend
    }

    /// How many torn WAL tail records recovery dropped: 0 or 1, since
    /// replay stops at the first bad frame and drops the rest whole.
    pub fn dropped_tail_records(&self) -> u64 {
        u64::from(self.dropped_tail)
    }

    /// Snapshots and truncates the WAL now (a no-op on ephemeral routers).
    pub fn snapshot_now(&self) -> Result<()> {
        self.state.lock().snapshot()
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Registers (or overwrites) an object.
    pub fn register_object(&self, record: ObjectRecord) -> Result<()> {
        self.commit_with(|_| Ok((Some(Record::PutObject(record)), ())))
    }

    /// Registers an object unless one of that name already exists. Returns
    /// whether it was registered: of two concurrent writers of one name,
    /// exactly one gets `true`.
    pub fn insert_object(&self, record: ObjectRecord) -> Result<bool> {
        self.commit_with(|s| {
            Ok(match s.objects.get(&record.name) {
                Some(_) => (None, false),
                None => (Some(Record::PutObject(record)), true),
            })
        })
    }

    /// Looks up an object by name.
    pub fn object(&self, name: &str) -> Option<ObjectRecord> {
        self.state.lock().objects.get(name).cloned()
    }

    /// Whether an object with this name exists.
    pub fn has_object(&self, name: &str) -> bool {
        self.state.lock().objects.contains_key(name)
    }

    /// Removes an object, returning its record if it existed.
    pub fn remove_object(&self, name: &str) -> Result<Option<ObjectRecord>> {
        self.commit_with(|s| {
            let existing = s.objects.get(name).cloned();
            let record = existing.as_ref().map(|_| Record::DeleteObject {
                name: name.to_string(),
            });
            Ok((record, existing))
        })
    }

    /// Visits every object under the lock; `f` must not call back into
    /// this router.
    pub fn for_each_object(&self, f: impl FnMut(&ObjectRecord)) {
        self.state.lock().objects.values().for_each(f);
    }

    /// Total number of objects.
    pub fn object_count(&self) -> usize {
        self.state.lock().objects.len()
    }

    // ------------------------------------------------------------------
    // Stripes
    // ------------------------------------------------------------------

    /// Allocates a fresh stripe id (monotonic across the router's life,
    /// resuming past the highest recovered id on reopen).
    pub fn allocate_stripe_id(&self) -> StripeId {
        StripeId(self.next_stripe.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers (or rewrites) a stripe's placement.
    pub fn register_stripe(&self, id: StripeId, locations: Vec<NodeId>) -> Result<()> {
        // Keep the allocator ahead of externally-chosen ids.
        self.next_stripe.fetch_max(id.0 + 1, Ordering::Relaxed);
        let record = Record::PutStripe(StripeRecord { id, locations });
        self.commit_with(|_| Ok((Some(record), ())))
    }

    /// Looks up a stripe.
    pub fn stripe(&self, id: StripeId) -> Option<StripeRecord> {
        self.state.lock().stripes.get(&id.0).cloned()
    }

    /// The node storing block `index` of a stripe, without cloning the
    /// placement — the per-block lookup of the client read path.
    pub fn node_of(&self, id: StripeId, index: usize) -> Result<NodeId> {
        let state = self.state.lock();
        let record = state.stripe(id)?;
        record
            .locations
            .get(index)
            .copied()
            .ok_or_else(|| index_out_of_range(record, index))
    }

    /// Forgets a stripe. Returns whether it existed.
    pub fn forget_stripe(&self, id: StripeId) -> Result<bool> {
        self.commit_with(|s| {
            let existed = s.stripes.contains_key(&id.0);
            Ok((
                existed.then_some(Record::ForgetStripe { stripe: id }),
                existed,
            ))
        })
    }

    /// Visits every stripe (same locking contract as
    /// [`MetaRouter::for_each_object`]).
    pub fn for_each_stripe(&self, f: impl FnMut(&StripeRecord)) {
        self.state.lock().stripes.values().for_each(f);
    }

    /// Total number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.state.lock().stripes.len()
    }

    /// Every `(stripe, block index)` placed on `node`, sorted by stripe id.
    /// Scans the namespace; the allocation is bounded by the number of
    /// matches, not the namespace size.
    pub fn stripes_on_node(&self, node: NodeId) -> Vec<(StripeId, usize)> {
        let mut out: Vec<(StripeId, usize)> = self
            .state
            .lock()
            .stripes
            .values()
            .filter_map(|s| Some((s.id, s.locations.iter().position(|&n| n == node)?)))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id.0);
        out
    }

    /// Moves block `index` of `stripe` to node `to` — the placement rule.
    ///
    /// With `from: Some(node)` the block moves only while it still sits on
    /// `node`, where the caller (a repair, at planning time) found it;
    /// otherwise nothing changes and the answer is
    /// [`RelocateOutcome::Elsewhere`] with its current node. With `None` it
    /// moves unconditionally. Moving onto a node that already stores a
    /// *different* block of the stripe is [`RelocateOutcome::Refused`].
    /// Re-pinning a block to the node it is on is a move that writes
    /// nothing.
    pub fn relocate(
        &self,
        stripe: StripeId,
        index: usize,
        to: NodeId,
        from: Option<NodeId>,
    ) -> Result<RelocateOutcome> {
        // The check and the append are one critical section: of two movers
        // that found the block on the same node, exactly one moves it.
        self.commit_with(|s| {
            let rec = s.stripe(stripe)?;
            let &on = rec
                .locations
                .get(index)
                .ok_or_else(|| index_out_of_range(rec, index))?;
            if from.is_some_and(|from| from != on) {
                return Ok((None, RelocateOutcome::Elsewhere { node: on }));
            }
            if on != to && rec.locations.contains(&to) {
                return Ok((None, RelocateOutcome::Refused));
            }
            let record = (on != to).then_some(Record::Relocate {
                stripe,
                index,
                node: to,
            });
            Ok((record, RelocateOutcome::Moved))
        })
    }

    // ------------------------------------------------------------------
    // Pending repairs
    // ------------------------------------------------------------------

    /// Journals an in-flight repair directive. Returns `false` (writing
    /// nothing) when an identical record is already pending — recovery
    /// re-enqueues pending repairs, and re-journaling them must not grow
    /// the WAL. A directive for an unregistered stripe is refused with
    /// [`MetaError::UnknownStripe`], and nothing is written.
    pub fn record_repair(&self, record: RepairRecord) -> Result<bool> {
        self.commit_with(|s| {
            s.stripe(record.stripe)?;
            let fresh = s.pending.get(&(record.stripe.0, record.index)) != Some(&record);
            Ok((fresh.then_some(Record::PutRepair(record)), fresh))
        })
    }

    /// Marks a pending repair resolved (completed, or failed terminally).
    /// Returns whether a record was pending.
    pub fn resolve_repair(&self, stripe: StripeId, index: usize) -> Result<bool> {
        self.commit_with(|s| {
            let pending = s.pending.contains_key(&(stripe.0, index));
            let record = pending.then_some(Record::ResolveRepair { stripe, index });
            Ok((record, pending))
        })
    }

    /// Every pending repair directive, sorted by `(stripe, block index)`.
    pub fn pending_repairs(&self) -> Vec<RepairRecord> {
        let mut out: Vec<RepairRecord> = self.state.lock().pending.values().cloned().collect();
        out.sort_unstable_by_key(|r| (r.stripe.0, r.index));
        out
    }
}

impl State {
    /// Loads `snapshot.bin` and replays `wal.log` from a durable `root`,
    /// then opens the WAL for appending with any torn tail cut off.
    /// Returns whether a torn tail was dropped.
    fn recover(&mut self, root: &Path, snapshot_every: usize) -> Result<bool> {
        let snapshot_path = root.join("snapshot.bin");
        if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..4] != SNAPSHOT_MAGIC {
                return Err(MetaError::Corrupt {
                    path: snapshot_path,
                    reason: "bad snapshot magic".to_string(),
                });
            }
            // Snapshots are written to a temp file and renamed into place,
            // so a decodable prefix is the whole snapshot.
            for record in decode_log(&bytes[4..], &snapshot_path)?.records {
                self.apply(&record);
            }
        }
        let wal_path = root.join("wal.log");
        let (mut valid_len, mut dropped_tail) = (0, false);
        if wal_path.exists() {
            let decoded = decode_log(&std::fs::read(&wal_path)?, &wal_path)?;
            for record in &decoded.records {
                self.apply(record);
            }
            valid_len = decoded.valid_len;
            dropped_tail = decoded.dropped_tail;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&wal_path)?;
        // Drop the torn tail (if any) so appended records never sit behind
        // undecodable bytes.
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        self.wal = Some(Wal {
            root: root.to_path_buf(),
            file,
            appended_since_snapshot: 0,
            snapshot_every: snapshot_every.max(1),
        });
        Ok(dropped_tail)
    }

    fn stripe(&self, id: StripeId) -> Result<&StripeRecord> {
        self.stripes
            .get(&id.0)
            .ok_or(MetaError::UnknownStripe { stripe: id.0 })
    }

    fn append(&mut self, record: &Record) -> Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.file.write_all(&record.encode_frame())?;
            wal.appended_since_snapshot += 1;
        }
        Ok(())
    }

    fn maybe_snapshot(&mut self) -> Result<()> {
        let due = self
            .wal
            .as_ref()
            .is_some_and(|w| w.appended_since_snapshot >= w.snapshot_every);
        if due {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Applies one record to the in-memory maps. Records carry absolute
    /// values, so applying is idempotent.
    fn apply(&mut self, record: &Record) {
        match record {
            Record::PutObject(o) => {
                self.objects.insert(o.name.clone(), o.clone());
            }
            Record::DeleteObject { name } => {
                self.objects.remove(name);
            }
            Record::PutStripe(s) => {
                self.stripes.insert(s.id.0, s.clone());
            }
            Record::ForgetStripe { stripe } => {
                self.stripes.remove(&stripe.0);
            }
            Record::Relocate {
                stripe,
                index,
                node,
            } => {
                let slot = self.stripes.get_mut(&stripe.0);
                if let Some(slot) = slot.and_then(|s| s.locations.get_mut(*index)) {
                    *slot = *node;
                }
            }
            Record::PutRepair(r) => {
                self.pending.insert((r.stripe.0, r.index), r.clone());
            }
            Record::ResolveRepair { stripe, index } => {
                self.pending.remove(&(stripe.0, *index));
            }
        }
    }

    /// Serializes the full state to `snapshot.tmp`, renames it into place
    /// and truncates the WAL.
    fn snapshot(&mut self) -> Result<()> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let mut buf = Vec::with_capacity(4 + 64 * (self.objects.len() + self.stripes.len()));
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        // Deterministic order keeps snapshots byte-comparable across runs
        // of the same state (handy for tests; replay does not need it).
        let mut names: Vec<&String> = self.objects.keys().collect();
        names.sort();
        for name in names {
            buf.extend_from_slice(&Record::PutObject(self.objects[name].clone()).encode_frame());
        }
        let mut ids: Vec<u64> = self.stripes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            buf.extend_from_slice(&Record::PutStripe(self.stripes[&id].clone()).encode_frame());
        }
        let mut keys: Vec<(u64, usize)> = self.pending.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            buf.extend_from_slice(&Record::PutRepair(self.pending[&key].clone()).encode_frame());
        }
        let tmp = wal.root.join("snapshot.tmp");
        let final_path = wal.root.join("snapshot.bin");
        let mut tmp_file = File::create(&tmp)?;
        tmp_file.write_all(&buf)?;
        tmp_file.sync_all()?;
        drop(tmp_file);
        std::fs::rename(&tmp, &final_path)?;
        // A crash here replays the old WAL over the new snapshot: safe,
        // because records are idempotent upserts.
        wal.file.set_len(0)?;
        wal.file.seek(SeekFrom::Start(0))?;
        wal.appended_since_snapshot = 0;
        Ok(())
    }
}

fn index_out_of_range(record: &StripeRecord, index: usize) -> MetaError {
    MetaError::InvalidRequest {
        reason: format!(
            "block index {index} out of range for stripe {} ({} blocks)",
            record.id.0,
            record.locations.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ecpipe-meta-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn nodes(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().map(|&i| i as usize).collect()
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let router = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        for i in 0..64u64 {
            router
                .register_stripe(StripeId(i), nodes(&[i, i + 1, i + 2]))
                .unwrap();
        }
        assert_eq!(router.stripe_count(), 64);
        // Every key resolves to its own record, and repeated lookups agree.
        for i in 0..64u64 {
            let record = router.stripe(StripeId(i)).unwrap();
            assert_eq!(record.id, StripeId(i));
            assert_eq!(record.locations, nodes(&[i, i + 1, i + 2]));
            assert_eq!(router.stripe(StripeId(i)), Some(record));
        }
    }

    /// A block moves only from where its mover found it: a `from` that no
    /// longer matches gives `Elsewhere`, co-location gives `Refused`, and
    /// neither appends to the WAL.
    #[test]
    fn epochs_bump_and_stale_checks_fire() {
        let root = temp_root("placement-rule");
        let router = MetaRouter::open(MetaConfig::new(MetaBackend::durable(&root))).unwrap();
        let wal_len = || std::fs::metadata(root.join("wal.log")).unwrap().len();
        let id = StripeId(7);
        router.register_stripe(id, nodes(&[0, 1, 2])).unwrap();
        let moved = router.relocate(id, 0, 9, Some(0)).unwrap();
        assert_eq!(moved, RelocateOutcome::Moved);
        let before = wal_len();
        // A second mover that found block 0 on node 0 learns where it is.
        assert_eq!(
            router.relocate(id, 0, 4, Some(0)).unwrap(),
            RelocateOutcome::Elsewhere { node: 9 }
        );
        // Co-location is refused, conditionally or not.
        for from in [Some(9), None] {
            assert_eq!(
                router.relocate(id, 0, 2, from).unwrap(),
                RelocateOutcome::Refused
            );
        }
        assert_eq!(router.stripe(id).unwrap().locations, nodes(&[9, 1, 2]));
        assert_eq!(wal_len(), before, "a refused move appended");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn namespace_lookups_follow_registrations_and_relocations() {
        let router = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        let (s1, s2) = (StripeId(1), StripeId(2));
        router.register_stripe(s1, nodes(&[0, 1, 2, 3])).unwrap();
        router.register_stripe(s2, nodes(&[6, 1, 2, 3])).unwrap();
        // Hand-registered stripes push the allocator past their ids.
        assert_eq!(router.allocate_stripe_id(), StripeId(3));
        assert_eq!(router.stripes_on_node(0), vec![(s1, 0)]);
        assert_eq!(router.stripes_on_node(1), vec![(s1, 1), (s2, 1)]);
        assert!(router.stripes_on_node(99).is_empty());
        router.relocate(s1, 2, 9, None).unwrap();
        assert_eq!(router.node_of(s1, 2).unwrap(), 9);
        assert_eq!(router.stripes_on_node(9), vec![(s1, 2)]);
        // Unknown stripes and out-of-range indices are errors, not panics.
        assert!(matches!(
            router.node_of(StripeId(7), 0),
            Err(MetaError::UnknownStripe { stripe: 7 })
        ));
        assert!(router.node_of(s1, 4).is_err());
        assert!(router.relocate(StripeId(7), 0, 9, None).is_err());
        assert!(router.relocate(s1, 4, 9, None).is_err());
        assert!(router.forget_stripe(s2).unwrap());
        assert!(!router.forget_stripe(s2).unwrap());
        assert_eq!(router.stripe_count(), 1);
    }

    #[test]
    fn object_names_are_first_writer_wins() {
        let router = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        let a = ObjectRecord {
            name: "/a".into(),
            size: 123,
            stripes: vec![StripeId(1)],
        };
        assert!(!router.has_object("/a"));
        assert!(router.insert_object(a.clone()).unwrap());
        // A second writer of the name loses; the first record stands.
        let late = ObjectRecord {
            size: 9,
            ..a.clone()
        };
        assert!(!router.insert_object(late).unwrap());
        assert_eq!(router.object("/a"), Some(a.clone()));
        assert_eq!(router.remove_object("/a").unwrap(), Some(a));
        assert_eq!(router.remove_object("/a").unwrap(), None);
        assert_eq!(router.object_count(), 0);
    }

    #[test]
    fn durable_reopen_recovers_everything_byte_exactly() {
        let root = temp_root("reopen");
        let config = MetaConfig::new(MetaBackend::durable(&root));
        let mut expected_stripes = Vec::new();
        {
            let router = MetaRouter::open(config.clone()).unwrap();
            for i in 0..40u64 {
                router
                    .register_stripe(StripeId(i), nodes(&[i, i + 1, i + 2]))
                    .unwrap();
            }
            router.relocate(StripeId(3), 1, 99, None).unwrap();
            router
                .register_object(ObjectRecord {
                    name: "alpha".into(),
                    size: 12345,
                    stripes: vec![StripeId(0), StripeId(1)],
                })
                .unwrap();
            router
                .record_repair(RepairRecord {
                    stripe: StripeId(3),
                    index: 1,
                    requestor: 99,
                    priority: 2,
                })
                .unwrap();
            router.for_each_stripe(|s| expected_stripes.push(s.clone()));
            expected_stripes.sort_by_key(|s| s.id.0);
        }
        let reopened = MetaRouter::open(config).unwrap();
        let mut actual = Vec::new();
        reopened.for_each_stripe(|s| actual.push(s.clone()));
        actual.sort_by_key(|s| s.id.0);
        assert_eq!(actual, expected_stripes);
        assert_eq!(reopened.object("alpha").unwrap().size, 12345);
        assert_eq!(reopened.node_of(StripeId(3), 1).unwrap(), 99);
        let pending = reopened.pending_repairs();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].requestor, 99);
        // Fresh ids resume past everything recovered.
        assert!(reopened.allocate_stripe_id().0 >= 40);
        // The root holds the one journal and nothing else.
        let mut files: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["wal.log"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn record_repair_dedupes_identical_records() {
        let root = temp_root("dedupe");
        let router = MetaRouter::open(MetaConfig::new(MetaBackend::durable(&root))).unwrap();
        router
            .register_stripe(StripeId(1), nodes(&[0, 1, 2]))
            .unwrap();
        let rec = RepairRecord {
            stripe: StripeId(1),
            index: 2,
            requestor: 5,
            priority: 0,
        };
        assert!(router.record_repair(rec.clone()).unwrap());
        assert!(!router.record_repair(rec.clone()).unwrap());
        // A *different* record for the same block replaces the pending one.
        let rec2 = RepairRecord { priority: 1, ..rec };
        assert!(router.record_repair(rec2.clone()).unwrap());
        assert_eq!(router.pending_repairs(), vec![rec2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn record_repair_refuses_an_unknown_stripe() {
        let root = temp_root("unknown-repair");
        let router = MetaRouter::open(MetaConfig::new(MetaBackend::durable(&root))).unwrap();
        let rec = RepairRecord {
            stripe: StripeId(4),
            index: 0,
            requestor: 1,
            priority: 0,
        };
        assert!(matches!(
            router.record_repair(rec),
            Err(MetaError::UnknownStripe { stripe: 4 })
        ));
        assert!(router.pending_repairs().is_empty());
        let wal = std::fs::metadata(root.join("wal.log")).unwrap();
        assert_eq!(wal.len(), 0, "a refused directive wrote a record");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshots_truncate_the_wal_and_survive_reopen() {
        let root = temp_root("snap");
        let config = MetaConfig::new(MetaBackend::durable(&root)).with_snapshot_every(8);
        {
            let router = MetaRouter::open(config.clone()).unwrap();
            for i in 0..100u64 {
                router
                    .register_stripe(StripeId(i), nodes(&[i, i + 1, i + 2]))
                    .unwrap();
            }
            router.snapshot_now().unwrap();
            let wal = root.join("wal.log");
            assert_eq!(std::fs::metadata(wal).unwrap().len(), 0);
        }
        let mut files: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["snapshot.bin", "wal.log"]);
        let reopened = MetaRouter::open(config).unwrap();
        assert_eq!(reopened.stripe_count(), 100);
        assert_eq!(reopened.dropped_tail_records(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
