//! [`MetaRouter`]: the metadata plane's one store.
//!
//! The router owns the whole namespace behind one lock: the object, stripe
//! and pending-repair maps, plus — for a durable root — the WAL appender
//! and snapshots. Mutations go through `commit_with`, which makes one
//! record of each: once the WAL has grown as large as the last snapshot
//! (and at least [`SNAPSHOT_FLOOR`]), the router first serializes its full
//! state to `snapshot.tmp`, renames it over `snapshot.bin` (atomic on
//! POSIX) and truncates the WAL; then it appends the record to `wal.log`,
//! and only then applies it to the maps. A commit that returns an error
//! has therefore changed nothing, in memory or on disk. Reopen loads the
//! snapshot, replays the WAL's valid prefix on top, and truncates any torn
//! tail off the file before appending again.

use std::collections::{HashMap, HashSet};
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

/// Magic + version header of a snapshot file. Version 2 dropped the stripe
/// epoch from its `PutStripe` records; version 3 writes each object with its
/// stripes' placements in one `PutObject` record.
const SNAPSHOT_MAGIC: &[u8; 4] = b"ECM\x03";

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

/// The fewest WAL bytes that make a snapshot due, however small the
/// namespace: 1 MiB holds more than 4096 frames of a one-stripe, 14-block
/// `PutObject` (about 170 bytes each), so a small namespace is not rewritten
/// more often than every 4096 such records.
const SNAPSHOT_FLOOR: u64 = 1 << 20;

/// The WAL appender of a durable router.
struct Wal {
    root: PathBuf,
    file: File,
    /// Bytes in `wal.log`: every record since the last snapshot, counting
    /// the ones a reopen found there.
    len: u64,
    /// Bytes in `snapshot.bin` (0 before the first snapshot).
    snapshot_len: u64,
}

impl Wal {
    /// The log-structured compaction rule: a snapshot is due once the WAL
    /// holds as many bytes as the last snapshot, and at least
    /// [`SNAPSHOT_FLOOR`]. A snapshot holds at most the previous one plus
    /// what was appended since, so it writes at most twice the bytes
    /// appended since the previous one: rewriting costs O(1) per record,
    /// amortized, and the root holds at most twice the last snapshot plus
    /// the floor.
    fn snapshot_due(&self) -> bool {
        self.len >= self.snapshot_len.max(SNAPSHOT_FLOOR)
    }
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
            dropped_tail = state.recover(root)?;
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
    /// nothing) plus a value for the caller, and [`State::commit`] journals
    /// and applies the record. A decision and the append it leads to must
    /// not be separated by an unlock — two movers of one block would
    /// otherwise both find it where they left it.
    fn commit_with<R>(
        &self,
        decide: impl FnOnce(&State) -> Result<(Option<Record>, R)>,
    ) -> Result<R> {
        let mut state = self.state.lock();
        let (record, out) = decide(&state)?;
        if let Some(record) = record {
            state.commit(record)?;
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

    /// Registers an object of `size` bytes together with its stripes'
    /// placements (in offset order), as one journal record, unless an
    /// object of that name already exists. Returns whether it was
    /// registered: of two concurrent writers of one name, exactly one gets
    /// `true`. A stripe belongs to one object only: a stripe id that is
    /// already registered is refused with [`MetaError::InvalidRequest`].
    pub fn insert_object(
        &self,
        name: &str,
        size: usize,
        stripes: Vec<StripeRecord>,
    ) -> Result<bool> {
        if let Some(max) = stripes.iter().map(|s| s.id.0).max() {
            self.next_stripe.fetch_max(max + 1, Ordering::Relaxed);
        }
        self.commit_with(|s| {
            if s.objects.contains_key(name) {
                return Ok((None, false));
            }
            if let Some(taken) = stripes.iter().find(|r| s.stripes.contains_key(&r.id.0)) {
                return Err(MetaError::InvalidRequest {
                    reason: format!("stripe {} is already registered", taken.id.0),
                });
            }
            let record = Record::PutObject {
                name: name.to_string(),
                size,
                stripes,
            };
            Ok((Some(record), true))
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

    /// Removes an object and its stripes, as one journal record. Returns
    /// the object and its stripes' placements if it existed.
    pub fn remove_object(&self, name: &str) -> Result<Option<(ObjectRecord, Vec<StripeRecord>)>> {
        self.commit_with(|s| {
            let Some(object) = s.objects.get(name) else {
                return Ok((None, None));
            };
            let stripes = object
                .stripes
                .iter()
                .filter_map(|id| s.stripes.get(&id.0).cloned())
                .collect();
            let record = Record::DeleteObject {
                name: name.to_string(),
                stripes: object.stripes.clone(),
            };
            Ok((Some(record), Some((object.clone(), stripes))))
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

    /// Registers (or rewrites) a stripe's placement. A stripe first
    /// registered here belongs to no object, and no object can claim it.
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
    fn recover(&mut self, root: &Path) -> Result<bool> {
        let snapshot_path = root.join("snapshot.bin");
        let mut snapshot_len = 0;
        if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            if !bytes.starts_with(SNAPSHOT_MAGIC) {
                return Err(MetaError::Corrupt {
                    path: snapshot_path,
                    reason: "bad snapshot magic".to_string(),
                });
            }
            // Snapshots are written to a temp file and renamed into place,
            // so a decodable prefix is the whole snapshot.
            for record in decode_log(&bytes[4..], &snapshot_path)?.records {
                self.apply(record);
            }
            snapshot_len = bytes.len() as u64;
        }
        let wal_path = root.join("wal.log");
        let (mut valid_len, mut dropped_tail) = (0, false);
        if wal_path.exists() {
            let decoded = decode_log(&std::fs::read(&wal_path)?, &wal_path)?;
            valid_len = decoded.valid_len;
            dropped_tail = decoded.dropped_tail;
            for record in decoded.records {
                self.apply(record);
            }
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
            len: valid_len,
            snapshot_len,
        });
        Ok(dropped_tail)
    }

    fn stripe(&self, id: StripeId) -> Result<&StripeRecord> {
        self.stripes
            .get(&id.0)
            .ok_or(MetaError::UnknownStripe { stripe: id.0 })
    }

    /// Journals and applies one record. A due snapshot comes first, while
    /// memory and disk still hold the state before the record, and the
    /// record is applied only once it is in the WAL: whichever step fails,
    /// the commit returns its error having changed nothing.
    fn commit(&mut self, record: Record) -> Result<()> {
        if self.wal.as_ref().is_some_and(Wal::snapshot_due) {
            self.snapshot()?;
        }
        if let Some(wal) = &mut self.wal {
            let frame = record.encode_frame();
            if let Err(error) = wal.file.write_all(&frame) {
                // Cut a partly written frame back off, so that the next
                // record does not land behind a torn one.
                let _ = wal.file.set_len(wal.len);
                let _ = wal.file.seek(SeekFrom::Start(wal.len));
                return Err(error.into());
            }
            wal.len += frame.len() as u64;
        }
        self.apply(record);
        Ok(())
    }

    /// Applies one record to the in-memory maps. Records carry absolute
    /// values, so applying is idempotent.
    fn apply(&mut self, record: Record) {
        match record {
            Record::PutObject {
                name,
                size,
                stripes,
            } => {
                let ids = stripes.iter().map(|s| s.id).collect();
                for stripe in stripes {
                    self.stripes.insert(stripe.id.0, stripe);
                }
                let object = ObjectRecord {
                    name: name.clone(),
                    size,
                    stripes: ids,
                };
                self.objects.insert(name, object);
            }
            Record::DeleteObject { name, stripes } => {
                self.objects.remove(&name);
                for id in stripes {
                    self.stripes.remove(&id.0);
                }
            }
            Record::PutStripe(s) => {
                self.stripes.insert(s.id.0, s);
            }
            Record::Relocate {
                stripe,
                index,
                node,
            } => {
                let slot = self.stripes.get_mut(&stripe.0);
                if let Some(slot) = slot.and_then(|s| s.locations.get_mut(index)) {
                    *slot = node;
                }
            }
            Record::PutRepair(r) => {
                self.pending.insert((r.stripe.0, r.index), r);
            }
            Record::ResolveRepair { stripe, index } => {
                self.pending.remove(&(stripe.0, index));
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
            let object = &self.objects[name];
            // Every stripe an object names is registered: `insert_object`
            // adds them with the object and refuses ids already taken, and
            // only the object's own removal removes them.
            let record = Record::PutObject {
                name: name.clone(),
                size: object.size,
                stripes: object
                    .stripes
                    .iter()
                    .map(|id| self.stripes[&id.0].clone())
                    .collect(),
            };
            buf.extend_from_slice(&record.encode_frame());
        }
        // Only the stripes no object names need a record of their own.
        let owned: HashSet<u64> = self
            .objects
            .values()
            .flat_map(|o| o.stripes.iter().map(|s| s.0))
            .collect();
        let mut ids: Vec<u64> = self
            .stripes
            .keys()
            .copied()
            .filter(|id| !owned.contains(id))
            .collect();
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
        // because every record is idempotent and carries absolute values.
        wal.file.set_len(0)?;
        wal.file.seek(SeekFrom::Start(0))?;
        wal.len = 0;
        wal.snapshot_len = buf.len() as u64;
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
        // An object's stripes appear and vanish with it, and a stripe
        // already registered cannot join an object.
        let s4 = StripeRecord {
            id: StripeId(4),
            locations: nodes(&[4, 5, 6, 7]),
        };
        assert!(router.insert_object("/o", 1, vec![s4.clone()]).unwrap());
        assert_eq!(router.stripes_on_node(4), vec![(s4.id, 0)]);
        let taken = router.stripe(s2).unwrap();
        assert!(matches!(
            router.insert_object("/p", 1, vec![taken]),
            Err(MetaError::InvalidRequest { .. })
        ));
        let (object, stripes) = router.remove_object("/o").unwrap().unwrap();
        assert_eq!((object.stripes, stripes), (vec![s4.id], vec![s4]));
        assert_eq!(router.stripe_count(), 2);
    }

    #[test]
    fn object_names_are_first_writer_wins() {
        let router = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        let stripe = |id: u64| StripeRecord {
            id: StripeId(id),
            locations: nodes(&[id, id + 1, id + 2]),
        };
        let a = ObjectRecord {
            name: "/a".into(),
            size: 123,
            stripes: vec![StripeId(1)],
        };
        assert!(!router.has_object("/a"));
        assert!(router.insert_object("/a", 123, vec![stripe(1)]).unwrap());
        // A second writer of the name loses; the first record stands, and
        // the loser's stripe is not registered.
        assert!(!router.insert_object("/a", 9, vec![stripe(2)]).unwrap());
        assert_eq!(router.object("/a"), Some(a.clone()));
        assert_eq!(router.stripe_count(), 1);
        assert_eq!(
            router.remove_object("/a").unwrap(),
            Some((a, vec![stripe(1)]))
        );
        assert_eq!(router.remove_object("/a").unwrap(), None);
        assert_eq!((router.object_count(), router.stripe_count()), (0, 0));
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
            let placements = [40, 41].map(|i| StripeRecord {
                id: StripeId(i),
                locations: nodes(&[i, i + 1, i + 2]),
            });
            router
                .insert_object("alpha", 12345, placements.to_vec())
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
        let alpha = reopened.object("alpha").unwrap();
        assert_eq!(
            (alpha.size, alpha.stripes),
            (12345, vec![StripeId(40), StripeId(41)])
        );
        assert_eq!(reopened.node_of(StripeId(3), 1).unwrap(), 99);
        let pending = reopened.pending_repairs();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].requestor, 99);
        // Fresh ids resume past everything recovered.
        assert!(reopened.allocate_stripe_id().0 >= 42);
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

    /// The compaction rule, observed from the files of a fill: after every
    /// commit the WAL stays under the threshold plus one record, the
    /// snapshot grows geometrically (so the fill rewrites O(1) bytes per
    /// record), a reopen is exact, and a reopen over a WAL already past the
    /// threshold snapshots on its first commit, before appending it.
    #[test]
    fn snapshots_truncate_the_wal_and_survive_reopen() {
        let root = temp_root("snap");
        let config = MetaConfig::new(MetaBackend::durable(&root));
        let len = |file: &str| std::fs::metadata(root.join(file)).map_or(0, |m| m.len());
        // 64-block stripes: 533-byte frames, so a fill of 12 floors' worth
        // of records crosses several thresholds in a few thousand commits.
        let stripe = |i: u64| StripeRecord {
            id: StripeId(i),
            locations: (0..64).map(|b| (i as usize + b) % 97).collect(),
        };
        let frame = Record::PutStripe(stripe(0)).encode_frame().len() as u64;
        let count = 12 * SNAPSHOT_FLOOR / frame;
        let mut expected: Vec<StripeRecord> = Vec::new();
        let mut resizes = 0u32;
        {
            let router = MetaRouter::open(config.clone()).unwrap();
            let mut snapshot = 0;
            for i in 0..count {
                let record = stripe(i);
                router
                    .register_stripe(record.id, record.locations.clone())
                    .unwrap();
                expected.push(record);
                let now = len("snapshot.bin");
                let wal = len("wal.log");
                assert!(
                    wal <= now.max(SNAPSHOT_FLOOR) + frame,
                    "commit {i}: a {wal}-byte WAL over a {now}-byte snapshot"
                );
                if now != snapshot {
                    resizes += 1;
                    snapshot = now;
                }
            }
            assert!(len("wal.log") > 0, "the fill should end on a WAL suffix");
        }
        let last = len("snapshot.bin");
        let bound = last
            .div_ceil(SNAPSHOT_FLOOR)
            .next_power_of_two()
            .trailing_zeros()
            + 2;
        assert!(
            (3..=bound).contains(&resizes),
            "{resizes} snapshot sizes for a {last}-byte snapshot (bound {bound})"
        );
        let mut files: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["snapshot.bin", "wal.log"]);

        let stripes = |router: &MetaRouter| {
            let mut out = Vec::new();
            router.for_each_stripe(|s| out.push(s.clone()));
            out.sort_by_key(|s| s.id.0);
            out
        };
        let reopened = MetaRouter::open(config.clone()).unwrap();
        assert_eq!(reopened.dropped_tail_records(), 0);
        assert_eq!(stripes(&reopened), expected);
        drop(reopened);

        // Re-append records the WAL already holds until it reaches the
        // threshold, as a crash between a snapshot's rename and the WAL
        // truncation can leave it: replay is idempotent, and the bytes on
        // disk count toward the next snapshot.
        let threshold = last.max(SNAPSHOT_FLOOR);
        let mut wal = OpenOptions::new()
            .append(true)
            .open(root.join("wal.log"))
            .unwrap();
        for record in expected.iter().cycle() {
            if len("wal.log") >= threshold {
                break;
            }
            wal.write_all(&Record::PutStripe(record.clone()).encode_frame())
                .unwrap();
        }
        drop(wal);
        let past = len("wal.log");
        let reopened = MetaRouter::open(config).unwrap();
        assert_eq!(reopened.dropped_tail_records(), 0);
        assert_eq!(stripes(&reopened), expected);
        assert_eq!(len("wal.log"), past, "reopening wrote to the WAL");
        let record = stripe(count);
        reopened
            .register_stripe(record.id, record.locations.clone())
            .unwrap();
        assert_eq!(
            len("wal.log"),
            frame,
            "the first commit past the threshold did not snapshot"
        );
        assert!(len("snapshot.bin") > last);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A commit whose due snapshot cannot be written returns the error and
    /// changes nothing, in memory or on disk; the next commit after the
    /// obstacle is gone goes through.
    #[test]
    fn a_commit_that_fails_changes_nothing() {
        let root = temp_root("failed-commit");
        let config = MetaConfig::new(MetaBackend::durable(&root));
        let wal_path = root.join("wal.log");
        let router = MetaRouter::open(config.clone()).unwrap();
        // Fill the WAL to the floor, so that the next commit is due a
        // snapshot, and make the snapshot's temp file impossible to create.
        let wide = |i: u64| (0..64).map(|b| (i as usize + b) % 97).collect::<Vec<_>>();
        let mut next = 0;
        while std::fs::metadata(&wal_path).unwrap().len() < SNAPSHOT_FLOOR {
            router.register_stripe(StripeId(next), wide(next)).unwrap();
            next += 1;
        }
        std::fs::create_dir(root.join("snapshot.tmp")).unwrap();
        let wal = std::fs::read(&wal_path).unwrap();
        let stripes = vec![StripeRecord {
            id: StripeId(next),
            locations: nodes(&[0, 1, 2, 3]),
        }];
        assert!(matches!(
            router.insert_object("/a", 10, stripes.clone()),
            Err(MetaError::Io(_))
        ));
        assert!(!router.has_object("/a"));
        assert!(router.stripe(StripeId(next)).is_none());
        assert_eq!(
            std::fs::read(&wal_path).unwrap(),
            wal,
            "the failed commit wrote"
        );
        drop(router);

        let reopened = MetaRouter::open(config).unwrap();
        assert!(!reopened.has_object("/a"));
        assert_eq!(reopened.stripe_count(), next as usize);
        std::fs::remove_dir(root.join("snapshot.tmp")).unwrap();
        assert!(reopened.insert_object("/a", 10, stripes).unwrap());
        assert!(reopened.has_object("/a"));
        assert!(root.join("snapshot.bin").exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
