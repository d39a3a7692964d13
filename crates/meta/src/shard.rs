//! One metadata shard: its in-memory maps, WAL appender and snapshots.
//!
//! A shard is the unit of locking and of durability. Mutations go through
//! [`Shard::commit_with`]: the record is appended to the WAL *first* (WAL-then-
//! apply — an append failure leaves memory untouched), then applied to the
//! maps; after [`snapshot_every`](crate::MetaConfig::snapshot_every)
//! appends the shard serializes its full state to `snapshot.tmp`, renames
//! it over `snapshot.bin` (atomic on POSIX) and truncates the WAL. Reopen
//! loads the snapshot, replays the WAL's valid prefix on top, and truncates
//! any torn tail off the file before appending again.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ecc::stripe::StripeId;
use ecpipe_sync::Mutex;
use simnet::NodeId;

use crate::lock_order;
use crate::wal::{decode_log, Record};
use crate::{MetaError, ObjectRecord, RepairRecord, Result, StripeRecord};

/// Magic + version header of a snapshot file.
const SNAPSHOT_MAGIC: &[u8; 4] = b"ECM\x01";

/// The WAL appender of a durable shard.
struct ShardWal {
    dir: PathBuf,
    file: File,
    appended_since_snapshot: usize,
    snapshot_every: usize,
}

/// Everything a shard owns, behind its lock.
pub(crate) struct ShardState {
    objects: HashMap<String, ObjectRecord>,
    stripes: HashMap<u64, StripeRecord>,
    pending: HashMap<(u64, usize), RepairRecord>,
    /// `None` for ephemeral backends.
    wal: Option<ShardWal>,
}

/// One shard: state behind the `meta.shard` lock class.
pub(crate) struct Shard {
    /// Lock class: `meta.shard` ([`lock_order::META_SHARD`]). One class for
    /// all shards; never held while acquiring another lock.
    state: Mutex<ShardState>,
}

/// What [`Shard::open`] recovered, for the router's counters.
pub(crate) struct Recovered {
    pub(crate) shard: Shard,
    /// Highest stripe id seen (for the id allocator), if any.
    pub(crate) max_stripe: Option<u64>,
    /// Whether a torn WAL tail was dropped during replay.
    pub(crate) dropped_tail: bool,
}

impl Shard {
    /// Opens a shard: ephemeral when `dir` is `None`, otherwise durable
    /// under `dir` (created if missing), recovering snapshot + WAL.
    pub(crate) fn open(dir: Option<&Path>, snapshot_every: usize) -> Result<Recovered> {
        let mut state = ShardState {
            objects: HashMap::new(),
            stripes: HashMap::new(),
            pending: HashMap::new(),
            wal: None,
        };
        let mut dropped_tail = false;
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
            let snapshot_path = dir.join("snapshot.bin");
            if snapshot_path.exists() {
                let bytes = std::fs::read(&snapshot_path)?;
                if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..4] != SNAPSHOT_MAGIC {
                    return Err(MetaError::Corrupt {
                        path: snapshot_path,
                        reason: "bad snapshot magic".to_string(),
                    });
                }
                // Snapshots are written to a temp file and renamed into
                // place, so a decodable prefix is the whole snapshot.
                for record in decode_log(&bytes[4..]).records {
                    state.apply(&record);
                }
            }
            let wal_path = dir.join("wal.log");
            let mut valid_len = 0u64;
            if wal_path.exists() {
                let bytes = std::fs::read(&wal_path)?;
                let decoded = decode_log(&bytes);
                for record in &decoded.records {
                    state.apply(record);
                }
                valid_len = decoded.valid_len;
                dropped_tail = decoded.dropped_tail;
            }
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(&wal_path)?;
            // Drop the torn tail (if any) so appended records never sit
            // behind undecodable bytes.
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
            state.wal = Some(ShardWal {
                dir: dir.to_path_buf(),
                file,
                appended_since_snapshot: 0,
                snapshot_every: snapshot_every.max(1),
            });
        }
        let max_stripe = state.stripes.keys().copied().max();
        Ok(Recovered {
            shard: Shard {
                state: Mutex::new(&lock_order::META_SHARD, state),
            },
            max_stripe,
            dropped_tail,
        })
    }

    /// A mutation in one critical section: `decide` inspects the state
    /// under the shard lock and returns the record to commit (`None` commits
    /// nothing) plus a value for the caller; the record is appended to the
    /// WAL (durable shards), applied, and the shard snapshots when the
    /// cadence says so. No lock above the shards serializes metadata
    /// writers, so a decision and the append it leads to must not be
    /// separated by an unlock — two repairs completing against the same
    /// epoch would otherwise both pass the stale check.
    pub(crate) fn commit_with<R>(
        &self,
        decide: impl FnOnce(&ShardState) -> Result<(Option<Record>, R)>,
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

    /// Runs `f` over the shard's state under its lock.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&ShardState) -> R) -> R {
        f(&self.state.lock())
    }

    /// Forces a snapshot + WAL truncation now (durable shards; a no-op on
    /// ephemeral ones).
    pub(crate) fn snapshot_now(&self) -> Result<()> {
        self.state.lock().snapshot()
    }
}

impl ShardState {
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
                epoch,
            } => {
                if let Some(s) = self.stripes.get_mut(&stripe.0) {
                    if *index < s.locations.len() {
                        s.locations[*index] = *node;
                    }
                    s.epoch = *epoch;
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
        let tmp = wal.dir.join("snapshot.tmp");
        let final_path = wal.dir.join("snapshot.bin");
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

    // ------------------------------------------------------------------
    // Read accessors (used by the router under the shard lock).
    // ------------------------------------------------------------------

    pub(crate) fn object(&self, name: &str) -> Option<&ObjectRecord> {
        self.objects.get(name)
    }

    pub(crate) fn objects(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.objects.values()
    }

    pub(crate) fn object_count(&self) -> usize {
        self.objects.len()
    }

    pub(crate) fn stripe(&self, id: StripeId) -> Option<&StripeRecord> {
        self.stripes.get(&id.0)
    }

    pub(crate) fn stripes(&self) -> impl Iterator<Item = &StripeRecord> {
        self.stripes.values()
    }

    pub(crate) fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    pub(crate) fn stripes_on_node(&self, node: NodeId, out: &mut Vec<(StripeId, usize)>) {
        for s in self.stripes.values() {
            if let Some(idx) = s.locations.iter().position(|&n| n == node) {
                out.push((s.id, idx));
            }
        }
    }

    pub(crate) fn pending_repair(&self, stripe: StripeId, index: usize) -> Option<&RepairRecord> {
        self.pending.get(&(stripe.0, index))
    }

    pub(crate) fn pending_repairs(&self) -> impl Iterator<Item = &RepairRecord> {
        self.pending.values()
    }
}
