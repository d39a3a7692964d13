//! [`MetaRouter`]: the consistent-hash front door of the metadata plane.
//!
//! The router owns the shard set and a vnode ring. Object names and stripe
//! ids hash onto the ring; each operation locks exactly the one shard its
//! key routes to. Durable routers also own a `manifest.bin` recording the
//! shard count and vnode fan-out the directory was created with — reopening
//! uses the manifest's values so keys keep routing to the shard whose WAL
//! logged them, even if the caller's configuration drifted.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ecc::stripe::StripeId;
use simnet::NodeId;

use crate::shard::Shard;
use crate::wal::{crc32, Record};
use crate::{MetaBackend, MetaConfig, MetaError, ObjectRecord, RepairRecord, Result, StripeRecord};

/// Magic + version header of `manifest.bin`.
const MANIFEST_MAGIC: &[u8; 4] = b"ECM\x02";

/// Ring points per shard. More vnodes spread keys more evenly; 32 keeps the
/// ring at a few hundred entries for the default shard count.
const VNODES_PER_SHARD: u32 = 32;

/// The directory holding shard `index` of a durable router rooted at
/// `root`. Exposed so tests and tooling can reach into a specific shard's
/// `wal.log`/`snapshot.bin` (e.g. to torture-truncate it).
pub fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:03}"))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Outcome of a relocation request that passed its epoch check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocateOutcome {
    /// The block moved (or was re-pinned to the same node); the placement
    /// now carries this epoch.
    Moved {
        /// The stripe's new epoch.
        epoch: u64,
    },
    /// The destination already stores another block of the same stripe;
    /// moving would break the erasure code's one-block-per-node invariant.
    /// Nothing changed and no WAL record was written.
    Refused,
}

/// A sharded, WAL-durable metadata store. See the crate docs for the
/// design; every method locks at most one shard, and never holds one shard
/// while locking another.
pub struct MetaRouter {
    shards: Vec<Shard>,
    /// Sorted `(ring point, shard index)` pairs.
    ring: Vec<(u64, u32)>,
    next_stripe: AtomicU64,
    dropped_tail: AtomicU64,
    backend: MetaBackend,
}

impl MetaRouter {
    /// Opens (creating or recovering) a router per `config`.
    pub fn open(config: MetaConfig) -> Result<MetaRouter> {
        let (shard_count, vnodes, root) = match &config.backend {
            MetaBackend::Ephemeral => (config.shards.max(1), VNODES_PER_SHARD, None),
            MetaBackend::Durable(root) => {
                std::fs::create_dir_all(root)?;
                let manifest = root.join("manifest.bin");
                if manifest.exists() {
                    let (shards, vnodes) = read_manifest(&manifest)?;
                    (shards, vnodes, Some(root.clone()))
                } else {
                    let shards = config.shards.max(1);
                    write_manifest(&manifest, shards, VNODES_PER_SHARD)?;
                    (shards, VNODES_PER_SHARD, Some(root.clone()))
                }
            }
        };

        let mut shards = Vec::with_capacity(shard_count);
        let mut max_stripe = None;
        let mut dropped = 0u64;
        for i in 0..shard_count {
            let dir = root.as_deref().map(|r| shard_dir(r, i));
            let rec = Shard::open(dir.as_deref(), config.snapshot_every)?;
            shards.push(rec.shard);
            max_stripe = max_stripe.max(rec.max_stripe);
            dropped += u64::from(rec.dropped_tail);
        }

        let mut ring = Vec::with_capacity(shard_count * vnodes as usize);
        for (i, _) in shards.iter().enumerate() {
            for v in 0..vnodes {
                let mut key = [0u8; 12];
                key[..8].copy_from_slice(&(i as u64).to_le_bytes());
                key[8..].copy_from_slice(&v.to_le_bytes());
                ring.push((fnv1a(&key), i as u32));
            }
        }
        ring.sort_unstable();

        Ok(MetaRouter {
            shards,
            ring,
            next_stripe: AtomicU64::new(max_stripe.map_or(0, |m| m + 1)),
            dropped_tail: AtomicU64::new(dropped),
            backend: config.backend,
        })
    }

    /// The shard a hashed key routes to: first ring point at or after the
    /// key's hash, wrapping to the first point.
    fn shard_for_hash(&self, h: u64) -> &Shard {
        let idx = self.ring.partition_point(|&(point, _)| point < h);
        let (_, shard) = self.ring[if idx == self.ring.len() { 0 } else { idx }];
        &self.shards[shard as usize]
    }

    fn shard_for_object(&self, name: &str) -> &Shard {
        self.shard_for_hash(fnv1a(name.as_bytes()))
    }

    fn shard_for_stripe(&self, id: StripeId) -> &Shard {
        self.shard_for_hash(fnv1a(&id.0.to_le_bytes()))
    }

    /// The backend this router was opened with.
    pub fn backend(&self) -> &MetaBackend {
        &self.backend
    }

    /// Number of shards (the manifest's count for reopened durable roots).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How many torn WAL tail records recovery dropped across all shards.
    pub fn dropped_tail_records(&self) -> u64 {
        self.dropped_tail.load(Ordering::Relaxed)
    }

    /// Forces every shard to snapshot and truncate its WAL.
    pub fn snapshot_now(&self) -> Result<()> {
        for shard in &self.shards {
            shard.snapshot_now()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Registers (or overwrites) an object.
    pub fn register_object(&self, record: ObjectRecord) -> Result<()> {
        self.shard_for_object(&record.name)
            .commit_with(|_| Ok((Some(Record::PutObject(record)), ())))
    }

    /// Registers an object unless one of that name already exists. Returns
    /// whether it was registered: of two concurrent writers of one name,
    /// exactly one gets `true`.
    pub fn insert_object(&self, record: ObjectRecord) -> Result<bool> {
        self.shard_for_object(&record.name).commit_with(|s| {
            Ok(match s.object(&record.name) {
                Some(_) => (None, false),
                None => (Some(Record::PutObject(record)), true),
            })
        })
    }

    /// Looks up an object by name.
    pub fn object(&self, name: &str) -> Option<ObjectRecord> {
        self.shard_for_object(name)
            .with(|s| s.object(name).cloned())
    }

    /// Whether an object with this name exists.
    pub fn has_object(&self, name: &str) -> bool {
        self.shard_for_object(name)
            .with(|s| s.object(name).is_some())
    }

    /// Removes an object, returning its record if it existed.
    pub fn remove_object(&self, name: &str) -> Result<Option<ObjectRecord>> {
        self.shard_for_object(name).commit_with(|s| {
            let existing = s.object(name).cloned();
            let record = existing.as_ref().map(|_| Record::DeleteObject {
                name: name.to_string(),
            });
            Ok((record, existing))
        })
    }

    /// Visits every object, shard by shard. Each shard's lock is released
    /// before the next is taken; `f` must not call back into this router.
    pub fn for_each_object(&self, mut f: impl FnMut(&ObjectRecord)) {
        for shard in &self.shards {
            shard.with(|s| {
                for o in s.objects() {
                    f(o);
                }
            });
        }
    }

    /// Total number of objects.
    pub fn object_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.with(|st| st.object_count()))
            .sum()
    }

    // ------------------------------------------------------------------
    // Stripes
    // ------------------------------------------------------------------

    /// Allocates a fresh stripe id (monotonic across the router's life,
    /// resuming past the highest recovered id on reopen).
    pub fn allocate_stripe_id(&self) -> StripeId {
        StripeId(self.next_stripe.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers a stripe's placement and returns its epoch: 0 for a new
    /// stripe, previous + 1 when re-registering (a placement rewrite is a
    /// placement change, so it versions like one).
    pub fn register_stripe(&self, id: StripeId, locations: Vec<NodeId>) -> Result<u64> {
        // Keep the allocator ahead of externally-chosen ids.
        self.next_stripe.fetch_max(id.0 + 1, Ordering::Relaxed);
        self.shard_for_stripe(id).commit_with(|s| {
            let epoch = s.stripe(id).map_or(0, |r| r.epoch + 1);
            let record = Record::PutStripe(StripeRecord {
                id,
                locations,
                epoch,
            });
            Ok((Some(record), epoch))
        })
    }

    /// Looks up a stripe.
    pub fn stripe(&self, id: StripeId) -> Option<StripeRecord> {
        self.shard_for_stripe(id).with(|s| s.stripe(id).cloned())
    }

    /// The node storing block `index` of a stripe, without cloning the
    /// placement — the per-block lookup of the client read path.
    pub fn node_of(&self, id: StripeId, index: usize) -> Result<NodeId> {
        self.shard_for_stripe(id).with(|s| {
            let record = s
                .stripe(id)
                .ok_or(MetaError::UnknownStripe { stripe: id.0 })?;
            record
                .locations
                .get(index)
                .copied()
                .ok_or_else(|| index_out_of_range(record, index))
        })
    }

    /// The current placement epoch of a stripe.
    pub fn epoch_of(&self, id: StripeId) -> Result<u64> {
        self.shard_for_stripe(id)
            .with(|s| s.stripe(id).map(|r| r.epoch))
            .ok_or(MetaError::UnknownStripe { stripe: id.0 })
    }

    /// Forgets a stripe. Returns whether it existed.
    pub fn forget_stripe(&self, id: StripeId) -> Result<bool> {
        self.shard_for_stripe(id).commit_with(|s| {
            let existed = s.stripe(id).is_some();
            Ok((
                existed.then_some(Record::ForgetStripe { stripe: id }),
                existed,
            ))
        })
    }

    /// Visits every stripe, shard by shard (same locking contract as
    /// [`MetaRouter::for_each_object`]).
    pub fn for_each_stripe(&self, mut f: impl FnMut(&StripeRecord)) {
        for shard in &self.shards {
            shard.with(|s| {
                for r in s.stripes() {
                    f(r);
                }
            });
        }
    }

    /// Total number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.with(|st| st.stripe_count()))
            .sum()
    }

    /// Every `(stripe, block index)` placed on `node`, sorted by stripe id.
    /// Scans all shards; the allocation is bounded by the number of
    /// matches, not the namespace size.
    pub fn stripes_on_node(&self, node: NodeId) -> Vec<(StripeId, usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.with(|s| s.stripes_on_node(node, &mut out));
        }
        out.sort_unstable_by_key(|&(id, _)| id.0);
        out
    }

    /// Moves block `index` of `stripe` to `node`, bumping the epoch.
    ///
    /// When `expected_epoch` is `Some(e)`, the move only happens if the
    /// stripe is still at epoch `e` — the optimistic-concurrency check that
    /// rejects a repair completion for a block that already relocated
    /// ([`MetaError::StaleEpoch`]). Moving onto a node that already stores
    /// a *different* block of the stripe is refused without an epoch bump
    /// ([`RelocateOutcome::Refused`]); re-pinning to the same node is a
    /// legitimate move (the repair rewrote the block in place) and bumps
    /// the epoch like any other.
    pub fn relocate(
        &self,
        stripe: StripeId,
        index: usize,
        node: NodeId,
        expected_epoch: Option<u64>,
    ) -> Result<RelocateOutcome> {
        // The epoch check and the append are one critical section: of two
        // completions planned at the same epoch, exactly one moves the block.
        self.shard_for_stripe(stripe).commit_with(|s| {
            let Some(rec) = s.stripe(stripe) else {
                return Err(MetaError::UnknownStripe { stripe: stripe.0 });
            };
            if index >= rec.locations.len() {
                return Err(index_out_of_range(rec, index));
            }
            if let Some(expected) = expected_epoch {
                if rec.epoch != expected {
                    return Err(MetaError::StaleEpoch {
                        stripe: stripe.0,
                        index,
                        expected,
                        actual: rec.epoch,
                    });
                }
            }
            let colocated = rec
                .locations
                .iter()
                .enumerate()
                .any(|(i, &n)| i != index && n == node);
            if colocated {
                return Ok((None, RelocateOutcome::Refused));
            }
            let epoch = rec.epoch + 1;
            let record = Record::Relocate {
                stripe,
                index,
                node,
                epoch,
            };
            Ok((Some(record), RelocateOutcome::Moved { epoch }))
        })
    }

    // ------------------------------------------------------------------
    // Pending repairs
    // ------------------------------------------------------------------

    /// Journals an in-flight repair directive. Returns `false` (writing
    /// nothing) when an identical record is already pending — recovery
    /// re-enqueues pending repairs, and re-journaling them must not grow
    /// the WAL.
    pub fn record_repair(&self, record: RepairRecord) -> Result<bool> {
        self.shard_for_stripe(record.stripe).commit_with(|s| {
            let fresh = s.pending_repair(record.stripe, record.index) != Some(&record);
            Ok((fresh.then_some(Record::PutRepair(record)), fresh))
        })
    }

    /// Marks a pending repair resolved (completed, failed terminally, or
    /// rejected as stale). Returns whether a record was pending.
    pub fn resolve_repair(&self, stripe: StripeId, index: usize) -> Result<bool> {
        self.shard_for_stripe(stripe).commit_with(|s| {
            let pending = s.pending_repair(stripe, index).is_some();
            let record = pending.then_some(Record::ResolveRepair { stripe, index });
            Ok((record, pending))
        })
    }

    /// Every pending repair directive, sorted by `(stripe, block index)`.
    pub fn pending_repairs(&self) -> Vec<RepairRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.with(|s| out.extend(s.pending_repairs().cloned()));
        }
        out.sort_unstable_by_key(|r| (r.stripe.0, r.index));
        out
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

fn write_manifest(path: &Path, shards: usize, vnodes: u32) -> Result<()> {
    let mut body = Vec::with_capacity(12);
    body.extend_from_slice(&(shards as u64).to_le_bytes());
    body.extend_from_slice(&vnodes.to_le_bytes());
    let mut bytes = Vec::with_capacity(4 + body.len() + 4);
    bytes.extend_from_slice(MANIFEST_MAGIC);
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    std::fs::write(path, bytes)?;
    Ok(())
}

fn read_manifest(path: &Path) -> Result<(usize, u32)> {
    let bytes = std::fs::read(path)?;
    let corrupt = |reason: &str| MetaError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.to_string(),
    };
    if bytes.len() != 20 || &bytes[..4] != MANIFEST_MAGIC {
        return Err(corrupt("bad manifest magic or length"));
    }
    let body = &bytes[4..16];
    let stored = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt("manifest CRC mismatch"));
    }
    let shards = u64::from_le_bytes(body[..8].try_into().unwrap());
    let vnodes = u32::from_le_bytes(body[8..12].try_into().unwrap());
    if shards == 0 || shards > 4096 || vnodes == 0 {
        return Err(corrupt("manifest shard/vnode count out of range"));
    }
    Ok((shards as usize, vnodes))
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
        let router = MetaRouter::open(MetaConfig::ephemeral().with_shards(8)).unwrap();
        for i in 0..64u64 {
            router
                .register_stripe(StripeId(i), nodes(&[1, 2, 3]))
                .unwrap();
        }
        assert_eq!(router.stripe_count(), 64);
        // Every key resolves, and repeated lookups agree.
        for i in 0..64u64 {
            assert_eq!(router.stripe(StripeId(i)).unwrap().id, StripeId(i));
        }
        // With 8 shards and 64 keys the ring should use more than one shard.
        let per_shard: Vec<usize> = router
            .shards
            .iter()
            .map(|s| s.with(|st| st.stripe_count()))
            .collect();
        assert!(per_shard.iter().filter(|&&c| c > 0).count() > 1);
    }

    #[test]
    fn epochs_bump_and_stale_checks_fire() {
        let router = MetaRouter::open(MetaConfig::ephemeral()).unwrap();
        let id = StripeId(7);
        assert_eq!(router.register_stripe(id, nodes(&[0, 1, 2])).unwrap(), 0);
        let moved = router.relocate(id, 0, 9, Some(0)).unwrap();
        assert_eq!(moved, RelocateOutcome::Moved { epoch: 1 });
        assert_eq!(router.epoch_of(id).unwrap(), 1);
        // A second mover still planning against epoch 0 is stale.
        match router.relocate(id, 0, 4, Some(0)) {
            Err(MetaError::StaleEpoch {
                expected: 0,
                actual: 1,
                ..
            }) => {}
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        // Co-location is refused without an epoch bump.
        assert_eq!(
            router.relocate(id, 0, 2, None).unwrap(),
            RelocateOutcome::Refused
        );
        assert_eq!(router.epoch_of(id).unwrap(), 1);
        // Re-registration is a placement rewrite: epoch keeps rising.
        assert_eq!(router.register_stripe(id, nodes(&[5, 6, 7])).unwrap(), 2);
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
        let config = MetaConfig::new(MetaBackend::durable(&root)).with_shards(4);
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
                    epoch: 1,
                })
                .unwrap();
            router.for_each_stripe(|s| expected_stripes.push(s.clone()));
            expected_stripes.sort_by_key(|s| s.id.0);
        }
        // Reopen with a *different* shard count: the manifest must win.
        let reopened =
            MetaRouter::open(MetaConfig::new(MetaBackend::durable(&root)).with_shards(16)).unwrap();
        assert_eq!(reopened.shard_count(), 4);
        let mut actual = Vec::new();
        reopened.for_each_stripe(|s| actual.push(s.clone()));
        actual.sort_by_key(|s| s.id.0);
        assert_eq!(actual, expected_stripes);
        assert_eq!(reopened.object("alpha").unwrap().size, 12345);
        assert_eq!(reopened.epoch_of(StripeId(3)).unwrap(), 1);
        let pending = reopened.pending_repairs();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].epoch, 1);
        // Fresh ids resume past everything recovered.
        assert!(reopened.allocate_stripe_id().0 >= 40);
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
            epoch: 0,
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
    fn snapshots_truncate_the_wal_and_survive_reopen() {
        let root = temp_root("snap");
        let config = MetaConfig::new(MetaBackend::durable(&root))
            .with_shards(2)
            .with_snapshot_every(8);
        {
            let router = MetaRouter::open(config.clone()).unwrap();
            for i in 0..100u64 {
                router
                    .register_stripe(StripeId(i), nodes(&[i, i + 1, i + 2]))
                    .unwrap();
            }
            router.snapshot_now().unwrap();
            for i in 0..2 {
                let wal = shard_dir(&root, i).join("wal.log");
                assert_eq!(std::fs::metadata(wal).unwrap().len(), 0);
            }
        }
        let reopened = MetaRouter::open(config).unwrap();
        assert_eq!(reopened.stripe_count(), 100);
        assert_eq!(reopened.dropped_tail_records(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
