//! End-to-end block integrity: per-chunk checksums and the
//! [`ChecksummedStore`] wrapper.
//!
//! The paper's repair path assumes helpers serve correct local bytes, but
//! every production system it integrates with (§5.2: HDFS-RAID, HDFS-3, QFS)
//! pairs each block file with per-chunk checksums, because silent bit-rot —
//! not whole-node death — drives much of real-world repair traffic. This
//! module supplies that layer:
//!
//! * [`crc32`] — the CRC-32 (IEEE) checksum used throughout;
//! * [`BlockChecksums`] — one checksum per fixed-size chunk of a block
//!   (default [`DEFAULT_CHUNK_SIZE`] bytes, mirroring HDFS's
//!   `io.bytes.per.checksum`), so a slice-granular [`get_range`] read can be
//!   verified by checking only the chunks it overlaps, never the whole
//!   block;
//! * [`ChecksummedStore`] — wraps any [`BlockStore`], records checksums on
//!   [`put`], verifies on [`get`]/[`get_range`], and surfaces mismatches as
//!   [`EcPipeError::CorruptBlock`]. Checksums live in memory; with
//!   [`ChecksummedStore::persistent`] (or
//!   [`FileStore::open_checksummed`](crate::FileStore::open_checksummed))
//!   they are also persisted as `<block>.crc` sidecar files next to the
//!   block files, HDFS-style, and survive a reopen.
//!
//! Corruption is *injected* through the
//! [`BlockStore::corrupt`] hook, which rewrites a byte while leaving the
//! recorded checksums stale — exactly what bit-rot looks like to a scrubber.
//! Detection and automatic repair are driven by the
//! [`manager`](crate::manager) scrubber, which walks stores, verifies
//! blocks, and enqueues corrupt ones as
//! [`RepairPriority::Corruption`](crate::RepairPriority) repairs.
//!
//! [`get`]: BlockStore::get
//! [`get_range`]: BlockStore::get_range
//! [`put`]: BlockStore::put

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use ecpipe_sync::RwLock;

use crate::lock_order;

use ecc::stripe::BlockId;

use crate::store::{check_range, BlockReader, BlockStore};
use crate::{EcPipeError, Result};

/// Default checksum chunk size in bytes: one CRC-32 per 512-byte chunk,
/// matching HDFS's `io.bytes.per.checksum` default (~0.8% metadata
/// overhead).
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// Magic + version prefix of a `.crc` sidecar file.
const SIDECAR_MAGIC: &[u8; 4] = b"ECC\x01";

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) of `data`.
///
/// Computed by [`gf256::crc32`] — slicing-by-16 tables, or `pclmulqdq`
/// folding where the host has it — behind the same once-per-process kernel
/// dispatch as the GF(2^8) slice kernels; the values are those of the
/// classic one-table bytewise loop, so `.crc` sidecars stay valid.
pub fn crc32(data: &[u8]) -> u32 {
    gf256::crc32(data)
}

/// The integrity metadata of one block: its length and one CRC-32 per
/// fixed-size chunk (the last chunk may be shorter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockChecksums {
    chunk_size: usize,
    len: usize,
    sums: Vec<u32>,
}

impl BlockChecksums {
    /// Computes the checksums of `data` with the given chunk size.
    pub fn compute(data: &[u8], chunk_size: usize) -> Self {
        let chunk_size = chunk_size.max(1);
        BlockChecksums {
            chunk_size,
            len: data.len(),
            sums: data.chunks(chunk_size).map(crc32).collect(),
        }
    }

    /// The chunk size the checksums were computed with.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The length of the block the checksums describe.
    pub fn block_len(&self) -> usize {
        self.len
    }

    /// The number of checksum chunks.
    pub fn chunk_count(&self) -> usize {
        self.sums.len()
    }

    /// Verifies a whole block against the recorded checksums. Returns the
    /// index of the first failing chunk (a length mismatch counts as chunk
    /// 0: the block was truncated or grew behind the checksums' back).
    pub fn verify(&self, data: &[u8]) -> std::result::Result<(), usize> {
        if data.len() != self.len {
            return Err(0);
        }
        self.verify_chunks(data, 0)
    }

    /// Verifies a chunk-aligned slice starting at chunk `first_chunk`
    /// against the recorded checksums. Returns the index of the first
    /// failing chunk.
    pub fn verify_chunks(&self, data: &[u8], first_chunk: usize) -> std::result::Result<(), usize> {
        for (i, chunk) in data.chunks(self.chunk_size).enumerate() {
            let index = first_chunk + i;
            match self.sums.get(index) {
                Some(&sum) if sum == crc32(chunk) => {}
                _ => return Err(index),
            }
        }
        Ok(())
    }

    /// The chunk-aligned byte range covering `range`, clamped to the block
    /// length, plus the index of its first chunk. Verifying a sub-block read
    /// only needs the chunks this span covers — never the whole block.
    pub fn chunk_span(&self, range: &std::ops::Range<usize>) -> (std::ops::Range<usize>, usize) {
        let first_chunk = range.start / self.chunk_size;
        let start = first_chunk * self.chunk_size;
        let end = range.end.div_ceil(self.chunk_size) * self.chunk_size;
        (start..end.min(self.len), first_chunk)
    }

    /// Serializes the checksums into the `.crc` sidecar format: a 4-byte
    /// magic/version, the chunk size and block length, then one
    /// little-endian `u32` per chunk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 + 8 + 4 * self.sums.len());
        out.extend_from_slice(SIDECAR_MAGIC);
        out.extend_from_slice(&(self.chunk_size as u64).to_le_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for sum in &self.sums {
            out.extend_from_slice(&sum.to_le_bytes());
        }
        out
    }

    /// Parses a `.crc` sidecar. Returns `None` for a foreign, truncated or
    /// internally inconsistent file (the caller treats that as "no recorded
    /// checksums" and recomputes).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let rest = bytes.strip_prefix(SIDECAR_MAGIC.as_slice())?;
        if rest.len() < 16 {
            return None;
        }
        let chunk_size = u64::from_le_bytes(rest[0..8].try_into().ok()?) as usize;
        let len = u64::from_le_bytes(rest[8..16].try_into().ok()?) as usize;
        if chunk_size == 0 {
            return None;
        }
        let body = &rest[16..];
        if body.len() % 4 != 0 || body.len() / 4 != len.div_ceil(chunk_size) {
            return None;
        }
        let sums = body
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(BlockChecksums {
            chunk_size,
            len,
            sums,
        })
    }
}

/// A [`BlockStore`] wrapper that pairs every block with per-chunk CRC-32
/// checksums and verifies them on every read.
///
/// * [`put`](BlockStore::put) computes and records the checksums;
/// * [`get`](BlockStore::get) verifies every chunk;
/// * [`get_range`](BlockStore::get_range) verifies only the chunks the
///   requested range overlaps (a slice-granular read never pays a
///   whole-block hash);
/// * a mismatch surfaces as [`EcPipeError::CorruptBlock`];
/// * [`corrupt`](BlockStore::corrupt) flips a stored byte *without*
///   refreshing the checksums — the test hook that makes injected bit-rot
///   detectable.
///
/// Checksums are held in memory; [`ChecksummedStore::persistent`] also
/// writes them as `<block>.crc` sidecar files (reloaded lazily after a
/// reopen). A block present in the inner store with no recorded checksums —
/// e.g. written before the wrapper existed — is *adopted* on its first
/// whole-block read: its current content is assumed good and checksummed
/// from then on, which is how production scrubbers bootstrap over legacy
/// data.
///
/// ```
/// use bytes::Bytes;
/// use ecc::stripe::BlockId;
/// use ecpipe::{BlockStore, ChecksummedStore, EcPipeError, MemoryStore};
///
/// let store = ChecksummedStore::new(MemoryStore::new());
/// let block = BlockId::new(0, 1);
/// store.put(block, Bytes::from(vec![7u8; 4096])).unwrap();
/// assert!(store.verify(block).is_ok());
///
/// // Inject bit-rot: the stored bytes change, the checksums do not.
/// store.corrupt(block, 1000).unwrap();
/// assert!(matches!(
///     store.get(block),
///     Err(EcPipeError::CorruptBlock { chunk: 1, .. })
/// ));
/// // A slice read that misses the rotten chunk still verifies clean.
/// assert!(store.get_range(block, 0..512).is_ok());
/// ```
#[derive(Debug)]
pub struct ChecksummedStore<S: BlockStore> {
    inner: S,
    chunk_size: usize,
    /// Lock class: `store.checksums` ([`lock_order::STORE_CHECKSUMS`]).
    sums: RwLock<HashMap<BlockId, Arc<BlockChecksums>>>,
    sidecar_dir: Option<PathBuf>,
}

impl<S: BlockStore> ChecksummedStore<S> {
    /// Wraps `inner` with in-memory checksums at [`DEFAULT_CHUNK_SIZE`].
    pub fn new(inner: S) -> Self {
        ChecksummedStore::with_chunk_size(inner, DEFAULT_CHUNK_SIZE)
    }

    /// Wraps `inner` with in-memory checksums over `chunk_size`-byte chunks.
    pub fn with_chunk_size(inner: S, chunk_size: usize) -> Self {
        ChecksummedStore {
            inner,
            chunk_size: chunk_size.max(1),
            sums: RwLock::new(&lock_order::STORE_CHECKSUMS, HashMap::new()),
            sidecar_dir: None,
        }
    }

    /// Wraps `inner` and persists checksums as `<block>.crc` sidecar files
    /// under `dir` (created if needed). Sidecars written by an earlier
    /// incarnation are reloaded lazily, so integrity metadata survives a
    /// process restart the way HDFS/QFS checksum files do.
    pub fn persistent(inner: S, dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(ChecksummedStore {
            inner,
            chunk_size: DEFAULT_CHUNK_SIZE,
            sums: RwLock::new(&lock_order::STORE_CHECKSUMS, HashMap::new()),
            sidecar_dir: Some(dir),
        })
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The checksum chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Verifies every stored block and returns the ids that failed, in
    /// order. This is the store-level primitive behind the manager's
    /// scrubber.
    pub fn verify_all(&self) -> Vec<BlockId> {
        self.list()
            .into_iter()
            .filter(|&block| matches!(self.verify(block), Err(EcPipeError::CorruptBlock { .. })))
            .collect()
    }

    fn sidecar_path(&self, block: BlockId) -> Option<PathBuf> {
        self.sidecar_dir
            .as_ref()
            .map(|d| d.join(format!("{block}.crc")))
    }

    /// The recorded checksums of `block`, reloading a persisted sidecar on a
    /// memory miss. Returns a shared handle: a reader keeps it for as long
    /// as it is open, so the checksum vector is never copied.
    fn checksums(&self, block: BlockId) -> Option<Arc<BlockChecksums>> {
        if let Some(sums) = self.sums.read().get(&block) {
            return Some(sums.clone());
        }
        let path = self.sidecar_path(block)?;
        let loaded = Arc::new(BlockChecksums::from_bytes(&std::fs::read(path).ok()?)?);
        self.sums.write().insert(block, loaded.clone());
        Some(loaded)
    }

    /// Records checksums in memory and (when persistent) on disk.
    fn record(&self, block: BlockId, sums: BlockChecksums) -> Result<()> {
        if let Some(path) = self.sidecar_path(block) {
            std::fs::write(path, sums.to_bytes())?;
        }
        self.sums.write().insert(block, Arc::new(sums));
        Ok(())
    }

    fn forget(&self, block: BlockId) {
        self.sums.write().remove(&block);
        if let Some(path) = self.sidecar_path(block) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Adopts a block that has no recorded checksums: its current content is
    /// taken as the good copy.
    fn adopt(&self, block: BlockId, data: &[u8]) -> Result<()> {
        self.record(block, BlockChecksums::compute(data, self.chunk_size))
    }

    /// Opens `block` in the inner store and fetches its checksums, once for
    /// however many reads follow.
    fn open_block(&self, block: BlockId) -> Result<ChecksummedReader<'_>> {
        Ok(ChecksummedReader {
            block,
            inner: self.inner.reader(block)?,
            sums: self.checksums(block),
        })
    }
}

impl<S: BlockStore> BlockStore for ChecksummedStore<S> {
    fn get(&self, block: BlockId) -> Result<Bytes> {
        let data = self.inner.get(block)?;
        match self.checksums(block) {
            Some(sums) => match sums.verify(&data) {
                Ok(()) => Ok(data),
                Err(chunk) => Err(EcPipeError::CorruptBlock { block, chunk }),
            },
            None => {
                self.adopt(block, &data)?;
                Ok(data)
            }
        }
    }

    fn get_range(&self, block: BlockId, range: std::ops::Range<usize>) -> Result<Bytes> {
        self.open_block(block)?.read(range)
    }

    fn reader(&self, block: BlockId) -> Result<Box<dyn BlockReader + '_>> {
        Ok(Box::new(self.open_block(block)?))
    }

    fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
        let sums = BlockChecksums::compute(&data, self.chunk_size);
        self.inner.put(block, data)?;
        self.record(block, sums)
    }

    fn delete(&self, block: BlockId) -> Result<bool> {
        let existed = self.inner.delete(block)?;
        self.forget(block);
        Ok(existed)
    }

    fn contains(&self, block: BlockId) -> bool {
        self.inner.contains(block)
    }

    fn list(&self) -> Vec<BlockId> {
        self.inner.list()
    }

    fn verify(&self, block: BlockId) -> Result<()> {
        self.get(block).map(|_| ())
    }

    fn corrupt(&self, block: BlockId, offset: usize) -> Result<()> {
        // Flip the byte *through the inner store* so this wrapper's
        // recorded checksums go stale — that is what bit-rot looks like.
        self.inner.corrupt(block, offset)
    }
}

/// A [`ChecksummedStore`] block held open: the inner store's reader and the
/// checksums recorded for the bytes it reads, so every read is verified
/// without a look-up.
struct ChecksummedReader<'a> {
    block: BlockId,
    inner: Box<dyn BlockReader + 'a>,
    /// `None` for a legacy block that was never whole-read (all writes
    /// through the wrapper record checksums): nothing to verify against, so
    /// its ranges are served raw.
    sums: Option<Arc<BlockChecksums>>,
}

impl BlockReader for ChecksummedReader<'_> {
    fn read(&self, range: std::ops::Range<usize>) -> Result<Bytes> {
        let Some(sums) = &self.sums else {
            return self.inner.read(range);
        };
        let block = self.block;
        check_range(block, &range, sums.block_len())?;
        // Read and verify only the chunk-aligned span covering the range —
        // slice reads stay O(slice), not O(block).
        let (span, first_chunk) = sums.chunk_span(&range);
        let aligned = match self.inner.read(span.clone()) {
            Ok(aligned) => aligned,
            // The recorded checksums say these bytes exist; an inner store
            // that cannot serve them holds a *truncated* block — that is
            // corruption, not a bad request, so it must take the same
            // re-plan-and-heal path a flipped byte does.
            Err(EcPipeError::InvalidRequest { .. }) => {
                return Err(EcPipeError::CorruptBlock {
                    block,
                    chunk: first_chunk,
                })
            }
            Err(e) => return Err(e),
        };
        if let Err(chunk) = sums.verify_chunks(&aligned, first_chunk) {
            return Err(EcPipeError::CorruptBlock { block, chunk });
        }
        Ok(aligned.slice(range.start - span.start..range.end - span.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FileStore, MemoryStore};

    fn block(s: u64, i: usize) -> BlockId {
        BlockId::new(s, i)
    }

    #[test]
    fn crc32_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The block the golden sidecar below describes.
    fn golden_block() -> Vec<u8> {
        (0..2000u32).map(|i| (i % 251) as u8).collect()
    }

    /// `BlockChecksums::compute(&golden_block(), 512).to_bytes()` as written
    /// by commit 957218b, whose `crc32` was the one-table bytewise loop.
    /// Sidecars like this one are on disk; the dispatched kernels must keep
    /// reading and reproducing them bit for bit.
    const GOLDEN_SIDECAR: [u8; 36] = [
        0x45, 0x43, 0x43, 0x01, // "ECC\x01"
        0x00, 0x02, 0, 0, 0, 0, 0, 0, // chunk size 512
        0xd0, 0x07, 0, 0, 0, 0, 0, 0, // block length 2000
        0x20, 0x22, 0x29, 0x7d, 0x40, 0xc9, 0xc1, 0x4e, // chunks 0, 1
        0xa5, 0xfa, 0x47, 0xc2, 0xbd, 0x3b, 0x11, 0x96, // chunks 2, 3
    ];

    #[test]
    fn golden_sidecar_still_parses_and_verifies() {
        let sums = BlockChecksums::from_bytes(&GOLDEN_SIDECAR).expect("golden sidecar parses");
        assert_eq!((sums.chunk_size(), sums.block_len()), (512, 2000));
        assert!(sums.verify(&golden_block()).is_ok());
        // Today's writer emits the same bytes.
        assert_eq!(
            BlockChecksums::compute(&golden_block(), 512).to_bytes(),
            GOLDEN_SIDECAR
        );
    }

    #[test]
    fn block_and_sidecar_written_before_the_kernels_reopen_clean() {
        let dir = std::env::temp_dir().join(format!("ecpipe-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Lay the pair down as the old code left it: raw files, no store.
        let id = block(11, 3);
        std::fs::write(dir.join(id.to_string()), golden_block()).unwrap();
        std::fs::write(dir.join(format!("{id}.crc")), GOLDEN_SIDECAR).unwrap();

        let store = FileStore::open_checksummed(&dir).unwrap();
        assert_eq!(store.get(id).unwrap(), golden_block());
        assert_eq!(
            store.get_range(id, 1000..1600).unwrap(),
            golden_block()[1000..1600]
        );
        // Bit-rot in chunk 2 is convicted at chunk 2, by the old checksums.
        store.corrupt(id, 1500).unwrap();
        assert!(matches!(
            store.get(id),
            Err(EcPipeError::CorruptBlock { chunk: 2, .. })
        ));
        assert!(matches!(
            store.get_range(id, 1000..1600),
            Err(EcPipeError::CorruptBlock { chunk: 2, .. })
        ));
        assert!(store.get_range(id, 0..1024).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        // The metadata WAL frames its records with its own small CRC-32
        // (`ecpipe-meta` does not link `gf256`); this pins both planes to
        // one dialect so neither can drift.
        #[test]
        fn wal_and_block_checksums_are_one_dialect(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            proptest::prop_assert_eq!(ecpipe_meta::wal::crc32(&data), crc32(&data));
        }
    }

    #[test]
    fn checksums_verify_and_localize_corruption() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let sums = BlockChecksums::compute(&data, 512);
        assert_eq!(sums.chunk_count(), 4);
        assert_eq!(sums.block_len(), 2000);
        assert!(sums.verify(&data).is_ok());
        let mut rotten = data.clone();
        rotten[1500] ^= 0x01;
        assert_eq!(sums.verify(&rotten), Err(2));
        assert_eq!(sums.verify(&data[..1999]), Err(0), "truncation is corrupt");
    }

    #[test]
    fn chunk_span_covers_and_clamps() {
        let sums = BlockChecksums::compute(&vec![0u8; 2000], 512);
        assert_eq!(sums.chunk_span(&(0..512)), (0..512, 0));
        assert_eq!(sums.chunk_span(&(100..600)), (0..1024, 0));
        assert_eq!(sums.chunk_span(&(1600..2000)), (1536..2000, 3));
    }

    #[test]
    fn sidecar_roundtrip_and_rejects_garbage() {
        let sums = BlockChecksums::compute(&vec![3u8; 1300], 512);
        let encoded = sums.to_bytes();
        assert_eq!(BlockChecksums::from_bytes(&encoded), Some(sums));
        assert_eq!(BlockChecksums::from_bytes(b"not a sidecar"), None);
        assert_eq!(BlockChecksums::from_bytes(&encoded[..10]), None);
        // A sidecar whose sum count disagrees with its length is rejected.
        let mut short = encoded.clone();
        short.truncate(encoded.len() - 4);
        assert_eq!(BlockChecksums::from_bytes(&short), None);
    }

    #[test]
    fn get_detects_corruption_and_get_range_skips_clean_chunks() {
        let store = ChecksummedStore::new(MemoryStore::new());
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        store.put(block(1, 0), Bytes::from(data.clone())).unwrap();
        assert_eq!(store.get(block(1, 0)).unwrap(), data);
        store.corrupt(block(1, 0), 2048).unwrap();
        assert!(matches!(
            store.get(block(1, 0)),
            Err(EcPipeError::CorruptBlock { chunk: 4, .. })
        ));
        assert!(matches!(
            store.verify(block(1, 0)),
            Err(EcPipeError::CorruptBlock { .. })
        ));
        // Ranges that miss chunk 4 verify clean; ranges that touch it fail.
        assert_eq!(store.get_range(block(1, 0), 0..2048).unwrap(), data[..2048]);
        assert_eq!(
            store.get_range(block(1, 0), 2560..4096).unwrap(),
            data[2560..]
        );
        assert!(store.get_range(block(1, 0), 2000..2100).is_err());
        assert_eq!(store.verify_all(), vec![block(1, 0)]);
        // A rewrite refreshes the checksums and heals the block.
        store.put(block(1, 0), Bytes::from(data.clone())).unwrap();
        assert!(store.verify(block(1, 0)).is_ok());
        assert!(store.verify_all().is_empty());
    }

    #[test]
    fn truncation_is_corruption_for_whole_and_range_reads() {
        let store = ChecksummedStore::new(MemoryStore::new());
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        store.put(block(5, 0), Bytes::from(data.clone())).unwrap();
        // Truncate behind the wrapper's back (a torn write / lost tail).
        store
            .inner()
            .put(block(5, 0), Bytes::from(data[..1000].to_vec()))
            .unwrap();
        assert!(matches!(
            store.get(block(5, 0)),
            Err(EcPipeError::CorruptBlock { chunk: 0, .. })
        ));
        // A range the recorded length covers but the truncated block cannot
        // serve is corruption too — it must take the re-plan/heal path, not
        // fail as a bad request.
        assert!(matches!(
            store.get_range(block(5, 0), 2048..2560),
            Err(EcPipeError::CorruptBlock { chunk: 4, .. })
        ));
        // Asking past the recorded length is still the caller's error.
        assert!(matches!(
            store.get_range(block(5, 0), 4000..5000),
            Err(EcPipeError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn unknown_blocks_are_adopted_on_first_read() {
        let inner = MemoryStore::new();
        inner.put(block(2, 1), Bytes::from(vec![9u8; 100])).unwrap();
        let store = ChecksummedStore::new(inner);
        // First read adopts the current content as the good copy...
        assert_eq!(store.get(block(2, 1)).unwrap().len(), 100);
        // ...after which corruption is detectable.
        store.corrupt(block(2, 1), 50).unwrap();
        assert!(matches!(
            store.get(block(2, 1)),
            Err(EcPipeError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn out_of_bounds_requests_error_cleanly() {
        let store = ChecksummedStore::new(MemoryStore::new());
        store.put(block(3, 0), Bytes::from(vec![1u8; 64])).unwrap();
        assert!(matches!(
            store.get_range(block(3, 0), 10..100),
            Err(EcPipeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            store.corrupt(block(3, 0), 64),
            Err(EcPipeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            store.get(block(9, 9)),
            Err(EcPipeError::BlockNotFound { .. })
        ));
    }

    #[test]
    fn persistent_checksums_survive_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "ecpipe-integrity-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 249) as u8).collect();
        {
            let store = ChecksummedStore::persistent(FileStore::open(&dir).unwrap(), &dir).unwrap();
            store.put(block(7, 2), Bytes::from(data.clone())).unwrap();
            assert!(store.verify(block(7, 2)).is_ok());
            // The sidecar sits next to the block file and is not a block.
            assert_eq!(store.list(), vec![block(7, 2)]);
        }
        // Tamper with the block file directly, then reopen: the reloaded
        // sidecar must convict the rotten byte.
        let path = dir.join(block(7, 2).to_string());
        let mut raw = std::fs::read(&path).unwrap();
        raw[300] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        {
            let store = ChecksummedStore::persistent(FileStore::open(&dir).unwrap(), &dir).unwrap();
            assert!(matches!(
                store.verify(block(7, 2)),
                Err(EcPipeError::CorruptBlock { .. })
            ));
            // Deleting the block removes the sidecar too.
            assert!(store.delete(block(7, 2)).unwrap());
            assert!(!dir.join(format!("{}.crc", block(7, 2))).exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
