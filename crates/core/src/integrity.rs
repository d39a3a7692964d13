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
//! * [`ChecksummedStore`] — wraps any [`BlockStore`], writes each block
//!   with its checksums in a trailer on [`put`] (QFS-style: on a
//!   [`FileStore`](crate::FileStore), one file per block, see
//!   [`FileStore::open_checksummed`](crate::FileStore::open_checksummed)),
//!   verifies on [`get`]/[`get_range`] against the trailer of the block it
//!   read, and surfaces mismatches as [`EcPipeError::CorruptBlock`].
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

use bytes::Bytes;

use ecc::stripe::BlockId;

use gf256::Gf256;

use crate::store::{check_fold_dst, check_range, fold_read, BlockReader, BlockStore};
use crate::{EcPipeError, Result};

/// Default checksum chunk size in bytes: one CRC-32 per 512-byte chunk,
/// matching HDFS's `io.bytes.per.checksum` default (~0.8% metadata
/// overhead).
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// Magic + version prefix of a checksum record ([`BlockChecksums::to_bytes`]).
const RECORD_MAGIC: &[u8; 4] = b"ECC\x01";

/// The fixed part of a checksum record: magic, chunk size, block length.
const RECORD_HEADER: usize = 4 + 8 + 8;

/// The last four bytes of every block a [`ChecksummedStore`] writes.
const FOOTER_MAGIC: &[u8; 4] = b"ECT\x01";

/// The footer closing every block a [`ChecksummedStore`] writes: the length
/// of the checksum record before it (`u32` LE), then [`FOOTER_MAGIC`].
pub(crate) const FOOTER_LEN: usize = 8;

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) of `data`.
///
/// Computed by [`gf256::crc32`] — slicing-by-16 tables, or `pclmulqdq`
/// folding where the host has it — behind the same once-per-process kernel
/// dispatch as the GF(2^8) slice kernels; the values are those of the
/// classic one-table bytewise loop, so checksums written by earlier builds
/// stay valid.
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

    /// [`verify_chunks`](Self::verify_chunks) and a helper's fold in one
    /// pass over a chunk-aligned slice starting at chunk `first_chunk`:
    /// leaves `coeff * data ^ incoming` in `data` if every chunk verifies,
    /// else returns the index of the first failing chunk.
    pub(crate) fn verify_fold(
        &self,
        coeff: Gf256,
        data: &mut [u8],
        incoming: Option<&[u8]>,
        first_chunk: usize,
    ) -> std::result::Result<(), usize> {
        let sums = self.sums.get(first_chunk..).unwrap_or_default();
        gf256::verify_fold(coeff, data, incoming, sums, self.chunk_size)
            .map_err(|i| first_chunk + i)
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

    /// Serializes the checksums into the record a block's trailer carries:
    /// a 4-byte magic/version, the chunk size and block length, then one
    /// little-endian `u32` per chunk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_HEADER + 4 * self.sums.len());
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&(self.chunk_size as u64).to_le_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for sum in &self.sums {
            out.extend_from_slice(&sum.to_le_bytes());
        }
        out
    }

    /// Parses a checksum record. Returns `None` for a foreign, truncated or
    /// internally inconsistent record (the caller treats the block it came
    /// from as corrupt).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let rest = bytes.strip_prefix(RECORD_MAGIC.as_slice())?;
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

/// A [`BlockStore`] wrapper that stores every block with per-chunk CRC-32
/// checksums and verifies them on every read.
///
/// * [`put`](BlockStore::put) computes the checksums and writes them into
///   the block itself. The inner store holds the payload, then the
///   [`BlockChecksums::to_bytes`] record, then an 8-byte footer (the
///   record's length as a little-endian `u32`, and a 4-byte magic) — the
///   layout of a QFS chunk file. All three go in as one
///   [`put_parts`](BlockStore::put_parts): one file per block on a
///   [`FileStore`](crate::FileStore), and no reader or crash can pair a
///   payload with another version's checksums.
/// * Every read takes the checksums from the trailer of the block it
///   opened. [`get`](BlockStore::get) verifies every chunk;
///   [`get_range`](BlockStore::get_range) verifies only the chunks the
///   requested range overlaps (a slice-granular read never pays a
///   whole-block hash).
/// * A mismatch surfaces as [`EcPipeError::CorruptBlock`]. So does a block
///   without a valid trailer, at chunk 0: a block cut short, torn, or
///   written to the inner store directly all look alike, and none of them
///   is served.
/// * [`corrupt`](BlockStore::corrupt) flips a payload byte *without*
///   refreshing the trailer — the test hook that makes injected bit-rot
///   detectable.
///
/// The wrapper keeps no per-block state and takes no lock.
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
}

impl<S: BlockStore> ChecksummedStore<S> {
    /// Wraps `inner`, checksumming [`DEFAULT_CHUNK_SIZE`]-byte chunks.
    pub fn new(inner: S) -> Self {
        ChecksummedStore::with_chunk_size(inner, DEFAULT_CHUNK_SIZE)
    }

    /// Wraps `inner`, checksumming `chunk_size`-byte chunks. Blocks written
    /// with another chunk size still read back: each carries its own.
    pub fn with_chunk_size(inner: S, chunk_size: usize) -> Self {
        ChecksummedStore {
            inner,
            chunk_size: chunk_size.max(1),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The checksum chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Opens `block` in the inner store and reads its trailer, once for
    /// however many reads follow.
    fn open_block(&self, block: BlockId) -> Result<ChecksummedReader<'_>> {
        let inner = self.inner.reader(block)?;
        let sums = read_trailer(&*inner, block, self.chunk_size)?;
        Ok(ChecksummedReader { block, inner, sums })
    }
}

impl<S: BlockStore> BlockStore for ChecksummedStore<S> {
    fn get(&self, block: BlockId) -> Result<Bytes> {
        let reader = self.open_block(block)?;
        reader.read(0..reader.sums.block_len())
    }

    fn get_range(&self, block: BlockId, range: std::ops::Range<usize>) -> Result<Bytes> {
        self.open_block(block)?.read(range)
    }

    fn reader(&self, block: BlockId) -> Result<Box<dyn BlockReader + '_>> {
        Ok(Box::new(self.open_block(block)?))
    }

    fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
        let record = BlockChecksums::compute(&data, self.chunk_size).to_bytes();
        let record_len = u32::try_from(record.len()).map_err(|_| EcPipeError::InvalidRequest {
            reason: format!(
                "block {block} of {} bytes is too large to checksum",
                data.len()
            ),
        })?;
        let mut footer = [0u8; FOOTER_LEN];
        footer[..4].copy_from_slice(&record_len.to_le_bytes());
        footer[4..].copy_from_slice(FOOTER_MAGIC);
        self.inner.put_parts(block, &[&data, &record, &footer])
    }

    fn delete(&self, block: BlockId) -> Result<bool> {
        self.inner.delete(block)
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
        // Only payload bytes rot, and they rot *through the inner store*, so
        // the trailer keeps the old checksums — that is what bit-rot looks
        // like.
        let len = self.open_block(block)?.sums.block_len();
        if offset >= len {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "corruption offset {offset} out of bounds for block {block} of {len} bytes"
                ),
            });
        }
        self.inner.corrupt(block, offset)
    }
}

/// The payload length of a stored block of `stored` bytes whose checksum
/// record has `chunk_size`-byte chunks: the `p` with
/// `p + RECORD_HEADER + 4·⌈p / chunk_size⌉ + FOOTER_LEN == stored`, if any.
fn payload_len(stored: usize, chunk_size: usize) -> Option<usize> {
    // `rest` is `p + 4n` for the `n = ⌈p / chunk_size⌉` chunks; every `p`
    // with `n` chunks puts `rest` in `((n−1)(chunk_size+4), n(chunk_size+4)]`,
    // so `n` is `rest`'s ceiling quotient by `chunk_size + 4`.
    let rest = stored.checked_sub(RECORD_HEADER + FOOTER_LEN)?;
    let chunks = rest.div_ceil(chunk_size + 4);
    let payload = rest.checked_sub(4 * chunks)?;
    (payload.div_ceil(chunk_size) == chunks).then_some(payload)
}

/// Reads the checksums at the end of an opened block. When they were
/// written with `chunk_size`-byte chunks, record and footer arrive in one
/// read; otherwise the footer says where the record starts and a second
/// read fetches it. A block without a valid trailer is corrupt at chunk 0.
fn read_trailer(
    inner: &dyn BlockReader,
    block: BlockId,
    chunk_size: usize,
) -> Result<BlockChecksums> {
    let corrupt = || EcPipeError::CorruptBlock { block, chunk: 0 };
    let stored = inner.len()?;
    let footer_at = stored.checked_sub(FOOTER_LEN).ok_or_else(corrupt)?;
    let start = payload_len(stored, chunk_size).unwrap_or(footer_at);
    let tail = read_stored(inner, block, start..stored, 0)?;
    let footer = &tail[footer_at - start..];
    if footer[4..] != FOOTER_MAGIC[..] {
        return Err(corrupt());
    }
    let record_len = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]) as usize;
    let payload = footer_at.checked_sub(record_len).ok_or_else(corrupt)?;
    let record = match payload.checked_sub(start) {
        Some(at) => tail.slice(at..footer_at - start),
        None => read_stored(inner, block, payload..footer_at, 0)?,
    };
    match BlockChecksums::from_bytes(&record) {
        Some(sums) if sums.block_len() == payload => Ok(sums),
        _ => Err(corrupt()),
    }
}

/// Reads bytes of a stored block that its length or trailer says exist. An
/// inner store that cannot serve them holds a *truncated* block — that is
/// corruption (at `chunk`), not a bad request, so it must take the same
/// re-plan-and-heal path a flipped byte does.
fn read_stored(
    inner: &dyn BlockReader,
    block: BlockId,
    range: std::ops::Range<usize>,
    chunk: usize,
) -> Result<Bytes> {
    inner.read(range).map_err(truncated(block, chunk))
}

/// What an inner store's refusal to serve bytes the trailer says exist
/// means: the block is truncated, corrupt at `chunk` (see [`read_stored`]).
fn truncated(block: BlockId, chunk: usize) -> impl Fn(EcPipeError) -> EcPipeError {
    move |e| match e {
        EcPipeError::InvalidRequest { .. } => EcPipeError::CorruptBlock { block, chunk },
        e => e,
    }
}

/// A [`ChecksummedStore`] block held open: the inner store's reader and the
/// checksums read from that block's trailer, so every read is verified
/// without a look-up.
struct ChecksummedReader<'a> {
    block: BlockId,
    inner: Box<dyn BlockReader + 'a>,
    sums: BlockChecksums,
}

impl BlockReader for ChecksummedReader<'_> {
    fn read(&self, range: std::ops::Range<usize>) -> Result<Bytes> {
        let (block, sums) = (self.block, &self.sums);
        check_range(block, &range, sums.block_len())?;
        // Read and verify only the chunk-aligned span covering the range —
        // slice reads stay O(slice), not O(block).
        let (span, first_chunk) = sums.chunk_span(&range);
        let aligned = read_stored(&*self.inner, block, span.clone(), first_chunk)?;
        if let Err(chunk) = sums.verify_chunks(&aligned, first_chunk) {
            return Err(EcPipeError::CorruptBlock { block, chunk });
        }
        Ok(aligned.slice(range.start - span.start..range.end - span.start))
    }

    /// A chunk-aligned range (every range a repair of a block whose slices
    /// are whole chunks asks for) is read straight into `dst`, then checked,
    /// scaled and folded there in one pass; any other range is a checked
    /// [`read`](BlockReader::read), then the fold. Either way the chunks
    /// verified, and the chunk a mismatch names, are `read`'s.
    fn fold_into(
        &self,
        range: std::ops::Range<usize>,
        coeff: Gf256,
        incoming: Option<&[u8]>,
        dst: &mut [u8],
    ) -> Result<()> {
        let (block, sums) = (self.block, &self.sums);
        let (span, first_chunk) = sums.chunk_span(&range);
        if span != range {
            return fold_read(self, range, coeff, incoming, dst);
        }
        check_fold_dst(&range, dst);
        check_range(block, &range, sums.block_len())?;
        // The stored bytes as they are: a fold by one into nothing.
        let stored = self.inner.fold_into(span, Gf256::ONE, None, dst);
        stored.map_err(truncated(block, first_chunk))?;
        sums.verify_fold(coeff, dst, incoming, first_chunk)
            .map_err(|chunk| EcPipeError::CorruptBlock { block, chunk })
    }

    /// The payload's length: the trailer is not part of the block.
    fn len(&self) -> Result<usize> {
        Ok(self.sums.block_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FileStore, MemoryStore};

    fn block(s: u64, i: usize) -> BlockId {
        BlockId::new(s, i)
    }

    /// A fresh directory for one test's file store.
    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ecpipe-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The block the golden checksum record below describes.
    fn golden_block() -> Vec<u8> {
        (0..2000u32).map(|i| (i % 251) as u8).collect()
    }

    /// `BlockChecksums::compute(&golden_block(), 512).to_bytes()` as written
    /// by commit 957218b, whose `crc32` was the one-table bytewise loop.
    /// The dispatched kernels must keep reading and reproducing it bit for
    /// bit.
    const GOLDEN_SIDECAR: [u8; 36] = [
        0x45, 0x43, 0x43, 0x01, // "ECC\x01"
        0x00, 0x02, 0, 0, 0, 0, 0, 0, // chunk size 512
        0xd0, 0x07, 0, 0, 0, 0, 0, 0, // block length 2000
        0x20, 0x22, 0x29, 0x7d, 0x40, 0xc9, 0xc1, 0x4e, // chunks 0, 1
        0xa5, 0xfa, 0x47, 0xc2, 0xbd, 0x3b, 0x11, 0x96, // chunks 2, 3
    ];

    /// The footer closing a block whose record is [`GOLDEN_SIDECAR`].
    const GOLDEN_FOOTER: [u8; FOOTER_LEN] = [
        36, 0, 0, 0, // record length
        0x45, 0x43, 0x54, 0x01, // "ECT\x01"
    ];

    #[test]
    fn golden_sidecar_still_parses_and_verifies() {
        let sums = BlockChecksums::from_bytes(&GOLDEN_SIDECAR).expect("golden record parses");
        assert_eq!((sums.chunk_size(), sums.block_len()), (512, 2000));
        assert!(sums.verify(&golden_block()).is_ok());
        // Today's writer emits the same bytes.
        assert_eq!(
            BlockChecksums::compute(&golden_block(), 512).to_bytes(),
            GOLDEN_SIDECAR
        );
    }

    #[test]
    fn golden_block_file_reopens_clean() {
        let dir = test_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        // Lay the file down raw, no store: payload ‖ record ‖ footer.
        let id = block(11, 3);
        let file = [&golden_block()[..], &GOLDEN_SIDECAR, &GOLDEN_FOOTER].concat();
        std::fs::write(dir.join(id.to_string()), &file).unwrap();

        let store = FileStore::open_checksummed(&dir).unwrap();
        assert_eq!(store.get(id).unwrap(), golden_block());
        assert_eq!(
            store.get_range(id, 1000..1600).unwrap(),
            golden_block()[1000..1600]
        );
        // Today's writer lays down the same file.
        store
            .put(block(11, 4), Bytes::from(golden_block()))
            .unwrap();
        assert_eq!(std::fs::read(dir.join("s11b4")).unwrap(), file);
        // Bit-rot in chunk 2 is convicted at chunk 2, by the golden sums.
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
        assert_eq!(BlockChecksums::from_bytes(b"not a record"), None);
        assert_eq!(BlockChecksums::from_bytes(&encoded[..10]), None);
        // A record whose sum count disagrees with its length is rejected.
        let mut short = encoded.clone();
        short.truncate(encoded.len() - 4);
        assert_eq!(BlockChecksums::from_bytes(&short), None);
    }

    #[test]
    fn the_trailer_is_found_from_the_stored_length() {
        // Every payload length maps back from its stored length, so a
        // reader fetches record and footer with one read.
        for chunk_size in [1, 7, 512] {
            for len in 0..3000 {
                let record = BlockChecksums::compute(&vec![0u8; len], chunk_size).to_bytes();
                let stored = len + record.len() + FOOTER_LEN;
                assert_eq!(
                    payload_len(stored, chunk_size),
                    Some(len),
                    "{chunk_size}/{len}"
                );
            }
        }
        assert_eq!(payload_len(FOOTER_LEN, 512), None);
        // A block written with another chunk size reads back too: its
        // footer says where its record starts.
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 13) as u8).collect();
        let store = ChecksummedStore::with_chunk_size(MemoryStore::new(), 7);
        store.put(block(2, 0), Bytes::from(data.clone())).unwrap();
        let store = ChecksummedStore::new(store.inner);
        assert_eq!(store.get(block(2, 0)).unwrap(), data);
        assert_eq!(store.get_range(block(2, 0), 10..20).unwrap(), data[10..20]);
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
        assert!(matches!(
            store.verify(block(1, 0)),
            Err(EcPipeError::CorruptBlock { chunk: 4, .. })
        ));
        // A rewrite refreshes the checksums and heals the block.
        store.put(block(1, 0), Bytes::from(data.clone())).unwrap();
        assert!(store.verify(block(1, 0)).is_ok());
    }

    #[test]
    fn truncation_is_corruption_for_whole_and_range_reads() {
        let store = ChecksummedStore::new(MemoryStore::new());
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        let sums = BlockChecksums::compute(&data, DEFAULT_CHUNK_SIZE).to_bytes();
        let footer = [&(sums.len() as u32).to_le_bytes()[..], FOOTER_MAGIC].concat();
        // Behind the wrapper's back: a block with no trailer (a lost tail,
        // or bytes never written through the wrapper), and a payload cut
        // short under an intact trailer.
        for stored in [
            data[..1000].to_vec(),
            data.clone(),
            [&data[..1000], &sums, &footer].concat(),
        ] {
            store.inner().put(block(5, 0), Bytes::from(stored)).unwrap();
            assert!(matches!(
                store.get(block(5, 0)),
                Err(EcPipeError::CorruptBlock { chunk: 0, .. })
            ));
            // Even a range the surviving bytes could serve: without its
            // trailer, no byte of the block is trusted.
            assert!(matches!(
                store.get_range(block(5, 0), 0..512),
                Err(EcPipeError::CorruptBlock { chunk: 0, .. })
            ));
        }
        // Asking past the recorded length is still the caller's error.
        store.put(block(5, 0), Bytes::from(data)).unwrap();
        assert!(matches!(
            store.get_range(block(5, 0), 4000..5000),
            Err(EcPipeError::InvalidRequest { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A block file cut at any offset — in the payload, the record or
        /// the footer — or with any byte flipped is read, or folded into a
        /// partial sum, as `CorruptBlock` or as the exact bytes, never as
        /// anything else, and a cut one serves nothing. A rewrite heals it.
        #[test]
        fn torn_blocks_are_corrupt_never_served(
            len in 0usize..3000,
            at in proptest::prelude::any::<usize>(),
            // Half the cases aim at the last 64 bytes: footer and record.
            in_tail in proptest::prelude::any::<bool>(),
            // Cut the file at `at`, or XOR `flip` into the byte there.
            cut in proptest::prelude::any::<bool>(),
            flip in 1u8..=255,
            from in proptest::prelude::any::<usize>(),
            to in proptest::prelude::any::<usize>(),
        ) {
            let dir = test_dir("torn");
            let store = FileStore::open_checksummed(&dir).unwrap();
            let id = block(8, 0);
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            store.put(id, Bytes::from(data.clone())).unwrap();
            let path = dir.join(id.to_string());
            let mut raw = std::fs::read(&path).unwrap();
            let at = if in_tail {
                raw.len() - 1 - at % raw.len().min(64)
            } else {
                at % raw.len()
            };
            if cut {
                raw.truncate(at);
            } else {
                raw[at] ^= flip;
            }
            std::fs::write(&path, &raw).unwrap();

            let (from, to) = (from % (len + 1), to % (len + 1));
            let range = from.min(to)..from.max(to);
            // A helper's fold of the chunks covering the range (the
            // chunk-aligned reads a repair makes) into an incoming partial
            // sum, and what it must give when it gives anything.
            let chunk = DEFAULT_CHUNK_SIZE;
            let span = range.start / chunk * chunk..(range.end.div_ceil(chunk) * chunk).min(len);
            let (coeff, incoming) = (Gf256::new(flip), vec![flip ^ 0x5a; span.len()]);
            let fold = store.reader(id).and_then(|reader| {
                let mut dst = vec![0u8; span.len()];
                reader.fold_into(span.clone(), coeff, Some(&incoming), &mut dst)?;
                Ok(Bytes::from(dst))
            });
            let mut folded = vec![0u8; span.len()];
            gf256::fold(coeff, &data[span], Some(&incoming), &mut folded);
            let reads = [
                ("get", store.get(id), &data[..]),
                ("get_range", store.get_range(id, range.clone()), &data[range]),
                ("fold_into", fold, &folded[..]),
            ];
            for (way, read, exact) in reads {
                match read {
                    Ok(got) => {
                        proptest::prop_assert!(!cut, "{way} served a block cut at {at}");
                        proptest::prop_assert_eq!(&got[..], exact, "{} at {}^{}", way, at, flip);
                    }
                    Err(EcPipeError::CorruptBlock { .. }) => {}
                    Err(other) => panic!("{way} at {at} (cut {cut}): unexpected {other:?}"),
                }
            }
            store.put(id, Bytes::from(data.clone())).unwrap();
            proptest::prop_assert_eq!(store.get(id).unwrap(), data);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn reads_racing_a_rewrite_see_old_or_new_bytes() {
        // One thread rewrites a block, alternating two contents; another
        // reads a range of it meanwhile. Bytes and checksums are one unit,
        // so every read is whole and clean: one content or the other.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const BLOCK: usize = 64 * 1024;
        let dir = test_dir("race");
        let stores: [(&str, Box<dyn BlockStore>); 2] = [
            ("file", Box::new(FileStore::open_checksummed(&dir).unwrap())),
            (
                "memory",
                Box::new(ChecksummedStore::new(MemoryStore::new())),
            ),
        ];
        let contents = [
            Bytes::from((0..BLOCK).map(|i| (i % 251) as u8).collect::<Vec<_>>()),
            Bytes::from(
                (0..BLOCK)
                    .map(|i| (i % 239) as u8 ^ 0x5A)
                    .collect::<Vec<_>>(),
            ),
        ];
        let (id, range) = (block(6, 1), 1000..40_000);
        for (name, store) in &stores {
            store.put(id, contents[0].clone()).unwrap();
            let (start, done) = (Barrier::new(2), AtomicBool::new(false));
            let (mut clean, mut corrupt) = (0usize, 0usize);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    for round in 1..=300 {
                        store.put(id, contents[round % 2].clone()).unwrap();
                    }
                    done.store(true, Ordering::SeqCst);
                });
                start.wait();
                while !done.load(Ordering::SeqCst) || clean + corrupt == 0 {
                    match store.get_range(id, range.clone()) {
                        Ok(got) => {
                            assert!(
                                contents.iter().any(|c| got[..] == c[range.clone()]),
                                "{name}: a read mixed the two contents"
                            );
                            clean += 1;
                        }
                        Err(EcPipeError::CorruptBlock { .. }) => corrupt += 1,
                        Err(other) => panic!("{name}: unexpected {other:?}"),
                    }
                }
            });
            assert_eq!(
                corrupt, 0,
                "{name}: {corrupt} false CorruptBlock against {clean} clean reads"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checksummed_file_store_keeps_one_file_per_block() {
        let dir = test_dir("one-file");
        let store = FileStore::open_checksummed(&dir).unwrap();
        let files = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        store
            .put(block(1, 0), Bytes::from(vec![1u8; 3000]))
            .unwrap();
        assert_eq!(files(), ["s1b0"], "a put creates exactly one file");
        for i in 1..4 {
            store
                .put(block(1, i), Bytes::from(vec![i as u8; 700]))
                .unwrap();
        }
        // Overwrites, an empty block, and a delete: still one file per
        // stored block — no `.crc`, no leftover temporary.
        store
            .put(block(1, 2), Bytes::from(vec![9u8; 5000]))
            .unwrap();
        store.put(block(1, 3), Bytes::new()).unwrap();
        assert!(store.delete(block(1, 0)).unwrap());
        assert_eq!(files(), ["s1b1", "s1b2", "s1b3"]);
        assert_eq!(store.list(), [block(1, 1), block(1, 2), block(1, 3)]);
        assert_eq!(store.get(block(1, 2)).unwrap(), vec![9u8; 5000]);
        assert!(store.get(block(1, 3)).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
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
        let dir = test_dir("integrity");
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 249) as u8).collect();
        {
            let store = FileStore::open_checksummed(&dir).unwrap();
            store.put(block(7, 2), Bytes::from(data.clone())).unwrap();
            assert!(store.verify(block(7, 2)).is_ok());
            assert_eq!(store.list(), vec![block(7, 2)]);
        }
        // Tamper with the block file directly, then reopen: the checksums
        // in the file's own trailer must convict the rotten byte.
        let path = dir.join(block(7, 2).to_string());
        let mut raw = std::fs::read(&path).unwrap();
        raw[300] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        {
            let store = FileStore::open_checksummed(&dir).unwrap();
            assert!(matches!(
                store.verify(block(7, 2)),
                Err(EcPipeError::CorruptBlock { chunk: 0, .. })
            ));
            // Deleting the block removes its one file.
            assert!(store.delete(block(7, 2)).unwrap());
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
