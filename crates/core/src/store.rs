//! Local block stores.
//!
//! Each helper reads the blocks it serves directly from the storage node's
//! local store. The paper's integration insight (§5.2) is that HDFS-RAID,
//! HDFS-3 and QFS all keep a block as a plain file named after its block id,
//! so a helper daemon can bypass the distributed-storage read routine; the
//! [`FileStore`] mirrors that layout, and [`MemoryStore`] is the in-process
//! equivalent used by tests and examples. Those systems also pair each
//! block file with checksums — wrap any store in
//! [`ChecksummedStore`](crate::ChecksummedStore) (see
//! [`integrity`](crate::integrity)) to get the same verification on every
//! read.

use std::collections::HashMap;
use std::fmt;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ecpipe_sync::RwLock;
use gf256::Gf256;

use crate::lock_order;

use ecc::stripe::BlockId;

use crate::integrity::ChecksummedStore;
use crate::{EcPipeError, Result};

/// How the nodes of a [`Cluster`](crate::Cluster) store their blocks.
///
/// One typed choice instead of a constructor per storage flavor: pass a
/// backend to [`Cluster::new`](crate::Cluster::new) or to
/// [`EcPipeBuilder::store`](crate::EcPipeBuilder::store).
///
/// ```
/// use ecpipe::{Cluster, StoreBackend};
///
/// let cluster = Cluster::new(StoreBackend::memory(8)).unwrap();
/// assert_eq!(cluster.num_nodes(), 8);
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub enum StoreBackend {
    /// Plain in-memory stores ([`MemoryStore`]), the fast default for tests
    /// and benches. Injected corruption is *undetectable* on this backend.
    Memory {
        /// Number of storage nodes.
        nodes: usize,
    },
    /// In-memory stores wrapped in [`ChecksummedStore`]: every read verifies
    /// per-chunk CRC-32 checksums, so injected bit-rot surfaces as
    /// [`EcPipeError::CorruptBlock`] instead of poisoning repairs.
    MemoryChecksummed {
        /// Number of storage nodes.
        nodes: usize,
    },
    /// File-backed stores ([`FileStore`]): node `i` keeps its blocks as
    /// plain files under `root/node-<i>`, mirroring the HDFS/QFS layout.
    File {
        /// Directory that receives one `node-<i>` subdirectory per node.
        root: PathBuf,
        /// Number of storage nodes.
        nodes: usize,
    },
    /// File-backed stores whose block files carry their checksums in a
    /// trailer ([`FileStore::open_checksummed`]).
    FileChecksummed {
        /// Directory that receives one `node-<i>` subdirectory per node.
        root: PathBuf,
        /// Number of storage nodes.
        nodes: usize,
    },
    /// Explicit per-node stores, for mixed or custom deployments.
    Custom {
        /// One store per node, in node-id order.
        stores: Vec<Arc<dyn BlockStore>>,
    },
}

impl StoreBackend {
    /// Plain in-memory stores for `nodes` nodes.
    pub fn memory(nodes: usize) -> Self {
        StoreBackend::Memory { nodes }
    }

    /// Checksum-verifying in-memory stores for `nodes` nodes.
    pub fn memory_checksummed(nodes: usize) -> Self {
        StoreBackend::MemoryChecksummed { nodes }
    }

    /// File-backed stores rooted at `root`, one subdirectory per node.
    pub fn file(root: impl AsRef<Path>, nodes: usize) -> Self {
        StoreBackend::File {
            root: root.as_ref().to_path_buf(),
            nodes,
        }
    }

    /// File-backed stores whose block files carry their checksums.
    pub fn file_checksummed(root: impl AsRef<Path>, nodes: usize) -> Self {
        StoreBackend::FileChecksummed {
            root: root.as_ref().to_path_buf(),
            nodes,
        }
    }

    /// Explicit per-node stores.
    pub fn custom(stores: Vec<Arc<dyn BlockStore>>) -> Self {
        StoreBackend::Custom { stores }
    }

    /// The number of nodes this backend describes.
    pub fn num_nodes(&self) -> usize {
        match self {
            StoreBackend::Memory { nodes }
            | StoreBackend::MemoryChecksummed { nodes }
            | StoreBackend::File { nodes, .. }
            | StoreBackend::FileChecksummed { nodes, .. } => *nodes,
            StoreBackend::Custom { stores } => stores.len(),
        }
    }

    /// Builds the per-node stores. File-backed variants create their
    /// directories, so this is the only fallible step.
    pub fn build(self) -> Result<Vec<Arc<dyn BlockStore>>> {
        match self {
            StoreBackend::Memory { nodes } => Ok((0..nodes)
                .map(|_| Arc::new(MemoryStore::new()) as Arc<dyn BlockStore>)
                .collect()),
            StoreBackend::MemoryChecksummed { nodes } => Ok((0..nodes)
                .map(|_| Arc::new(ChecksummedStore::new(MemoryStore::new())) as Arc<dyn BlockStore>)
                .collect()),
            StoreBackend::File { root, nodes } => (0..nodes)
                .map(|i| {
                    FileStore::open(root.join(format!("node-{i}")))
                        .map(|s| Arc::new(s) as Arc<dyn BlockStore>)
                })
                .collect(),
            StoreBackend::FileChecksummed { root, nodes } => (0..nodes)
                .map(|i| {
                    FileStore::open_checksummed(root.join(format!("node-{i}")))
                        .map(|s| Arc::new(s) as Arc<dyn BlockStore>)
                })
                .collect(),
            StoreBackend::Custom { stores } => Ok(stores),
        }
    }
}

impl fmt::Debug for StoreBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreBackend::Memory { nodes } => {
                f.debug_struct("Memory").field("nodes", nodes).finish()
            }
            StoreBackend::MemoryChecksummed { nodes } => f
                .debug_struct("MemoryChecksummed")
                .field("nodes", nodes)
                .finish(),
            StoreBackend::File { root, nodes } => f
                .debug_struct("File")
                .field("root", root)
                .field("nodes", nodes)
                .finish(),
            StoreBackend::FileChecksummed { root, nodes } => f
                .debug_struct("FileChecksummed")
                .field("root", root)
                .field("nodes", nodes)
                .finish(),
            StoreBackend::Custom { stores } => f
                .debug_struct("Custom")
                .field("nodes", &stores.len())
                .finish(),
        }
    }
}

/// The one range rule every store's range read applies: `range` must run
/// forwards and end within the block's `len` bytes. A violation is the
/// caller's error, never a panic in `Bytes::slice` or a silent empty read.
pub(crate) fn check_range(
    block: BlockId,
    range: &std::ops::Range<usize>,
    len: usize,
) -> Result<()> {
    if range.start > range.end || range.end > len {
        return Err(EcPipeError::InvalidRequest {
            reason: format!("range {range:?} out of bounds for block {block} of {len} bytes"),
        });
    }
    Ok(())
}

/// `range` of a block held whole in memory: a view, not a copy.
fn slice_of(block: BlockId, whole: &Bytes, range: std::ops::Range<usize>) -> Result<Bytes> {
    check_range(block, &range, whole.len())?;
    Ok(whole.slice(range))
}

/// One stored block, opened once for the many range reads of one repair
/// ([`BlockStore::reader`]): whatever a store pays per *block* — a path, an
/// `open`, a checksum trailer — it pays when the reader is made, and
/// [`read`](BlockReader::read) pays only for the bytes.
///
/// A reader is a snapshot. A block healed ([`BlockStore::put`]) or erased
/// ([`BlockStore::delete`]) while a repair is running keeps serving that
/// repair the bytes its plan was made against, verified by the checksums
/// stored with them; the next reader sees the new state. (The trait's
/// default reader, for custom stores, is only as stable as the store's
/// `get_range`.)
// A reader is asked where the block ends, never whether it is empty.
#[allow(clippy::len_without_is_empty)]
pub trait BlockReader: Send {
    /// Reads a byte range of the block, by the rules of
    /// [`BlockStore::get_range`].
    fn read(&self, range: std::ops::Range<usize>) -> Result<Bytes>;

    /// A helper's fold of a byte range of the block into a partial sum:
    /// `dst = coeff * block[range] ^ incoming` (`incoming` absent: zero),
    /// read, verified and refused by the rules of [`read`](Self::read).
    ///
    /// The default reads, then scales and adds. The runtime's readers fold
    /// without the intermediate buffer: a file reader reads straight into
    /// `dst`, a checksummed one checks, scales and folds each chunk in one
    /// pass ([`gf256::verify_fold`]).
    ///
    /// # Panics
    ///
    /// Panics if `dst`, or `incoming`, is not `range.len()` bytes long.
    fn fold_into(
        &self,
        range: std::ops::Range<usize>,
        coeff: Gf256,
        incoming: Option<&[u8]>,
        dst: &mut [u8],
    ) -> Result<()> {
        fold_read(self, range, coeff, incoming, dst)
    }

    /// The length of the block in bytes: where a checksum trailer, read
    /// from the end, ends.
    fn len(&self) -> Result<usize>;
}

/// The length rule of [`BlockReader::fold_into`]: `dst` is as long as the
/// range folded into it.
pub(crate) fn check_fold_dst(range: &std::ops::Range<usize>, dst: &[u8]) {
    assert_eq!(dst.len(), range.len(), "fold_into: dst must fit the range");
}

/// [`BlockReader::fold_into`] by way of [`BlockReader::read`]: the checked
/// read, then one pass to scale and fold it.
pub(crate) fn fold_read<R: BlockReader + ?Sized>(
    reader: &R,
    range: std::ops::Range<usize>,
    coeff: Gf256,
    incoming: Option<&[u8]>,
    dst: &mut [u8],
) -> Result<()> {
    check_fold_dst(&range, dst);
    gf256::fold(coeff, &reader.read(range)?, incoming, dst);
    Ok(())
}

/// The default [`BlockStore::reader`]: the presence check was made when it
/// was opened, every read goes back through the store.
struct RangeReader<'a, S: ?Sized> {
    store: &'a S,
    block: BlockId,
}

impl<S: BlockStore + ?Sized> BlockReader for RangeReader<'_, S> {
    fn read(&self, range: std::ops::Range<usize>) -> Result<Bytes> {
        self.store.get_range(self.block, range)
    }

    fn len(&self) -> Result<usize> {
        Ok(self.store.get(self.block)?.len())
    }
}

/// A node-local store of erasure-coded blocks.
///
/// ```
/// use bytes::Bytes;
/// use ecc::stripe::BlockId;
/// use ecpipe::{BlockStore, MemoryStore};
///
/// let store = MemoryStore::new();
/// let block = BlockId::new(0, 2);
/// store.put(block, Bytes::from_static(b"0123456789")).unwrap();
/// assert!(store.contains(block));
/// // Slice-granular read, as the helpers use during repairs.
/// assert_eq!(
///     store.get_range(block, 2..5).unwrap(),
///     Bytes::from_static(b"234")
/// );
/// assert!(store.verify(block).is_ok());
/// assert!(store.delete(block).unwrap());
/// assert_eq!(store.list(), vec![]);
/// ```
pub trait BlockStore: Send + Sync {
    /// Reads a whole block.
    fn get(&self, block: BlockId) -> Result<Bytes>;

    /// Reads a byte range of a block (used for slice-granular disk reads).
    /// A reversed range, or one that ends past the block, is
    /// [`EcPipeError::InvalidRequest`] on every store.
    fn get_range(&self, block: BlockId, range: std::ops::Range<usize>) -> Result<Bytes> {
        slice_of(block, &self.get(block)?, range)
    }

    /// Opens a block for repeated range reads — what a helper does with the
    /// block it serves, one read per slice. A missing block is
    /// [`EcPipeError::BlockNotFound`] here, not at the first read.
    fn reader(&self, block: BlockId) -> Result<Box<dyn BlockReader + '_>> {
        if !self.contains(block) {
            return Err(EcPipeError::BlockNotFound { block });
        }
        Ok(Box::new(RangeReader { store: self, block }))
    }

    /// Writes (or overwrites) a block.
    fn put(&self, block: BlockId, data: Bytes) -> Result<()>;

    /// Writes (or overwrites) a block given as consecutive parts — how
    /// [`ChecksummedStore`](crate::ChecksummedStore) appends its checksum
    /// trailer to a payload without copying the payload first. The block is
    /// the parts' concatenation, published as one [`put`](BlockStore::put):
    /// the default concatenates, [`FileStore`] writes the parts with one
    /// vectored write.
    fn put_parts(&self, block: BlockId, parts: &[&[u8]]) -> Result<()> {
        self.put(block, Bytes::from(parts.concat()))
    }

    /// Deletes a block, returning whether it existed. Used to inject
    /// failures.
    fn delete(&self, block: BlockId) -> Result<bool>;

    /// Whether a block is present.
    fn contains(&self, block: BlockId) -> bool;

    /// The ids of all stored blocks.
    fn list(&self) -> Vec<BlockId>;

    /// Verifies the integrity of a stored block. Stores without integrity
    /// metadata can only check presence;
    /// [`ChecksummedStore`](crate::ChecksummedStore) re-reads the block and
    /// validates every chunk checksum, failing with
    /// [`EcPipeError::CorruptBlock`]. This is what the manager's scrubber
    /// calls as it walks a node.
    fn verify(&self, block: BlockId) -> Result<()> {
        if self.contains(block) {
            Ok(())
        } else {
            Err(EcPipeError::BlockNotFound { block })
        }
    }

    /// Flips the byte at `offset` of a stored block — the corruption
    /// injection hook used by tests and benches to simulate silent bit-rot.
    ///
    /// The default implementation rewrites the block through
    /// [`put`](BlockStore::put), which refreshes any integrity metadata the
    /// store keeps (so on a plain store the rot is real but undetectable).
    /// [`ChecksummedStore`](crate::ChecksummedStore) overrides it to leave
    /// its recorded checksums stale, making the corruption *detectable*.
    fn corrupt(&self, block: BlockId, offset: usize) -> Result<()> {
        let data = self.get(block)?;
        if offset >= data.len() {
            return Err(EcPipeError::InvalidRequest {
                reason: format!(
                    "corruption offset {offset} out of bounds for block {block} of {} bytes",
                    data.len()
                ),
            });
        }
        let mut bytes = data.to_vec();
        bytes[offset] ^= 0xFF;
        self.put(block, Bytes::from(bytes))
    }
}

/// An in-memory block store.
#[derive(Debug)]
pub struct MemoryStore {
    /// Lock class: `store.memory` ([`lock_order::STORE_MEMORY`]).
    blocks: RwLock<HashMap<BlockId, Bytes>>,
}

impl Default for MemoryStore {
    fn default() -> Self {
        MemoryStore {
            blocks: RwLock::new(&lock_order::STORE_MEMORY, HashMap::new()),
        }
    }
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }
}

impl BlockStore for MemoryStore {
    fn get(&self, block: BlockId) -> Result<Bytes> {
        self.blocks
            .read()
            .get(&block)
            .cloned()
            .ok_or(EcPipeError::BlockNotFound { block })
    }

    fn reader(&self, block: BlockId) -> Result<Box<dyn BlockReader + '_>> {
        Ok(Box::new(MemoryReader {
            block,
            whole: self.get(block)?,
        }))
    }

    fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
        self.blocks.write().insert(block, data);
        Ok(())
    }

    fn delete(&self, block: BlockId) -> Result<bool> {
        Ok(self.blocks.write().remove(&block).is_some())
    }

    fn contains(&self, block: BlockId) -> bool {
        self.blocks.read().contains_key(&block)
    }

    fn list(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.blocks.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// A [`MemoryStore`] block: the reader holds the bytes themselves.
struct MemoryReader {
    block: BlockId,
    whole: Bytes,
}

impl BlockReader for MemoryReader {
    fn read(&self, range: std::ops::Range<usize>) -> Result<Bytes> {
        slice_of(self.block, &self.whole, range)
    }

    /// Folds straight from the held bytes.
    fn fold_into(
        &self,
        range: std::ops::Range<usize>,
        coeff: Gf256,
        incoming: Option<&[u8]>,
        dst: &mut [u8],
    ) -> Result<()> {
        check_fold_dst(&range, dst);
        check_range(self.block, &range, self.whole.len())?;
        gf256::fold(coeff, &self.whole[range], incoming, dst);
        Ok(())
    }

    fn len(&self) -> Result<usize> {
        Ok(self.whole.len())
    }
}

/// A file-backed block store: each block is a plain file named
/// `s<stripe>b<index>` inside the store directory, mirroring how HDFS and QFS
/// lay out blocks in the native file system.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    /// Payload bytes read from disk so far (whole-block and range reads),
    /// so tests can pin that slice reads do slice-sized — not block-sized —
    /// I/O.
    bytes_read: AtomicU64,
    /// Block files opened for reading so far, so tests can pin that a repair
    /// opens a helper's block once — not once per slice.
    opens: AtomicU64,
}

impl FileStore {
    /// Opens (and creates if needed) a file store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(FileStore {
            dir,
            bytes_read: AtomicU64::new(0),
            opens: AtomicU64::new(0),
        })
    }

    /// Opens a file store whose block files carry their own per-chunk
    /// checksums in a trailer ([`ChecksummedStore`]), the way a QFS chunk
    /// file does: one file per block, written and renamed into place whole.
    pub fn open_checksummed(dir: impl AsRef<Path>) -> Result<ChecksummedStore<FileStore>> {
        Ok(ChecksummedStore::new(FileStore::open(dir)?))
    }

    /// Total payload bytes this store has read from disk.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// How many times this store has opened a block file for reading.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    fn path_of(&self, block: BlockId) -> PathBuf {
        self.dir.join(block.to_string())
    }

    /// Opens `block`'s file: the path is built and the descriptor obtained
    /// here, once for however many reads follow.
    fn open_block(&self, block: BlockId) -> Result<FileReader<'_>> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        match std::fs::File::open(self.path_of(block)) {
            Ok(file) => Ok(FileReader {
                store: self,
                block,
                file,
            }),
            Err(e) => Err(open_error(block, e)),
        }
    }
}

impl BlockStore for FileStore {
    fn get(&self, block: BlockId) -> Result<Bytes> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        match std::fs::read(self.path_of(block)) {
            Ok(data) => {
                self.bytes_read
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                Ok(Bytes::from(data))
            }
            Err(e) => Err(open_error(block, e)),
        }
    }

    fn get_range(&self, block: BlockId, range: std::ops::Range<usize>) -> Result<Bytes> {
        self.open_block(block)?.read(range)
    }

    fn reader(&self, block: BlockId) -> Result<Box<dyn BlockReader + '_>> {
        Ok(Box::new(self.open_block(block)?))
    }

    fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
        self.put_parts(block, &[&data])
    }

    /// Writes the block under a temporary name and renames it into place, so
    /// a concurrent reader sees the old block, the new one or none — never a
    /// prefix of the new bytes over a tail of the old, which an unchecksummed
    /// store would serve as data, nor a payload without its trailer. One new
    /// file per block, and the parts go in with one vectored write.
    fn put_parts(&self, block: BlockId, parts: &[&[u8]]) -> Result<()> {
        // Process-wide, so two stores opened on one directory cannot collide.
        static PUTS: AtomicU64 = AtomicU64::new(0);
        let path = self.path_of(block);
        // `list` skips the name: the suffix makes the index unparsable.
        let tmp = self.dir.join(format!(
            "{block}.tmp{}",
            PUTS.fetch_add(1, Ordering::Relaxed)
        ));
        let written = write_parts(&tmp, parts).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        Ok(written?)
    }

    fn delete(&self, block: BlockId) -> Result<bool> {
        match std::fs::remove_file(self.path_of(block)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    fn contains(&self, block: BlockId) -> bool {
        self.path_of(block).exists()
    }

    fn list(&self) -> Vec<BlockId> {
        let mut ids = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if let Some(id) = parse_block_name(name) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }
}

/// A [`FileStore`] block held open. The descriptor names the file as it was
/// when opened: `put` renames a new file over the name and `delete` unlinks
/// it, and neither changes what this reader reads.
struct FileReader<'a> {
    store: &'a FileStore,
    block: BlockId,
    file: std::fs::File,
}

impl FileReader<'_> {
    /// Positional range read into `dst`: only the requested bytes travel
    /// from disk, rather than the whole block, and in one `pread` — the file
    /// is not sized first. Only a range that cannot be read that way (empty,
    /// reversed, or ending past the file) is held against the file's
    /// length, by the rule every store shares.
    fn read_into(&self, range: std::ops::Range<usize>, dst: &mut [u8]) -> Result<()> {
        let read = |dst: &mut [u8]| self.file.read_exact_at(dst, range.start as u64);
        if dst.is_empty() || read(dst).is_err() {
            check_range(self.block, &range, self.len()?)?;
            // In bounds after all: nothing to read, or an error to report.
            read(dst)?;
        }
        self.store
            .bytes_read
            .fetch_add(dst.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

impl BlockReader for FileReader<'_> {
    fn read(&self, range: std::ops::Range<usize>) -> Result<Bytes> {
        let mut data = vec![0u8; range.len()];
        self.read_into(range, &mut data)?;
        Ok(Bytes::from(data))
    }

    /// Reads straight into `dst`, then folds it in place.
    fn fold_into(
        &self,
        range: std::ops::Range<usize>,
        coeff: Gf256,
        incoming: Option<&[u8]>,
        dst: &mut [u8],
    ) -> Result<()> {
        check_fold_dst(&range, dst);
        self.read_into(range, dst)?;
        gf256::fold_in_place(coeff, dst, incoming);
        Ok(())
    }

    /// One `fstat` of the held descriptor.
    fn len(&self) -> Result<usize> {
        Ok(usize::try_from(self.file.metadata()?.len()).unwrap_or(usize::MAX))
    }
}

/// Creates `path` and writes `parts` into it back to back with one
/// `writev`, looping only if the kernel takes less than it was offered.
fn write_parts(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    use std::io::{IoSlice, Write};
    let mut file = std::fs::File::create(path)?;
    let mut slices: Vec<IoSlice<'_>> = parts.iter().map(|part| IoSlice::new(part)).collect();
    let mut left = &mut slices[..];
    // Drops leading empty parts, so an empty block writes nothing.
    IoSlice::advance_slices(&mut left, 0);
    while !left.is_empty() {
        match file.write_vectored(left) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Why `block`'s file could not be opened: it is not there, or I/O failed.
fn open_error(block: BlockId, e: std::io::Error) -> EcPipeError {
    if e.kind() == std::io::ErrorKind::NotFound {
        EcPipeError::BlockNotFound { block }
    } else {
        e.into()
    }
}

fn parse_block_name(name: &str) -> Option<BlockId> {
    // Format: s<stripe>b<index>
    let rest = name.strip_prefix('s')?;
    let (stripe, index) = rest.split_once('b')?;
    Some(BlockId::new(stripe.parse().ok()?, index.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(s: u64, i: usize) -> BlockId {
        BlockId::new(s, i)
    }

    #[test]
    fn memory_store_roundtrip() {
        let store = MemoryStore::new();
        assert!(!store.contains(block(1, 0)));
        store
            .put(block(1, 0), Bytes::from_static(b"hello"))
            .unwrap();
        assert!(store.contains(block(1, 0)));
        assert_eq!(
            store.get(block(1, 0)).unwrap(),
            Bytes::from_static(b"hello")
        );
        assert_eq!(store.list(), vec![block(1, 0)]);
        assert!(store.delete(block(1, 0)).unwrap());
        assert!(!store.delete(block(1, 0)).unwrap());
        assert!(matches!(
            store.get(block(1, 0)),
            Err(EcPipeError::BlockNotFound { .. })
        ));
    }

    #[test]
    fn memory_store_range_reads() {
        let store = MemoryStore::new();
        store
            .put(block(2, 3), Bytes::from_static(b"0123456789"))
            .unwrap();
        assert_eq!(
            store.get_range(block(2, 3), 2..5).unwrap(),
            Bytes::from_static(b"234")
        );
        assert!(store.get_range(block(2, 3), 5..20).is_err());
    }

    #[test]
    // Reversed ranges are the point: they are what a buggy caller passes.
    #[allow(clippy::reversed_empty_ranges)]
    fn get_range_agrees_on_every_backend() {
        let root = std::env::temp_dir().join(format!("ecpipe-ranges-{}", std::process::id()));
        let backends = [
            StoreBackend::memory(1),
            StoreBackend::memory_checksummed(1),
            StoreBackend::file(root.join("plain"), 1),
            StoreBackend::file_checksummed(root.join("crc"), 1),
        ];
        // 2000 bytes = three whole 512-byte checksum chunks and a short one.
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let ok = |r: std::ops::Range<usize>| Ok(data[r].to_vec());
        let cases = [
            // Reversed: the caller's error, not a panic or an empty read.
            (5..3, Err("invalid")),
            (1999..0, Err("invalid")),
            (3000..10, Err("invalid")),
            // Empty, at the start, inside a chunk, on a chunk edge, at the end.
            (0..0, ok(0..0)),
            (700..700, ok(0..0)),
            (1024..1024, ok(0..0)),
            (2000..2000, ok(0..0)),
            // Within one chunk, straddling chunks, the short tail, the whole.
            (10..20, ok(10..20)),
            (500..1030, ok(500..1030)),
            (1500..2000, ok(1500..2000)),
            (0..2000, ok(0..2000)),
            // Past the end.
            (1990..2001, Err("invalid")),
            (2001..2001, Err("invalid")),
            (4096..8192, Err("invalid")),
        ];
        for backend in backends {
            let name = format!("{backend:?}");
            let store = backend.build().unwrap().remove(0);
            store.put(block(4, 1), Bytes::from(data.clone())).unwrap();
            // Both ways in: a one-off `get_range`, and one reader opened for
            // the whole table.
            let reader = store.reader(block(4, 1)).unwrap();
            for (range, expected) in &cases {
                for (way, read) in [
                    ("get_range", store.get_range(block(4, 1), range.clone())),
                    ("reader", reader.read(range.clone())),
                ] {
                    let got = match read {
                        Ok(bytes) => Ok(bytes.to_vec()),
                        Err(EcPipeError::InvalidRequest { .. }) => Err("invalid"),
                        Err(other) => panic!("{name} {way} {range:?}: unexpected {other:?}"),
                    };
                    assert_eq!(&got, expected, "{name} {way} {range:?}");
                }
            }
            assert!(matches!(
                store.get_range(block(9, 9), 0..1),
                Err(EcPipeError::BlockNotFound { .. })
            ));
            assert!(matches!(
                store.reader(block(9, 9)).map(drop),
                Err(EcPipeError::BlockNotFound { .. })
            ));
            // A reader is a snapshot: overwritten or deleted under it, the
            // block it opened is the block it serves (on the checksummed
            // stores, still verified — by the checksums it opened with).
            let rewritten: Vec<u8> = data.iter().map(|b| !b).collect();
            store
                .put(block(4, 1), Bytes::from(rewritten.clone()))
                .unwrap();
            assert_eq!(reader.read(500..1030).unwrap(), data[500..1030], "{name}");
            let reopened = store.reader(block(4, 1)).unwrap();
            assert!(store.delete(block(4, 1)).unwrap());
            assert_eq!(reader.read(0..2000).unwrap(), data, "{name}");
            assert_eq!(reopened.read(0..2000).unwrap(), rewritten, "{name}");
            assert!(store.reader(block(4, 1)).is_err(), "{name}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// A store that keeps the trait's default reader, and so its default
    /// `fold_into`.
    #[derive(Default)]
    struct DefaultReader(MemoryStore);

    impl BlockStore for DefaultReader {
        fn get(&self, block: BlockId) -> Result<Bytes> {
            self.0.get(block)
        }
        fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
            self.0.put(block, data)
        }
        fn delete(&self, block: BlockId) -> Result<bool> {
            self.0.delete(block)
        }
        fn contains(&self, block: BlockId) -> bool {
            self.0.contains(block)
        }
        fn list(&self) -> Vec<BlockId> {
            self.0.list()
        }
    }

    /// What a reader's `fold_into` gives, as the bytes or the error's kind
    /// and chunk.
    fn folded(
        reader: &dyn BlockReader,
        range: std::ops::Range<usize>,
        coeff: Gf256,
        incoming: Option<&[u8]>,
    ) -> std::result::Result<Vec<u8>, String> {
        let mut dst = vec![0xEE; range.len()];
        match reader.fold_into(range, coeff, incoming, &mut dst) {
            Ok(()) => Ok(dst),
            Err(e) => Err(kind_of(e)),
        }
    }

    fn kind_of(e: EcPipeError) -> String {
        match e {
            EcPipeError::CorruptBlock { chunk, .. } => format!("corrupt at {chunk}"),
            EcPipeError::InvalidRequest { .. } => "invalid".into(),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `fold_into` is `c * get_range ^ incoming`, on every store the runtime
    /// ships and on the trait's default: for aligned, unaligned, tail and
    /// empty ranges, for out-of-bounds ones (the same refusal), and — with a
    /// byte flipped under the checksums — for the same `CorruptBlock`
    /// at the same chunk.
    #[test]
    // Reversed ranges are the point: they are what a buggy caller passes.
    #[allow(clippy::reversed_empty_ranges)]
    fn fold_into_agrees_with_get_range_on_every_backend() {
        let root = std::env::temp_dir().join(format!("ecpipe-fold-{}", std::process::id()));
        let mut stores: Vec<(String, Arc<dyn BlockStore>)> = [
            StoreBackend::memory(1),
            StoreBackend::memory_checksummed(1),
            StoreBackend::file(root.join("plain"), 1),
            StoreBackend::file_checksummed(root.join("crc"), 1),
        ]
        .into_iter()
        .map(|backend| (format!("{backend:?}"), backend.build().unwrap().remove(0)))
        .collect();
        stores.push(("trait default".into(), Arc::new(DefaultReader::default())));
        stores.push((
            "checksummed trait default".into(),
            Arc::new(ChecksummedStore::new(DefaultReader::default())),
        ));
        // Three whole 512-byte checksum chunks and a short one.
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let incoming: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 253) as u8).collect();
        let ranges = [
            // Empty, on a chunk edge and inside one, and at the end.
            0..0,
            1024..1024,
            700..700,
            2000..2000,
            // Aligned: one chunk, two, the short tail, the whole block.
            0..512,
            512..1536,
            1536..2000,
            0..2000,
            // Unaligned: inside a chunk, straddling chunks, ending at the tail.
            10..20,
            500..1030,
            1500..2000,
            // Refused: reversed, or past the end.
            5..3,
            1024..512,
            1990..2001,
            2048..4096,
        ];
        let id = block(4, 2);
        for (name, store) in &stores {
            store.put(id, Bytes::from(data.clone())).unwrap();
            for rotten in [false, true] {
                if rotten {
                    // Chunk 2; undetectable on the stores without checksums.
                    store.corrupt(id, 1100).unwrap();
                }
                let reader = store.reader(id).unwrap();
                if rotten && name.to_lowercase().contains("checksummed") {
                    let whole = folded(&*reader, 0..2000, Gf256::new(3), None);
                    assert_eq!(whole, Err("corrupt at 2".into()), "{name}");
                }
                for range in ranges.clone() {
                    let got = store.get_range(id, range.clone()).map_err(kind_of);
                    for coeff in [0u8, 1, 0x8e] {
                        for incoming in [None, Some(&incoming[..range.len()])] {
                            let expected = got.as_ref().map(|bytes| {
                                let mut out = vec![0; bytes.len()];
                                gf256::fold(Gf256::new(coeff), bytes, incoming, &mut out);
                                out
                            });
                            let folded =
                                folded(&*reader, range.clone(), Gf256::new(coeff), incoming);
                            assert_eq!(
                                folded,
                                expected.map_err(Clone::clone),
                                "{name} {range:?} coeff {coeff} rotten {rotten} incoming {}",
                                incoming.is_some()
                            );
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ecpipe-test-{}", std::process::id()));
        let store = FileStore::open(&dir).unwrap();
        store.put(block(7, 2), Bytes::from_static(b"abc")).unwrap();
        assert!(store.contains(block(7, 2)));
        assert_eq!(store.get(block(7, 2)).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(store.list(), vec![block(7, 2)]);
        assert_eq!(
            store.get_range(block(7, 2), 1..3).unwrap(),
            Bytes::from_static(b"bc")
        );
        assert!(store.delete(block(7, 2)).unwrap());
        assert!(!store.contains(block(7, 2)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_range_reads_do_slice_sized_io() {
        let dir = std::env::temp_dir().join(format!("ecpipe-range-{}", std::process::id()));
        let store = FileStore::open(&dir).unwrap();
        const BLOCK: usize = 64 * 1024;
        store
            .put(block(1, 0), Bytes::from(vec![0xAB; BLOCK]))
            .unwrap();
        let before = store.bytes_read();
        let data = store.get_range(block(1, 0), 4096..4096 + 512).unwrap();
        assert_eq!(data, Bytes::from(vec![0xAB; 512]));
        // The pin: a 512-byte slice read must cost 512 bytes of disk I/O,
        // not the whole 64 KiB block the default implementation would load.
        assert_eq!(store.bytes_read() - before, 512);
        let before = store.bytes_read();
        store.get(block(1, 0)).unwrap();
        assert_eq!(store.bytes_read() - before, BLOCK as u64);
        // Out-of-bounds and missing-block errors match the default impl.
        assert!(matches!(
            store.get_range(block(1, 0), BLOCK - 10..BLOCK + 1),
            Err(EcPipeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            store.get_range(block(9, 9), 0..1),
            Err(EcPipeError::BlockNotFound { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_readers_never_see_a_torn_block() {
        // A reader racing overwrites of one block sees one whole pattern or
        // the other (or, on another store, nothing) — never a mix. The
        // barrier starts both sides together; the writer's last act is the
        // flag, so the reader keeps reading across every overwrite.
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let dir = std::env::temp_dir().join(format!("ecpipe-torn-{}", std::process::id()));
        let store = FileStore::open(&dir).unwrap();
        const BLOCK: usize = 1 << 20;
        let patterns = [
            Bytes::from(vec![0x11; BLOCK]),
            Bytes::from(vec![0xEE; BLOCK]),
        ];
        store.put(block(3, 1), patterns[0].clone()).unwrap();
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for round in 1..=200 {
                    store.put(block(3, 1), patterns[round % 2].clone()).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            start.wait();
            let mut reads = 0;
            while !done.load(Ordering::SeqCst) || reads == 0 {
                match store.get(block(3, 1)) {
                    Ok(data) => assert!(
                        patterns.contains(&data),
                        "torn block after {reads} reads: {} bytes, from {:?} to {:?}",
                        data.len(),
                        data.first(),
                        data.last()
                    ),
                    Err(EcPipeError::BlockNotFound { .. }) => {}
                    Err(other) => panic!("unexpected {other:?}"),
                }
                reads += 1;
            }
        });
        // The temporary names are gone, and were never blocks.
        assert_eq!(store.list(), vec![block(3, 1)]);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_verify_and_corrupt_hooks() {
        let store = MemoryStore::new();
        store
            .put(block(4, 0), Bytes::from_static(b"abcdef"))
            .unwrap();
        assert!(store.verify(block(4, 0)).is_ok());
        assert!(matches!(
            store.verify(block(4, 1)),
            Err(EcPipeError::BlockNotFound { .. })
        ));
        store.corrupt(block(4, 0), 2).unwrap();
        let data = store.get(block(4, 0)).unwrap();
        assert_eq!(data[2], b'c' ^ 0xFF, "the byte really flipped");
        // A plain store keeps no checksums, so the rot passes verify().
        assert!(store.verify(block(4, 0)).is_ok());
        assert!(store.corrupt(block(4, 0), 100).is_err());
    }

    #[test]
    fn block_name_parsing() {
        assert_eq!(parse_block_name("s12b3"), Some(BlockId::new(12, 3)));
        assert_eq!(parse_block_name("garbage"), None);
        assert_eq!(parse_block_name("s1x2"), None);
        // The temporary name of a `FileStore::put` in flight.
        assert_eq!(parse_block_name("s12b3.tmp7"), None);
    }
}
