//! Block/slice partitioning (§3.2, Figure 1 of the paper).
//!
//! Repair pipelining decomposes the repair of a block into the repair of `s`
//! small fixed-size units called slices. A [`SliceLayout`] describes how a
//! block of a given size is cut into slices and provides the byte ranges the
//! runtime and the simulator both use.

use serde::{Deserialize, Serialize};

/// One kibibyte in bytes.
pub const KIB: usize = 1024;
/// One mebibyte in bytes.
pub const MIB: usize = 1024 * 1024;

/// The default block size used throughout the paper's evaluation (64 MiB).
pub const DEFAULT_BLOCK_SIZE: usize = 64 * MIB;
/// The default slice size that performs best in the paper (32 KiB).
pub const DEFAULT_SLICE_SIZE: usize = 32 * KIB;

/// How a block is partitioned into slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceLayout {
    /// Block size in bytes.
    pub block_size: usize,
    /// Slice size in bytes. The final slice may be shorter if the block size
    /// is not a multiple of the slice size.
    pub slice_size: usize,
}

impl SliceLayout {
    /// Creates a layout, clamping the slice size to the block size.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(block_size: usize, slice_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(slice_size > 0, "slice size must be positive");
        SliceLayout {
            block_size,
            slice_size: slice_size.min(block_size),
        }
    }

    /// The paper's default layout: 64 MiB blocks with 32 KiB slices
    /// (`s = 2048`).
    pub fn paper_default() -> Self {
        SliceLayout::new(DEFAULT_BLOCK_SIZE, DEFAULT_SLICE_SIZE)
    }

    /// The number of slices `s` per block.
    pub fn slice_count(&self) -> usize {
        self.block_size.div_ceil(self.slice_size)
    }

    /// The byte range of slice `index` within the block.
    ///
    /// # Panics
    ///
    /// Panics if `index >= slice_count()`.
    pub fn slice_range(&self, index: usize) -> std::ops::Range<usize> {
        assert!(index < self.slice_count(), "slice index out of range");
        let start = index * self.slice_size;
        let end = (start + self.slice_size).min(self.block_size);
        start..end
    }

    /// The length in bytes of slice `index`.
    pub fn slice_len(&self, index: usize) -> usize {
        self.slice_range(index).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_has_2048_slices() {
        let layout = SliceLayout::paper_default();
        assert_eq!(layout.slice_count(), 2048);
        assert_eq!(layout.slice_len(0), 32 * KIB);
    }

    #[test]
    fn slice_size_clamped_to_block() {
        let layout = SliceLayout::new(16, 1024);
        assert_eq!(layout.slice_count(), 1);
        assert_eq!(layout.slice_len(0), 16);
    }

    #[test]
    fn uneven_final_slice() {
        let layout = SliceLayout::new(100, 30);
        assert_eq!(layout.slice_count(), 4);
        assert_eq!(layout.slice_len(0), 30);
        assert_eq!(layout.slice_len(3), 10);
        assert_eq!(layout.slice_range(3), 90..100);
    }

    #[test]
    #[should_panic(expected = "slice index out of range")]
    fn out_of_range_slice_panics() {
        SliceLayout::new(100, 30).slice_range(4);
    }

    proptest! {
        #[test]
        fn ranges_tile_the_block(block_size in 1usize..10_000, slice_size in 1usize..4096) {
            let layout = SliceLayout::new(block_size, slice_size);
            let mut covered = 0usize;
            for i in 0..layout.slice_count() {
                let r = layout.slice_range(i);
                prop_assert_eq!(r.start, covered);
                covered = r.end;
            }
            prop_assert_eq!(covered, block_size);
        }
    }
}
