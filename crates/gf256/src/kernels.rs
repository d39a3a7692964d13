//! Bulk slice kernels.
//!
//! During a repair every helper combines its locally stored slice `B_i` into
//! a partial sum using a decoding coefficient `a_i`:
//! `partial += a_i * B_i`. These kernels are the byte-level inner loops for
//! that operation, working on whole slices at a time.
//!
//! [`crc32`] is the checksum the integrity layer puts on every chunk of those
//! slices; it rides the same dispatch. [`verify_fold`] is a helper's whole
//! job on a slice of a checksummed block — check, scale, fold — in one pass.
//!
//! Each call delegates to the process-wide kernel selection made by
//! [`crate::simd::Kernels::active`] — vectorized split-table loops where the
//! host supports them, the portable scalar loops otherwise. See the
//! [`crate::simd`] module for the dispatch rules and the
//! `ECPIPE_GF_FORCE` override.

use crate::simd::Kernels;
use crate::{Gf256, Matrix};

/// Computes `dst[j] = coeff * src[j]` for every byte.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    Kernels::active().mul_slice(coeff, src, dst);
}

/// Computes `dst[j] ^= coeff * src[j]` for every byte (multiply-accumulate).
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_add_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    Kernels::active().mul_add_slice(coeff, src, dst);
}

/// Computes `dst[j] ^= src[j]` for every byte (plain XOR accumulate).
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn add_slice(src: &[u8], dst: &mut [u8]) {
    Kernels::active().add_slice(src, dst);
}

/// The fused multi-row dot product `dsts[r] = Σ_j coeffs[r][j] · srcs[j]`
/// (`dsts[r] ^= …` when `accumulate` is set): every output of a matrix
/// times a vector of equal-length blocks in one pass over the sources.
///
/// ```
/// use gf256::Matrix;
/// let coeffs = Matrix::from_bytes(2, 2, &[1, 1, 1, 2]);
/// let (a, b) = ([1u8, 2, 3], [4u8, 5, 6]);
/// let (mut p, mut q) = ([0u8; 3], [0u8; 3]);
/// gf256::dot_prod(&coeffs, &[&a, &b], &mut [&mut p, &mut q], false);
/// assert_eq!(p, [1 ^ 4, 2 ^ 5, 3 ^ 6]);
/// assert_eq!(q, [1 ^ 8, 2 ^ 10, 3 ^ 12]);
/// ```
///
/// # Panics
///
/// Panics if `coeffs` is not `dsts.len()` × `srcs.len()`, or if the sources
/// and outputs are not all of one length.
pub fn dot_prod(coeffs: &Matrix, srcs: &[&[u8]], dsts: &mut [&mut [u8]], accumulate: bool) {
    Kernels::active().dot_prod(coeffs, srcs, dsts, accumulate);
}

/// Scales a slice in place: `data[j] = coeff * data[j]`.
pub fn scale_slice_in_place(coeff: Gf256, data: &mut [u8]) {
    Kernels::active().scale_slice_in_place(coeff, data);
}

/// The helper's fold, one pass over memory: `dst[j] = coeff * src[j] ^
/// incoming[j]`, or `coeff * src[j]` with no `incoming`.
///
/// ```
/// use gf256::Gf256;
/// let mut dst = [0u8; 3];
/// gf256::fold(Gf256::new(2), &[1, 2, 3], Some(&[1, 1, 1]), &mut dst);
/// assert_eq!(dst, [2 ^ 1, 4 ^ 1, 6 ^ 1]);
/// ```
///
/// # Panics
///
/// Panics if `src`, `dst` and `incoming` are not all of one length.
pub fn fold(coeff: Gf256, src: &[u8], incoming: Option<&[u8]>, dst: &mut [u8]) {
    Kernels::active().fold(coeff, src, incoming, dst);
}

/// The helper's fold in place: `data[j] = coeff * data[j] ^ incoming[j]`.
///
/// # Panics
///
/// Panics if `incoming` is not as long as `data`.
pub fn fold_in_place(coeff: Gf256, data: &mut [u8], incoming: Option<&[u8]>) {
    Kernels::active().fold_in_place(coeff, data, incoming);
}

/// The checked helper fold over a slice just read from a checksummed block:
/// checks each `chunk_size`-byte chunk's CRC-32 against `sums` and leaves
/// `coeff * data ^ incoming` in its place, in one pass. Returns the index of
/// the first chunk that fails (its bytes, and those after it, are then
/// unspecified). See [`Kernels::verify_fold`].
///
/// ```
/// use gf256::Gf256;
/// let mut data = *b"0123456789";
/// let sums = [gf256::crc32(b"01234"), gf256::crc32(b"56789")];
/// assert_eq!(gf256::verify_fold(Gf256::ONE, &mut data, None, &sums, 5), Ok(()));
/// assert_eq!(gf256::verify_fold(Gf256::ONE, &mut data, None, &[sums[0], 0], 5), Err(1));
/// ```
///
/// # Panics
///
/// Panics if `chunk_size` is zero or `incoming` is not as long as `data`.
pub fn verify_fold(
    coeff: Gf256,
    data: &mut [u8],
    incoming: Option<&[u8]>,
    sums: &[u32],
    chunk_size: usize,
) -> Result<(), usize> {
    Kernels::active().verify_fold(coeff, data, incoming, sums, chunk_size)
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum` dialect) of `data`.
///
/// ```
/// assert_eq!(gf256::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(gf256::crc32(b""), 0);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    Kernels::active().crc32(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_mul(coeff: u8, src: &[u8]) -> Vec<u8> {
        src.iter()
            .map(|&s| (Gf256(coeff) * Gf256(s)).value())
            .collect()
    }

    #[test]
    fn mul_slice_zero_coeff_clears() {
        let src = vec![1, 2, 3, 4];
        let mut dst = vec![9, 9, 9, 9];
        mul_slice(Gf256::ZERO, &src, &mut dst);
        assert_eq!(dst, vec![0, 0, 0, 0]);
    }

    #[test]
    fn mul_slice_one_coeff_copies() {
        let src = vec![1, 2, 3, 4];
        let mut dst = vec![0; 4];
        mul_slice(Gf256::ONE, &src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mul_slice_length_mismatch_panics() {
        let src = vec![1, 2, 3];
        let mut dst = vec![0; 4];
        mul_slice(Gf256::ONE, &src, &mut dst);
    }

    #[test]
    fn mul_add_slice_zero_coeff_is_noop() {
        let src = vec![1, 2, 3, 4];
        let mut dst = vec![5, 6, 7, 8];
        mul_add_slice(Gf256::ZERO, &src, &mut dst);
        assert_eq!(dst, vec![5, 6, 7, 8]);
    }

    proptest! {
        #[test]
        fn mul_slice_matches_scalar(coeff in any::<u8>(), src in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut dst = vec![0u8; src.len()];
            mul_slice(Gf256(coeff), &src, &mut dst);
            prop_assert_eq!(dst, scalar_mul(coeff, &src));
        }

        #[test]
        fn mul_add_matches_scalar(coeff in any::<u8>(),
                                  src in proptest::collection::vec(any::<u8>(), 0..128),
                                  seed in any::<u8>()) {
            let mut dst = vec![seed; src.len()];
            mul_add_slice(Gf256(coeff), &src, &mut dst);
            let expected: Vec<u8> = scalar_mul(coeff, &src)
                .iter()
                .map(|&v| v ^ seed)
                .collect();
            prop_assert_eq!(dst, expected);
        }

        #[test]
        fn add_slice_is_self_inverse(src in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut dst = vec![0u8; src.len()];
            add_slice(&src, &mut dst);
            add_slice(&src, &mut dst);
            prop_assert!(dst.iter().all(|&b| b == 0));
        }

        #[test]
        fn scale_in_place_matches_mul_slice(coeff in any::<u8>(), src in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut a = src.clone();
            scale_slice_in_place(Gf256(coeff), &mut a);
            let mut b = vec![0u8; src.len()];
            mul_slice(Gf256(coeff), &src, &mut b);
            prop_assert_eq!(a, b);
        }
    }
}
