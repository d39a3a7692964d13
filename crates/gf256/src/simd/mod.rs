//! Runtime-dispatched vectorized slice kernels.
//!
//! The repair hot loop is `partial[j] ^= a_i * B_i[j]` over whole slices.
//! A scalar 64 KiB table lookup moves about one byte per load; the ISA-L
//! technique instead splits each coefficient's 256-entry product table into
//! two 16-entry nibble tables (`tables::MUL_LO` / `tables::MUL_HI`) that
//! fit a vector register, so a single byte
//! shuffle (`pshufb` on x86, `vtbl` on aarch64) computes 16–32 products per
//! instruction.
//!
//! Encoding, decoding and multi-block repair compute several such sums over
//! the same slices at once. [`Kernels::dot_prod`] fuses them: it splits each
//! source vector into nibbles once, keeps up to four outputs' accumulators in
//! registers across all the sources and stores each output once, instead of
//! one pass over memory per coefficient (ISA-L's `gf_Nvect_dot_prod`).
//!
//! The kernel path is selected once per process, on first use:
//!
//! | ISA      | path                         | selected when                |
//! |----------|------------------------------|------------------------------|
//! | x86/-64  | [`KernelPath::Avx2`]         | `avx2` detected at runtime   |
//! | x86/-64  | [`KernelPath::Ssse3`]        | `ssse3` detected, no AVX2    |
//! | aarch64  | [`KernelPath::Neon`]         | always (NEON is baseline)    |
//! | any      | [`KernelPath::Scalar`]       | fallback and proptest oracle |
//!
//! Set `ECPIPE_GF_FORCE=scalar|ssse3|avx2|neon` to pin a specific path —
//! forcing a path the host cannot run (or an unknown name) panics on first
//! kernel use rather than silently falling back, so a CI matrix never
//! believes it tested a path it did not. Tests can instead address every
//! supported path directly through [`Kernels::for_path`].
//!
//! The same selection carries the block-integrity checksum,
//! [`Kernels::crc32`]: CRC-32 is polynomial division over GF(2) and
//! carry-less multiply is its kernel, so it lives beside the other ISA code.
//! There are two implementations: a portable slicing-by-16 table kernel
//! (the `Scalar` and `Neon` paths, and every input shorter than 64 bytes),
//! and 4×128-bit `pclmulqdq` folding on the `Ssse3`/`Avx2` paths when the
//! host has that instruction. The force names a GF path, not a CRC one:
//! `ssse3`/`avx2` forced on a host without `pclmulqdq` checksum portably.
//!
//! A helper's whole job on a slice of a checksummed block is both at once:
//! check each chunk's CRC-32, then fold `a_i * B_i` into the partial sum it
//! forwards. [`Kernels::verify_fold`] does that in one pass over the slice.
//! On the `Avx2` path (with `pclmulqdq`) one loop feeds each 64 bytes to the
//! CRC folding lanes and to the `vpshufb` multiply; the other paths compose
//! their CRC and multiply kernels chunk by chunk, while the chunk is still
//! in L1.
//!
//! All `unsafe` in this crate lives in the per-ISA submodules of this
//! module (`simd/x86.rs`, `simd/neon.rs`); `cargo run -p xtask -- lint`
//! rejects `unsafe` anywhere else in the workspace and requires a
//! `// SAFETY:` comment on every block here.

use std::ops::Range;
use std::sync::OnceLock;

#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
use crate::tables::{MUL_HI, MUL_LO};
use crate::{Gf256, Matrix};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

mod scalar;

/// Which vectorized implementation backs the slice kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelPath {
    /// Portable table-lookup loops; always available, and the oracle the
    /// SIMD paths are proptested against.
    Scalar,
    /// 128-bit `pshufb` split-table kernels (x86/x86_64 with SSSE3).
    Ssse3,
    /// 256-bit `vpshufb` split-table kernels (x86/x86_64 with AVX2).
    Avx2,
    /// 128-bit `vtbl` split-table kernels (aarch64; NEON is baseline there).
    Neon,
}

impl KernelPath {
    /// The lower-case name used by `ECPIPE_GF_FORCE` and in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Ssse3 => "ssse3",
            KernelPath::Avx2 => "avx2",
            KernelPath::Neon => "neon",
        }
    }

    /// Parses an `ECPIPE_GF_FORCE` value.
    pub fn parse(name: &str) -> Option<KernelPath> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelPath::Scalar),
            "ssse3" => Some(KernelPath::Ssse3),
            "avx2" => Some(KernelPath::Avx2),
            "neon" => Some(KernelPath::Neon),
            _ => None,
        }
    }

    /// Whether this host can execute the path.
    pub fn supported(&self) -> bool {
        match self {
            KernelPath::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelPath::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            KernelPath::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every path this host can execute, fastest first.
    pub fn supported_paths() -> Vec<KernelPath> {
        [
            KernelPath::Avx2,
            KernelPath::Ssse3,
            KernelPath::Neon,
            KernelPath::Scalar,
        ]
        .into_iter()
        .filter(KernelPath::supported)
        .collect()
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// One implementation of the four slice kernels, the fused dot product,
/// the CRC-32 checksum and the checked helper fold.
///
/// The bulk entry points ([`crate::mul_slice`] and friends) delegate to
/// [`Kernels::active`]; tests address a specific path through
/// [`Kernels::for_path`] regardless of what the process-wide selection
/// picked.
pub struct Kernels {
    path: KernelPath,
    // The raw per-path loops. Coefficient fast paths (0 and 1) and length
    // checks are handled once in the wrapper methods below, so the loops
    // only ever see a general coefficient.
    mul: fn(u8, &[u8], &mut [u8]),
    mul_add: fn(u8, &[u8], &mut [u8]),
    add: fn(&[u8], &mut [u8]),
    dot: DotFn,
    // Raw CRC-32 state update (no pre/post inversion), so a vector body and
    // a portable tail compose.
    crc: fn(u32, &[u8]) -> u32,
    verify_fold: VerifyFoldFn,
}

/// [`Kernels::verify_fold`] once its arguments are checked. The kernels
/// come first so that a path without a fused loop can compose its own.
type VerifyFoldFn =
    fn(&Kernels, Gf256, &mut [u8], Option<&[u8]>, &[u32], usize) -> Result<(), usize>;

/// The checked fold of every path without a fused loop: per chunk, the
/// path's CRC over the chunk as read, then its fold, while the chunk is
/// still in L1.
fn verify_fold_composed(
    kernels: &Kernels,
    coeff: Gf256,
    data: &mut [u8],
    incoming: Option<&[u8]>,
    sums: &[u32],
    chunk_size: usize,
) -> Result<(), usize> {
    let mut tmp = [0u8; FOLD_PIECE];
    let chunks = data
        .chunks_mut(chunk_size)
        .zip(pieces_of(incoming, chunk_size));
    for (i, (chunk, incoming)) in chunks.enumerate() {
        if sums.get(i) != Some(&kernels.crc32(chunk)) {
            return Err(i);
        }
        kernels.fold_staged(coeff, chunk, incoming, &mut tmp);
    }
    Ok(())
}

/// The bytes [`Kernels::fold`] and [`Kernels::fold_in_place`] take per
/// step: small enough that a piece written by one kernel is still in L1
/// when the next reads it, so a fold is one pass over memory.
const FOLD_PIECE: usize = 4096;

/// The fused dot product over one row group (at most [`DOT_ROWS`] outputs,
/// coefficients row-major) and one column range; the flag selects accumulate
/// over overwrite. No coefficient fast paths: 0 and 1 are ordinary table
/// rows.
type DotFn = fn(&[Gf256], &[&[u8]], &mut [&mut [u8]], Range<usize>, bool);

static SCALAR: Kernels = Kernels {
    path: KernelPath::Scalar,
    mul: scalar::mul,
    mul_add: scalar::mul_add,
    add: scalar::add,
    dot: scalar::dot,
    crc: scalar::crc32,
    verify_fold: verify_fold_composed,
};

/// Output rows one fused pass computes. Each source vector is loaded and
/// nibble-split once per pass and feeds every row's accumulator, so the
/// accumulators, the two nibble vectors, the mask and a pair of tables in
/// flight must all stay in vector registers: four rows is the most that
/// fits the sixteen of SSSE3/AVX2 (ISA-L stops at the same width), and it
/// is the parity count of the paper's (14,10) code.
const DOT_ROWS: usize = 4;

/// Sources one vector pass takes; a longer dot product continues as
/// accumulating passes over the same columns. Bounds the packed tables
/// [`dot_whole_lanes`] keeps on the stack (`DOT_ROWS` × this × 32 bytes).
const DOT_SOURCES: usize = 16;

/// One coefficient's low- and high-nibble product tables, side by side.
type NibbleTables = [u8; 32];

/// Columns handled before the next row group starts over on the same
/// sources. More than `DOT_ROWS` outputs take several passes; cutting the
/// block into strips lets every pass after the first read its sources from
/// cache rather than DRAM (sixteen sources of one strip are 64 KiB).
const DOT_STRIP: usize = 4096;

/// The part of a vector path's `dot` that is not vector code: runs `body` on
/// the whole `lane`-byte vectors of `cols`, at most [`DOT_SOURCES`] sources
/// at a time, and leaves the sub-lane tail to the scalar loop.
///
/// `body` gets the nibble tables of the coefficients it needs packed in the
/// order it reads them — source-major, a table per output row for each
/// source — so its inner loop walks one short array instead of looking each
/// coefficient up in the 8 KiB of [`MUL_LO`] and [`MUL_HI`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
fn dot_whole_lanes(
    lane: usize,
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    dsts: &mut [&mut [u8]],
    cols: Range<usize>,
    accumulate: bool,
    body: impl Fn(&[NibbleTables], &[&[u8]], &mut [&mut [u8]], Range<usize>, bool),
) {
    let (rows, n) = (dsts.len(), srcs.len());
    assert!(rows <= DOT_ROWS && coeffs.len() == rows * n);
    let split = cols.end - cols.len() % lane;
    let mut tables = [[0u8; 32]; DOT_ROWS * DOT_SOURCES];
    for (pass, pass_srcs) in srcs.chunks(DOT_SOURCES).enumerate() {
        let first = pass * DOT_SOURCES;
        let tables = &mut tables[..rows * pass_srcs.len()];
        for (j, of_source) in tables.chunks_exact_mut(rows).enumerate() {
            for (r, table) in of_source.iter_mut().enumerate() {
                let coeff = coeffs[r * n + first + j].0 as usize;
                table[..16].copy_from_slice(&MUL_LO[coeff]);
                table[16..].copy_from_slice(&MUL_HI[coeff]);
            }
        }
        body(
            tables,
            pass_srcs,
            dsts,
            cols.start..split,
            accumulate || pass > 0,
        );
    }
    scalar::dot(coeffs, srcs, dsts, split..cols.end, accumulate);
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

impl Kernels {
    /// The process-wide kernel selection: the best supported path, or the
    /// one `ECPIPE_GF_FORCE` pins. Selected once, on first use.
    ///
    /// # Panics
    ///
    /// Panics if `ECPIPE_GF_FORCE` names an unknown kernel or one this host
    /// cannot execute — an explicit override must never silently fall back.
    pub fn active() -> &'static Kernels {
        ACTIVE.get_or_init(|| {
            let path = match std::env::var("ECPIPE_GF_FORCE") {
                Ok(value) if !value.is_empty() => {
                    let path = KernelPath::parse(&value).unwrap_or_else(|| {
                        panic!(
                            "ECPIPE_GF_FORCE={value:?} names no kernel \
                             (expected scalar|ssse3|avx2|neon)"
                        )
                    });
                    assert!(
                        path.supported(),
                        "ECPIPE_GF_FORCE={} but this host cannot execute that path \
                         (supported: {})",
                        path.name(),
                        KernelPath::supported_paths()
                            .iter()
                            .map(KernelPath::name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    path
                }
                _ => *KernelPath::supported_paths()
                    .first()
                    .expect("scalar is always supported"),
            };
            Kernels::for_path(path).expect("selection checked support")
        })
    }

    /// The kernels for one specific path, if this host supports it. The
    /// scalar path is always available.
    pub fn for_path(path: KernelPath) -> Option<&'static Kernels> {
        if !path.supported() {
            return None;
        }
        match path {
            KernelPath::Scalar => Some(&SCALAR),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelPath::Ssse3 => Some(&x86::SSSE3),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelPath::Avx2 => Some(&x86::AVX2),
            #[cfg(target_arch = "aarch64")]
            KernelPath::Neon => Some(&neon::NEON),
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }

    /// Which path these kernels implement.
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// `dst[j] = coeff * src[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn mul_slice(&self, coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "mul_slice: src and dst must have equal length"
        );
        if coeff.is_zero() {
            dst.fill(0);
        } else if coeff == Gf256::ONE {
            dst.copy_from_slice(src);
        } else {
            (self.mul)(coeff.value(), src, dst);
        }
    }

    /// `dst[j] ^= coeff * src[j]` (multiply-accumulate).
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn mul_add_slice(&self, coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "mul_add_slice: src and dst must have equal length"
        );
        if coeff.is_zero() {
            return;
        }
        if coeff == Gf256::ONE {
            (self.add)(src, dst);
        } else {
            (self.mul_add)(coeff.value(), src, dst);
        }
    }

    /// `dst[j] ^= src[j]` (plain XOR accumulate).
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn add_slice(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "add_slice: src and dst must have equal length"
        );
        (self.add)(src, dst);
    }

    /// The fused multi-row dot product, a matrix times a vector of blocks:
    /// `dsts[r][i] = Σ_j coeffs[r][j] · srcs[j][i]`, or `dsts[r][i] ^= …`
    /// when `accumulate` is set. All of a stripe's parities (encode), all of
    /// its lost blocks (decode) or all the partial sums a helper forwards
    /// (multi-block repair) come out of one pass over the sources, where a
    /// [`mul_add_slice`](Kernels::mul_add_slice) per coefficient would
    /// stream every source once per output and read-modify-write every
    /// output once per source.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is not `dsts.len()` × `srcs.len()`, or if the
    /// sources and outputs are not all of one length.
    pub fn dot_prod(
        &self,
        coeffs: &Matrix,
        srcs: &[&[u8]],
        dsts: &mut [&mut [u8]],
        accumulate: bool,
    ) {
        assert_eq!(
            (coeffs.rows(), coeffs.cols()),
            (dsts.len(), srcs.len()),
            "dot_prod: coeffs must have a row per output and a column per source"
        );
        let len = srcs[0].len();
        assert!(
            srcs.iter().all(|s| s.len() == len) && dsts.iter().all(|d| d.len() == len),
            "dot_prod: sources and outputs must have equal length"
        );
        let group_coeffs = coeffs.elements().chunks(DOT_ROWS * srcs.len());
        for start in (0..len).step_by(DOT_STRIP) {
            let cols = start..len.min(start + DOT_STRIP);
            for (group, rows) in dsts.chunks_mut(DOT_ROWS).zip(group_coeffs.clone()) {
                (self.dot)(rows, srcs, group, cols.clone(), accumulate);
            }
        }
    }

    /// CRC-32 (IEEE 802.3, the zlib/`cksum -o 3` dialect: reflected
    /// polynomial `0xEDB88320`, initial state and final XOR `0xFFFFFFFF`) of
    /// `data`.
    pub fn crc32(&self, data: &[u8]) -> u32 {
        !(self.crc)(!0, data)
    }

    /// `data[j] = coeff * data[j]` in place.
    pub fn scale_slice_in_place(&self, coeff: Gf256, data: &mut [u8]) {
        self.fold_in_place(coeff, data, None);
    }

    /// `dst[j] = coeff * src[j] ^ incoming[j]` (`incoming` absent: zero),
    /// the helper's fold of its own slice into the partial sum it
    /// received, as one pass over memory.
    ///
    /// # Panics
    ///
    /// Panics if `src`, `dst` and `incoming` are not all of one length.
    pub fn fold(&self, coeff: Gf256, src: &[u8], incoming: Option<&[u8]>, dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "fold: src and dst must have equal length"
        );
        check_incoming(incoming, dst.len());
        let pieces = src.chunks(FOLD_PIECE).zip(dst.chunks_mut(FOLD_PIECE));
        for ((src, dst), incoming) in pieces.zip(pieces_of(incoming, FOLD_PIECE)) {
            self.mul_slice(coeff, src, dst);
            if let Some(incoming) = incoming {
                (self.add)(incoming, dst);
            }
        }
    }

    /// `data[j] = coeff * data[j] ^ incoming[j]` (`incoming` absent: zero)
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if `incoming` is not as long as `data`.
    pub fn fold_in_place(&self, coeff: Gf256, data: &mut [u8], incoming: Option<&[u8]>) {
        check_incoming(incoming, data.len());
        // A fold by one into nothing (a plain read) leaves `data` as it is.
        if coeff != Gf256::ONE || incoming.is_some() {
            self.fold_staged(coeff, data, incoming, &mut [0; FOLD_PIECE]);
        }
    }

    /// [`fold_in_place`](Self::fold_in_place) with its staging buffer
    /// passed in, so a caller folding chunk after chunk clears one buffer,
    /// not one per chunk. `incoming` is as long as `data`.
    fn fold_staged(
        &self,
        coeff: Gf256,
        data: &mut [u8],
        incoming: Option<&[u8]>,
        tmp: &mut [u8; FOLD_PIECE],
    ) {
        if coeff == Gf256::ONE {
            if let Some(incoming) = incoming {
                (self.add)(incoming, data);
            }
            return;
        }
        // The `mul` loops take distinct src/dst slices, which an in-place
        // fold cannot provide without aliasing. Rather than duplicating
        // every vector loop in an in-place variant, stage each piece
        // through a stack buffer: it stays in L1 and the vector kernels are
        // shared.
        let pieces = data.chunks_mut(FOLD_PIECE);
        for (piece, incoming) in pieces.zip(pieces_of(incoming, FOLD_PIECE)) {
            let tmp = &mut tmp[..piece.len()];
            tmp.copy_from_slice(piece);
            self.fold(coeff, tmp, incoming, piece);
        }
    }

    /// The checked helper fold: for each `chunk_size`-byte chunk of `data`
    /// (the last may be shorter), checks the CRC-32 of the chunk as read
    /// against `sums[i]`, and leaves `coeff * data ^ incoming` in its
    /// place. One pass: each chunk is read once for both.
    ///
    /// Returns the index of the first chunk whose checksum does not match,
    /// or that has no entry in `sums`. From that chunk on `data` holds
    /// unspecified bytes; the caller must not use them.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or `incoming` is not as long as
    /// `data`.
    pub fn verify_fold(
        &self,
        coeff: Gf256,
        data: &mut [u8],
        incoming: Option<&[u8]>,
        sums: &[u32],
        chunk_size: usize,
    ) -> Result<(), usize> {
        assert!(chunk_size > 0, "verify_fold: chunk_size must be non-zero");
        check_incoming(incoming, data.len());
        (self.verify_fold)(self, coeff, data, incoming, sums, chunk_size)
    }
}

/// The length rule of every fold: the partial sum it adds, if any, is as
/// long as the buffer it folds into.
fn check_incoming(incoming: Option<&[u8]>, len: usize) {
    if let Some(incoming) = incoming {
        assert_eq!(
            incoming.len(),
            len,
            "fold: incoming must be as long as the buffer it folds into"
        );
    }
}

/// The `piece`-byte pieces of `incoming` that a fold, piece by piece, adds
/// to the pieces of the buffer it folds into — or `None` for every piece,
/// with no `incoming`.
fn pieces_of(incoming: Option<&[u8]>, piece: usize) -> impl Iterator<Item = Option<&[u8]>> {
    let mut pieces = incoming.map(|incoming| incoming.chunks(piece));
    std::iter::from_fn(move || Some(pieces.as_mut().and_then(Iterator::next)))
}

/// The path the process-wide selection resolved to (selecting it now if
/// this is the first kernel use).
pub fn active_path() -> KernelPath {
    Kernels::active().path()
}

/// How many times this process has entered the `pclmulqdq` CRC kernel, or
/// `None` where that is not counted (release builds, non-x86 targets). Test
/// instrumentation: lets a forced-`scalar` process prove it never got there.
#[doc(hidden)]
pub fn crc32_pclmul_calls() -> Option<usize> {
    #[cfg(all(debug_assertions, any(target_arch = "x86", target_arch = "x86_64")))]
    {
        Some(x86::CRC_PCLMUL_CALLS.load(std::sync::atomic::Ordering::Relaxed))
    }
    #[cfg(not(all(debug_assertions, any(target_arch = "x86", target_arch = "x86_64"))))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_first_fallback() {
        assert!(KernelPath::Scalar.supported());
        let paths = KernelPath::supported_paths();
        assert_eq!(paths.last(), Some(&KernelPath::Scalar));
        // Every supported path resolves to kernels reporting that path.
        for path in paths {
            assert_eq!(Kernels::for_path(path).unwrap().path(), path);
        }
    }

    #[test]
    fn parse_accepts_known_names_case_insensitively() {
        assert_eq!(KernelPath::parse("scalar"), Some(KernelPath::Scalar));
        assert_eq!(KernelPath::parse(" AVX2 "), Some(KernelPath::Avx2));
        assert_eq!(KernelPath::parse("Ssse3"), Some(KernelPath::Ssse3));
        assert_eq!(KernelPath::parse("neon"), Some(KernelPath::Neon));
        assert_eq!(KernelPath::parse("sse9"), None);
        for path in KernelPath::supported_paths() {
            assert_eq!(KernelPath::parse(path.name()), Some(path));
        }
    }

    #[test]
    fn unsupported_paths_yield_no_kernels() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        assert!(Kernels::for_path(KernelPath::Neon).is_none());
        #[cfg(target_arch = "aarch64")]
        assert!(Kernels::for_path(KernelPath::Avx2).is_none());
    }

    #[test]
    fn active_selection_is_supported() {
        let active = Kernels::active();
        assert!(active.path().supported());
        // The selection is sticky: a second call returns the same kernels.
        assert!(std::ptr::eq(active, Kernels::active()));
    }

    #[test]
    fn scale_matches_mul_on_every_path() {
        for path in KernelPath::supported_paths() {
            let kernels = Kernels::for_path(path).unwrap();
            // Cross the 4 KiB staging buffer inside scale_slice_in_place.
            let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
            for coeff in [0u8, 1, 2, 0x1d, 0xfe] {
                let mut scaled = data.clone();
                kernels.scale_slice_in_place(Gf256::new(coeff), &mut scaled);
                let mut expected = vec![0u8; data.len()];
                kernels.mul_slice(Gf256::new(coeff), &data, &mut expected);
                assert_eq!(scaled, expected, "path {path} coeff {coeff}");
            }
        }
    }
}
