//! The common erasure-code interface.

use crate::plan::{MultiRepairPlan, RepairPlan};
use crate::Result;

/// A systematic erasure code over blocks of bytes.
///
/// An `(n, k)` code turns `k` data blocks into `n` coded blocks (a *stripe*)
/// such that any `k` of the `n` blocks suffice to recover the original data
/// (§2.1). Implementations in this crate are systematic: coded blocks
/// `0..k` are the data blocks themselves.
pub trait ErasureCode: Send + Sync {
    /// Total number of blocks per stripe.
    fn n(&self) -> usize;

    /// Number of data blocks per stripe.
    fn k(&self) -> usize;

    /// A short human-readable name (e.g. `"RS(14,10)"`).
    fn name(&self) -> String;

    /// Computes the `n - k` parity blocks of `k` borrowed data blocks, in
    /// stripe order (coded blocks `k..n`), without touching the data.
    ///
    /// All data blocks must have the same length.
    fn encode_parity(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>>;

    /// Encodes `k` data blocks into `n` coded blocks: copies of the inputs
    /// (systematic form) followed by [`encode_parity`](Self::encode_parity)
    /// of them. A caller that already owns its data blocks should call
    /// `encode_parity` and skip the copies.
    fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let blocks: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = self.encode_parity(&blocks)?;
        Ok(data.iter().cloned().chain(parity).collect())
    }

    /// Decodes the original `k` data blocks from at least `k` available
    /// coded blocks, given as `(block_index, content)` pairs.
    fn decode(&self, available: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>>;

    /// Produces a linear single-block repair plan for `failed`, reading only
    /// blocks listed in `available` (stripe indices of intact blocks).
    ///
    /// For MDS codes this reads `k` helpers; repair-friendly codes (LRC) may
    /// read fewer.
    fn repair_plan(&self, failed: usize, available: &[usize]) -> Result<RepairPlan>;

    /// Produces a multi-block repair plan for all blocks in `failed`, using a
    /// shared set of helpers drawn from `available` (§4.4).
    fn multi_repair_plan(&self, failed: &[usize], available: &[usize]) -> Result<MultiRepairPlan>;

    /// The number of block failures this code always tolerates (`n - k` for
    /// MDS codes; LRC tolerates fewer worst-case arbitrary failures).
    fn fault_tolerance(&self) -> usize;
}
