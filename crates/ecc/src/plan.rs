//! Linear repair plans.
//!
//! Every repair scheme in the paper (conventional, PPR, repair pipelining)
//! reconstructs a failed block as a linear combination of available blocks:
//! `B* = sum_i a_i * B_i` (§2.1). A [`RepairPlan`] captures exactly that: the
//! source block indices and their decoding coefficients. The scheduling of
//! *how* the sum is computed across helpers is the job of the `repair` crate;
//! the plan only states the algebra.

use gf256::Gf256;
use serde::{Deserialize, Serialize};

/// One source block of a repair plan: the block index within the stripe and
/// the decoding coefficient it is multiplied by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairSource {
    /// Index of the source block within the stripe (`0..n`).
    pub block_index: usize,
    /// Decoding coefficient `a_i` (raw byte of the GF(2^8) element).
    pub coefficient: u8,
}

impl RepairSource {
    /// Returns the coefficient as a field element.
    pub fn coeff(&self) -> Gf256 {
        Gf256::new(self.coefficient)
    }
}

/// A single-block repair plan: `B*[failed] = sum(a_i * B_i)` over `sources`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// Index of the failed block being reconstructed.
    pub failed: usize,
    /// Source blocks and coefficients, in ascending block-index order.
    pub sources: Vec<RepairSource>,
}

impl RepairPlan {
    /// The number of helper blocks this plan reads.
    pub fn helper_count(&self) -> usize {
        self.sources.len()
    }

    /// The block indices read by this plan, in plan order.
    pub fn helper_indices(&self) -> Vec<usize> {
        self.sources.iter().map(|s| s.block_index).collect()
    }

    /// Evaluates the plan against full block contents, returning the
    /// reconstructed block. Intended for tests and small examples; the real
    /// pipelined evaluation happens slice-by-slice in the runtime.
    ///
    /// `blocks[i]` must hold the content of stripe block `i` for every index
    /// referenced by the plan.
    ///
    /// # Panics
    ///
    /// Panics if a referenced block is missing or block lengths differ.
    pub fn evaluate(&self, blocks: &[Option<Vec<u8>>]) -> Vec<u8> {
        let first = self.sources.first().expect("plan must have sources");
        let len = blocks[first.block_index]
            .as_ref()
            .expect("source block missing")
            .len();
        let mut acc = vec![0u8; len];
        for src in &self.sources {
            let block = blocks[src.block_index]
                .as_ref()
                .expect("source block missing");
            assert_eq!(block.len(), len, "source blocks must have equal length");
            gf256::mul_add_slice(src.coeff(), block, &mut acc);
        }
        acc
    }
}

/// A multi-block repair plan (§4.4): `f` failed blocks reconstructed from the
/// same set of `k` helpers, each failed block with its own coefficient row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiRepairPlan {
    /// The failed block indices, in ascending order.
    pub failed: Vec<usize>,
    /// The helper block indices shared by all failed blocks.
    pub helpers: Vec<usize>,
    /// `coefficients[j][i]` is the coefficient applied to helper `i` when
    /// reconstructing failed block `j` (raw bytes).
    pub coefficients: Vec<Vec<u8>>,
}

impl MultiRepairPlan {
    /// The number of helpers read.
    pub fn helper_count(&self) -> usize {
        self.helpers.len()
    }

    /// Returns the single-block plan for the `j`-th failed block.
    pub fn single_plan(&self, j: usize) -> RepairPlan {
        RepairPlan {
            failed: self.failed[j],
            sources: self
                .helpers
                .iter()
                .zip(self.coefficients[j].iter())
                .map(|(&block_index, &coefficient)| RepairSource {
                    block_index,
                    coefficient,
                })
                .collect(),
        }
    }

    /// Evaluates every failed block against full block contents (test helper).
    pub fn evaluate(&self, blocks: &[Option<Vec<u8>>]) -> Vec<Vec<u8>> {
        (0..self.failed.len())
            .map(|j| self.single_plan(j).evaluate(blocks))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_simple_xor_plan() {
        // B* = B0 + B2 (coefficients 1).
        let plan = RepairPlan {
            failed: 1,
            sources: vec![
                RepairSource {
                    block_index: 0,
                    coefficient: 1,
                },
                RepairSource {
                    block_index: 2,
                    coefficient: 1,
                },
            ],
        };
        let blocks = vec![Some(vec![0xaa, 0x01]), None, Some(vec![0x55, 0x01])];
        assert_eq!(plan.evaluate(&blocks), vec![0xff, 0x00]);
        assert_eq!(plan.helper_count(), 2);
        assert_eq!(plan.helper_indices(), vec![0, 2]);
    }

    #[test]
    fn multi_plan_single_projection() {
        let multi = MultiRepairPlan {
            failed: vec![3, 5],
            helpers: vec![0, 1],
            coefficients: vec![vec![1, 2], vec![3, 4]],
        };
        assert_eq!(multi.helper_count(), 2);
        let p1 = multi.single_plan(1);
        assert_eq!(p1.failed, 5);
        assert_eq!(p1.sources[0].coefficient, 3);
        assert_eq!(p1.sources[1].coefficient, 4);
    }
}
