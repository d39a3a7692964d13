//! Systematic Reed-Solomon codes.

use gf256::Matrix;

use crate::plan::{MultiRepairPlan, RepairPlan, RepairSource};
use crate::traits::ErasureCode;
use crate::{linear, CodeError, Result};

/// A systematic `(n, k)` Reed-Solomon code over GF(2^8).
///
/// The generator matrix is an `n x k` Vandermonde matrix transformed into
/// systematic form, so the first `k` coded blocks equal the data blocks and
/// any `k x k` sub-matrix of the generator is invertible (MDS property).
///
/// # Examples
///
/// ```
/// use ecc::{ErasureCode, ReedSolomon};
/// let rs = ReedSolomon::new(6, 4).unwrap();
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
/// let coded = rs.encode(&data).unwrap();
/// // Lose two blocks, decode from the remaining four.
/// let available: Vec<(usize, Vec<u8>)> = vec![
///     (1, coded[1].clone()), (2, coded[2].clone()),
///     (4, coded[4].clone()), (5, coded[5].clone()),
/// ];
/// assert_eq!(rs.decode(&available).unwrap(), data);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Systematic `n x k` generator matrix.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a new `(n, k)` Reed-Solomon code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `k == 0`, `k >= n` or
    /// `n > 256`.
    pub fn new(n: usize, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "k must be positive".to_string(),
            });
        }
        if k >= n {
            return Err(CodeError::InvalidParameters {
                reason: format!("k ({k}) must be smaller than n ({n})"),
            });
        }
        if n > 256 {
            return Err(CodeError::InvalidParameters {
                reason: format!("n ({n}) must not exceed the field size 256"),
            });
        }
        let generator = Matrix::vandermonde(n, k)
            .into_systematic()
            .ok_or(CodeError::SingularMatrix)?;
        Ok(ReedSolomon { n, k, generator })
    }

    /// Returns the systematic generator matrix (`n x k`).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Derives the decoding coefficients of the failed blocks in terms of the
    /// chosen helper blocks: returns an `f x k` coefficient matrix `A` such
    /// that `failed_j = sum_i A[j][i] * helper_i`.
    fn repair_coefficients(&self, failed: &[usize], helpers: &[usize]) -> Result<Vec<Vec<u8>>> {
        // helpers rows of the generator, inverted, give data = D * helpers.
        let helper_rows = self.generator.select_rows(helpers);
        let decode = helper_rows.invert().ok_or(CodeError::SingularMatrix)?;
        // failed_j = g_{failed_j} * data = (g_{failed_j} * D) * helpers.
        let failed_rows = self.generator.select_rows(failed);
        let coeff = failed_rows.mul(&decode);
        Ok((0..failed.len())
            .map(|j| coeff.row(j).iter().map(|c| c.value()).collect())
            .collect())
    }

    fn validate_index(&self, index: usize) -> Result<()> {
        if index >= self.n {
            return Err(CodeError::InvalidBlockIndex { index, n: self.n });
        }
        Ok(())
    }

    fn choose_helpers(&self, failed: &[usize], available: &[usize]) -> Result<Vec<usize>> {
        let mut helpers: Vec<usize> = available
            .iter()
            .copied()
            .filter(|b| !failed.contains(b))
            .collect();
        helpers.dedup();
        if helpers.len() < self.k {
            return Err(CodeError::NotEnoughBlocks {
                needed: self.k,
                available: helpers.len(),
            });
        }
        helpers.truncate(self.k);
        Ok(helpers)
    }
}

impl ErasureCode for ReedSolomon {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("RS({},{})", self.n, self.k)
    }

    fn encode_parity(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>> {
        linear::encode_parity(&self.generator, data)
    }

    fn decode(&self, available: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>> {
        if available.len() < self.k {
            return Err(CodeError::NotEnoughBlocks {
                needed: self.k,
                available: available.len(),
            });
        }
        let chosen = &available[..self.k];
        for (idx, _) in chosen {
            self.validate_index(*idx)?;
        }
        let len = chosen[0].1.len();
        if chosen.iter().any(|(_, b)| b.len() != len) {
            return Err(CodeError::InvalidBlockSize {
                reason: "available blocks must all have the same length".to_string(),
            });
        }
        let indices: Vec<usize> = chosen.iter().map(|(i, _)| *i).collect();
        let sub = self.generator.select_rows(&indices);
        let decode = sub.invert().ok_or(CodeError::SingularMatrix)?;
        // data_j = sum_i decode[j][i] * chosen_i.
        let blocks: Vec<&[u8]> = chosen.iter().map(|(_, b)| b.as_slice()).collect();
        Ok(linear::combine(&decode, &blocks))
    }

    fn repair_plan(&self, failed: usize, available: &[usize]) -> Result<RepairPlan> {
        self.validate_index(failed)?;
        let helpers = self.choose_helpers(&[failed], available)?;
        let coeffs = self.repair_coefficients(&[failed], &helpers)?;
        Ok(RepairPlan {
            failed,
            sources: helpers
                .iter()
                .zip(coeffs[0].iter())
                .map(|(&block_index, &coefficient)| RepairSource {
                    block_index,
                    coefficient,
                })
                .collect(),
        })
    }

    fn multi_repair_plan(&self, failed: &[usize], available: &[usize]) -> Result<MultiRepairPlan> {
        if failed.is_empty() {
            return Err(CodeError::Unrepairable {
                reason: "no failed blocks given".to_string(),
            });
        }
        if failed.len() > self.n - self.k {
            return Err(CodeError::Unrepairable {
                reason: format!(
                    "{} failures exceed fault tolerance {}",
                    failed.len(),
                    self.n - self.k
                ),
            });
        }
        for &f in failed {
            self.validate_index(f)?;
        }
        let mut failed_sorted = failed.to_vec();
        failed_sorted.sort_unstable();
        failed_sorted.dedup();
        let helpers = self.choose_helpers(&failed_sorted, available)?;
        let coefficients = self.repair_coefficients(&failed_sorted, &helpers)?;
        Ok(MultiRepairPlan {
            failed: failed_sorted,
            helpers,
            coefficients,
        })
    }

    fn fault_tolerance(&self) -> usize {
        self.n - self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(4, 4).is_err());
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(300, 10).is_err());
        assert!(ReedSolomon::new(14, 10).is_ok());
    }

    #[test]
    fn systematic_encode_keeps_data() {
        let rs = ReedSolomon::new(9, 6).unwrap();
        let data = random_data(6, 64, 1);
        let coded = rs.encode(&data).unwrap();
        assert_eq!(coded.len(), 9);
        assert_eq!(&coded[..6], &data[..]);
    }

    #[test]
    fn decode_from_parities_only() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let data = random_data(4, 32, 2);
        let coded = rs.encode(&data).unwrap();
        let available: Vec<(usize, Vec<u8>)> = (6..10).map(|i| (i, coded[i].clone())).collect();
        assert_eq!(rs.decode(&available).unwrap(), data);
    }

    #[test]
    fn decode_requires_k_blocks() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let data = random_data(4, 16, 3);
        let coded = rs.encode(&data).unwrap();
        let available: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i, coded[i].clone())).collect();
        assert!(matches!(
            rs.decode(&available),
            Err(CodeError::NotEnoughBlocks {
                needed: 4,
                available: 3
            })
        ));
    }

    #[test]
    fn wrong_block_counts_and_lengths_are_errors_not_panics() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let mut data = random_data(4, 16, 8);
        let coded = rs.encode(&data).unwrap();
        let count = |r: Result<Vec<Vec<u8>>>| matches!(r, Err(CodeError::InvalidBlockSize { reason }) if reason == "expected 4 data blocks, got 3");
        assert!(count(rs.encode(&data[..3])));
        let borrowed: Vec<&[u8]> = data[..3].iter().map(Vec::as_slice).collect();
        assert!(count(rs.encode_parity(&borrowed)));
        data[2].pop();
        let length = |r: Result<Vec<Vec<u8>>>| matches!(r, Err(CodeError::InvalidBlockSize { reason }) if reason == "data blocks must all have the same length");
        assert!(length(rs.encode(&data)));
        let borrowed: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        assert!(length(rs.encode_parity(&borrowed)));
        let mut available: Vec<(usize, Vec<u8>)> = (1..5).map(|i| (i, coded[i].clone())).collect();
        available[3].1.push(0);
        assert!(matches!(
            rs.decode(&available),
            Err(CodeError::InvalidBlockSize { reason }) if reason == "available blocks must all have the same length"
        ));
        available[0].0 = 6;
        assert!(matches!(
            rs.decode(&available),
            Err(CodeError::InvalidBlockIndex { index: 6, n: 6 })
        ));
    }

    #[test]
    fn decode_roundtrips_from_every_k_subset() {
        let rs = ReedSolomon::new(7, 4).unwrap();
        let data = random_data(4, 100, 9);
        let coded = rs.encode(&data).unwrap();
        let mut subsets = 0;
        for mask in 0u32..1 << 7 {
            if mask.count_ones() != 4 {
                continue;
            }
            // Descending order, so the chosen rows are not sorted either.
            let available: Vec<(usize, Vec<u8>)> = (0..7)
                .rev()
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| (i, coded[i].clone()))
                .collect();
            assert_eq!(rs.decode(&available).unwrap(), data, "subset {mask:#09b}");
            subsets += 1;
        }
        assert_eq!(subsets, 35);
    }

    /// SplitMix64 output as bytes: the golden stripe must not depend on any
    /// crate's generator.
    fn seeded_block(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn parity_of_the_golden_stripe_is_bit_identical() {
        // CRC-32 of the four parity blocks of a (14,10) stripe of 1 MiB (and
        // of 1000-byte) blocks, block j = SplitMix64 from seed 0xEC00 + j,
        // as the row-by-row `encode` of commit 6b90720 produced them.
        let rs = ReedSolomon::new(14, 10).unwrap();
        for (len, golden) in [
            (
                1 << 20,
                [0xde1f_d4ed, 0x07c6_4e0c, 0x0bd1_019d, 0xd121_ac98],
            ),
            (1000, [0x12d7_23fa, 0x0b46_6d59, 0x80d3_da64, 0x0f27_abaa]),
        ] {
            let data: Vec<Vec<u8>> = (0..10).map(|j| seeded_block(0xEC00 + j, len)).collect();
            let blocks: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let digests: Vec<u32> = rs
                .encode_parity(&blocks)
                .unwrap()
                .iter()
                .map(|parity| gf256::crc32(parity))
                .collect();
            assert_eq!(digests, golden, "block length {len}");
        }
    }

    #[test]
    fn repair_plan_reconstructs_data_block() {
        let rs = ReedSolomon::new(14, 10).unwrap();
        let data = random_data(10, 128, 4);
        let coded = rs.encode(&data).unwrap();
        let available: Vec<usize> = (0..14).filter(|&i| i != 3).collect();
        let plan = rs.repair_plan(3, &available).unwrap();
        assert_eq!(plan.helper_count(), 10);
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        assert_eq!(plan.evaluate(&blocks), coded[3]);
    }

    #[test]
    fn repair_plan_reconstructs_parity_block() {
        let rs = ReedSolomon::new(9, 6).unwrap();
        let data = random_data(6, 128, 5);
        let coded = rs.encode(&data).unwrap();
        let available: Vec<usize> = (0..9).filter(|&i| i != 8).collect();
        let plan = rs.repair_plan(8, &available).unwrap();
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        assert_eq!(plan.evaluate(&blocks), coded[8]);
    }

    #[test]
    fn repair_plan_excludes_failed_from_helpers() {
        let rs = ReedSolomon::new(14, 10).unwrap();
        // Give the failed block in the available list by mistake; it must be
        // filtered out.
        let available: Vec<usize> = (0..14).collect();
        let plan = rs.repair_plan(5, &available).unwrap();
        assert!(!plan.helper_indices().contains(&5));
    }

    #[test]
    fn multi_repair_reconstructs_all_failures() {
        let rs = ReedSolomon::new(14, 10).unwrap();
        let data = random_data(10, 64, 6);
        let coded = rs.encode(&data).unwrap();
        let failed = vec![2, 7, 11, 13];
        let available: Vec<usize> = (0..14).filter(|i| !failed.contains(i)).collect();
        let plan = rs.multi_repair_plan(&failed, &available).unwrap();
        assert_eq!(plan.helper_count(), 10);
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        let repaired = plan.evaluate(&blocks);
        for (j, &f) in failed.iter().enumerate() {
            assert_eq!(repaired[j], coded[f], "failed block {f}");
        }
    }

    #[test]
    fn multi_repair_rejects_too_many_failures() {
        let rs = ReedSolomon::new(9, 6).unwrap();
        let failed = vec![0, 1, 2, 3];
        let available: Vec<usize> = (4..9).collect();
        assert!(matches!(
            rs.multi_repair_plan(&failed, &available),
            Err(CodeError::Unrepairable { .. })
        ));
    }

    #[test]
    fn facebook_parameters_roundtrip() {
        // (14,10) with every possible single-block failure.
        let rs = ReedSolomon::new(14, 10).unwrap();
        let data = random_data(10, 40, 7);
        let coded = rs.encode(&data).unwrap();
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        for (failed, expected) in coded.iter().enumerate() {
            let available: Vec<usize> = (0..14).filter(|&i| i != failed).collect();
            let plan = rs.repair_plan(failed, &available).unwrap();
            assert_eq!(&plan.evaluate(&blocks), expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn any_k_blocks_decode(seed in any::<u64>(), n in 4usize..16, extra in 0usize..4) {
            let k = (n / 2).max(2);
            let rs = ReedSolomon::new(n, k).unwrap();
            let data = random_data(k, 32, seed);
            let coded = rs.encode(&data).unwrap();
            // Pick a pseudo-random subset of exactly k blocks.
            let mut rng = StdRng::seed_from_u64(seed ^ extra as u64);
            let mut indices: Vec<usize> = (0..n).collect();
            indices.shuffle(&mut rng);
            indices.truncate(k);
            let available: Vec<(usize, Vec<u8>)> =
                indices.iter().map(|&i| (i, coded[i].clone())).collect();
            prop_assert_eq!(rs.decode(&available).unwrap(), data);
        }

        #[test]
        fn encode_is_data_then_row_by_row_parity(
            seed in any::<u64>(),
            n in 2usize..20,
            len in 0usize..700,
        ) {
            let k = (seed as usize % (n - 1)) + 1;
            let rs = ReedSolomon::new(n, k).unwrap();
            let data = random_data(k, len, seed);
            let blocks: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = rs.encode_parity(&blocks).unwrap();
            prop_assert_eq!(&parity, &linear::row_by_row_parity(&rs.generator, &data));
            let coded = rs.encode(&data).unwrap();
            prop_assert_eq!(&coded[..k], &data[..]);
            prop_assert_eq!(&coded[k..], &parity[..]);
        }

        #[test]
        fn repair_matches_erased_block(seed in any::<u64>(), failed in 0usize..14) {
            let rs = ReedSolomon::new(14, 10).unwrap();
            let data = random_data(10, 64, seed);
            let coded = rs.encode(&data).unwrap();
            let available: Vec<usize> = (0..14).filter(|&i| i != failed).collect();
            let plan = rs.repair_plan(failed, &available).unwrap();
            let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
            prop_assert_eq!(plan.evaluate(&blocks), coded[failed].clone());
        }

        #[test]
        fn linearity_of_stripes(seed in any::<u64>()) {
            // Encoding is linear: encode(x) + encode(y) == encode(x + y).
            let rs = ReedSolomon::new(9, 6).unwrap();
            let x = random_data(6, 16, seed);
            let y = random_data(6, 16, seed.wrapping_add(1));
            let sum: Vec<Vec<u8>> = x.iter().zip(y.iter())
                .map(|(a, b)| a.iter().zip(b.iter()).map(|(p, q)| p ^ q).collect())
                .collect();
            let cx = rs.encode(&x).unwrap();
            let cy = rs.encode(&y).unwrap();
            let csum = rs.encode(&sum).unwrap();
            for i in 0..9 {
                let xor: Vec<u8> = cx[i].iter().zip(cy[i].iter()).map(|(p, q)| p ^ q).collect();
                prop_assert_eq!(&xor, &csum[i]);
            }
        }
    }
}
