//! Azure-style Local Reconstruction Codes (LRC).
//!
//! An LRC(k, l, g) code stores `k` data blocks, partitioned into `l` local
//! groups, plus one XOR local parity per group and `g` global parities, for
//! `n = k + l + g` blocks per stripe. A single data-block failure is repaired
//! from its local group only (`k/l` reads instead of `k`), which is the
//! trade-off evaluated in Figure 8(d) of the paper.

use gf256::{Gf256, Matrix};

use crate::plan::{MultiRepairPlan, RepairPlan, RepairSource};
use crate::traits::ErasureCode;
use crate::{linear, CodeError, Result};

/// A Local Reconstruction Code LRC(k, l, g).
///
/// Block layout within a stripe:
///
/// * indices `0..k` — data blocks (group `i` holds indices
///   `i*k/l .. (i+1)*k/l`),
/// * indices `k..k+l` — local parities (XOR of each group),
/// * indices `k+l..k+l+g` — global parities (Reed-Solomon style rows over all
///   data blocks).
///
/// # Examples
///
/// ```
/// use ecc::{ErasureCode, Lrc};
/// // Azure's LRC(12, 2, 2): 12 data blocks in 2 local groups of 6.
/// let lrc = Lrc::new(12, 2, 2).unwrap();
/// assert_eq!(lrc.n(), 16);
/// // Repairing a data block reads only its local group: 6 blocks, not 12.
/// let available: Vec<usize> = (1..16).collect();
/// let plan = lrc.repair_plan(0, &available).unwrap();
/// assert_eq!(plan.helper_count(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Lrc {
    k: usize,
    local_groups: usize,
    global_parities: usize,
    /// Full `n x k` generator matrix (data rows are the identity).
    generator: Matrix,
}

impl Lrc {
    /// Creates an LRC(k, l, g) code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `k` is not divisible by
    /// `l`, any parameter is zero, or the stripe exceeds 256 blocks.
    pub fn new(k: usize, local_groups: usize, global_parities: usize) -> Result<Self> {
        if k == 0 || local_groups == 0 || global_parities == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "k, l and g must all be positive".to_string(),
            });
        }
        if !k.is_multiple_of(local_groups) {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "k ({k}) must be divisible by the number of local groups ({local_groups})"
                ),
            });
        }
        let n = k + local_groups + global_parities;
        if n > 256 {
            return Err(CodeError::InvalidParameters {
                reason: format!("stripe width {n} exceeds the field size 256"),
            });
        }
        let group_size = k / local_groups;
        let mut generator = Matrix::zero(n, k);
        // Data rows: identity.
        for i in 0..k {
            generator.set(i, i, Gf256::ONE);
        }
        // Local parity rows: XOR of the group members.
        for g in 0..local_groups {
            for j in g * group_size..(g + 1) * group_size {
                generator.set(k + g, j, Gf256::ONE);
            }
        }
        // Global parity rows: Vandermonde-style rows with distinct non-zero,
        // non-one evaluation points so they are independent of the local
        // parities.
        for p in 0..global_parities {
            let point = Gf256::new((p + 2) as u8);
            for j in 0..k {
                generator.set(k + local_groups + p, j, point.pow(j + 1));
            }
        }
        Ok(Lrc {
            k,
            local_groups,
            global_parities,
            generator,
        })
    }

    /// The number of data blocks per local group.
    pub fn group_size(&self) -> usize {
        self.k / self.local_groups
    }

    /// The number of local groups.
    pub fn local_groups(&self) -> usize {
        self.local_groups
    }

    /// The local group of a data or local-parity block, or `None` for global
    /// parities.
    pub fn group_of(&self, block: usize) -> Option<usize> {
        if block < self.k {
            Some(block / self.group_size())
        } else if block < self.k + self.local_groups {
            Some(block - self.k)
        } else {
            None
        }
    }

    /// The members of a local group: its data blocks plus the local parity.
    pub fn group_members(&self, group: usize) -> Vec<usize> {
        let gs = self.group_size();
        let mut members: Vec<usize> = (group * gs..(group + 1) * gs).collect();
        members.push(self.k + group);
        members
    }

    /// Selects `k` linearly independent rows of the generator from the
    /// available block indices, returning the chosen indices.
    fn independent_rows(&self, available: &[usize]) -> Result<Vec<usize>> {
        let mut chosen: Vec<usize> = Vec::with_capacity(self.k);
        // Work matrix for incremental Gaussian elimination.
        let mut basis: Vec<Vec<Gf256>> = Vec::new();
        for &idx in available {
            if chosen.len() == self.k {
                break;
            }
            if idx >= self.n() {
                return Err(CodeError::InvalidBlockIndex {
                    index: idx,
                    n: self.n(),
                });
            }
            let mut row: Vec<Gf256> = self.generator.row(idx).to_vec();
            // Reduce against the existing basis.
            for b in &basis {
                let lead = b.iter().position(|v| !v.is_zero()).unwrap();
                if !row[lead].is_zero() {
                    let factor = row[lead] / b[lead];
                    for (r, bv) in row.iter_mut().zip(b.iter()) {
                        *r += factor * *bv;
                    }
                }
            }
            if row.iter().any(|v| !v.is_zero()) {
                basis.push(row);
                chosen.push(idx);
            }
        }
        if chosen.len() < self.k {
            return Err(CodeError::NotEnoughBlocks {
                needed: self.k,
                available: chosen.len(),
            });
        }
        Ok(chosen)
    }

    fn coefficients_for(&self, failed: &[usize], helpers: &[usize]) -> Result<Vec<Vec<u8>>> {
        let helper_rows = self.generator.select_rows(helpers);
        let decode = helper_rows.invert().ok_or(CodeError::SingularMatrix)?;
        let failed_rows = self.generator.select_rows(failed);
        let coeff = failed_rows.mul(&decode);
        Ok((0..failed.len())
            .map(|j| coeff.row(j).iter().map(|c| c.value()).collect())
            .collect())
    }
}

impl ErasureCode for Lrc {
    fn n(&self) -> usize {
        self.k + self.local_groups + self.global_parities
    }

    fn k(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!(
            "LRC({},{},{})",
            self.k, self.local_groups, self.global_parities
        )
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
        let indices: Vec<usize> = available.iter().map(|(i, _)| *i).collect();
        let chosen = self.independent_rows(&indices)?;
        let sub = self.generator.select_rows(&chosen);
        let decode = sub.invert().ok_or(CodeError::SingularMatrix)?;
        let blocks: Vec<&[u8]> = chosen
            .iter()
            .map(|idx| {
                let (_, block) = available
                    .iter()
                    .find(|(i, _)| i == idx)
                    .expect("chosen index must be available");
                block.as_slice()
            })
            .collect();
        if blocks.iter().any(|b| b.len() != blocks[0].len()) {
            return Err(CodeError::InvalidBlockSize {
                reason: "available blocks must all have the same length".to_string(),
            });
        }
        Ok(linear::combine(&decode, &blocks))
    }

    fn repair_plan(&self, failed: usize, available: &[usize]) -> Result<RepairPlan> {
        if failed >= self.n() {
            return Err(CodeError::InvalidBlockIndex {
                index: failed,
                n: self.n(),
            });
        }
        let usable: Vec<usize> = available.iter().copied().filter(|&b| b != failed).collect();
        // Fast path: a data block or local parity whose whole group survives
        // is repaired from the local group only (the XOR relation).
        if let Some(group) = self.group_of(failed) {
            let members = self.group_members(group);
            let others: Vec<usize> = members.iter().copied().filter(|&b| b != failed).collect();
            if others.iter().all(|b| usable.contains(b)) {
                return Ok(RepairPlan {
                    failed,
                    sources: others
                        .into_iter()
                        .map(|block_index| RepairSource {
                            block_index,
                            coefficient: 1,
                        })
                        .collect(),
                });
            }
        }
        // Fallback: global repair via any k independent available rows.
        let helpers = self.independent_rows(&usable)?;
        let coeffs = self.coefficients_for(&[failed], &helpers)?;
        Ok(RepairPlan {
            failed,
            sources: helpers
                .iter()
                .zip(coeffs[0].iter())
                .filter(|(_, &c)| c != 0)
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
        let mut failed_sorted = failed.to_vec();
        failed_sorted.sort_unstable();
        failed_sorted.dedup();
        for &f in &failed_sorted {
            if f >= self.n() {
                return Err(CodeError::InvalidBlockIndex {
                    index: f,
                    n: self.n(),
                });
            }
        }
        let usable: Vec<usize> = available
            .iter()
            .copied()
            .filter(|b| !failed_sorted.contains(b))
            .collect();
        let helpers = self.independent_rows(&usable)?;
        let coefficients = self.coefficients_for(&failed_sorted, &helpers)?;
        Ok(MultiRepairPlan {
            failed: failed_sorted,
            helpers,
            coefficients,
        })
    }

    fn fault_tolerance(&self) -> usize {
        // Any g+1 arbitrary failures are always decodable (information-
        // theoretic lower bound for LRC with one parity per group).
        self.global_parities + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Lrc::new(12, 5, 2).is_err());
        assert!(Lrc::new(0, 1, 1).is_err());
        assert!(Lrc::new(12, 2, 0).is_err());
        assert!(Lrc::new(12, 2, 2).is_ok());
    }

    #[test]
    fn azure_layout() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        assert_eq!(lrc.n(), 16);
        assert_eq!(lrc.k(), 12);
        assert_eq!(lrc.group_size(), 6);
        assert_eq!(lrc.group_of(0), Some(0));
        assert_eq!(lrc.group_of(7), Some(1));
        assert_eq!(lrc.group_of(12), Some(0));
        assert_eq!(lrc.group_of(13), Some(1));
        assert_eq!(lrc.group_of(14), None);
        assert_eq!(lrc.group_members(0), vec![0, 1, 2, 3, 4, 5, 12]);
    }

    #[test]
    fn local_parity_is_group_xor() {
        let lrc = Lrc::new(6, 2, 1).unwrap();
        let data = random_data(6, 32, 1);
        let coded = lrc.encode(&data).unwrap();
        let mut xor = vec![0u8; 32];
        for b in &data[0..3] {
            gf256::add_slice(b, &mut xor);
        }
        assert_eq!(coded[6], xor);
    }

    #[test]
    fn data_block_repair_uses_local_group_only() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 64, 2);
        let coded = lrc.encode(&data).unwrap();
        let available: Vec<usize> = (0..16).filter(|&i| i != 8).collect();
        let plan = lrc.repair_plan(8, &available).unwrap();
        assert_eq!(plan.helper_count(), 6);
        // All helpers in group 1 (blocks 6..12 and local parity 13).
        for idx in plan.helper_indices() {
            assert_eq!(lrc.group_of(idx), Some(1));
        }
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        assert_eq!(plan.evaluate(&blocks), coded[8]);
    }

    #[test]
    fn local_parity_repair_reads_its_group() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 64, 3);
        let coded = lrc.encode(&data).unwrap();
        let available: Vec<usize> = (0..16).filter(|&i| i != 12).collect();
        let plan = lrc.repair_plan(12, &available).unwrap();
        assert_eq!(plan.helper_count(), 6);
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        assert_eq!(plan.evaluate(&blocks), coded[12]);
    }

    #[test]
    fn global_parity_repair_falls_back_to_wide_plan() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 64, 4);
        let coded = lrc.encode(&data).unwrap();
        let available: Vec<usize> = (0..16).filter(|&i| i != 14).collect();
        let plan = lrc.repair_plan(14, &available).unwrap();
        assert!(plan.helper_count() >= 12);
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        assert_eq!(plan.evaluate(&blocks), coded[14]);
    }

    #[test]
    fn repair_with_broken_group_uses_global_path() {
        // Two failures in the same group: the local XOR is not enough for the
        // first one, so the plan must go through global parities.
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 32, 5);
        let coded = lrc.encode(&data).unwrap();
        let available: Vec<usize> = (0..16).filter(|&i| i != 0 && i != 1).collect();
        let plan = lrc.repair_plan(0, &available).unwrap();
        assert!(!plan.helper_indices().contains(&1));
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        assert_eq!(plan.evaluate(&blocks), coded[0]);
    }

    #[test]
    fn decode_after_three_failures() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 48, 6);
        let coded = lrc.encode(&data).unwrap();
        // g + 1 = 3 arbitrary failures.
        let failed = [2, 9, 15];
        let available: Vec<(usize, Vec<u8>)> = (0..16)
            .filter(|i| !failed.contains(i))
            .map(|i| (i, coded[i].clone()))
            .collect();
        assert_eq!(lrc.decode(&available).unwrap(), data);
    }

    #[test]
    fn decode_roundtrips_from_every_tolerated_erasure_pattern() {
        // LRC(4,2,2): every way of losing up to g + 1 = 3 of the 8 blocks.
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let data = random_data(4, 100, 9);
        let coded = lrc.encode(&data).unwrap();
        for mask in 0u32..1 << 8 {
            if mask.count_ones() > 3 {
                continue;
            }
            let available: Vec<(usize, Vec<u8>)> = (0..8)
                .filter(|i| mask & (1 << i) == 0)
                .map(|i| (i, coded[i].clone()))
                .collect();
            assert_eq!(lrc.decode(&available).unwrap(), data, "lost {mask:#010b}");
        }
    }

    #[test]
    fn wrong_block_counts_and_lengths_are_errors_not_panics() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let mut data = random_data(4, 16, 10);
        let coded = lrc.encode(&data).unwrap();
        assert!(matches!(
            lrc.encode(&data[..3]),
            Err(CodeError::InvalidBlockSize { reason }) if reason == "expected 4 data blocks, got 3"
        ));
        data[1].push(0);
        assert!(matches!(
            lrc.encode(&data),
            Err(CodeError::InvalidBlockSize { reason }) if reason == "data blocks must all have the same length"
        ));
        let mut available: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i, coded[i].clone())).collect();
        assert!(matches!(
            lrc.decode(&available),
            Err(CodeError::NotEnoughBlocks {
                needed: 4,
                available: 3
            })
        ));
        available.push((7, coded[7][..15].to_vec()));
        assert!(matches!(
            lrc.decode(&available),
            Err(CodeError::InvalidBlockSize { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn encode_is_data_then_row_by_row_parity(
            seed in any::<u64>(),
            groups in 1usize..4,
            group_size in 1usize..5,
            globals in 1usize..4,
            len in 0usize..700,
        ) {
            let k = groups * group_size;
            let lrc = Lrc::new(k, groups, globals).unwrap();
            let data = random_data(k, len, seed);
            let blocks: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = lrc.encode_parity(&blocks).unwrap();
            prop_assert_eq!(&parity, &linear::row_by_row_parity(&lrc.generator, &data));
            let coded = lrc.encode(&data).unwrap();
            prop_assert_eq!(&coded[..k], &data[..]);
            prop_assert_eq!(&coded[k..], &parity[..]);
        }
    }

    #[test]
    fn multi_repair_two_failures() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 48, 7);
        let coded = lrc.encode(&data).unwrap();
        let failed = vec![3, 13];
        let available: Vec<usize> = (0..16).filter(|i| !failed.contains(i)).collect();
        let plan = lrc.multi_repair_plan(&failed, &available).unwrap();
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        let repaired = plan.evaluate(&blocks);
        assert_eq!(repaired[0], coded[3]);
        assert_eq!(repaired[1], coded[13]);
    }

    #[test]
    fn every_single_block_is_repairable() {
        let lrc = Lrc::new(12, 2, 2).unwrap();
        let data = random_data(12, 24, 8);
        let coded = lrc.encode(&data).unwrap();
        let blocks: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
        for (failed, expected) in coded.iter().enumerate() {
            let available: Vec<usize> = (0..16).filter(|&i| i != failed).collect();
            let plan = lrc.repair_plan(failed, &available).unwrap();
            assert_eq!(&plan.evaluate(&blocks), expected, "block {failed}");
            if lrc.group_of(failed).is_some() {
                assert_eq!(
                    plan.helper_count(),
                    6,
                    "block {failed} should repair locally"
                );
            }
        }
    }
}
