//! The benchmark's own seeded generator.
//!
//! Every input — object bytes, which block is erased, op order, which nodes
//! die — is drawn from this SplitMix64 stream, so `--seed` fixes the inputs
//! independently of the repository's `rand` shim (which a later change may
//! swap for the real crate and its different streams).

/// SplitMix64: one 64-bit state word, full period, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`label`) under the same seed,
    /// so adding draws to one stream never shifts another.
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the multiply-shift map's bias is
    /// below 2^-40 for the bounds used here.
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        out
    }

    /// The first `take` entries of a seeded shuffle of `0..n`.
    pub fn choose_distinct(&mut self, n: usize, take: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in 0..take.min(n) {
            let j = i + self.below(n - i);
            items.swap(i, j);
        }
        items.truncate(take);
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::fork(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(8, 1).next_u64());
    }

    #[test]
    fn below_stays_in_range_and_choose_distinct_is_distinct() {
        let mut rng = Rng::fork(1, 0);
        assert!((0..10_000).all(|_| rng.below(22) < 22));
        let mut picked = rng.choose_distinct(22, 8);
        assert_eq!(picked.len(), 8);
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 8);
    }

    #[test]
    fn bytes_fills_ragged_tails() {
        assert_eq!(Rng::fork(3, 0).bytes(13).len(), 13);
        assert_eq!(Rng::fork(3, 0).bytes(13)[..8], Rng::fork(3, 0).bytes(8)[..]);
    }
}
