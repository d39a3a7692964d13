//! Stripe-level metadata: block identities.
//!
//! A large-scale storage system stores many independently encoded stripes of
//! `n` blocks each (§2.1). These types give stripes and blocks stable
//! identities shared by the repair planners, the simulator, the runtime and
//! the storage-system models.

use serde::{Deserialize, Serialize};

/// Identifier of a stripe within a storage system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StripeId(pub u64);

/// Identifier of a block: which stripe it belongs to and its index within
/// that stripe (`0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId {
    /// The stripe this block belongs to.
    pub stripe: StripeId,
    /// The block index within the stripe (`0..n`).
    pub index: usize,
}

impl BlockId {
    /// Convenience constructor.
    pub fn new(stripe: u64, index: usize) -> Self {
        BlockId {
            stripe: StripeId(stripe),
            index,
        }
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}b{}", self.stripe.0, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId::new(3, 7).to_string(), "s3b7");
    }

    #[test]
    fn block_ids_are_ordered_by_stripe_then_index() {
        let a = BlockId::new(1, 5);
        let b = BlockId::new(2, 0);
        let c = BlockId::new(2, 3);
        assert!(a < b && b < c);
    }
}
