//! Node liveness, fed by repair outcomes.
//!
//! The manager has no heartbeat protocol; instead it learns about node
//! health from the repairs themselves, the way the paper's ECPipe middleware
//! observes helpers (§5). A helper whose block turns out to be missing
//! mid-repair earns a *strike*; enough consecutive strikes and the node is
//! declared dead, at which point the manager auto-enqueues background
//! repairs for every stripe that still maps a block to it, each onto the
//! coordinator's rebuild target. A node that is down but not yet declared
//! can still be chosen as a target or planned as a helper. A successful
//! repair clears the strikes of every helper that served it. Operators (or
//! an external failure detector) can also declare a node dead directly.

use std::collections::HashMap;

use ecpipe_sync::Mutex;
use simnet::NodeId;

use crate::lock_order;

/// Health of one node, as inferred from repair outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// No outstanding evidence against the node.
    Alive,
    /// The node has missed this many block reads since its last success.
    Suspect(usize),
    /// The node is considered failed; its blocks are excluded from helper
    /// selection and its stripes are queued for recovery.
    Dead,
}

/// Tracks per-node health. All methods take `&self`; the view is shared by
/// every worker.
pub(crate) struct Liveness {
    /// Lock class: `manager.liveness` ([`lock_order::MANAGER_LIVENESS`]).
    health: Mutex<HashMap<NodeId, NodeHealth>>,
    /// Consecutive misses after which a node is declared dead.
    dead_after: usize,
}

impl Liveness {
    pub(crate) fn new(dead_after: usize) -> Self {
        Liveness {
            health: Mutex::new(&lock_order::MANAGER_LIVENESS, HashMap::new()),
            dead_after: dead_after.max(1),
        }
    }

    /// Declares a node dead outright. Returns `true` if it was not already
    /// dead (i.e. its stripes still need to be queued).
    pub(crate) fn mark_dead(&self, node: NodeId) -> bool {
        let mut health = self.health.lock();
        health.insert(node, NodeHealth::Dead) != Some(NodeHealth::Dead)
    }

    /// Records that `node` failed to produce a block mid-repair. Returns
    /// `true` if this strike pushed the node over the threshold (it is now
    /// newly dead).
    pub(crate) fn record_miss(&self, node: NodeId) -> bool {
        let mut health = self.health.lock();
        let entry = health.entry(node).or_insert(NodeHealth::Alive);
        let strikes = match *entry {
            NodeHealth::Dead => return false,
            NodeHealth::Alive => 1,
            NodeHealth::Suspect(s) => s + 1,
        };
        *entry = if strikes >= self.dead_after {
            NodeHealth::Dead
        } else {
            NodeHealth::Suspect(strikes)
        };
        *entry == NodeHealth::Dead
    }

    /// Records that each node served a repair successfully, clearing any
    /// strikes (dead nodes stay dead).
    pub(crate) fn record_success(&self, nodes: &[NodeId]) {
        let mut health = self.health.lock();
        for node in nodes {
            match health.get(node) {
                Some(NodeHealth::Dead) => {}
                _ => {
                    health.insert(*node, NodeHealth::Alive);
                }
            }
        }
    }

    pub(crate) fn is_dead(&self, node: NodeId) -> bool {
        matches!(self.health.lock().get(&node), Some(NodeHealth::Dead))
    }

    pub(crate) fn health_of(&self, node: NodeId) -> NodeHealth {
        self.health
            .lock()
            .get(&node)
            .copied()
            .unwrap_or(NodeHealth::Alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_accumulate_to_dead() {
        let l = Liveness::new(2);
        assert_eq!(l.health_of(3), NodeHealth::Alive);
        assert!(!l.record_miss(3));
        assert_eq!(l.health_of(3), NodeHealth::Suspect(1));
        assert!(l.record_miss(3));
        assert_eq!(l.health_of(3), NodeHealth::Dead);
        // Further misses are not "newly dead".
        assert!(!l.record_miss(3));
        assert!(l.is_dead(3));
    }

    #[test]
    fn success_clears_strikes_but_not_death() {
        let l = Liveness::new(2);
        l.record_miss(1);
        l.record_miss(2);
        l.record_miss(2);
        l.record_success(&[1, 2]);
        assert_eq!(l.health_of(1), NodeHealth::Alive);
        assert_eq!(l.health_of(2), NodeHealth::Dead);
    }

    #[test]
    fn explicit_death_and_seeding() {
        let l = Liveness::new(3);
        assert!(l.mark_dead(7), "newly dead");
        assert!(l.is_dead(7));
        assert!(!l.mark_dead(7), "already dead");
        assert!(l.mark_dead(8), "newly dead");
        assert_eq!(l.health_of(7), NodeHealth::Dead);
        assert_eq!(l.health_of(8), NodeHealth::Dead);
        assert_eq!(l.health_of(9), NodeHealth::Alive);
    }
}
