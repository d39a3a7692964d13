//! Rack-aware path selection — Algorithm 1 of the paper (§4.2).
//!
//! In a rack-based data center the cross-rack bandwidth is the scarce
//! resource. Algorithm 1 orders the linear path of helpers so that each rack
//! has at most one incoming and one outgoing transmission and the number of
//! cross-rack transmissions is minimised: helpers co-located with the
//! requestor come last (closest to the requestor), and remote racks are
//! visited one after another in descending order of how many helpers they
//! contribute.

use simnet::{NodeId, Topology};

/// Selects the linear path of `k` helpers for a rack-based topology.
///
/// `candidates` are the nodes holding the `n - 1` available blocks of the
/// stripe; `k` of them are chosen and ordered such that the returned vector
/// is the repair path `path[0] -> path[1] -> ... -> requestor`.
///
/// # Panics
///
/// Panics if fewer than `k` candidates are given or the requestor is listed
/// as a candidate.
pub fn select_path(
    topology: &Topology,
    requestor: NodeId,
    candidates: &[NodeId],
    k: usize,
) -> Vec<NodeId> {
    assert!(candidates.len() >= k, "need at least k candidate helpers");
    assert!(
        !candidates.contains(&requestor),
        "the requestor cannot be a candidate helper"
    );

    let requestor_rack = topology.rack_of(requestor);
    // Group the candidates by rack.
    let mut racks: std::collections::BTreeMap<usize, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for &c in candidates {
        racks.entry(topology.rack_of(c)).or_default().push(c);
    }
    // H0: the requestor's rack. Remote racks sorted by helper count,
    // descending (ties broken by rack id for determinism).
    let local = racks.remove(&requestor_rack).unwrap_or_default();
    let mut remote: Vec<(usize, Vec<NodeId>)> = racks.into_iter().collect();
    remote.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));

    // Algorithm 1 prepends helpers to the path (P = N -> P), starting with
    // the requestor's rack, so the local helpers end up adjacent to the
    // requestor and each remote rack is visited contiguously.
    let mut path: Vec<NodeId> = Vec::with_capacity(k);
    let append = |nodes: &[NodeId], path: &mut Vec<NodeId>| {
        for &n in nodes {
            if path.len() == k {
                return;
            }
            // Prepend: the newest helper is farthest from the requestor.
            path.insert(0, n);
        }
    };
    append(&local, &mut path);
    for (_, nodes) in &remote {
        if path.len() == k {
            break;
        }
        append(nodes, &mut path);
    }
    assert_eq!(path.len(), k, "not enough helpers to build the path");
    path
}

/// Counts the cross-rack transmissions of a repair path (the path's hops plus
/// the final hop into the requestor).
pub fn cross_rack_transmissions(topology: &Topology, path: &[NodeId], requestor: NodeId) -> usize {
    let mut count = 0;
    for w in path.windows(2) {
        if topology.rack_of(w[0]) != topology.rack_of(w[1]) {
            count += 1;
        }
    }
    if let Some(&last) = path.last() {
        if topology.rack_of(last) != topology.rack_of(requestor) {
            count += 1;
        }
    }
    count
}

/// The minimum possible number of cross-rack transmissions for a single-block
/// repair that uses one helper path: the number of distinct remote racks that
/// must be visited to gather `k` helpers (CAR-style lower bound).
pub fn minimum_cross_rack_transmissions(
    topology: &Topology,
    requestor: NodeId,
    candidates: &[NodeId],
    k: usize,
) -> usize {
    let requestor_rack = topology.rack_of(requestor);
    let mut per_rack: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for &c in candidates {
        *per_rack.entry(topology.rack_of(c)).or_default() += 1;
    }
    let local = per_rack.remove(&requestor_rack).unwrap_or(0);
    if local >= k {
        return 0;
    }
    let mut remaining = k - local;
    let mut counts: Vec<usize> = per_rack.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut racks_needed = 0;
    for c in counts {
        if remaining == 0 {
            break;
        }
        racks_needed += 1;
        remaining = remaining.saturating_sub(c);
    }
    assert_eq!(remaining, 0, "not enough candidate helpers");
    racks_needed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheme, SingleRepairJob};
    use ecc::slice::SliceLayout;
    use simnet::{CostModel, Simulator, GBIT, MBIT};

    const MIB: usize = 1024 * 1024;

    /// Three racks of three nodes, (9,6) RS with three blocks per rack, as in
    /// the paper's rack-awareness experiment (Figure 8(h)).
    fn rack_setup() -> (Topology, NodeId, Vec<NodeId>) {
        let topo = Topology::rack_based(&[3, 3, 3], 10.0 * GBIT, 800.0 * MBIT);
        // The failed block lived on node 0 (rack 0); the requestor is node 1
        // in the same rack; candidates are the other 7 nodes holding blocks.
        let requestor = 1;
        let candidates = vec![2, 3, 4, 5, 6, 7, 8];
        (topo, requestor, candidates)
    }

    #[test]
    fn path_has_one_incoming_transmission_per_rack() {
        let (topo, requestor, candidates) = rack_setup();
        let path = select_path(&topo, requestor, &candidates, 6);
        assert_eq!(path.len(), 6);
        // Count rack changes along the path: each rack should be entered at
        // most once.
        let mut racks_seen = Vec::new();
        for &n in &path {
            let r = topo.rack_of(n);
            if racks_seen.last() != Some(&r) {
                assert!(!racks_seen.contains(&r), "rack {r} entered twice");
                racks_seen.push(r);
            }
        }
    }

    #[test]
    fn local_helpers_sit_next_to_requestor() {
        let (topo, requestor, candidates) = rack_setup();
        let path = select_path(&topo, requestor, &candidates, 6);
        // Node 2 is the only candidate in the requestor's rack, so it must be
        // the last hop before the requestor.
        assert_eq!(*path.last().unwrap(), 2);
    }

    #[test]
    fn cross_rack_transmissions_are_minimised() {
        let (topo, requestor, candidates) = rack_setup();
        let path = select_path(&topo, requestor, &candidates, 6);
        let crossings = cross_rack_transmissions(&topo, &path, requestor);
        let lower_bound = minimum_cross_rack_transmissions(&topo, requestor, &candidates, 6);
        assert_eq!(crossings, lower_bound);
        assert_eq!(crossings, 2);
    }

    #[test]
    fn random_order_crosses_racks_more_often() {
        let (topo, requestor, candidates) = rack_setup();
        // A deliberately bad interleaved order.
        let bad_path = vec![3, 6, 4, 7, 5, 2];
        let bad = cross_rack_transmissions(&topo, &bad_path, requestor);
        let good_path = select_path(&topo, requestor, &candidates, 6);
        let good = cross_rack_transmissions(&topo, &good_path, requestor);
        assert!(bad > good);
        let _ = candidates;
    }

    #[test]
    fn rack_aware_path_reduces_repair_time() {
        // Figure 8(h): with limited cross-rack bandwidth, the rack-aware path
        // beats a rack-oblivious path.
        let (topo, requestor, candidates) = rack_setup();
        let layout = SliceLayout::new(64 * MIB, 32 * 1024);
        let sim = Simulator::new(topo.clone(), CostModel::network_only());

        let aware = select_path(&topo, requestor, &candidates, 6);
        let oblivious = vec![3, 6, 4, 7, 5, 2];

        let t_aware = sim
            .run(
                &Scheme::RepairPipelining.schedule(&SingleRepairJob::new(aware, requestor, layout)),
            )
            .makespan;
        let t_oblivious = sim
            .run(
                &Scheme::RepairPipelining
                    .schedule(&SingleRepairJob::new(oblivious, requestor, layout)),
            )
            .makespan;
        assert!(
            t_aware < t_oblivious,
            "rack aware {t_aware} vs oblivious {t_oblivious}"
        );
    }

    #[test]
    fn all_local_candidates_need_no_cross_rack_traffic() {
        let topo = Topology::rack_based(&[5, 5], 10.0 * GBIT, GBIT);
        let path = select_path(&topo, 0, &[1, 2, 3, 4], 3);
        assert_eq!(cross_rack_transmissions(&topo, &path, 0), 0);
    }

    #[test]
    #[should_panic(expected = "need at least k candidate helpers")]
    fn too_few_candidates_panics() {
        let topo = Topology::rack_based(&[2, 2], GBIT, GBIT);
        select_path(&topo, 0, &[1, 2], 3);
    }
}
