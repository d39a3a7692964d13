//! Full-node recovery: a multi-stripe repair with greedy helper scheduling
//! (§3.3).
//!
//! When a storage node fails, every stripe that stored a block on it loses
//! one block. The stripes are independently encoded, so their repairs can run
//! in parallel — but a helper chosen by many stripes becomes the straggler.
//! The paper's greedy scheduler tracks when each node was last selected as a
//! helper and picks, per stripe, the `k` least-recently-selected helpers
//! (an `O(n)` selection, the paper's quickselect). The reconstructed blocks
//! are spread over a configurable set of requestors.

use std::fmt;

use simnet::{NodeId, Schedule};

use ecc::slice::SliceLayout;

use crate::SingleRepairJob;

/// Why a full-node recovery could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryPlanError {
    /// No requestors were supplied, so the reconstructed blocks have nowhere
    /// to go.
    NoRequestors,
    /// A stripe has fewer candidate helpers (available nodes outside the
    /// requestor chosen for it) than the `k` the code needs.
    TooFewHelpers {
        /// Index of the offending stripe in the input slice.
        stripe: usize,
        /// How many candidate helpers the stripe has.
        available: usize,
        /// How many helpers the repair needs (`k`).
        needed: usize,
    },
}

impl fmt::Display for RecoveryPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPlanError::NoRequestors => {
                write!(f, "at least one requestor is required")
            }
            RecoveryPlanError::TooFewHelpers {
                stripe,
                available,
                needed,
            } => write!(
                f,
                "stripe {stripe} has only {available} candidate helpers, need {needed}"
            ),
        }
    }
}

impl std::error::Error for RecoveryPlanError {}

/// One stripe affected by the node failure: the nodes holding its surviving
/// blocks.
#[derive(Debug, Clone)]
pub struct AffectedStripe {
    /// Nodes holding the stripe's surviving (available) blocks.
    pub available_nodes: Vec<NodeId>,
}

/// How helpers are chosen for each stripe's repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperSelection {
    /// Always use the first `k` available nodes (the `RP` baseline of
    /// Figure 8(e): smallest node index first).
    LowestIndex,
    /// Greedy least-recently-selected scheduling (`RP+scheduling`).
    Greedy,
}

/// Plans one single-block repair job per affected stripe, assigning helpers
/// according to `selection` and spreading the reconstructed blocks evenly
/// over `requestors` (round-robin).
///
/// # Errors
///
/// Returns [`RecoveryPlanError::NoRequestors`] when `requestors` is empty and
/// [`RecoveryPlanError::TooFewHelpers`] when a stripe has fewer than `k`
/// available nodes outside the requestor chosen for it (mirroring how the
/// `ecpipe` recovery path reports invalid requests instead of panicking).
pub fn plan_recovery(
    stripes: &[AffectedStripe],
    k: usize,
    requestors: &[NodeId],
    layout: SliceLayout,
    selection: HelperSelection,
) -> Result<Vec<SingleRepairJob>, RecoveryPlanError> {
    if requestors.is_empty() {
        return Err(RecoveryPlanError::NoRequestors);
    }
    // Logical clock of the last time each node was selected as a helper.
    let mut last_selected: std::collections::HashMap<NodeId, u64> =
        std::collections::HashMap::new();
    let mut clock = 0u64;

    stripes
        .iter()
        .enumerate()
        .map(|(i, stripe)| {
            let requestor = requestors[i % requestors.len()];
            let candidates: Vec<NodeId> = stripe
                .available_nodes
                .iter()
                .copied()
                .filter(|&n| n != requestor)
                .collect();
            if candidates.len() < k {
                return Err(RecoveryPlanError::TooFewHelpers {
                    stripe: i,
                    available: candidates.len(),
                    needed: k,
                });
            }
            let mut helpers = match selection {
                HelperSelection::LowestIndex => {
                    let mut sorted = candidates.clone();
                    sorted.sort_unstable();
                    sorted.truncate(k);
                    sorted
                }
                HelperSelection::Greedy => {
                    let mut keyed: Vec<(u64, NodeId)> = candidates
                        .iter()
                        .map(|&n| (last_selected.get(&n).copied().unwrap_or(0), n))
                        .collect();
                    // The keys are pairwise distinct, so the k smallest are
                    // one set whatever the selection algorithm.
                    if k < keyed.len() {
                        keyed.select_nth_unstable(k - 1);
                    }
                    let mut chosen: Vec<NodeId> = keyed[..k].iter().map(|&(_, n)| n).collect();
                    chosen.sort_unstable();
                    chosen
                }
            };
            for &h in &helpers {
                clock += 1;
                last_selected.insert(h, clock);
            }
            // Rotate the path per stripe so that the last hop (the helper
            // that delivers to the requestor) is spread over different nodes
            // instead of always being the highest-index helper.
            helpers.rotate_left(i % k);
            Ok(SingleRepairJob::new(helpers, requestor, layout))
        })
        .collect()
}

/// Builds the combined schedule of a full-node recovery: one per-stripe
/// schedule produced by `scheme` for every job, interleaved so that all
/// stripe repairs progress concurrently while sharing (and contending for)
/// the same links and nodes.
pub fn build_recovery_schedule<F>(jobs: &[SingleRepairJob], scheme: F) -> Schedule
where
    F: Fn(&SingleRepairJob) -> Schedule,
{
    let per_stripe: Vec<Schedule> = jobs.iter().map(scheme).collect();
    Schedule::interleave(&per_stripe)
}

/// The recovery rate in bytes per second: total repaired data divided by the
/// makespan of the combined schedule.
pub fn recovery_rate(jobs: &[SingleRepairJob], makespan: f64) -> f64 {
    let total: usize = jobs.iter().map(|j| j.layout.block_size).sum();
    total as f64 / makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use simnet::{CostModel, Simulator, Topology, GBIT};

    const MIB: usize = 1024 * 1024;

    /// 16 storage nodes (ids 0..16); node 0 failed. Each stripe stores its
    /// blocks on a deterministic subset of the other nodes.
    fn affected_stripes(count: usize, n: usize) -> Vec<AffectedStripe> {
        (0..count)
            .map(|i| {
                let available_nodes: Vec<NodeId> =
                    (0..n - 1)
                        .map(|j| 1 + ((i + j * 3) % 15))
                        .fold(Vec::new(), |mut acc, n| {
                            if !acc.contains(&n) {
                                acc.push(n);
                            }
                            acc
                        });
                // Ensure enough distinct nodes by padding from the full set.
                let mut nodes = available_nodes;
                let mut next = 1;
                while nodes.len() < n - 1 {
                    if !nodes.contains(&next) {
                        nodes.push(next);
                    }
                    next += 1;
                }
                AffectedStripe {
                    available_nodes: nodes,
                }
            })
            .collect()
    }

    #[test]
    fn greedy_spreads_helper_load() {
        let stripes = affected_stripes(64, 14);
        let layout = SliceLayout::new(MIB, 256 * 1024);
        let greedy = plan_recovery(&stripes, 10, &[100], layout, HelperSelection::Greedy).unwrap();
        let naive =
            plan_recovery(&stripes, 10, &[100], layout, HelperSelection::LowestIndex).unwrap();

        let load = |jobs: &[SingleRepairJob]| -> usize {
            let mut counts: std::collections::HashMap<NodeId, usize> = Default::default();
            for j in jobs {
                for &h in &j.helpers {
                    *counts.entry(h).or_default() += 1;
                }
            }
            *counts.values().max().unwrap()
        };
        assert!(load(&greedy) <= load(&naive));
    }

    #[test]
    fn requestors_are_assigned_round_robin() {
        let stripes = affected_stripes(8, 14);
        let layout = SliceLayout::new(MIB, 256 * 1024);
        let jobs =
            plan_recovery(&stripes, 10, &[100, 101], layout, HelperSelection::Greedy).unwrap();
        let to_100 = jobs.iter().filter(|j| j.requestor == 100).count();
        let to_101 = jobs.iter().filter(|j| j.requestor == 101).count();
        assert_eq!(to_100, 4);
        assert_eq!(to_101, 4);
    }

    #[test]
    fn more_requestors_increase_recovery_rate() {
        let stripes = affected_stripes(16, 14);
        let layout = SliceLayout::new(4 * MIB, MIB);
        let sim = Simulator::new(Topology::flat(120, GBIT), CostModel::network_only());

        let rate_for = |requestors: &[NodeId]| {
            let jobs =
                plan_recovery(&stripes, 10, requestors, layout, HelperSelection::Greedy).unwrap();
            let schedule =
                build_recovery_schedule(&jobs, |job| Scheme::RepairPipelining.schedule(job));
            let report = sim.run(&schedule);
            recovery_rate(&jobs, report.makespan)
        };
        let one = rate_for(&[100]);
        let four = rate_for(&[100, 101, 102, 103]);
        assert!(four > one, "4 requestors {four} vs 1 requestor {one}");
    }

    #[test]
    fn greedy_scheduling_helps_with_many_requestors() {
        let stripes = affected_stripes(64, 14);
        let layout = SliceLayout::new(4 * MIB, MIB);
        let sim = Simulator::new(Topology::flat(120, GBIT), CostModel::network_only());
        let requestors: Vec<NodeId> = (100..116).collect();

        let rate_for = |selection: HelperSelection| {
            let jobs = plan_recovery(&stripes, 10, &requestors, layout, selection).unwrap();
            let schedule =
                build_recovery_schedule(&jobs, |job| Scheme::RepairPipelining.schedule(job));
            let report = sim.run(&schedule);
            recovery_rate(&jobs, report.makespan)
        };
        let greedy = rate_for(HelperSelection::Greedy);
        let naive = rate_for(HelperSelection::LowestIndex);
        assert!(
            greedy >= naive,
            "greedy {greedy} should be at least naive {naive}"
        );
    }

    #[test]
    fn empty_requestors_is_an_error() {
        let stripes = affected_stripes(1, 14);
        let err = plan_recovery(
            &stripes,
            10,
            &[],
            SliceLayout::new(MIB, MIB),
            HelperSelection::Greedy,
        )
        .unwrap_err();
        assert_eq!(err, RecoveryPlanError::NoRequestors);
        assert!(err.to_string().contains("requestor"));
    }

    #[test]
    fn too_few_helpers_is_an_error() {
        // A stripe whose only available nodes cannot cover k = 10 helpers
        // once the requestor is excluded.
        let stripes = vec![AffectedStripe {
            available_nodes: (1..=10).collect(),
        }];
        let err = plan_recovery(
            &stripes,
            10,
            &[10], // requestor overlaps an available node, leaving 9 < 10
            SliceLayout::new(MIB, MIB),
            HelperSelection::Greedy,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RecoveryPlanError::TooFewHelpers {
                stripe: 0,
                available: 9,
                needed: 10,
            }
        );
        assert!(err.to_string().contains("candidate helpers"));
    }
}
