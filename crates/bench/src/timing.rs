//! Figure 10's cost model: ECPipe inside HDFS-RAID, HDFS-3 and QFS (§6.3).
//!
//! The measurable differences between a storage system's original repair and
//! the ECPipe-integrated repair come from three sources:
//!
//! 1. the repair scheme itself (conventional vs repair pipelining),
//! 2. reading helper blocks through the storage-system routine (checksumming
//!    plus the extra copy through the DataNode / ChunkServer process), which
//!    caps the ingest throughput at the reconstructing node, and
//! 3. connection setup to `k` DataNodes, which the original repair pays per
//!    stripe and which grows with `k`.
//!
//! The ECPipe variants are the `repair` crate's schedules (a `RepairDag`,
//! lowered). The original repair is written out by hand in
//! [`original_repair_schedule`]: its connection setups and its ingest through
//! the storage routine are costs of the storage system's code path, which a
//! plan shape does not carry. Everything is timed on [`local_cluster`] at
//! 1 Gb/s.

use ecc::slice::SliceLayout;
use repair::fullnode::{self, AffectedStripe, HelperSelection};
use repair::{Scheme, SingleRepairJob};
use simnet::{Schedule, TaskId, GBIT};

use crate::local_cluster;

/// The two overheads of one storage system's own repair path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemProfile {
    /// Effective throughput (bytes/second) at which the reconstructing node
    /// ingests helper blocks through the storage system's read routine.
    /// Checksumming, packet framing and the extra copy through the
    /// DataNode/ChunkServer process keep it below the 1 Gb/s wire rate,
    /// which is why moving conventional repair into ECPipe (helpers read
    /// blocks natively) already shaves 20-26% off the repair time.
    pub routine_read_bps: f64,
    /// Seconds to open a connection to one storage node; the original
    /// repair opens `k` of them serially before reading.
    pub connection_setup: f64,
}

impl SystemProfile {
    /// Facebook's HDFS-RAID (Hadoop 0.20 + RaidNode).
    pub fn hdfs_raid() -> Self {
        SystemProfile {
            routine_read_bps: 98.0e6,
            connection_setup: 3.0e-3,
        }
    }

    /// Hadoop 3.1.1 HDFS with built-in erasure coding.
    pub fn hdfs3() -> Self {
        SystemProfile {
            routine_read_bps: 115.0e6,
            connection_setup: 8.0e-3,
        }
    }

    /// Quantcast File System.
    pub fn qfs() -> Self {
        SystemProfile {
            routine_read_bps: 92.0e6,
            connection_setup: 3.0e-3,
        }
    }
}

/// The three repair paths compared in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairVariant {
    /// The storage system's own repair implementation (conventional repair
    /// through the storage routine).
    Original,
    /// Conventional repair executed by ECPipe (helpers read natively).
    ConventionalEcPipe,
    /// Repair pipelining executed by ECPipe.
    RepairPipeliningEcPipe,
}

impl std::fmt::Display for RepairVariant {
    /// Formats as the label used in the figure output (`Original`,
    /// `Conv.@ECPipe`, `RP@ECPipe`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` honors width/alignment options in table output.
        f.pad(match self {
            RepairVariant::Original => "Original",
            RepairVariant::ConventionalEcPipe => "Conv.@ECPipe",
            RepairVariant::RepairPipeliningEcPipe => "RP@ECPipe",
        })
    }
}

/// Builds the storage system's original repair schedule for one single-block
/// repair: conventional repair, with the reconstructing node opening `k`
/// connections serially and ingesting every helper block through the
/// storage-routine read path.
// Slice index loops mirror the paper's per-slice schedule and index the
// per-helper read matrix; iterator form would obscure that structure.
#[allow(clippy::needless_range_loop)]
pub fn original_repair_schedule(profile: &SystemProfile, job: &SingleRepairJob) -> Schedule {
    let mut s = Schedule::new();
    let slices = job.slice_count();
    let k = job.k();
    // Serial connection setup to every helper before any data flows.
    let setup = s.delay(job.requestor, k as f64 * profile.connection_setup, &[]);
    // Per-helper disk reads.
    let mut disk: Vec<Vec<TaskId>> = Vec::with_capacity(k);
    for &h in &job.helpers {
        let reads: Vec<TaskId> = (0..slices)
            .map(|j| s.disk_read(h, job.layout.slice_len(j) as u64, &[]))
            .collect();
        disk.push(reads);
    }
    for j in 0..slices {
        let slice_len = job.layout.slice_len(j) as u64;
        let mut arrivals: Vec<TaskId> = Vec::with_capacity(k);
        for (i, &h) in job.helpers.iter().enumerate() {
            let t = s.transfer(h, job.requestor, slice_len, &[disk[i][j], setup]);
            arrivals.push(t);
        }
        // Ingest through the storage routine: the reconstructing node spends
        // CPU time proportional to the bytes received, at the routine's
        // effective throughput, before decoding.
        let routine_seconds = (slice_len * k as u64) as f64 / profile.routine_read_bps;
        let ingested = s.delay(job.requestor, routine_seconds, &arrivals);
        s.compute(job.requestor, slice_len * k as u64, &[ingested]);
    }
    s
}

/// Single-block repair time (seconds) for a storage system under one variant,
/// with `k` helpers on the paper's local testbed.
pub fn single_block_repair_time(
    profile: &SystemProfile,
    k: usize,
    layout: SliceLayout,
    variant: RepairVariant,
) -> f64 {
    let requestor = 16;
    let helpers: Vec<usize> = (0..k).collect();
    let job = SingleRepairJob::new(helpers, requestor, layout);
    let schedule = match variant {
        RepairVariant::Original => original_repair_schedule(profile, &job),
        RepairVariant::ConventionalEcPipe => Scheme::Conventional.schedule(&job),
        RepairVariant::RepairPipeliningEcPipe => Scheme::RepairPipelining.schedule(&job),
    };
    local_cluster(GBIT).run(&schedule).makespan
}

/// Full-node recovery rate (bytes per second) for HDFS-3-style recovery:
/// `stripes` stripes spread over 16 DataNodes, one failed DataNode, and the
/// lost blocks rebuilt on a single replacement DataNode.
pub fn full_node_recovery_rate(
    profile: &SystemProfile,
    n: usize,
    k: usize,
    layout: SliceLayout,
    stripes: usize,
    variant: RepairVariant,
) -> f64 {
    let nodes = 16usize;
    let replacement = 16usize;
    let affected: Vec<AffectedStripe> = (0..stripes)
        .map(|i| AffectedStripe {
            // The failed node is node 0; the stripe's surviving blocks sit on
            // a rotating window of the other nodes.
            available_nodes: (0..n - 1).map(|j| 1 + (i + j) % (nodes - 1)).collect(),
        })
        .collect();
    let jobs = fullnode::plan_recovery(
        &affected,
        k,
        &[replacement],
        layout,
        match variant {
            RepairVariant::RepairPipeliningEcPipe => HelperSelection::Greedy,
            _ => HelperSelection::LowestIndex,
        },
    )
    .expect("the generated recovery scenario always has enough helpers");
    let schedule = match variant {
        RepairVariant::RepairPipeliningEcPipe => {
            fullnode::build_recovery_schedule(&jobs, |job| Scheme::RepairPipelining.schedule(job))
        }
        RepairVariant::ConventionalEcPipe => {
            fullnode::build_recovery_schedule(&jobs, |job| Scheme::Conventional.schedule(job))
        }
        RepairVariant::Original => {
            fullnode::build_recovery_schedule(&jobs, |job| original_repair_schedule(profile, job))
        }
    };
    let report = local_cluster(GBIT).run(&schedule);
    fullnode::recovery_rate(&jobs, report.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KIB, MIB};

    #[test]
    fn ecpipe_rp_beats_conventional_beats_original() {
        let profile = SystemProfile::hdfs_raid();
        let layout = SliceLayout::new(64 * MIB, 32 * KIB);
        let original = single_block_repair_time(&profile, 10, layout, RepairVariant::Original);
        let conv =
            single_block_repair_time(&profile, 10, layout, RepairVariant::ConventionalEcPipe);
        let rp =
            single_block_repair_time(&profile, 10, layout, RepairVariant::RepairPipeliningEcPipe);
        assert!(rp < conv, "rp {rp} conv {conv}");
        assert!(conv < original, "conv {conv} original {original}");
        // The paper reports 82.7% - 91.2% repair-time reduction for
        // HDFS-RAID and up to 21.8% from moving conventional repair into
        // ECPipe.
        let rp_reduction = 1.0 - rp / original;
        assert!(rp_reduction > 0.8, "reduction {rp_reduction}");
        let conv_reduction = 1.0 - conv / original;
        assert!(
            conv_reduction > 0.05 && conv_reduction < 0.35,
            "conv reduction {conv_reduction}"
        );
    }

    #[test]
    fn repair_time_grows_with_k_for_original_but_not_rp() {
        let profile = SystemProfile::qfs();
        let layout = SliceLayout::new(16 * MIB, 32 * KIB);
        let orig_small = single_block_repair_time(&profile, 6, layout, RepairVariant::Original);
        let orig_large = single_block_repair_time(&profile, 12, layout, RepairVariant::Original);
        let rp_small =
            single_block_repair_time(&profile, 6, layout, RepairVariant::RepairPipeliningEcPipe);
        let rp_large =
            single_block_repair_time(&profile, 12, layout, RepairVariant::RepairPipeliningEcPipe);
        assert!(orig_large > 1.5 * orig_small);
        assert!(rp_large < 1.2 * rp_small);
    }

    #[test]
    fn hdfs3_recovery_rate_improves_with_ecpipe_rp() {
        let profile = SystemProfile::hdfs3();
        let layout = SliceLayout::new(4 * MIB, 256 * KIB);
        let original =
            full_node_recovery_rate(&profile, 14, 10, layout, 16, RepairVariant::Original);
        let rp = full_node_recovery_rate(
            &profile,
            14,
            10,
            layout,
            16,
            RepairVariant::RepairPipeliningEcPipe,
        );
        // The paper reports 5.1x - 16x recovery-rate gains for HDFS-3.
        assert!(rp > 2.0 * original, "rp {rp} original {original}");
    }
}
