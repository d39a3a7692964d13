//! Figure 10: ECPipe integrated into HDFS-RAID, HDFS-3 and QFS (§6.3).
//!
//! Compares each system's original repair implementation against
//! conventional repair and repair pipelining executed under ECPipe.
//! Run with `cargo run --release -p ecpipe-bench --bin fig10`.

use ecc::slice::SliceLayout;
use ecpipe_bench::timing::{
    full_node_recovery_rate, single_block_repair_time, RepairVariant, SystemProfile,
};
use ecpipe_bench::*;

const VARIANTS: [RepairVariant; 3] = [
    RepairVariant::Original,
    RepairVariant::ConventionalEcPipe,
    RepairVariant::RepairPipeliningEcPipe,
];

fn main() {
    fig10a_hdfs_raid();
    fig10b_hdfs3();
    fig10c_qfs_slice_size();
    fig10d_qfs_block_size();
}

/// Figure 10(a): HDFS-RAID single-block repair time versus (n, k).
fn fig10a_hdfs_raid() {
    header(
        "Figure 10(a)",
        "HDFS-RAID single-block repair time (s) vs (n,k) (64 MiB block, 32 KiB slices)",
    );
    let profile = SystemProfile::hdfs_raid();
    let layout = SliceLayout::new(DEFAULT_BLOCK, DEFAULT_SLICE);
    for (n, k) in [(9, 6), (12, 8), (14, 10), (16, 12)] {
        let values: Vec<(RepairVariant, f64)> = VARIANTS
            .iter()
            .map(|&v| (v, single_block_repair_time(&profile, k, layout, v)))
            .collect();
        row(&format!("({n},{k})"), &values);
    }
    println!();
}

/// Figure 10(b): HDFS-3 full-node recovery rate versus (n, k).
fn fig10b_hdfs3() {
    header(
        "Figure 10(b)",
        "HDFS-3 full-node recovery rate (MiB/s) vs (n,k) (64 stripes, single replacement node)",
    );
    let profile = SystemProfile::hdfs3();
    // Scaled-down blocks keep the combined 64-stripe schedule tractable; the
    // comparison between variants is what the figure reports.
    let layout = SliceLayout::new(8 * MIB, 128 * KIB);
    for (n, k) in [(9, 6), (12, 8), (14, 10), (16, 12)] {
        let values: Vec<(RepairVariant, f64)> = VARIANTS
            .iter()
            .map(|&v| {
                (
                    v,
                    full_node_recovery_rate(&profile, n, k, layout, 64, v) / MIB as f64,
                )
            })
            .collect();
        row(&format!("({n},{k})"), &values);
    }
    println!();
}

/// Figure 10(c): QFS single-block repair time versus slice size.
fn fig10c_qfs_slice_size() {
    header(
        "Figure 10(c)",
        "QFS single-block repair time (s) vs slice size ((9,6), 64 MiB block)",
    );
    let profile = SystemProfile::qfs();
    for slice_kib in [1, 2, 4, 8, 16, 32, 64, 128, 256] {
        let layout = SliceLayout::new(DEFAULT_BLOCK, slice_kib * KIB);
        let values: Vec<(RepairVariant, f64)> = VARIANTS
            .iter()
            .map(|&v| (v, single_block_repair_time(&profile, 6, layout, v)))
            .collect();
        row(&format!("{slice_kib} KiB"), &values);
    }
    println!();
}

/// Figure 10(d): QFS single-block repair time versus block size.
fn fig10d_qfs_block_size() {
    header(
        "Figure 10(d)",
        "QFS single-block repair time (s) vs block size ((9,6), 32 KiB slices)",
    );
    let profile = SystemProfile::qfs();
    for block_mib in [8, 16, 32, 64] {
        let layout = SliceLayout::new(block_mib * MIB, DEFAULT_SLICE);
        let values: Vec<(RepairVariant, f64)> = VARIANTS
            .iter()
            .map(|&v| (v, single_block_repair_time(&profile, 6, layout, v)))
            .collect();
        row(&format!("{block_mib} MiB"), &values);
    }
    println!();
}
