//! Figure 11: comparison of repair pipelining implementations (§6.4).
//!
//! (a) Single-block repair time of the block-level (`Pipe-B`), serialised
//!     slice-level (`Pipe-S`) and fully parallelised (`RP`) implementations.
//! (b) Full-node recovery rate of the PUSH-style block-level implementations
//!     (`Pipe-Rep`, `Pipe-Sur`) versus repair pipelining with a single
//!     replacement node (`RP-single`) and with the reconstructed blocks
//!     spread over all nodes (`RP-all`).
//!
//! Run with `cargo run --release -p ecpipe-bench --bin fig11`.

use ecc::slice::SliceLayout;
use ecpipe_bench::*;
use repair::fullnode::{self, AffectedStripe, HelperSelection};
use repair::{rp, Scheme, SingleRepairJob};
use simnet::{CostModel, Schedule, Simulator, TaskId, Topology, GBIT};

fn main() {
    fig11a_single_block_implementations();
    fig11b_recovery_implementations();
}

/// Figure 11(a): single-block repair time versus block size for Pipe-B,
/// Pipe-S and RP ((14,10), 32 KiB slices).
fn fig11a_single_block_implementations() {
    header(
        "Figure 11(a)",
        "single-block repair time (s) vs block size: Pipe-B / Pipe-S / RP ((14,10))",
    );
    let sim = local_cluster(GBIT);
    for block_mib in [8, 16, 32, 64] {
        let layout = SliceLayout::new(block_mib * MIB, DEFAULT_SLICE);
        let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
        let pipe_b = sim.run(&Scheme::BlockPipeline.schedule(&job)).makespan;
        let pipe_s = sim.run(&rp::schedule_pipe_s(&job)).makespan;
        let rp_t = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
        row(
            &format!("{block_mib} MiB"),
            &[("Pipe-B", pipe_b), ("Pipe-S", pipe_s), ("RP", rp_t)],
        );
    }
    println!();
}

/// PUSH-style recovery: block-level pipelining per stripe, with each helper's
/// single-threaded loop handling one block at a time (it does not accept the
/// next stripe's block until it has forwarded the current one).
fn push_recovery_schedule(jobs: &[SingleRepairJob]) -> Schedule {
    let mut s = Schedule::new();
    // Last outgoing transfer of each node, used to serialise its loop.
    let mut last_out: std::collections::HashMap<usize, TaskId> = std::collections::HashMap::new();
    for job in jobs {
        let block = job.layout.block_size as u64;
        let mut incoming: Option<TaskId> = None;
        let path: Vec<usize> = job
            .helpers
            .iter()
            .copied()
            .chain(std::iter::once(job.requestor))
            .collect();
        for w in path.windows(2) {
            let (src, dst) = (w[0], w[1]);
            let read = s.disk_read(src, block, &[]);
            let mut deps = vec![read];
            if let Some(inc) = incoming {
                deps.push(inc);
            }
            if let Some(&prev) = last_out.get(&src) {
                deps.push(prev);
            }
            let combine = s.compute(src, block, &deps);
            let t = s.transfer(src, dst, block, &[combine]);
            last_out.insert(src, t);
            incoming = Some(t);
        }
    }
    s
}

/// Figure 11(b): full-node recovery rate versus block size. A fixed 1 GiB of
/// lost data is recovered (the paper uses 4 TiB; the ratio between the
/// schemes is what the figure reports).
fn fig11b_recovery_implementations() {
    header(
        "Figure 11(b)",
        "full-node recovery rate (MiB/s) vs block size: Pipe-Rep / Pipe-Sur / RP-single / RP-all",
    );
    let total_bytes = 1024 * MIB;
    let sim = Simulator::new(Topology::flat(40, GBIT), CostModel::paper_local_cluster());
    for block_mib in [1usize, 4, 16, 64] {
        let block = block_mib * MIB;
        let stripes = total_bytes / block;
        let affected: Vec<AffectedStripe> = (0..stripes)
            .map(|i| AffectedStripe {
                available_nodes: (0..13).map(|j| 1 + (i + j) % 16).collect(),
            })
            .collect();
        let layout = SliceLayout::new(block, DEFAULT_SLICE.min(block));
        let single_requestor = vec![20usize];
        let all_requestors: Vec<usize> = (1..=16).collect();

        let rate = |requestors: &[usize], slice_level: bool, greedy: bool| -> f64 {
            let jobs = fullnode::plan_recovery(
                &affected,
                10,
                requestors,
                layout,
                if greedy {
                    HelperSelection::Greedy
                } else {
                    HelperSelection::LowestIndex
                },
            )
            .expect("figure scenario always has enough helpers");
            let schedule = if slice_level {
                fullnode::build_recovery_schedule(&jobs, |job| {
                    Scheme::RepairPipelining.schedule(job)
                })
            } else {
                push_recovery_schedule(&jobs)
            };
            let report = sim.run(&schedule);
            fullnode::recovery_rate(&jobs, report.makespan) / MIB as f64
        };

        let pipe_rep = rate(&single_requestor, false, false);
        let pipe_sur = rate(&all_requestors, false, false);
        let rp_single = rate(&single_requestor, true, true);
        let rp_all = rate(&all_requestors, true, true);
        row(
            &format!("{block_mib} MiB"),
            &[
                ("Pipe-Rep", pipe_rep),
                ("Pipe-Sur", pipe_sur),
                ("RP-single", rp_single),
                ("RP-all", rp_all),
            ],
        );
    }
    println!();
}
