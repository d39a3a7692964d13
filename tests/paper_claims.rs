//! Cross-crate integration tests for the paper's headline claims.
//!
//! Each test states the claim as the paper phrases it and checks that the
//! reproduction (planners + simulator, or the real runtime) exhibits the same
//! behaviour — same winner, roughly the same factor.

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::repair::{
    analysis, multiblock, rack_aware, rp, weighted_path, MultiRepairJob, Scheme, SingleRepairJob,
};
use repair_pipelining::simnet::{CostModel, Simulator, Topology, GBIT, MBIT};

const MIB: usize = 1024 * 1024;
const KIB: usize = 1024;

fn paper_sim() -> Simulator {
    Simulator::new(Topology::flat(18, GBIT), CostModel::paper_local_cluster())
}

fn default_job(k: usize) -> SingleRepairJob {
    SingleRepairJob::new((1..=k).collect(), 0, SliceLayout::new(64 * MIB, 32 * KIB))
}

/// §1 / §6.1: repair pipelining reduces the single-block repair time by
/// nearly 90% compared to conventional repair and about 70% compared to PPR.
#[test]
fn headline_reductions_hold() {
    let sim = paper_sim();
    let job = default_job(10);
    let conv = sim.run(&Scheme::Conventional.schedule(&job)).makespan;
    let ppr_t = sim.run(&Scheme::Ppr.schedule(&job)).makespan;
    let rp_t = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;

    let vs_conv = 1.0 - rp_t / conv;
    let vs_ppr = 1.0 - rp_t / ppr_t;
    assert!(vs_conv > 0.85, "reduction vs conventional {vs_conv}");
    assert!(vs_ppr > 0.6, "reduction vs PPR {vs_ppr}");
}

/// §3.2: the single-block repair time approaches the normal read time for a
/// single available block (within ~10%).
#[test]
fn repair_time_close_to_normal_read_time() {
    let sim = paper_sim();
    let job = default_job(10);
    let rp_t = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
    // Normal read: stream one block over one link.
    let mut direct = simnet::Schedule::new();
    let layout = job.layout;
    for j in 0..layout.slice_count() {
        let len = layout.slice_len(j) as u64;
        let read = direct.disk_read(1, len, &[]);
        direct.transfer(1, 0, len, &[read]);
    }
    let direct_t = sim.run(&direct).makespan;
    assert!(
        rp_t < 1.1 * direct_t,
        "rp {rp_t} should be within 10% of direct send {direct_t}"
    );
}

/// §2.2 / §3.2: in timeslots, conventional repair costs k, PPR costs
/// ceil(log2(k+1)), and repair pipelining approaches 1. The simulator must
/// agree with the closed-form analysis on an ideal network.
#[test]
fn simulator_matches_timeslot_analysis() {
    let sim = Simulator::new(Topology::flat(18, GBIT), CostModel::network_only());
    for k in [6usize, 10, 12] {
        let job = SingleRepairJob::new((1..=k).collect(), 0, SliceLayout::new(32 * MIB, 32 * KIB));
        let timeslot = analysis::timeslot_seconds(32 * MIB, GBIT);
        let conv = sim.run(&Scheme::Conventional.schedule(&job)).makespan;
        let ppr_t = sim.run(&Scheme::Ppr.schedule(&job)).makespan;
        let rp_t = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
        assert!((conv / timeslot - analysis::conventional_single(k)).abs() < 0.1);
        assert!((ppr_t / timeslot - analysis::ppr_single(k)).abs() < 0.15);
        assert!((rp_t / timeslot - analysis::rp_single(k, job.slice_count())).abs() < 0.05);
    }
}

/// §6.1 (Figure 8(c)): the repair time of conventional repair grows with k,
/// while repair pipelining stays flat.
#[test]
fn rp_is_insensitive_to_k() {
    let sim = paper_sim();
    let conv6 = sim
        .run(&Scheme::Conventional.schedule(&default_job(6)))
        .makespan;
    let conv12 = sim
        .run(&Scheme::Conventional.schedule(&default_job(12)))
        .makespan;
    let rp6 = sim
        .run(&Scheme::RepairPipelining.schedule(&default_job(6)))
        .makespan;
    let rp12 = sim
        .run(&Scheme::RepairPipelining.schedule(&default_job(12)))
        .makespan;
    assert!(conv12 > 1.8 * conv6);
    assert!(rp12 < 1.05 * rp6);
}

/// §4.4 / Figure 8(f): a multi-block repair with repair pipelining takes
/// about 60% less time than conventional repair for four failed blocks.
#[test]
fn multi_block_repair_reduction() {
    let sim = Simulator::new(Topology::flat(40, GBIT), CostModel::paper_local_cluster());
    let layout = SliceLayout::new(64 * MIB, 32 * KIB);
    let job = MultiRepairJob::new((1..=10).collect(), (20..24).collect(), layout);
    let conv = sim.run(&multiblock::schedule_conventional(&job)).makespan;
    let rp_t = sim.run(&multiblock::schedule_rp(&job)).makespan;
    let reduction = 1.0 - rp_t / conv;
    assert!(
        reduction > 0.5 && reduction < 0.8,
        "multi-block reduction {reduction}"
    );
}

/// §4.1 / Figure 8(g): with a 100 Mb/s edge link the cyclic version cuts the
/// repair time by roughly 80% compared to the basic version.
#[test]
fn cyclic_version_wins_under_edge_bottleneck() {
    let layout = SliceLayout::new(64 * MIB, 32 * KIB);
    let mut topo = Topology::flat(18, GBIT);
    topo.limit_ingress(0, 100.0 * MBIT);
    let sim = Simulator::new(topo, CostModel::paper_local_cluster());
    let job = SingleRepairJob::new((1..=10).collect(), 0, layout);
    let basic = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
    let cyc = sim
        .run(&Scheme::CyclicRepairPipelining.schedule(&job))
        .makespan;
    let reduction = 1.0 - cyc / basic;
    assert!(reduction > 0.7, "cyclic reduction {reduction}");
}

/// §4.2 / Figure 8(h): rack-aware path selection minimises the cross-rack
/// traffic and further reduces the repair time over a rack-oblivious path.
#[test]
fn rack_awareness_reduces_cross_rack_traffic_and_time() {
    let topo = Topology::rack_based(&[3, 3, 3], GBIT, 800.0 * MBIT);
    let sim = Simulator::new(topo.clone(), CostModel::paper_local_cluster());
    let layout = SliceLayout::new(64 * MIB, 32 * KIB);
    let requestor = 1;
    let candidates: Vec<usize> = (2..9).collect();

    let aware = rack_aware::select_path(&topo, requestor, &candidates, 6);
    let crossings = rack_aware::cross_rack_transmissions(&topo, &aware, requestor);
    assert_eq!(
        crossings,
        rack_aware::minimum_cross_rack_transmissions(&topo, requestor, &candidates, 6)
    );

    let oblivious = vec![3, 6, 7, 4, 5, 2];
    let t_aware = sim
        .run(&Scheme::RepairPipelining.schedule(&SingleRepairJob::new(aware, requestor, layout)))
        .makespan;
    let t_oblivious = sim
        .run(
            &Scheme::RepairPipelining.schedule(&SingleRepairJob::new(oblivious, requestor, layout)),
        )
        .makespan;
    let report_aware = sim.run(&Scheme::RepairPipelining.schedule(&SingleRepairJob::new(
        rack_aware::select_path(&topo, requestor, &candidates, 6),
        requestor,
        layout,
    )));
    assert!(t_aware < 0.7 * t_oblivious);
    // Cross-rack traffic equals exactly two blocks (one per remote rack).
    assert_eq!(report_aware.cross_rack_bytes, 2 * 64 * MIB as u64);
}

/// §4.3: Algorithm 2 returns the same optimal bottleneck as brute force and
/// improves the repair time on the paper's EC2 bandwidth measurements.
#[test]
fn weighted_path_selection_is_optimal_and_helps() {
    let topo = simnet::geo::north_america(4);
    let layout = SliceLayout::new(64 * MIB, 32 * KIB);
    let sim = Simulator::new(topo.clone(), CostModel::ec2_t2_micro());
    let requestor = 0;
    let candidates: Vec<usize> = (1..16).collect();

    let optimal = weighted_path::optimal_path(&topo, requestor, &candidates, 12).unwrap();
    let random_path: Vec<usize> = candidates.iter().copied().take(12).collect();

    let t_random = sim
        .run(&Scheme::RepairPipelining.schedule(&SingleRepairJob::new(
            random_path,
            requestor,
            layout,
        )))
        .makespan;
    let t_optimal = sim
        .run(&Scheme::RepairPipelining.schedule(&SingleRepairJob::new(
            optimal.path.clone(),
            requestor,
            layout,
        )))
        .makespan;
    assert!(t_optimal <= t_random);

    // Against the brute-force oracle on a reduced instance.
    let small: Vec<usize> = (1..8).collect();
    let fast = weighted_path::optimal_path(&topo, requestor, &small, 5).unwrap();
    let slow = weighted_path::brute_force_path(&topo, requestor, &small, 5).unwrap();
    assert!((fast.bottleneck_weight - slow.bottleneck_weight).abs() < 1e-12);
}

/// §6.4 (Figure 11(a)): slice-level pipelining with parallel sub-operations
/// (RP) beats the serialised slice-level baseline, which beats block-level
/// pipelining.
#[test]
fn implementation_comparison_ordering() {
    let sim = paper_sim();
    let job = default_job(10);
    let pipe_b = sim.run(&Scheme::BlockPipeline.schedule(&job)).makespan;
    let pipe_s = sim.run(&rp::schedule_pipe_s(&job)).makespan;
    let rp_t = sim.run(&Scheme::RepairPipelining.schedule(&job)).makespan;
    assert!(rp_t < pipe_s && pipe_s < pipe_b);
    assert!(pipe_b > 4.0 * pipe_s, "Pipe-B {pipe_b} vs Pipe-S {pipe_s}");
}

/// The scheme enum exposes every single-block scheme uniformly.
#[test]
fn scheme_enum_builds_consistent_schedules() {
    let sim = paper_sim();
    let job = default_job(10);
    let mut times = Vec::new();
    for scheme in [
        Scheme::Conventional,
        Scheme::Ppr,
        Scheme::RepairPipelining,
        Scheme::CyclicRepairPipelining,
    ] {
        let report = sim.run(&scheme.schedule(&job));
        assert_eq!(report.network_bytes, 10 * 64 * MIB as u64, "{scheme:?}");
        times.push((scheme, report.makespan));
    }
    // Conventional is the slowest of the four on a homogeneous network.
    let conv = times[0].1;
    for (label, t) in &times[1..] {
        assert!(*t < conv, "{label} should beat conventional");
    }
}
