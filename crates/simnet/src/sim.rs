//! The discrete-event scheduler.
//!
//! A repair is expressed as a [`Schedule`]: a DAG of tasks (network
//! transfers, disk reads, compute steps, connection setups) with explicit
//! dependencies. The [`Simulator`] executes the schedule against a
//! [`Topology`](crate::Topology) and a [`CostModel`](crate::CostModel) and
//! reports the makespan plus traffic statistics.
//!
//! Resources are modelled at three levels:
//!
//! * per node — an uplink NIC, a downlink NIC, a disk and a CPU;
//! * per directed node pair — the point-to-point link (its `pair_limit`);
//! * per rack — an optional aggregate core-link capacity shared by all
//!   cross-rack traffic entering or leaving the rack.
//!
//! Each resource serves tasks one at a time, in submission order (FIFO), and
//! a transfer occupies every resource it touches for `bytes / that
//! resource's rate`. Its own completion takes `bytes / effective_bandwidth`
//! (the minimum of all applicable rates) plus the per-transfer request
//! overhead. This reproduces the paper's timeslot accounting (`k` blocks
//! converging on one requestor serialise on its downlink; slice transfers
//! over distinct links proceed in parallel) while still letting several slow
//! point-to-point flows share one fast NIC, which is what the cyclic repair
//! extension (§4.1) exploits.

use std::collections::HashMap;

use crate::cost::CostModel;
use crate::topology::{NodeId, Topology};

/// Identifier of a task within a schedule (its submission index).
pub type TaskId = usize;

/// The kind of work a task performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// Move `bytes` from `src` to `dst` over the network.
    Transfer {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Read `bytes` from the local disk of `node`.
    DiskRead {
        /// The node performing the read.
        node: NodeId,
        /// Bytes read.
        bytes: u64,
    },
    /// Run the coding computation over `bytes` on `node`.
    Compute {
        /// The node performing the computation.
        node: NodeId,
        /// Bytes processed.
        bytes: u64,
    },
    /// Establish a connection from `node` (charged the fixed
    /// connection-setup cost on that node's CPU).
    ConnectionSetup {
        /// The node initiating the connection.
        node: NodeId,
    },
    /// A fixed delay on a node's CPU (e.g. a metadata lookup or the extra
    /// latency of reading through a storage-system routine).
    Delay {
        /// The node that is busy.
        node: NodeId,
        /// The delay in seconds.
        seconds: f64,
    },
}

/// A single task plus its dependencies (tasks that must finish first).
#[derive(Debug, Clone)]
pub struct Task {
    /// The task identifier (submission index).
    pub id: TaskId,
    /// What the task does.
    pub kind: TaskKind,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
}

/// A dependency graph of tasks describing one repair (or any other
/// distributed operation).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    tasks: Vec<Task>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    fn push(&mut self, kind: TaskKind, deps: &[TaskId]) -> TaskId {
        let id = self.tasks.len();
        for &d in deps {
            assert!(d < id, "dependencies must refer to earlier tasks");
        }
        self.tasks.push(Task {
            id,
            kind,
            deps: deps.to_vec(),
        });
        id
    }

    /// Adds a network transfer task.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or a dependency refers to a later task.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[TaskId]) -> TaskId {
        assert_ne!(src, dst, "transfers must cross the network");
        self.push(TaskKind::Transfer { src, dst, bytes }, deps)
    }

    /// Adds a local disk read task.
    pub fn disk_read(&mut self, node: NodeId, bytes: u64, deps: &[TaskId]) -> TaskId {
        self.push(TaskKind::DiskRead { node, bytes }, deps)
    }

    /// Adds a coding computation task.
    pub fn compute(&mut self, node: NodeId, bytes: u64, deps: &[TaskId]) -> TaskId {
        self.push(TaskKind::Compute { node, bytes }, deps)
    }

    /// Adds a connection-setup task.
    pub fn connection_setup(&mut self, node: NodeId, deps: &[TaskId]) -> TaskId {
        self.push(TaskKind::ConnectionSetup { node }, deps)
    }

    /// Adds a fixed delay on a node's CPU.
    pub fn delay(&mut self, node: NodeId, seconds: f64, deps: &[TaskId]) -> TaskId {
        assert!(seconds >= 0.0, "delay must be non-negative");
        self.push(TaskKind::Delay { node, seconds }, deps)
    }

    /// Appends all tasks of another schedule, remapping its task ids. Returns
    /// the id offset applied to the appended tasks (their new id is
    /// `old id + offset`).
    ///
    /// Used to combine the per-stripe schedules of a multi-stripe repair
    /// (full-node recovery) into one simulation so that shared helpers and
    /// requestors contend for the same resources.
    pub fn append(&mut self, other: &Schedule) -> usize {
        let offset = self.tasks.len();
        for task in other.tasks() {
            let deps: Vec<TaskId> = task.deps.iter().map(|d| d + offset).collect();
            self.tasks.push(Task {
                id: task.id + offset,
                kind: task.kind,
                deps,
            });
        }
        offset
    }

    /// Merges several independent schedules by interleaving their tasks
    /// round-robin (task 0 of every schedule, then task 1 of every schedule,
    /// and so on), remapping task ids.
    ///
    /// The simulator serves each resource in submission order, so
    /// interleaving keeps independent jobs (e.g. the per-stripe repairs of a
    /// full-node recovery) progressing concurrently instead of queueing one
    /// whole job behind another.
    pub fn interleave(schedules: &[Schedule]) -> Schedule {
        let mut combined = Schedule::new();
        let mut id_maps: Vec<Vec<TaskId>> = schedules.iter().map(|s| vec![0; s.len()]).collect();
        let longest = schedules.iter().map(|s| s.len()).max().unwrap_or(0);
        for idx in 0..longest {
            for (si, schedule) in schedules.iter().enumerate() {
                if idx >= schedule.len() {
                    continue;
                }
                let task = &schedule.tasks()[idx];
                let new_id = combined.tasks.len();
                let deps: Vec<TaskId> = task.deps.iter().map(|&d| id_maps[si][d]).collect();
                combined.tasks.push(Task {
                    id: new_id,
                    kind: task.kind,
                    deps,
                });
                id_maps[si][idx] = new_id;
            }
        }
        combined
    }

    /// The number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the schedule has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks in submission order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }
}

/// The outcome of simulating a schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the last task, in seconds.
    pub makespan: f64,
    /// Per-task finish times, indexed by [`TaskId`].
    pub finish_times: Vec<f64>,
    /// Total bytes moved over the network.
    pub network_bytes: u64,
    /// Bytes moved over cross-rack links.
    pub cross_rack_bytes: u64,
    /// Bytes carried by the most-loaded directed link.
    pub max_link_bytes: u64,
    /// Bytes carried by each directed link that was used.
    pub link_bytes: HashMap<(NodeId, NodeId), u64>,
}

impl SimReport {
    /// The number of distinct directed links used.
    pub fn links_used(&self) -> usize {
        self.link_bytes.len()
    }

    /// A simple load-imbalance metric: bytes on the most-loaded link divided
    /// by the mean bytes per used link (1.0 means perfectly balanced).
    pub fn link_imbalance(&self) -> f64 {
        if self.link_bytes.is_empty() {
            return 1.0;
        }
        let mean = self.network_bytes as f64 / self.link_bytes.len() as f64;
        self.max_link_bytes as f64 / mean
    }
}

/// Simulates schedules against a topology and a cost model.
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Topology,
    cost: CostModel,
}

impl Simulator {
    /// Creates a simulator.
    pub fn new(topology: Topology, cost: CostModel) -> Self {
        Simulator { topology, cost }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Runs a schedule to completion and reports timing and traffic.
    pub fn run(&self, schedule: &Schedule) -> SimReport {
        let n = self.topology.num_nodes();
        let racks = self.topology.num_racks();
        let mut uplink_free = vec![0.0f64; n];
        let mut downlink_free = vec![0.0f64; n];
        let mut disk_free = vec![0.0f64; n];
        let mut cpu_free = vec![0.0f64; n];
        let mut pair_free: HashMap<(NodeId, NodeId), f64> = HashMap::new();
        let mut rack_up_free = vec![0.0f64; racks];
        let mut rack_down_free = vec![0.0f64; racks];
        let mut finish_times = vec![0.0f64; schedule.len()];
        let mut network_bytes = 0u64;
        let mut cross_rack_bytes = 0u64;
        let mut link_bytes: HashMap<(NodeId, NodeId), u64> = HashMap::new();

        for task in schedule.tasks() {
            let deps_ready = task
                .deps
                .iter()
                .map(|&d| finish_times[d])
                .fold(0.0f64, f64::max);
            let finish = match task.kind {
                TaskKind::Transfer { src, dst, bytes } => {
                    let cross_rack = self.topology.is_cross_rack(src, dst);
                    let rack_cap = if cross_rack {
                        self.topology.rack_link_capacity()
                    } else {
                        None
                    };
                    let pair = pair_free.entry((src, dst)).or_insert(0.0);
                    let mut start = deps_ready
                        .max(uplink_free[src])
                        .max(downlink_free[dst])
                        .max(*pair);
                    if rack_cap.is_some() {
                        start = start
                            .max(rack_up_free[self.topology.rack_of(src)])
                            .max(rack_down_free[self.topology.rack_of(dst)]);
                    }
                    // Completion is governed by the slowest element on the
                    // path; each resource is busy for bytes / its own rate
                    // plus the per-transfer request overhead (issuing many
                    // tiny slices keeps a link busy beyond the pure wire
                    // time, which is the small-slice penalty of Figure 8(a)).
                    let overhead = self.cost.per_transfer_overhead;
                    let rate = self.topology.bandwidth(src, dst);
                    let finish = start + bytes as f64 / rate + overhead;
                    uplink_free[src] = uplink_free[src]
                        .max(start + bytes as f64 / self.topology.uplink(src) + overhead);
                    downlink_free[dst] = downlink_free[dst]
                        .max(start + bytes as f64 / self.topology.downlink(dst) + overhead);
                    *pair = start + bytes as f64 / self.topology.pair_limit(src, dst) + overhead;
                    if let Some(cap) = rack_cap {
                        let busy = bytes as f64 / cap + overhead;
                        let src_rack = self.topology.rack_of(src);
                        let dst_rack = self.topology.rack_of(dst);
                        rack_up_free[src_rack] = rack_up_free[src_rack].max(start + busy);
                        rack_down_free[dst_rack] = rack_down_free[dst_rack].max(start + busy);
                    }
                    network_bytes += bytes;
                    if cross_rack {
                        cross_rack_bytes += bytes;
                    }
                    *link_bytes.entry((src, dst)).or_insert(0) += bytes;
                    finish
                }
                TaskKind::DiskRead { node, bytes } => {
                    let start = deps_ready.max(disk_free[node]);
                    let finish = start + self.cost.disk_time(bytes as usize);
                    disk_free[node] = finish;
                    finish
                }
                TaskKind::Compute { node, bytes } => {
                    let start = deps_ready.max(cpu_free[node]);
                    let finish = start + self.cost.compute_time(bytes as usize);
                    cpu_free[node] = finish;
                    finish
                }
                TaskKind::ConnectionSetup { node } => {
                    let start = deps_ready.max(cpu_free[node]);
                    let finish = start + self.cost.connection_setup;
                    cpu_free[node] = finish;
                    finish
                }
                TaskKind::Delay { node, seconds } => {
                    let start = deps_ready.max(cpu_free[node]);
                    let finish = start + seconds;
                    cpu_free[node] = finish;
                    finish
                }
            };
            finish_times[task.id] = finish;
        }

        let makespan = finish_times.iter().copied().fold(0.0f64, f64::max);
        let max_link_bytes = link_bytes.values().copied().max().unwrap_or(0);
        SimReport {
            makespan,
            finish_times,
            network_bytes,
            cross_rack_bytes,
            max_link_bytes,
            link_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GBIT;

    const MIB: u64 = 1024 * 1024;

    fn network_sim(nodes: usize, bw: f64) -> Simulator {
        Simulator::new(Topology::flat(nodes, bw), CostModel::network_only())
    }

    #[test]
    fn empty_schedule_has_zero_makespan() {
        let sim = network_sim(2, GBIT);
        let report = sim.run(&Schedule::new());
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.network_bytes, 0);
    }

    #[test]
    fn single_transfer_duration_matches_bandwidth() {
        let sim = network_sim(2, GBIT);
        let mut s = Schedule::new();
        s.transfer(0, 1, 64 * MIB, &[]);
        let report = sim.run(&s);
        let expected = (64 * MIB) as f64 / GBIT;
        assert!((report.makespan - expected).abs() < 1e-9);
    }

    #[test]
    fn transfers_to_same_destination_serialise() {
        // Two senders into one receiver share the receiver downlink.
        let sim = network_sim(3, GBIT);
        let mut s = Schedule::new();
        s.transfer(0, 2, 64 * MIB, &[]);
        s.transfer(1, 2, 64 * MIB, &[]);
        let report = sim.run(&s);
        let expected = 2.0 * (64 * MIB) as f64 / GBIT;
        assert!((report.makespan - expected).abs() < 1e-9);
    }

    #[test]
    fn transfers_on_disjoint_links_run_in_parallel() {
        let sim = network_sim(4, GBIT);
        let mut s = Schedule::new();
        s.transfer(0, 1, 64 * MIB, &[]);
        s.transfer(2, 3, 64 * MIB, &[]);
        let report = sim.run(&s);
        let expected = (64 * MIB) as f64 / GBIT;
        assert!((report.makespan - expected).abs() < 1e-9);
    }

    #[test]
    fn dependencies_are_respected() {
        let sim = network_sim(3, GBIT);
        let mut s = Schedule::new();
        let t0 = s.transfer(0, 1, 64 * MIB, &[]);
        s.transfer(1, 2, 64 * MIB, &[t0]);
        let report = sim.run(&s);
        let expected = 2.0 * (64 * MIB) as f64 / GBIT;
        assert!((report.makespan - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dependencies must refer to earlier tasks")]
    fn forward_dependency_panics() {
        let mut s = Schedule::new();
        s.transfer(0, 1, 1, &[5]);
    }

    #[test]
    fn per_transfer_overhead_is_charged() {
        let cost = CostModel {
            per_transfer_overhead: 0.5,
            ..CostModel::network_only()
        };
        let sim = Simulator::new(Topology::flat(2, GBIT), cost);
        let mut s = Schedule::new();
        s.transfer(0, 1, 0, &[]);
        let report = sim.run(&s);
        assert!((report.makespan - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disk_and_compute_use_separate_resources() {
        let cost = CostModel {
            disk_read_bps: 100.0,
            compute_bps: 100.0,
            per_transfer_overhead: 0.0,
            connection_setup: 0.0,
        };
        let sim = Simulator::new(Topology::flat(1, GBIT), cost);
        let mut s = Schedule::new();
        s.disk_read(0, 100, &[]);
        s.compute(0, 100, &[]);
        let report = sim.run(&s);
        // They overlap because they use different resources.
        assert!((report.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_resource_tasks_queue() {
        let cost = CostModel {
            disk_read_bps: 100.0,
            ..CostModel::network_only()
        };
        let sim = Simulator::new(Topology::flat(1, GBIT), cost);
        let mut s = Schedule::new();
        s.disk_read(0, 100, &[]);
        s.disk_read(0, 100, &[]);
        let report = sim.run(&s);
        assert!((report.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cross_rack_bytes_are_tracked() {
        let topo = Topology::rack_based(&[2, 2], GBIT, GBIT / 2.0);
        let sim = Simulator::new(topo, CostModel::network_only());
        let mut s = Schedule::new();
        s.transfer(0, 1, 10, &[]); // inner rack
        s.transfer(0, 2, 20, &[]); // cross rack
        let report = sim.run(&s);
        assert_eq!(report.network_bytes, 30);
        assert_eq!(report.cross_rack_bytes, 20);
        assert_eq!(report.links_used(), 2);
        assert_eq!(report.max_link_bytes, 20);
    }

    #[test]
    fn cross_rack_transfers_share_the_rack_core_link() {
        // Each pair below uses distinct NICs, so only the rack core link
        // (GBIT / 2, shared by all of a rack's cross-rack traffic) can make
        // two transfers wait for each other.
        let sim = Simulator::new(
            Topology::rack_based(&[2, 2], GBIT, GBIT / 2.0),
            CostModel::network_only(),
        );
        let makespan = |pairs: &[(usize, usize)]| {
            let mut s = Schedule::new();
            for &(src, dst) in pairs {
                s.transfer(src, dst, 1_000_000, &[]);
            }
            sim.run(&s).makespan
        };
        assert!((makespan(&[(0, 2)]) - 0.016).abs() < 1e-9);
        assert!((makespan(&[(0, 2), (1, 3)]) - 0.032).abs() < 1e-9);
        assert!((makespan(&[(0, 1), (2, 3)]) - 0.008).abs() < 1e-9);
    }

    #[test]
    fn connection_setup_cost() {
        let cost = CostModel {
            connection_setup: 0.25,
            ..CostModel::network_only()
        };
        let sim = Simulator::new(Topology::flat(2, GBIT), cost);
        let mut s = Schedule::new();
        s.connection_setup(0, &[]);
        s.connection_setup(0, &[]);
        let report = sim.run(&s);
        assert!((report.makespan - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slower_link_dominates_transfer_time() {
        let mut topo = Topology::flat(3, GBIT);
        topo.set_link_bandwidth(0, 2, GBIT / 10.0);
        let sim = Simulator::new(topo, CostModel::network_only());
        let mut s = Schedule::new();
        s.transfer(0, 2, 64 * MIB, &[]);
        let report = sim.run(&s);
        let expected = (64 * MIB) as f64 / (GBIT / 10.0);
        assert!((report.makespan - expected).abs() < 1e-6);
    }
}
