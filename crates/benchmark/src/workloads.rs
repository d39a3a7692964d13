//! The four workloads, driven only through the `EcPipe` façade.
//!
//! All use RS(14,10), 1 MiB blocks in 32 KiB slices (the paper's code and
//! slice size), the repair-pipelining strategy and the default
//! `ManagerConfig`. Load is closed-loop: each client issues its next op when
//! the previous one returned, as a DFS client on a degraded read or a
//! RaidNode on recovery does. Every socket is host loopback; the
//! `degraded_net` link rate is token-bucket emulation, not a wire.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ecpipe::{
    EcPipe, EcPipeBuilder, ManagerReport, MetaBackend, ObjectMeta, RepairOutcome, StoreBackend,
    TransportChoice,
};

use crate::proc;
use crate::rng::Rng;
use crate::spec::Workload;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::Res;

pub const N: usize = 14;
pub const K: usize = 10;
pub const BLOCK: usize = 1 << 20;
pub const SLICE: usize = 32 << 10;
pub const OBJECT: usize = K * BLOCK;
/// `degraded_net` link rate: one 1 MiB block per 15.6 ms timeslot.
pub const NET_RATE: u64 = 64 << 20;
/// `client_io` issues its ops in blocks of `MIX_BLOCK`, `MIX_PUTS` of them
/// puts at seeded positions: the mix is 30 % in every block, not on average,
/// so every window of whole blocks does the same work.
const MIX_BLOCK: usize = 10;
const MIX_PUTS: usize = 3;

/// The sizes that differ between workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: usize,
    /// One-stripe (10 MiB) objects loaded during set-up.
    pub objects: usize,
    pub clients: usize,
    /// Untimed ops per client that end set-up: they open the lazily made
    /// per-pair connections and fault in the stores' memory.
    pub warmup_ops: usize,
    /// Ops per client in one window of the measured phase. Windows are cut by
    /// work, not by time, so each does the same work and its CPU time and
    /// goodput can be set beside every other window's.
    pub window_ops: usize,
}

impl Workload {
    pub fn shape(self) -> Shape {
        match self {
            Workload::DegradedCpu => Shape {
                nodes: 16,
                objects: 4,
                clients: 1,
                warmup_ops: 100,
                window_ops: 100,
            },
            Workload::DegradedNet => Shape {
                nodes: 16,
                objects: 4,
                clients: 1,
                warmup_ops: 30,
                window_ops: 50,
            },
            // 22 nodes leave 22 - 14 = 8 spares, so 8 nodes can die in turn
            // before a stripe has nowhere to rebuild. 22 one-stripe objects
            // put exactly 14 blocks on every node, whichever the seed kills.
            Workload::NodeRecovery => Shape {
                nodes: 22,
                objects: 22,
                clients: 1,
                warmup_ops: 0,
                // One window: the stream ends after its 8 kills.
                window_ops: usize::MAX,
            },
            Workload::ClientIo => Shape {
                nodes: 16,
                objects: 16,
                clients: 2,
                warmup_ops: 8,
                window_ops: 10 * MIX_BLOCK,
            },
        }
    }
}

/// One façade operation of a workload's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Erase data block `block` of pool object `object`, then `get_range`
    /// exactly that block.
    Degraded { object: usize, block: usize },
    /// `kill_node` + `report_node_failure` + `wait_idle`.
    Kill { node: usize },
    /// `put` a fresh object with the bytes of pool object `source` (then an
    /// untimed read-back and `delete`).
    Put { source: usize },
    /// Whole-object `get` of pool object `object`.
    Get { object: usize },
}

/// Which part of a segment a stream feeds; each has its own seeded stream.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Warmup,
    Measure,
}

/// Which of a run's op streams: each (segment, window, client, phase) has
/// its own seeded stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamId {
    pub segment: usize,
    pub window: usize,
    pub client: usize,
    pub phase: Phase,
}

/// The seeded op sequence of one client in one window. Endless for the
/// degraded and client workloads; `node_recovery` ends after the 8 kills a
/// 22-node cluster can absorb.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    kills: std::vec::IntoIter<usize>,
    /// `client_io`: whether each remaining op of the current block is a put.
    mix: std::vec::IntoIter<bool>,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, id: StreamId) -> Self {
        let label = ((workload as u64 + 1) << 56)
            | ((id.segment as u64) << 40)
            | ((id.window as u64) << 16)
            | ((id.client as u64) << 4)
            | id.phase as u64;
        let mut rng = Rng::fork(seed, label);
        let shape = workload.shape();
        let kills = match workload {
            Workload::NodeRecovery => rng.choose_distinct(shape.nodes, shape.nodes - N),
            _ => Vec::new(),
        };
        OpStream {
            workload,
            rng,
            kills: kills.into_iter(),
            mix: Vec::new().into_iter(),
        }
    }

    /// Whether the next `client_io` op is a put; draws the next block's put
    /// positions when the current block is used up.
    fn next_is_put(&mut self) -> bool {
        if let Some(put) = self.mix.next() {
            return put;
        }
        let puts = self.rng.choose_distinct(MIX_BLOCK, MIX_PUTS);
        let block: Vec<bool> = (0..MIX_BLOCK).map(|i| puts.contains(&i)).collect();
        self.mix = block.into_iter();
        self.mix.next().unwrap_or(false)
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let objects = self.workload.shape().objects;
        match self.workload {
            Workload::DegradedCpu | Workload::DegradedNet => Some(Op::Degraded {
                object: self.rng.below(objects),
                block: self.rng.below(K),
            }),
            Workload::NodeRecovery => self.kills.next().map(|node| Op::Kill { node }),
            Workload::ClientIo => Some(if self.next_is_put() {
                Op::Put {
                    source: self.rng.below(objects),
                }
            } else {
                Op::Get {
                    object: self.rng.below(objects),
                }
            }),
        }
    }
}

/// The object bytes of a run: generated once from the seed, before any
/// set-up is timed, and shared by all of the run's segments.
pub fn object_pool(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
    (0..workload.shape().objects)
        .map(|i| Rng::fork(seed, 0x0B_1EC7_0000 + i as u64).bytes(OBJECT))
        .collect()
}

/// A directory under the build directory, removed when dropped — on success
/// and on every error path.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `<dir of this executable>/ecpipe-benchmark-scratch`: inside the
    /// checkout's (git-ignored) build directory, never outside it.
    pub fn root() -> Res<PathBuf> {
        let exe = std::env::current_exe()?;
        let dir = exe.parent().ok_or("executable has no parent directory")?;
        Ok(dir.join("ecpipe-benchmark-scratch"))
    }

    /// A fresh `<root>/<pid>-<tag>`.
    pub fn create(tag: &str) -> Res<Self> {
        let path = Self::root()?.join(format!("{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct StoredObject<'a> {
    name: String,
    data: &'a [u8],
    meta: ObjectMeta,
}

struct Deployment<'a> {
    pipe: EcPipe,
    objects: Vec<StoredObject<'a>>,
    /// When each step of the set-up ended: the build, then every `put`.
    step_ends: Vec<Instant>,
    /// Holds the file stores and the durable metadata of `node_recovery`.
    _scratch: Option<ScratchDir>,
}

fn deploy<'a>(workload: Workload, pool: &'a [Vec<u8>], segment: usize) -> Res<Deployment<'a>> {
    let shape = workload.shape();
    let builder = EcPipeBuilder::new()
        .code(N, K)
        .block_size(BLOCK)
        .slice_size(SLICE)
        .transport(TransportChoice::Tcp);
    let (builder, scratch) = match workload {
        Workload::DegradedCpu | Workload::ClientIo => {
            (builder.store(StoreBackend::memory(shape.nodes)), None)
        }
        Workload::DegradedNet => (
            builder
                .store(StoreBackend::memory(shape.nodes))
                .rate_limit(NET_RATE),
            None,
        ),
        // The shipped flush policy (no fsync on block writes or WAL appends)
        // is used as is.
        Workload::NodeRecovery => {
            let dir = ScratchDir::create(&format!("recovery-{segment}"))?;
            let builder = builder
                .store(StoreBackend::file_checksummed(
                    dir.path().join("blocks"),
                    shape.nodes,
                ))
                .meta(MetaBackend::durable(dir.path().join("meta")));
            (builder, Some(dir))
        }
    };
    let pipe = builder.build()?;
    let mut step_ends = vec![Instant::now()];
    let mut objects = Vec::with_capacity(pool.len());
    for (i, data) in pool.iter().enumerate() {
        let name = format!("/pool/{i}");
        let meta = pipe.put(&name, data)?;
        step_ends.push(Instant::now());
        objects.push(StoredObject { name, data, meta });
    }
    Ok(Deployment {
        pipe,
        objects,
        step_ends,
        _scratch: scratch,
    })
}

/// What one client, or all clients of a segment together, measured.
#[derive(Default)]
pub struct Tally {
    /// Latency of every timed op, in issue order (client after client).
    pub op_ms: Vec<f64>,
    /// The `put`s and `get`s of `client_io` apart.
    pub put_ms: Vec<f64>,
    pub get_ms: Vec<f64>,
    /// The `report_node_failure` call alone, per `node_recovery` round.
    pub report_failure_ms: Vec<f64>,
    /// Root span of every op, in issue order (traced segments only).
    roots: Vec<usize>,
    /// Bytes delivered to clients, or lost bytes rebuilt.
    pub bytes: u64,
    /// Ops, or repaired blocks on `node_recovery`: what CPU time is divided by.
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn absorb(&mut self, mut other: Tally) {
        self.op_ms.append(&mut other.op_ms);
        self.put_ms.append(&mut other.put_ms);
        self.get_ms.append(&mut other.get_ms);
        self.report_failure_ms.append(&mut other.report_failure_ms);
        self.roots.append(&mut other.roots);
        self.bytes += other.bytes;
        self.units += other.units;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Issues the first `ops` ops of the stream `id` (all of them on
/// `node_recovery`, whose stream ends by running out of nodes to kill).
fn client_loop(
    dep: &Deployment<'_>,
    stream: OpStream,
    ops: usize,
    id: StreamId,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let client = id.client;
    let mut tally = Tally::default();
    for (seq, op) in stream.take(ops).enumerate() {
        let (name, start, end, ok, bytes, units) = match op {
            Op::Degraded { object, block } => {
                let obj = &dep.objects[object];
                let range = block * BLOCK..(block + 1) * BLOCK;
                let erased = dep.pipe.erase_block(obj.meta.stripes[0], block);
                let start = Instant::now();
                let got = dep.pipe.get_range(&obj.name, range.clone());
                let end = Instant::now();
                let ok = erased && got.is_ok_and(|bytes| bytes == obj.data[range]);
                ("facade.get_range", start, end, ok, BLOCK, 1)
            }
            Op::Kill { node } => {
                let start = Instant::now();
                let lost = dep.pipe.kill_node(node).len();
                let reporting = Instant::now();
                dep.pipe.report_node_failure(node);
                tally.report_failure_ms.push(ms(reporting.elapsed()));
                dep.pipe.wait_idle();
                let end = Instant::now();
                // Whether the blocks really came back is checked after the
                // last round, by re-reading every object.
                ("facade.recover_node", start, end, true, lost * BLOCK, lost)
            }
            Op::Put { source } => {
                let data = dep.objects[source].data;
                let name = format!("/put/{client}/{seq}");
                let start = Instant::now();
                let put = dep.pipe.put(&name, data);
                let end = Instant::now();
                let ok = put.is_ok()
                    && dep.pipe.get(&name).is_ok_and(|bytes| bytes == data)
                    && dep.pipe.delete(&name).is_ok();
                tally.put_ms.push(ms(end - start));
                ("facade.put", start, end, ok, OBJECT, 1)
            }
            Op::Get { object } => {
                let obj = &dep.objects[object];
                let start = Instant::now();
                let got = dep.pipe.get(&obj.name);
                let end = Instant::now();
                let ok = got.is_ok_and(|bytes| bytes == obj.data);
                tally.get_ms.push(ms(end - start));
                ("facade.get", start, end, ok, OBJECT, 1)
            }
        };
        tally.op_ms.push(ms(end - start));
        tally.bytes += bytes as u64;
        tally.units += units as u64;
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        if let Some(tracer) = tracer.as_deref_mut() {
            // Clients and windows get disjoint op identifiers.
            let op_id = ((client as u64) << 48) | ((id.window as u64) << 24) | seq as u64;
            tally
                .roots
                .push(tracer.record(name, start, end, None, op_id));
        }
    }
    tally
}

/// Runs every client of the workload for `ops` ops on its own thread and
/// merges what they measured, in client order. `id.client` is ignored.
fn run_clients(
    dep: &Deployment<'_>,
    workload: Workload,
    seed: u64,
    id: StreamId,
    ops: usize,
    mut tracer: Option<&mut Tracer>,
) -> Res<Tally> {
    let clients = workload.shape().clients;
    let mut siblings: Vec<Option<Tracer>> = (0..clients)
        .map(|_| tracer.as_deref().map(Tracer::sibling))
        .collect();
    let tallies: Vec<Res<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = siblings
            .iter_mut()
            .enumerate()
            .map(|(client, sibling)| {
                let id = StreamId { client, ..id };
                let stream = OpStream::new(workload, seed, id);
                scope.spawn(move || client_loop(dep, stream, ops, id, sibling.as_mut()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".into()))
            .collect()
    });
    let mut merged = Tally::default();
    for (tally, sibling) in tallies.into_iter().zip(siblings) {
        let mut tally = tally?;
        if let (Some(tracer), Some(sibling)) = (tracer.as_deref_mut(), sibling) {
            let shift = tracer.len();
            tracer.absorb(sibling);
            tally.roots.iter_mut().for_each(|r| *r += shift);
        }
        merged.absorb(tally);
    }
    Ok(merged)
}

/// One window of a measured phase: the same ops count (and, on `client_io`,
/// the same put/get mix) as every other window of the workload.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub bytes: u64,
    pub units: u64,
    /// Latency of the window's timed ops.
    pub op_ms: Vec<f64>,
}

impl Window {
    pub fn mibps(&self) -> f64 {
        self.bytes as f64 / (1u64 << 20) as f64 / self.wall_s
    }

    pub fn cpu_ms_per_unit(&self) -> f64 {
        self.cpu_s * 1e3 / self.units.max(1) as f64
    }

    pub fn p50_ms(&self) -> f64 {
        percentile(&self.op_ms, 50.0).unwrap_or(f64::INFINITY)
    }

    /// The sum of several windows, as one window.
    pub fn sum<'a>(windows: impl IntoIterator<Item = &'a Window>) -> Window {
        let mut sum = Window::default();
        for w in windows {
            sum.wall_s += w.wall_s;
            sum.cpu_s += w.cpu_s;
            sum.bytes += w.bytes;
            sum.units += w.units;
            sum.op_ms.extend_from_slice(&w.op_ms);
        }
        sum
    }
}

/// One set-up, one measured phase, one verified tear-down.
pub struct Segment {
    pub traced: bool,
    /// The set-up step by step: building the runtime, the `put` of every
    /// pool object, the warm-up. Their sum is the set-up's wall time.
    pub setup_steps_s: Vec<f64>,
    pub wall_s: f64,
    pub windows: Vec<Window>,
    pub ctx_switches: f64,
    pub threads_peak: usize,
    /// The measured phase, plus the attempts and failures of warm-up,
    /// read-back and shutdown report.
    pub tally: Tally,
    /// Degraded workloads: façade latency minus the repair's own queue wait
    /// and duration, per op.
    pub facade_overhead_ms: Vec<f64>,
    /// How many of the report's leading outcomes belong to the warm-up.
    warmup_repairs: usize,
    pub report: ManagerReport,
}

impl Segment {
    pub fn setup_s(&self) -> f64 {
        self.setup_steps_s.iter().sum()
    }

    /// The repairs of the measured phase, in completion order.
    pub fn outcomes(&self) -> &[RepairOutcome] {
        &self.report.outcomes[self.warmup_repairs.min(self.report.outcomes.len())..]
    }
}

/// Sets the workload up, measures it for `budget` and tears it down,
/// checking every byte read back. With a tracer, records a root span per
/// façade op and, for degraded reads, child spans rebuilt from the matching
/// `RepairOutcome`.
pub fn run_segment(
    workload: Workload,
    seed: u64,
    segment: usize,
    pool: &[Vec<u8>],
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Res<Segment> {
    let shape = workload.shape();
    let setup_start = Instant::now();
    let dep = deploy(workload, pool, segment)?;
    let id = |window, phase| StreamId {
        segment,
        window,
        client: 0,
        phase,
    };
    let warm = run_clients(
        &dep,
        workload,
        seed,
        id(0, Phase::Warmup),
        shape.warmup_ops,
        None,
    )?;
    // The steps tile the set-up: build, each put, warm-up.
    let mut setup_steps_s = Vec::with_capacity(dep.step_ends.len() + 1);
    let mut step_start = setup_start;
    for &end in dep.step_ends.iter().chain([&Instant::now()]) {
        setup_steps_s.push((end - step_start).as_secs_f64());
        step_start = end;
    }

    let sampler = tracer.is_some().then(proc::ThreadSampler::start);
    let ctx_before = proc::machine_ctx_switches()?;
    let measure_start = Instant::now();
    let mut tally = Tally::default();
    let mut windows = Vec::new();
    // Whole windows until the budget is used, to the nearest window.
    let mut last_window = Duration::ZERO;
    while windows.is_empty() || measure_start.elapsed() + last_window / 2 < budget {
        let cpu_before = proc::cpu_seconds()?;
        let window_start = Instant::now();
        let part = run_clients(
            &dep,
            workload,
            seed,
            id(windows.len(), Phase::Measure),
            shape.window_ops,
            tracer.as_deref_mut(),
        )?;
        last_window = window_start.elapsed();
        windows.push(Window {
            wall_s: last_window.as_secs_f64(),
            cpu_s: proc::cpu_seconds()? - cpu_before,
            bytes: part.bytes,
            units: part.units,
            op_ms: part.op_ms.clone(),
        });
        tally.absorb(part);
        if shape.window_ops == usize::MAX {
            break;
        }
    }
    let wall_s = measure_start.elapsed().as_secs_f64();
    let ctx_switches = proc::machine_ctx_switches()? - ctx_before;
    let threads_peak = sampler.map_or(0, proc::ThreadSampler::finish);

    tally.attempted += warm.attempted;
    tally.failed += warm.failed;
    if workload == Workload::NodeRecovery {
        // Every recovered object is read back whole.
        for obj in &dep.objects {
            tally.attempted += 1;
            let ok = dep.pipe.get(&obj.name).is_ok_and(|bytes| bytes == obj.data);
            tally.failed += u64::from(!ok);
        }
    }
    let report = dep.pipe.shutdown();
    tally.failed += report.failed_repairs as u64;
    if workload == Workload::NodeRecovery {
        // A read-back that had to rebuild a block on the way means the
        // recovery left it missing: `get` heals silently, the report tells.
        tally.failed += report.degraded_wait.count as u64;
    }

    let degraded = matches!(workload, Workload::DegradedCpu | Workload::DegradedNet);
    // One repair per degraded read, in order: the i-th outcome after the
    // warm-up belongs to the i-th measured op.
    let warmup_repairs = if degraded { warm.attempted as usize } else { 0 };
    let outcomes = report.outcomes.get(warmup_repairs..).unwrap_or(&[]);
    let mut facade_overhead_ms = Vec::new();
    if degraded && outcomes.len() == tally.op_ms.len() {
        for (i, (latency, outcome)) in tally.op_ms.iter().zip(outcomes).enumerate() {
            facade_overhead_ms.push(latency - ms(outcome.queue_wait) - ms(outcome.duration));
            if let (Some(tracer), Some(&root)) = (tracer.as_deref_mut(), tally.roots.get(i)) {
                // The outcome carries durations, not timestamps: the wait is
                // laid at the start of the op, the repair right after it.
                tracer.record_child(
                    "manager.queue_wait",
                    root,
                    Duration::ZERO,
                    outcome.queue_wait,
                );
                tracer.record_child("manager.repair", root, outcome.queue_wait, outcome.duration);
            }
        }
    }

    Ok(Segment {
        traced: tracer.is_some(),
        setup_steps_s,
        wall_s,
        windows,
        ctx_switches,
        threads_peak,
        tally,
        facade_overhead_ms,
        warmup_repairs,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(segment: usize, window: usize, client: usize, phase: Phase) -> StreamId {
        StreamId {
            segment,
            window,
            client,
            phase,
        }
    }

    /// FNV-1a over the debug rendering of the first `take` ops.
    fn sequence_hash(workload: Workload, seed: u64, take: usize) -> u64 {
        OpStream::new(workload, seed, stream(0, 0, 0, Phase::Measure))
            .take(take)
            .flat_map(|op| format!("{op:?}").into_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        for workload in Workload::ALL {
            assert_eq!(
                sequence_hash(workload, 42, 500),
                sequence_hash(workload, 42, 500),
                "{workload:?}"
            );
            assert_ne!(
                sequence_hash(workload, 42, 500),
                sequence_hash(workload, 43, 500),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn streams_differ_by_segment_client_and_phase() {
        let first = |segment, window, client, phase| {
            OpStream::new(
                Workload::ClientIo,
                5,
                stream(segment, window, client, phase),
            )
            .take(64)
            .collect::<Vec<Op>>()
        };
        let base = first(0, 0, 0, Phase::Measure);
        assert_ne!(base, first(1, 0, 0, Phase::Measure));
        assert_ne!(base, first(0, 1, 0, Phase::Measure));
        assert_ne!(base, first(0, 0, 1, Phase::Measure));
        assert_ne!(base, first(0, 0, 0, Phase::Warmup));
    }

    #[test]
    fn node_recovery_kills_eight_distinct_nodes_and_stops() {
        let kills: Vec<Op> =
            OpStream::new(Workload::NodeRecovery, 9, stream(0, 0, 0, Phase::Measure)).collect();
        assert_eq!(kills.len(), 22 - N);
        let mut nodes: Vec<usize> = kills
            .iter()
            .map(|op| match op {
                Op::Kill { node } => *node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 22 - N);
        assert!(nodes.iter().all(|n| *n < 22));
    }

    #[test]
    fn client_io_mix_is_thirty_percent_puts_in_every_block() {
        let ops: Vec<Op> = OpStream::new(Workload::ClientIo, 1, stream(0, 0, 0, Phase::Measure))
            .take(1_000)
            .collect();
        for block in ops.chunks(MIX_BLOCK) {
            let puts = block
                .iter()
                .filter(|op| matches!(op, Op::Put { .. }))
                .count();
            assert_eq!(puts, MIX_PUTS, "{block:?}");
        }
        assert_eq!(Workload::ClientIo.shape().window_ops % MIX_BLOCK, 0);
    }

    #[test]
    fn pool_is_seeded() {
        let a = object_pool(Workload::DegradedCpu, 3);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|o| o.len() == OBJECT));
        assert_eq!(a[1][..64], object_pool(Workload::DegradedCpu, 3)[1][..64]);
        assert_ne!(a[1][..64], object_pool(Workload::DegradedCpu, 4)[1][..64]);
        assert_ne!(a[0][..64], a[1][..64]);
    }
}
