//! What the benchmark declares: workload names, metric names, units and
//! regression bounds. `BENCHMARK.json` at the repository root repeats this
//! table for the driver; a unit test keeps the two identical.

/// The four workloads, in the order `--workload` omitted runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DegradedCpu,
    DegradedNet,
    NodeRecovery,
    ClientIo,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DegradedCpu,
        Workload::DegradedNet,
        Workload::NodeRecovery,
        Workload::ClientIo,
    ];

    /// The workloads `BENCHMARK.json` declares to the driver, which holds
    /// every end-to-end metric of every declared workload to its bound.
    /// `degraded_cpu` is not among them: it is a serial chain of thread
    /// hand-offs and loopback syscalls, and on the shared 2-core host this
    /// was sized on the same code takes 5.3 to 8.7 ms per op from one
    /// quarter-hour to the next (medians of ten runs 5.6 and 7.2 ms forty
    /// minutes apart), which no 25 % bound holds. It runs by name and when
    /// `--workload` is omitted.
    pub const DECLARED: [Workload; 3] = [
        Workload::DegradedNet,
        Workload::NodeRecovery,
        Workload::ClientIo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DegradedCpu => "degraded_cpu",
            Workload::DegradedNet => "degraded_net",
            Workload::NodeRecovery => "node_recovery",
            Workload::ClientIo => "client_io",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by every untraced run of every workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("op.p50_ms", "ms", Lower, 0.25),
    e2e("goodput.mibps", "MiB/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Printed by every traced run of every workload. A metric that a workload
/// does not exercise (`manager.*` on `client_io`, `client.*` elsewhere)
/// reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("gf256.mul_add_slice.gibps", "GiB/s", Higher),
    layer("gf256.add_slice.gibps", "GiB/s", Higher),
    layer("ecc.encode.mibps", "MiB/s", Higher),
    layer("ecc.repair_plan.us", "us", Lower),
    layer("store.mem.get_range.us", "us", Lower),
    layer("store.mem.put.us", "us", Lower),
    layer("store.file.get_range.us", "us", Lower),
    layer("store.file.get.us", "us", Lower),
    layer("store.file.put.us", "us", Lower),
    layer("integrity.crc32.gibps", "GiB/s", Higher),
    layer("integrity.file_crc.get_range.us", "us", Lower),
    layer("integrity.file_crc.put.us", "us", Lower),
    layer("buf.take.ns", "ns", Lower),
    layer("transport.channel.link_open.us", "us", Lower),
    layer("transport.channel.slice.us", "us", Lower),
    layer("transport.channel.mibps", "MiB/s", Higher),
    layer("transport.tcp.link_open.us", "us", Lower),
    layer("transport.tcp.slice.us", "us", Lower),
    layer("transport.tcp.mibps", "MiB/s", Higher),
    layer("transport.reactor.link_open.us", "us", Lower),
    layer("transport.reactor.slice.us", "us", Lower),
    layer("transport.reactor.mibps", "MiB/s", Higher),
    layer("transport.tcp.shaped.rate_ratio", "ratio", Lower),
    layer("exec.rp.tcp.ms", "ms", Lower),
    layer("exec.rp.reactor.ms", "ms", Lower),
    layer("exec.rp.channel.ms", "ms", Lower),
    layer("exec.conv.tcp.ms", "ms", Lower),
    layer("exec.ppr.tcp.ms", "ms", Lower),
    layer("exec.rp.tcp.small.ms", "ms", Lower),
    layer("exec.rp.tcp.layer_sum_ms", "ms", Lower),
    layer("meta.register.us", "us", Lower),
    layer("meta.lookup.us", "us", Lower),
    layer("meta.relocate.us", "us", Lower),
    layer("meta.stripes_on_node.ms", "ms", Lower),
    layer("meta.durable.register.us", "us", Lower),
    layer("manager.queue_wait.p50_us", "us", Lower),
    layer("manager.repair_duration.p50_ms", "ms", Lower),
    layer("manager.background_wait.mean_ms", "ms", Lower),
    layer("manager.report_node_failure.ms", "ms", Lower),
    layer("manager.peak_inflight", "count", Higher),
    layer("manager.replans", "count", Lower),
    layer("facade.degraded_overhead.p50_ms", "ms", Lower),
    layer("op.p90_ms", "ms", Lower),
    layer("op.p99_ms", "ms", Lower),
    layer("client.put.p50_ms", "ms", Lower),
    layer("client.put.p99_ms", "ms", Lower),
    layer("client.get.p50_ms", "ms", Lower),
    layer("client.get.p99_ms", "ms", Lower),
    layer("transport.bytes_per_repaired_byte", "ratio", Lower),
    layer("transport.max_link_share", "ratio", Lower),
    layer("cpu_ms_per_op", "ms", Lower),
    layer("proc.threads_peak", "count", Lower),
    layer("proc.ctx_switches_per_op", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];
