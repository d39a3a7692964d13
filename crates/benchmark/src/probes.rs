//! Outside-in layer probes (traced runs only).
//!
//! Every number comes from timing calls into a layer's public functions, on
//! exactly the sizes the workloads use (1 MiB blocks, 32 KiB slices,
//! RS(14,10)), or from counters the program already publishes. Each timed
//! batch is one span, named after the metric it feeds. The layers are the
//! repository's modules.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use ecc::slice::SliceLayout;
use ecc::stripe::{BlockId, StripeId};
use ecc::{ErasureCode, ReedSolomon};
use ecpipe::exec::{execute_single, PIPELINE_DEPTH};
use ecpipe::transport::SliceMsg;
use ecpipe::{
    BlockStore, BufPool, ChannelTransport, Cluster, ExecStrategy, MetaBackend, MetaConfig,
    MetaRouter, ReactorTransport, RepairDirective, StoreBackend, TcpTransport, Transport,
};
use gf256::Gf256;

use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{ScratchDir, BLOCK, K, N, NET_RATE, SLICE};
use crate::Res;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;
/// Slices per block: the paper's `s`.
const SLICES: usize = BLOCK / SLICE;
/// Stripes preloaded before the metadata probes time anything.
const META_STRIPES: u64 = 100_000;
/// Node count of the metadata probes' placements (`node_recovery`'s).
const META_NODES: usize = 22;

pub type Metrics = BTreeMap<&'static str, f64>;

struct Probes<'a> {
    tracer: &'a mut Tracer,
    metrics: Metrics,
    batch: u64,
}

impl Probes<'_> {
    /// Median seconds per call over `batches` timed batches of `calls` calls
    /// (after one untimed batch). One span per batch.
    fn secs(
        &mut self,
        metric: &'static str,
        batches: usize,
        calls: usize,
        mut call: impl FnMut() -> Res<()>,
    ) -> Res<f64> {
        for _ in 0..calls {
            call()?;
        }
        let mut per_call = Vec::with_capacity(batches);
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..calls {
                call()?;
            }
            let end = Instant::now();
            self.tracer.record(metric, start, end, None, self.batch);
            self.batch += 1;
            per_call.push((end - start).as_secs_f64() / calls as f64);
        }
        Ok(median(&per_call).expect("at least one batch"))
    }

    /// Records `metric` as time per call, in units of `1 / per_sec` seconds
    /// (`1e6` for microseconds).
    fn time(
        &mut self,
        metric: &'static str,
        per_sec: f64,
        batches: usize,
        calls: usize,
        call: impl FnMut() -> Res<()>,
    ) -> Res<()> {
        let secs = self.secs(metric, batches, calls, call)?;
        self.metrics.insert(metric, secs * per_sec);
        Ok(())
    }

    /// Records `metric` as `bytes` per call over time, in units of `unit`
    /// bytes per second.
    fn rate(
        &mut self,
        metric: &'static str,
        bytes: usize,
        unit: f64,
        batches: usize,
        calls: usize,
        call: impl FnMut() -> Res<()>,
    ) -> Res<()> {
        let secs = self.secs(metric, batches, calls, call)?;
        self.metrics.insert(metric, bytes as f64 / secs / unit);
        Ok(())
    }
}

/// Runs the whole probe suite; a few seconds.
pub fn run(seed: u64, tracer: &mut Tracer) -> Res<Metrics> {
    let mut p = Probes {
        tracer,
        metrics: Metrics::new(),
        batch: 0,
    };
    let mut rng = Rng::fork(seed, 0x0912_0BE5);
    let scratch = ScratchDir::create("probes")?;

    // gf256: the slice combine `partial += coeff * local`.
    let src = rng.bytes(SLICE);
    let mut dst = rng.bytes(SLICE);
    p.rate("gf256.mul_add_slice.gibps", SLICE, GIB, 21, 256, || {
        gf256::mul_add_slice(Gf256::new(0x53), &src, &mut dst);
        std::hint::black_box(&mut dst);
        Ok(())
    })?;
    p.rate("gf256.add_slice.gibps", SLICE, GIB, 21, 256, || {
        gf256::add_slice(&src, &mut dst);
        std::hint::black_box(&mut dst);
        Ok(())
    })?;

    // ecc: the put path's encode and the repair path's plan.
    let code = ReedSolomon::new(N, K)?;
    let data: Vec<Vec<u8>> = (0..K).map(|_| rng.bytes(BLOCK)).collect();
    p.rate("ecc.encode.mibps", K * BLOCK, MIB, 7, 1, || {
        std::hint::black_box(code.encode(&data)?);
        Ok(())
    })?;
    let available: Vec<usize> = (0..N).filter(|&i| i != 3).collect();
    p.time("ecc.repair_plan.us", 1e6, 11, 50, || {
        std::hint::black_box(code.repair_plan(3, &available)?);
        Ok(())
    })?;

    // store / integrity: slice reads as helpers do them, block reads and
    // writes as clients and requestors do them.
    let block = Bytes::from(rng.bytes(BLOCK));
    let mem = StoreBackend::memory(1).build()?.remove(0);
    store_probes(
        &mut p,
        &mem,
        &block,
        "store.mem.put.us",
        "store.mem.get_range.us",
    )?;
    let file = StoreBackend::file(scratch.path().join("file"), 1)
        .build()?
        .remove(0);
    store_probes(
        &mut p,
        &file,
        &block,
        "store.file.put.us",
        "store.file.get_range.us",
    )?;
    p.time("store.file.get.us", 1e6, 9, 4, || {
        std::hint::black_box(file.get(PROBE_BLOCK)?);
        Ok(())
    })?;
    let file_crc = StoreBackend::file_checksummed(scratch.path().join("file_crc"), 1)
        .build()?
        .remove(0);
    store_probes(
        &mut p,
        &file_crc,
        &block,
        "integrity.file_crc.put.us",
        "integrity.file_crc.get_range.us",
    )?;
    p.rate("integrity.crc32.gibps", BLOCK, GIB, 9, 2, || {
        std::hint::black_box(ecpipe::integrity::crc32(&block));
        Ok(())
    })?;

    // buf: a warm pool handing out slice-sized partial-sum buffers.
    let pool = BufPool::new();
    p.time("buf.take.ns", 1e9, 21, 1000, || {
        std::hint::black_box(pool.take(SLICE));
        Ok(())
    })?;

    // transport: one warm directed pair per backend.
    let slice = block.slice(0..SLICE);
    transport_probes(
        &mut p,
        &ChannelTransport::new(),
        &slice,
        "transport.channel.link_open.us",
        "transport.channel.slice.us",
        "transport.channel.mibps",
    )?;
    transport_probes(
        &mut p,
        &TcpTransport::new(),
        &slice,
        "transport.tcp.link_open.us",
        "transport.tcp.slice.us",
        "transport.tcp.mibps",
    )?;
    transport_probes(
        &mut p,
        &ReactorTransport::new(),
        &slice,
        "transport.reactor.link_open.us",
        "transport.reactor.slice.us",
        "transport.reactor.mibps",
    )?;
    // Delivered over configured rate, 16 MiB through one shaped link.
    let shaped = TcpTransport::with_rate_limit(NET_RATE);
    let mut inner = Vec::new();
    p.secs("transport.tcp.shaped.rate_ratio", 2, 1, || {
        inner.push(stream(&shaped, &slice, 16 * SLICES)?);
        Ok(())
    })?;
    let secs = median(&inner[1..]).expect("two timed batches");
    p.metrics.insert(
        "transport.tcp.shaped.rate_ratio",
        (16 * BLOCK) as f64 / secs / NET_RATE as f64,
    );

    // exec: one single-block repair, no manager, no façade.
    exec_probes(&mut p, &mut rng)?;
    // What the repair's k * s slice steps cost when each layer is called on
    // its own: wall minus this, over the cores, is orchestration.
    let m = &p.metrics;
    let step_us = m["store.mem.get_range.us"]
        + SLICE as f64 / (m["gf256.mul_add_slice.gibps"] * GIB) * 1e6
        + m["transport.tcp.slice.us"];
    p.metrics.insert(
        "exec.rp.tcp.layer_sum_ms",
        (K * SLICES) as f64 * step_us / 1e3,
    );

    // meta: the namespace behind put/get (register, lookup) and behind
    // recovery (relocate, stripes_on_node).
    meta_probes(&mut p, &scratch)?;
    Ok(p.metrics)
}

const PROBE_BLOCK: BlockId = BlockId {
    stripe: StripeId(1),
    index: 0,
};

fn store_probes(
    p: &mut Probes<'_>,
    store: &Arc<dyn BlockStore>,
    block: &Bytes,
    put: &'static str,
    get_range: &'static str,
) -> Res<()> {
    p.time(
        put,
        1e6,
        9,
        4,
        || Ok(store.put(PROBE_BLOCK, block.clone())?),
    )?;
    let mut slice = 0;
    p.time(get_range, 1e6, 9, SLICES, || {
        slice = (slice + 1) % SLICES;
        std::hint::black_box(store.get_range(PROBE_BLOCK, slice * SLICE..(slice + 1) * SLICE)?);
        Ok(())
    })
}

/// Streams `count` slices through a fresh link 0 -> 1 and returns the
/// seconds from the first send to the last delivery.
fn stream<T: Transport>(transport: &T, slice: &Bytes, count: usize) -> Res<f64> {
    let (tx, rx) = transport.link(0, 1, PIPELINE_DEPTH);
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || (0..count).filter(|_| rx.recv().is_some()).count());
        let start = Instant::now();
        for index in 0..count {
            tx.send(SliceMsg::new(index, slice.clone()))?;
        }
        let delivered = receiver.join().map_err(|_| "receiver thread panicked")?;
        let secs = start.elapsed().as_secs_f64();
        if delivered != count {
            return Err(format!("link delivered {delivered} of {count} slices").into());
        }
        Ok(secs)
    })
}

fn transport_probes<T: Transport>(
    p: &mut Probes<'_>,
    transport: &T,
    slice: &Bytes,
    link_open: &'static str,
    per_slice: &'static str,
    mibps: &'static str,
) -> Res<()> {
    // `link()` to first slice delivered, the pair's connection already up.
    p.time(link_open, 1e6, 11, 20, || {
        let (tx, rx) = transport.link(0, 1, PIPELINE_DEPTH);
        tx.send(SliceMsg::new(0, slice.clone()))?;
        rx.recv().ok_or("link closed before its first slice")?;
        Ok(())
    })?;
    // One block's worth of slices through one link. The spans keep the
    // outer time (link open and receiver spawn included), the metrics the
    // streaming time alone; the untimed first call is dropped.
    let mut inner = Vec::new();
    p.secs(per_slice, 15, 1, || {
        inner.push(stream(transport, slice, SLICES)?);
        Ok(())
    })?;
    let secs = median(&inner[1..]).expect("fifteen timed batches");
    p.metrics.insert(per_slice, secs / SLICES as f64 * 1e6);
    p.metrics.insert(mibps, BLOCK as f64 / secs / MIB);
    Ok(())
}

/// A one-stripe memory cluster with block `i` on node `i`, the directive
/// that rebuilds block 3 onto a spare node, and the bytes it must produce.
fn repair_fixture(
    code: &Arc<dyn ErasureCode>,
    layout: SliceLayout,
    rng: &mut Rng,
) -> Res<(Cluster, RepairDirective, Vec<u8>)> {
    let failed = 3;
    let cluster = Cluster::new(StoreBackend::memory(N + 2))?;
    let data: Vec<Vec<u8>> = (0..K).map(|_| rng.bytes(layout.block_size)).collect();
    let stripe = cluster.write_stripe_blocks(code, 7, &data, (0..N).collect())?;
    let available: Vec<usize> = (0..N).filter(|&i| i != failed).collect();
    let plan = code.repair_plan(failed, &available)?;
    let path = plan
        .sources
        .iter()
        .map(|s| {
            let block = BlockId {
                stripe,
                index: s.block_index,
            };
            (s.block_index, block, s.coefficient)
        })
        .collect();
    let directive = RepairDirective {
        stripe,
        plan,
        path,
        requestor: N + 1,
        layout,
        epoch: 0,
    };
    Ok((cluster, directive, data[failed].clone()))
}

fn exec_probes(p: &mut Probes<'_>, rng: &mut Rng) -> Res<()> {
    use ExecStrategy::{Conventional, Ppr, RepairPipelining};
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(N, K)?);
    let full = repair_fixture(&code, SliceLayout::new(BLOCK, SLICE), rng)?;
    // 64 KiB block in 8 KiB slices: the fixed per-repair cost.
    let small = repair_fixture(&code, SliceLayout::new(64 << 10, 8 << 10), rng)?;
    let (tcp, reactor, channel) = (
        TcpTransport::new(),
        ReactorTransport::new(),
        ChannelTransport::new(),
    );
    let repairs: [(&'static str, &dyn Transport, ExecStrategy, _); 6] = [
        ("exec.rp.tcp.ms", &tcp, RepairPipelining, &full),
        ("exec.rp.reactor.ms", &reactor, RepairPipelining, &full),
        ("exec.rp.channel.ms", &channel, RepairPipelining, &full),
        ("exec.conv.tcp.ms", &tcp, Conventional, &full),
        ("exec.ppr.tcp.ms", &tcp, Ppr, &full),
        ("exec.rp.tcp.small.ms", &tcp, RepairPipelining, &small),
    ];
    for (metric, transport, strategy, (cluster, directive, lost)) in repairs {
        p.time(metric, 1e3, 15, 1, || {
            let rebuilt = execute_single(directive, cluster, transport, strategy)?;
            if rebuilt != *lost {
                return Err(format!("{metric}: repaired block differs from the lost one").into());
            }
            Ok(())
        })?;
    }

    // Counters that repeat exactly: one RP repair on a fresh transport moves
    // the block over each of k links once.
    let counted = ChannelTransport::new();
    execute_single(&full.1, &full.0, &counted, RepairPipelining)?;
    p.metrics.insert(
        "transport.bytes_per_repaired_byte",
        counted.total_bytes() as f64 / BLOCK as f64,
    );
    p.metrics.insert(
        "transport.max_link_share",
        counted.max_link_bytes() as f64 / counted.total_bytes() as f64,
    );
    Ok(())
}

fn meta_probes(p: &mut Probes<'_>, scratch: &ScratchDir) -> Res<()> {
    // Stripe `id` keeps block `i` on node `(id + i) % 22`, as `put` places it.
    let locations =
        |id: u64| -> Vec<usize> { (0..N).map(|i| (id as usize + i) % META_NODES).collect() };
    let meta = MetaRouter::open(MetaConfig::ephemeral())?;
    for id in 0..META_STRIPES {
        meta.register_stripe(StripeId(id), locations(id))?;
    }
    let mut next = META_STRIPES;
    p.time("meta.register.us", 1e6, 11, 500, || {
        meta.register_stripe(StripeId(next), locations(next))?;
        next += 1;
        Ok(())
    })?;
    // A prime stride walks the preloaded ids without repeating soon.
    let mut id = 0;
    p.time("meta.lookup.us", 1e6, 11, 500, || {
        id = (id + 7919) % META_STRIPES;
        std::hint::black_box(meta.stripe(StripeId(id)));
        Ok(())
    })?;
    // Each call moves block 0 of a fresh stripe onto that stripe's first
    // spare node, as a repair's relocate-on-success does.
    let mut id = 0;
    p.time("meta.relocate.us", 1e6, 11, 500, || {
        id += 1;
        let spare = (id as usize + N) % META_NODES;
        meta.relocate(StripeId(id), 0, spare, None)?;
        Ok(())
    })?;
    p.time("meta.stripes_on_node.ms", 1e3, 5, 1, || {
        std::hint::black_box(meta.stripes_on_node(5));
        Ok(())
    })?;

    let durable = MetaRouter::open(MetaConfig::new(MetaBackend::durable(
        scratch.path().join("meta"),
    )))?;
    let mut next = 0;
    p.time("meta.durable.register.us", 1e6, 11, 100, || {
        durable.register_stripe(StripeId(next), locations(next))?;
        next += 1;
        Ok(())
    })
}
