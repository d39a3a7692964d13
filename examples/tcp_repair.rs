//! A (14,10) repair-pipelining deployment over real localhost TCP sockets.
//!
//! Every repair slice crosses a socket: the `EcPipeBuilder` wires the same
//! runtime as the in-process examples but with the `TcpTransport` backend —
//! framed wire format, one reused connection per directed node pair,
//! per-link byte accounting. An object written through the façade survives
//! an erased block with every reconstruction byte moving over TCP. A
//! second, bandwidth-throttled pass drops to the exec layer to show the
//! §3.2 shape: with every link token-bucket-limited to the same rate, the
//! repair takes about `1 + (k-1)/s` timeslots instead of the `k` timeslots
//! of a block-level relay.
//!
//! Run with `cargo run --release --example tcp_repair`.

use std::sync::Arc;
use std::time::Instant;

use repair_pipelining::ecc::slice::SliceLayout;
use repair_pipelining::ecc::ReedSolomon;
use repair_pipelining::ecpipe::transport::Transport;
use repair_pipelining::ecpipe::{
    Coordinator, EcPipeBuilder, Scheme, StoreBackend, TcpTransport, TransportChoice,
};

fn main() {
    // Facebook's (14,10) code; 1 MiB blocks in 64 KiB slices keep the
    // example quick while still pushing 10 MiB through sockets per repair.
    const BLOCK: usize = 1024 * 1024;
    let layout = SliceLayout::new(BLOCK, 64 * 1024);
    let pipe = EcPipeBuilder::new()
        .code(14, 10)
        .layout(layout)
        .store(StoreBackend::memory(16))
        .transport(TransportChoice::Tcp)
        .strategy(Scheme::RepairPipelining)
        .build()
        .expect("valid configuration");

    let data: Vec<u8> = (0..10 * BLOCK)
        .map(|i| ((i * 31 + 97) % 251) as u8)
        .collect();
    let meta = pipe.put("/tcp/object", &data).expect("object written");
    pipe.erase_block(meta.stripes[0], 3);
    println!("wrote a (14,10) stripe of 1 MiB blocks over TCP and erased block 3");

    // The degraded read repairs block 3 over real sockets on the way.
    let read = pipe.get("/tcp/object").expect("degraded read succeeds");
    assert_eq!(read, data, "byte-exact reconstruction");
    println!(
        "RP reconstructed block 3 over TCP: {} links used, {} bytes total, \
         {} bytes on the busiest link",
        pipe.transport().links_used(),
        pipe.transport().total_bytes(),
        pipe.transport().max_link_bytes(),
    );

    // The same repair with every link throttled to 8 MiB/s: the measured
    // time should sit near 1 + (k-1)/s timeslots (§3.2), far below the k
    // timeslots a block-by-block relay would need. This drops below the
    // façade to the exec layer, which stays reachable for exactly this kind
    // of experiment: a coordinator of its own plans against the deployment's
    // metadata router, the one record of where the stripe's blocks live.
    const RATE: u64 = 8 * 1024 * 1024;
    pipe.erase_block(meta.stripes[0], 3);
    let code = Arc::new(ReedSolomon::new(14, 10).expect("valid parameters"));
    let directive = Coordinator::new(code, layout)
        .plan_single_repair(&pipe.meta(), meta.stripes[0], 3, 15)
        .expect("plan repair");
    let throttled = TcpTransport::with_rate_limit(RATE);
    let start = Instant::now();
    let repaired = repair_pipelining::ecpipe::exec::execute_single(
        &directive,
        pipe.cluster(),
        &throttled,
        Scheme::RepairPipelining,
    )
    .expect("throttled repair succeeds");
    assert_eq!(repaired, data[3 * BLOCK..4 * BLOCK]);
    let elapsed = start.elapsed().as_secs_f64();
    let timeslot = BLOCK as f64 / RATE as f64;
    let k = directive.path.len() as f64;
    let s = layout.slice_count() as f64;
    println!(
        "throttled to 8 MiB/s per link: repair took {elapsed:.3}s \
         (one-block timeslot {timeslot:.3}s, paper predicts ~{:.3}s, \
         a k-hop block relay would need ~{:.3}s)",
        (1.0 + (k - 1.0) / s) * timeslot,
        k * timeslot,
    );
    pipe.shutdown();
    println!("tcp_repair finished: byte-exact repair over real sockets");
}
