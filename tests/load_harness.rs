//! Acceptance for the open-loop load harness over the TCP transport: a
//! burst that puts well over a thousand ops in flight completes on a fixed
//! thread budget (the manager's workers; TCP runs no transport threads, and
//! a repair walks on its worker's thread), and the report carries usable
//! tail percentiles.

use std::time::Duration;

use ecpipe_loadgen::{HarnessConfig, OpClass, WorkloadMix};
use repair_pipelining::ecpipe::{EcPipeBuilder, TransportChoice};

fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is available on the linux CI runners")
        .count()
}

#[test]
fn tcp_harness_sustains_a_thousand_in_flight_ops_on_fixed_threads() {
    let pipe = EcPipeBuilder::new()
        .code(4, 2)
        .block_size(8 * 1024)
        .slice_size(1024)
        .transport(TransportChoice::Tcp)
        .build()
        .expect("TCP-backed façade builds");

    // Warm-up: touch every node pair the mix will use, so the steady-state
    // thread count (manager daemons + workers) and the pooled connections
    // are established before the measurement.
    let warmup = HarnessConfig {
        rate: 300.0,
        duration: Duration::from_millis(300),
        workers: 8,
        objects: 12,
        object_size: 8 * 1024,
        mix: WorkloadMix {
            put: 5,
            get: 90,
            degraded: 5,
        },
        ..HarnessConfig::default()
    };
    let warm_report = ecpipe_loadgen::run(&pipe, &warmup).expect("warm-up run");
    assert!(warm_report.overall.ops > 0);
    let threads_before = os_thread_count();

    // The burst: 12 000 ops offered within 30 ms, an arrival rate no build
    // of the workers drains as fast as it comes (an optimized one serves a
    // few tens of thousands of these ops per second), so the open-loop
    // queue deepens past 1000 in debug and release alike. Its own seed
    // gives its puts names the warm-up's puts did not take.
    let burst = HarnessConfig {
        rate: 400_000.0,
        duration: Duration::from_millis(30),
        seed: warmup.seed + 1,
        ..warmup.clone()
    };
    // Re-running preloads the same `lg-*` names; drop them first so the
    // second run's puts do not collide.
    for i in 0..warmup.objects {
        let _ = pipe.delete(&format!("lg-{i}"));
    }
    let report = ecpipe_loadgen::run(&pipe, &burst).expect("burst run");
    let threads_after = os_thread_count();

    assert!(
        report.peak_in_flight > 1_000,
        "burst never built a deep queue: peak {} in flight\n{}",
        report.peak_in_flight,
        report.render()
    );
    assert!(
        report.overall.ops as usize >= report.peak_in_flight,
        "completed {} ops but peaked at {}",
        report.overall.ops,
        report.peak_in_flight
    );
    let (class, puts) = report.per_class[0];
    assert_eq!(class, OpClass::Put);
    assert_eq!(puts.errors, 0, "{}", report.render());
    // Percentiles must be real measurements, ordered and positive.
    assert!(report.overall.p50_ns > 0, "{}", report.render());
    assert!(report.overall.p99_ns >= report.overall.p50_ns);
    assert!(report.overall.p999_ns >= report.overall.p99_ns);
    // The whole burst ran on the threads that already existed: pooled
    // connections read by their links' receivers, no thread-per-connection
    // or thread-per-op growth. (Harness workers are scoped and joined before
    // the count is taken.)
    assert!(
        threads_after <= threads_before,
        "thread count grew under load: {threads_before} -> {threads_after}"
    );
    pipe.shutdown();
}
