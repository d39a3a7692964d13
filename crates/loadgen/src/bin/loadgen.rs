//! Command-line front end for the open-loop load harness.
//!
//! ```sh
//! loadgen --transport tcp --rate 2000 --duration 10 \
//!     --mix 10:85:5 --zipf 0.99
//! ```
//!
//! Prints the latency table to stdout; when `BENCH_RESULTS_LOG` is set (or
//! `--results-log` is given), appends the per-class percentile records in
//! the extended TSV format `bench_json` folds into `BENCH_results.json`.
//! Exits non-zero if the harness cannot run or produced no completed ops —
//! a load test that measured nothing must not look green.

use std::io::Write;
use std::time::Duration;

use ecpipe::{EcPipeBuilder, TransportChoice};
use ecpipe_loadgen::{HarnessConfig, WorkloadMix};

fn fail(msg: String) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--smoke] [--transport channel|tcp] [--rate OPS_PER_SEC]\n\
         \x20              [--duration SECONDS] [--workers N] [--objects N] [--object-size BYTES]\n\
         \x20              [--zipf THETA] [--mix PUT:GET:DEGRADED] [--seed N] [--results-log PATH]"
    );
    std::process::exit(2);
}

fn parse_mix(spec: &str) -> Option<WorkloadMix> {
    let parts: Vec<u32> = spec
        .split(':')
        .map(|p| p.parse::<u32>().ok())
        .collect::<Option<Vec<u32>>>()?;
    let [put, get, degraded] = parts.as_slice() else {
        return None;
    };
    Some(WorkloadMix {
        put: *put,
        get: *get,
        degraded: *degraded,
    })
}

fn main() {
    let mut config = HarnessConfig::default();
    let mut transport = TransportChoice::Channel;
    let mut results_log = std::env::var("BENCH_RESULTS_LOG").ok();

    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| fail(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                let keep = (config.workers, config.seed);
                config = HarnessConfig::smoke();
                (config.workers, config.seed) = keep;
            }
            "--transport" => {
                transport = match value(&mut it, "--transport").as_str() {
                    "channel" => TransportChoice::Channel,
                    "tcp" => TransportChoice::Tcp,
                    other => fail(format!("unknown transport {other:?}")),
                };
            }
            "--rate" => {
                config.rate = value(&mut it, "--rate")
                    .parse()
                    .unwrap_or_else(|_| fail("--rate wants a number".to_string()));
            }
            "--duration" => {
                let secs: f64 = value(&mut it, "--duration")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| fail("--duration wants positive seconds".to_string()));
                config.duration = Duration::from_secs_f64(secs);
            }
            "--workers" => {
                config.workers = value(&mut it, "--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers wants a count".to_string()));
            }
            "--objects" => {
                config.objects = value(&mut it, "--objects")
                    .parse()
                    .unwrap_or_else(|_| fail("--objects wants a count".to_string()));
            }
            "--object-size" => {
                config.object_size = value(&mut it, "--object-size")
                    .parse()
                    .unwrap_or_else(|_| fail("--object-size wants bytes".to_string()));
            }
            "--zipf" => {
                config.zipf_theta = value(&mut it, "--zipf")
                    .parse()
                    .unwrap_or_else(|_| fail("--zipf wants a number".to_string()));
            }
            "--mix" => {
                let spec = value(&mut it, "--mix");
                config.mix = parse_mix(&spec)
                    .unwrap_or_else(|| fail(format!("bad --mix {spec:?}, want PUT:GET:DEGRADED")));
            }
            "--seed" => {
                config.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed wants a number".to_string()));
            }
            "--results-log" => results_log = Some(value(&mut it, "--results-log")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown argument {other:?}");
                usage();
            }
        }
    }

    let pipe = EcPipeBuilder::new()
        .transport(transport)
        .build()
        .unwrap_or_else(|e| fail(format!("cannot build runtime: {e}")));
    let report = ecpipe_loadgen::run(&pipe, &config)
        .unwrap_or_else(|e| fail(format!("harness failed: {e}")));
    print!("{}", report.render());
    pipe.shutdown();

    if report.overall.ops == 0 {
        fail("no operations completed — nothing was measured".to_string());
    }
    if let Some(path) = results_log {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| fail(format!("cannot open results log {path}: {e}")));
        file.write_all(report.bench_lines().as_bytes())
            .unwrap_or_else(|e| fail(format!("cannot append to results log {path}: {e}")));
        println!("loadgen: appended percentile records to {path}");
    }
}
