//! The background scrubber: paced integrity walks that turn silent bit-rot
//! into queued repairs.
//!
//! Production systems (HDFS, QFS — the §5.2 integration targets) pair their
//! block files with checksums *and* a low-priority scanner, because a
//! checksum only helps once something reads the block; cold data can rot for
//! months before a repair path touches it. The scrubber closes that gap:
//! it walks every live node's store, re-reads each block (which, on a
//! [`ChecksummedStore`](crate::ChecksummedStore), verifies every chunk),
//! and enqueues each corrupt block as a
//! [`RepairPriority::Corruption`](super::RepairPriority) repair addressed
//! to the block's recorded holder — the reconstruction overwrites the bad
//! copy in place and refreshes its checksums. After the cycle's repairs
//! drain, every corrupt block is re-verified, and the whole cycle is folded
//! into the [`ManagerReport`](super::ManagerReport) as a
//! [`ScrubCycle`](super::ScrubCycle).
//!
//! Scanning is paced by the same token-bucket shaping the transports use
//! ([`ScrubConfig::rate`]), so a scrub shares disks and CPU with foreground
//! traffic instead of bursting through the whole cluster at once.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecpipe_sync::OnceFlag;

use crate::cluster::Cluster;
use crate::transport::TokenBucket;
use crate::EcPipeError;

use super::metrics::ScrubCycle;
use super::workers::EngineState;

/// Pacing and cadence knobs for scrubbing.
#[derive(Debug, Clone)]
pub struct ScrubConfig {
    /// Scan rate in bytes per second, enforced with a token bucket (the
    /// same shaping the transports use). `None` scans at full speed.
    pub rate: Option<u64>,
    /// Pause between cycles when running as a background
    /// [`Scrubber`](super::Scrubber) thread.
    pub interval: Duration,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            rate: None,
            interval: Duration::from_millis(100),
        }
    }
}

impl ScrubConfig {
    /// Sets the scan-rate pacing in bytes per second.
    pub fn with_rate(mut self, bytes_per_sec: u64) -> Self {
        self.rate = Some(bytes_per_sec);
        self
    }
}

/// Runs one scrub cycle: walk every live node's blocks (paced), enqueue
/// corruption repairs for every block that fails verification, wait for
/// those repairs — and only those — to finish, re-verify, and fold the
/// cycle into the metrics.
///
/// `stop` (used by the background [`Scrubber`]) is checked between blocks,
/// so a paced cycle over a large cluster abandons the scan promptly instead
/// of holding a joining thread for the cycle's full token-bucket time;
/// repairs already enqueued still drain on the worker pool.
pub(crate) fn scrub_once(
    engine: &EngineState,
    cluster: &Cluster,
    config: &ScrubConfig,
    stop: Option<&OnceFlag>,
) -> ScrubCycle {
    let stopped = || stop.is_some_and(OnceFlag::is_set);
    let started = Instant::now();
    let bucket = config.rate.map(TokenBucket::new);
    let mut cycle = ScrubCycle::default();
    'scan: for node in 0..cluster.num_nodes() {
        if engine.liveness.is_dead(node) {
            continue;
        }
        let store = cluster.store(node);
        for block in store.list() {
            if stopped() {
                break 'scan;
            }
            // `get` verifies checksums on an integrity-aware store; plain
            // stores can only vouch for presence.
            match store.get(block) {
                Ok(data) => {
                    cycle.blocks_scanned += 1;
                    cycle.bytes_scanned += data.len() as u64;
                    if let Some(bucket) = &bucket {
                        bucket.take(data.len());
                    }
                }
                Err(EcPipeError::CorruptBlock { .. }) => {
                    cycle.blocks_scanned += 1;
                    cycle.corrupt.push(block);
                    if engine.submit_corruption(block) {
                        cycle.repairs_enqueued += 1;
                    }
                }
                // A block that vanished mid-scan (or an I/O hiccup) is the
                // liveness machinery's problem, not the scrubber's.
                Err(_) => {}
            }
        }
    }
    if !cycle.corrupt.is_empty() && !stopped() {
        // Wait for each find's repair, not for the whole queue (a scrub
        // during a node recovery must not outlast the recovery), then
        // confirm it is actually healed: a scrub that cannot re-verify its
        // repairs is just a detector.
        for &block in &cycle.corrupt {
            engine.wait_for((block.stripe.0, block.index));
            // Verify wherever the placement maps the block now — a repair
            // may have relocated it.
            if cluster.verify_block(block.stripe, block.index).is_ok() {
                cycle.reverified_clean += 1;
            } else {
                cycle.still_corrupt.push(block);
            }
        }
    }
    cycle.duration = started.elapsed();
    engine.metrics.record_scrub_cycle(cycle.clone());
    cycle
}

/// A background scrubber thread, started with
/// [`RepairManager::start_scrubber`](super::RepairManager::start_scrubber).
/// Runs scrub cycles at the configured cadence until stopped (or until the
/// handle is dropped).
pub struct Scrubber {
    stop: Arc<OnceFlag>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    pub(crate) fn spawn<F>(name: &str, interval: Duration, mut cycle_fn: F) -> Self
    where
        F: FnMut(&OnceFlag) + Send + 'static,
    {
        let stop = Arc::new(OnceFlag::new());
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !stop_flag.is_set() {
                    cycle_fn(&stop_flag);
                    // Sleep in short ticks so stop() stays responsive even
                    // with a long cycle interval.
                    let deadline = Instant::now() + interval;
                    while !stop_flag.is_set() {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
                    }
                }
            })
            .expect("spawn scrubber thread");
        Scrubber {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the scrubber after its current cycle and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.set();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.shutdown();
    }
}
