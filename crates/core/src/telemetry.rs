//! Live link telemetry: measured per-link throughput for repair planning.
//!
//! The paper's weighted path selection (§4.3) wants link weights that track
//! the *actual* state of the network, not just the nominal topology. Both
//! transport backends already count bytes and send-time per directed node
//! pair ([`StatsRegistry`]); [`LinkTelemetry`] folds those counters into an
//! exponentially weighted moving average of each pair's throughput and
//! serves them as [`LinkWeights`] to `repair::weighted_path::optimal_path`.
//!
//! Cold links — pairs that have not yet moved enough bytes for a trustworthy
//! estimate — fall back to the static [`Topology`] bandwidth model, so a
//! fresh cluster plans on the configured topology and smoothly shifts to
//! measured reality as repairs flow.

use std::collections::HashMap;
use std::sync::Arc;

use ecpipe_sync::Mutex;
use repair::weighted_path::LinkWeights;
use simnet::{NodeId, Topology};

use crate::lock_order;
use crate::transport::StatsRegistry;

/// EWMA smoothing factor: the weight of the newest throughput sample.
const ALPHA: f64 = 0.3;

/// A pair's estimate is trusted only once it has carried this many bytes;
/// below the threshold planning uses the static topology weight.
const WARM_BYTES: u64 = 64 * 1024;

/// Per-pair accumulator: how much of the transport counters has already been
/// folded in, plus the running throughput estimate.
#[derive(Debug, Clone, Copy, Default)]
struct PairState {
    seen_bytes: u64,
    seen_busy_nanos: u64,
    ewma_bps: Option<f64>,
}

/// EWMA throughput estimates per directed node pair, layered over a
/// transport's byte counters and backed by a static [`Topology`] for links
/// that are still cold.
///
/// [`observe`](LinkTelemetry::observe) diffs the transport's counters
/// against the last call and folds each pair's interval throughput (bytes
/// over busy send time) into its EWMA. The [`LinkWeights`] impl then serves
/// `1 / throughput` for warm pairs and the topology's
/// [`link_weight`](Topology::link_weight) for cold ones, which is exactly
/// the shape `optimal_path` expects.
pub struct LinkTelemetry {
    topology: Arc<Topology>,
    /// Lock class: `manager.telemetry` ([`lock_order::MANAGER_TELEMETRY`]).
    state: Mutex<HashMap<(NodeId, NodeId), PairState>>,
}

impl LinkTelemetry {
    /// Creates a telemetry layer over `topology`.
    pub fn new(topology: Arc<Topology>) -> Self {
        LinkTelemetry {
            topology,
            state: Mutex::new(&lock_order::MANAGER_TELEMETRY, HashMap::new()),
        }
    }

    /// The static topology estimates are layered over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Folds the transport counters accumulated since the previous call into
    /// the per-pair EWMA estimates. Cheap enough to call before every
    /// planning decision.
    pub fn observe(&self, stats: &StatsRegistry) {
        let mut state = self.state.lock();
        for (pair, snap) in stats.snapshot() {
            let entry = state.entry(pair).or_default();
            let delta_bytes = snap.bytes.saturating_sub(entry.seen_bytes);
            let delta_busy = snap.busy_nanos.saturating_sub(entry.seen_busy_nanos);
            entry.seen_bytes = snap.bytes;
            entry.seen_busy_nanos = snap.busy_nanos;
            if delta_bytes == 0 || delta_busy == 0 {
                continue;
            }
            let bps = delta_bytes as f64 / (delta_busy as f64 / 1e9);
            entry.ewma_bps = Some(match entry.ewma_bps {
                Some(prev) => ALPHA * bps + (1.0 - ALPHA) * prev,
                None => bps,
            });
        }
    }

    /// The measured throughput estimate (bytes/s) of one directed pair, or
    /// `None` while the pair is cold (below 64 KiB observed).
    pub fn throughput(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let state = self.state.lock();
        let entry = state.get(&(src, dst))?;
        if entry.seen_bytes < WARM_BYTES {
            return None;
        }
        entry.ewma_bps
    }
}

impl LinkWeights for LinkTelemetry {
    /// Inverse measured throughput for warm pairs; the static topology
    /// weight for cold ones.
    fn weight(&self, src: NodeId, dst: NodeId) -> f64 {
        match self.throughput(src, dst) {
            Some(bps) if bps > 0.0 => 1.0 / bps,
            _ => self.topology.link_weight(src, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelTransport, SliceMsg, Transport};
    use bytes::Bytes;

    fn push(transport: &ChannelTransport, src: NodeId, dst: NodeId, bytes: usize) {
        let (tx, rx) = transport.link(src, dst, 64);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                tx.send(SliceMsg::new(0, Bytes::from(vec![0u8; bytes])))
                    .unwrap();
            });
            rx.recv().unwrap();
        });
    }

    #[test]
    fn cold_pairs_fall_back_to_topology_weights() {
        let topo = Arc::new(Topology::flat(3, 1000.0));
        let telemetry = LinkTelemetry::new(topo.clone());
        assert_eq!(telemetry.throughput(0, 1), None);
        assert!((telemetry.weight(0, 1) - topo.link_weight(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn warm_pairs_serve_measured_throughput() {
        let topo = Arc::new(Topology::flat(3, 1000.0));
        let transport = ChannelTransport::with_rate_limit(1_000_000);
        let telemetry = LinkTelemetry::new(topo);
        push(&transport, 0, 1, 128 * 1024);
        telemetry.observe(transport.stats());
        let measured = telemetry.throughput(0, 1).expect("pair should be warm");
        // The token bucket pins the pair near 1 MB/s; the estimate must be
        // the measured rate, nowhere near the 1000 B/s static topology.
        assert!(
            (200_000.0..5_000_000.0).contains(&measured),
            "measured {measured} B/s"
        );
        assert!((telemetry.weight(0, 1) - 1.0 / measured).abs() < 1e-15);
    }

    #[test]
    fn below_warm_threshold_stays_cold() {
        let topo = Arc::new(Topology::flat(3, 1000.0));
        let transport = ChannelTransport::new();
        let telemetry = LinkTelemetry::new(topo);
        push(&transport, 0, 1, 4096);
        telemetry.observe(transport.stats());
        assert_eq!(telemetry.throughput(0, 1), None);
    }

    #[test]
    fn ewma_tracks_a_rate_change() {
        let topo = Arc::new(Topology::flat(2, 1000.0));
        let transport = ChannelTransport::with_topology(Arc::new(Topology::flat(2, 2_000_000.0)));
        let telemetry = LinkTelemetry::new(topo);
        push(&transport, 0, 1, 64 * 1024);
        telemetry.observe(transport.stats());
        let fast = telemetry.throughput(0, 1).unwrap();
        transport.set_link_rate(0, 1, 100_000);
        // Each observation keeps 70 % of the old estimate, so four samples
        // at the slow rate leave under a quarter of the fast one.
        for _ in 0..4 {
            push(&transport, 0, 1, 8 * 1024);
            telemetry.observe(transport.stats());
        }
        let slow = telemetry.throughput(0, 1).unwrap();
        assert!(
            slow < fast / 2.0,
            "estimate should collapse: {fast} -> {slow}"
        );
    }
}
