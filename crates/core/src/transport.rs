//! Pluggable slice transports.
//!
//! The paper's prototype moves slices between helper daemons over a real
//! network (Redis-backed in the ATC'17 version, direct TCP in the extended
//! evaluation). This module makes the runtime's transport pluggable behind
//! the [`Transport`] trait:
//!
//! * [`ChannelTransport`] — bounded in-process channels, the fast default
//!   used by tests and benches (an in-memory staging area between pipeline
//!   stages, playing the role of the paper's Redis instances); an optional
//!   per-link token-bucket throttle
//!   ([`ChannelTransport::with_rate_limit`]) simulates bandwidth-limited
//!   links in process, which is what makes concurrent recovery through the
//!   [`manager`](crate::manager) measurably faster than the sequential
//!   loop even on a single-core host;
//! * [`TcpTransport`] — real localhost TCP sockets with a length-prefixed
//!   wire format, pooled connections (a link owns one and its receiver
//!   reads it directly — no transport threads) and the same optional
//!   token-bucket bandwidth throttle, so the timing claims of §3.2 can be
//!   measured on sockets rather than only in `simnet`. It is the one socket
//!   backend.
//!
//! On both, a frame written on a link can be received at once by the thread
//! that wrote it: it is in the channel, or in the kernel or the
//! connection's read buffer. That is what lets one thread walk a whole
//! repair ([`exec`](crate::exec)).
//!
//! Every backend keeps per-link byte counters ([`LinkStats`]) so tests can
//! check the traffic-distribution claims of the paper (e.g. repair
//! pipelining sends exactly one block over every link, conventional repair
//! funnels `k` blocks into the requestor's link).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use ecpipe_sync::Mutex;

use simnet::{NodeId, Topology};

use crate::lock_order;

mod tcp;
mod wire;

pub use tcp::TcpTransport;

/// How long senders and receivers blocked on the TCP backend's condvars
/// sleep between re-checks; a backstop so a lost wakeup degrades to latency
/// rather than a deadlock.
const WAIT_TICK: Duration = Duration::from_millis(50);

/// The mutable half of a [`TokenBucket`]: the fill level plus the rate,
/// which can change at runtime ([`TokenBucket::set_rate`]) to model a link
/// whose capacity degrades mid-stream.
struct BucketState {
    tokens: f64,
    last: Instant,
    rate: f64,
    burst: f64,
}

/// A token bucket limiting one link (or, under topology shaping, one
/// directed node pair) to `rate` bytes per second. Every backend draws on it
/// the same way, through the [`SliceSender`] in front of its links: it
/// shapes real socket writes in [`TcpTransport`] and simulates constrained
/// links in [`ChannelTransport`].
pub(crate) struct TokenBucket {
    /// Lock class: `transport.token_bucket`
    /// ([`lock_order::TRANSPORT_TOKEN_BUCKET`]).
    state: Mutex<BucketState>,
}

impl TokenBucket {
    /// A small burst keeps the shaping fine-grained: the bucket never banks
    /// more than ~2 ms of line rate while a link is idle (min 2 KiB so tiny
    /// rates make progress).
    fn burst_for(rate: f64) -> f64 {
        (rate / 500.0).max(2048.0)
    }

    pub(crate) fn new(rate: u64) -> Self {
        let rate = rate.max(1) as f64;
        // The bucket starts empty, so every byte pays the line rate from the
        // first slice on — this keeps measured repair times close to the
        // store-and-forward timing model of §3.2 instead of letting idle
        // links run ahead.
        TokenBucket {
            state: Mutex::new(
                &lock_order::TRANSPORT_TOKEN_BUCKET,
                BucketState {
                    tokens: 0.0,
                    last: Instant::now(),
                    rate,
                    burst: Self::burst_for(rate),
                },
            ),
        }
    }

    /// Changes the bucket's rate in place, so a link already carrying a
    /// repair stream slows down (or speeds up) mid-flight. Banked tokens are
    /// clamped to the new burst, so a rate drop takes effect immediately.
    pub(crate) fn set_rate(&self, rate: u64) {
        let rate = rate.max(1) as f64;
        let mut state = self.state.lock();
        state.rate = rate;
        state.burst = Self::burst_for(rate);
        state.tokens = state.tokens.min(state.burst);
    }

    /// Grabs what the bucket holds towards `owed` tokens without waiting:
    /// `None` once they are all paid, otherwise how long until the bucket
    /// holds what is still owed (at most one burst's worth, so a rate
    /// change is noticed within one burst).
    fn poll(&self, owed: &mut f64, now: Instant) -> Option<Duration> {
        if *owed <= 0.0 {
            return None;
        }
        let mut state = self.state.lock();
        let elapsed = now.saturating_duration_since(state.last).as_secs_f64();
        state.tokens = (state.tokens + elapsed * state.rate).min(state.burst);
        state.last = state.last.max(now);
        let grab = owed.min(state.tokens);
        state.tokens -= grab;
        *owed -= grab;
        (*owed > 0.0).then(|| Duration::from_secs_f64(owed.min(state.burst) / state.rate))
    }

    /// Pays `bytes` tokens, sleeping until the bucket holds them: the
    /// blocking form of [`poll`](Self::poll), for the scrubber's pacing.
    pub(crate) fn take(&self, bytes: usize) {
        let mut owed = bytes as f64;
        while let Some(wait) = self.poll(&mut owed, Instant::now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One link's draw on its token bucket: the tokens grabbed so far towards
/// the next frame, banked across polls, so that a frame larger than the
/// bucket's burst is paid for a burst at a time while its sender does
/// something else in between.
struct Pacer {
    bucket: Arc<TokenBucket>,
    /// What a frame costs beyond its payload: the wire header on the socket
    /// backends, nothing in process.
    overhead: usize,
    /// Lock class: `transport.pacer` ([`lock_order::TRANSPORT_PACER`]).
    next: Mutex<NextFrame>,
}

/// The pacing of the frame a [`Pacer`] is paying for.
#[derive(Default)]
struct NextFrame {
    /// The frame's first poll — where its busy time starts — or `None`
    /// while no frame is being paid for.
    since: Option<Instant>,
    /// Tokens still to grab for it.
    owed: f64,
}

impl Pacer {
    /// Pays what the bucket holds towards the next frame (`len` payload
    /// bytes): `None` once it is paid for, else when to poll again.
    fn poll(&self, len: usize) -> Option<Instant> {
        let mut next = self.next.lock();
        let now = Instant::now();
        if next.since.is_none() {
            next.since = Some(now);
            next.owed = (self.overhead + len) as f64;
        }
        self.bucket.poll(&mut next.owed, now).map(|wait| now + wait)
    }

    /// Ends the paid frame's pacing and returns when it began.
    fn settle(&self) -> Option<Instant> {
        std::mem::take(&mut *self.next.lock()).since
    }
}

/// How a transport shapes its links' bandwidth.
enum ShaperMode {
    /// No shaping: links run at memory (or socket) speed.
    Off,
    /// Every link gets its own fresh token bucket at one flat rate
    /// (the historical `with_rate_limit` behavior).
    Flat(u64),
    /// Buckets are shared per directed node pair and seeded from the
    /// topology's bandwidth model, so a slow cross-rack edge throttles every
    /// stream crossing it — including reused TCP connections, which key by
    /// the same pair.
    Topology(Arc<Topology>),
}

/// Per-transport bandwidth shaping: owns the token buckets links draw from.
pub(crate) struct Shaper {
    mode: ShaperMode,
    /// Lock class: `transport.shaper` ([`lock_order::TRANSPORT_SHAPER`]).
    buckets: Mutex<HashMap<(NodeId, NodeId), Arc<TokenBucket>>>,
}

impl Default for Shaper {
    fn default() -> Self {
        Shaper::with_mode(ShaperMode::Off)
    }
}

impl Shaper {
    fn with_mode(mode: ShaperMode) -> Self {
        Shaper {
            mode,
            buckets: Mutex::new(&lock_order::TRANSPORT_SHAPER, HashMap::new()),
        }
    }

    pub(crate) fn flat(rate: u64) -> Self {
        Shaper::with_mode(ShaperMode::Flat(rate))
    }

    pub(crate) fn topology(topology: Arc<Topology>) -> Self {
        Shaper::with_mode(ShaperMode::Topology(topology))
    }

    /// The bucket a new link over `src -> dst` should draw from, if any.
    pub(crate) fn bucket(&self, src: NodeId, dst: NodeId) -> Option<Arc<TokenBucket>> {
        match &self.mode {
            ShaperMode::Off => None,
            // A fresh bucket per link keeps the historical per-link shaping
            // semantics that the flat-rate timing tests are built on.
            ShaperMode::Flat(rate) => Some(Arc::new(TokenBucket::new(*rate))),
            ShaperMode::Topology(topology) => Some(
                self.buckets
                    .lock()
                    .entry((src, dst))
                    .or_insert_with(|| {
                        Arc::new(TokenBucket::new(
                            topology.bandwidth(src, dst).max(1.0) as u64
                        ))
                    })
                    .clone(),
            ),
        }
    }

    /// Re-rates the directed pair's shared bucket (topology mode only),
    /// affecting streams already in flight over it. Returns whether shaping
    /// applied — flat and unshaped transports have no per-pair bucket to
    /// re-rate.
    pub(crate) fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        if !matches!(self.mode, ShaperMode::Topology(_)) {
            return false;
        }
        self.buckets
            .lock()
            .entry((src, dst))
            .or_insert_with(|| Arc::new(TokenBucket::new(bytes_per_sec)))
            .set_rate(bytes_per_sec);
        true
    }
}

/// A slice (or partial slice) in flight between two pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct SliceMsg {
    /// Index of the slice within its block.
    pub index: usize,
    /// The stripe the slice belongs to — observability metadata carried in
    /// wire frames (routing is by link id).
    pub stripe: u64,
    /// The repair job the slice belongs to (see
    /// [`RepairDirective::repair_id`](crate::RepairDirective::repair_id));
    /// metadata like `stripe`.
    pub repair: u64,
    /// Payload.
    pub data: Bytes,
}

impl SliceMsg {
    /// Creates an untagged message (stripe/repair ids zero).
    pub fn new(index: usize, data: Bytes) -> Self {
        SliceMsg {
            index,
            stripe: 0,
            repair: 0,
            data,
        }
    }

    /// Tags the message with the stripe and repair-job ids that go on the
    /// wire.
    pub fn tagged(mut self, stripe: u64, repair: u64) -> Self {
        self.stripe = stripe;
        self.repair = repair;
        self
    }
}

/// Errors surfaced by a transport link.
#[derive(Debug)]
pub enum TransportError {
    /// The peer end of the link has been dropped (a dead helper or
    /// requestor).
    Disconnected,
    /// A socket-level failure on a networked backend.
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer end of the link is gone"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Per-link transfer statistics.
#[derive(Debug, Default)]
pub struct LinkStats {
    bytes: AtomicU64,
    messages: AtomicU64,
    busy_nanos: AtomicU64,
}

impl LinkStats {
    /// Total bytes sent over the link.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total messages (slices) sent over the link.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total nanoseconds the link's slices spent being sent — each from its
    /// first pacing poll until the link took it, so token-bucket pacing and
    /// backpressure are included, and pacing still counts when the sender
    /// did other work between polls. Bytes over busy time is the link's
    /// measured throughput, which is what
    /// [`LinkTelemetry`](crate::telemetry::LinkTelemetry) folds into its
    /// EWMA estimates.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one directed link's counters, as returned by
/// [`StatsRegistry::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Total bytes sent over the link.
    pub bytes: u64,
    /// Total messages (slices) sent over the link.
    pub messages: u64,
    /// Total nanoseconds the link's slices spent being sent (see
    /// [`LinkStats::busy_nanos`]).
    pub busy_nanos: u64,
}

/// The backend half of a [`SliceSender`]: moves messages to the peer.
pub(crate) trait SliceTx: Send + Sync {
    /// Takes a credit for `msg` (blocking at zero) and either writes it —
    /// `Ok(true)` — or queues it for the next [`flush`](Self::flush).
    fn queue(&self, msg: SliceMsg) -> Result<bool, TransportError>;

    /// Writes every queued message. Backends whose `queue` writes at once
    /// keep this default.
    fn flush(&self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// The backend half of a [`SliceReceiver`]: yields the next message.
pub(crate) trait SliceRx: Send + Sync {
    fn recv(&self) -> Option<SliceMsg>;
}

/// The sending half of a link; paces and counts traffic as it sends.
pub struct SliceSender {
    inner: Box<dyn SliceTx>,
    stats: Arc<LinkStats>,
    /// The link's token-bucket throttle, if the transport shapes it.
    pacer: Option<Pacer>,
}

impl SliceSender {
    /// A sender over a backend's half, drawing on `bucket` (if the link is
    /// shaped) for every frame's payload plus `overhead` bytes.
    pub(crate) fn new(
        inner: impl SliceTx + 'static,
        stats: Arc<LinkStats>,
        bucket: Option<Arc<TokenBucket>>,
        overhead: usize,
    ) -> Self {
        SliceSender {
            inner: Box::new(inner),
            stats,
            pacer: bucket.map(|bucket| Pacer {
                bucket,
                overhead,
                next: Mutex::new(&lock_order::TRANSPORT_PACER, NextFrame::default()),
            }),
        }
    }

    /// Polls the link's pacing for the next slice, `len` payload bytes,
    /// without blocking: `None` once the link's token bucket has paid for it
    /// (an unshaped link always has), otherwise the instant worth polling
    /// again at. Tokens grabbed stay banked for that slice across polls, and
    /// its busy time ([`LinkStats::busy_nanos`]) runs from the first poll. A
    /// caller driving many links from one thread polls here and sends only
    /// paid slices, so one link's pacing never holds up the others.
    pub(crate) fn poll_pacing(&self, len: usize) -> Option<Instant> {
        self.pacer.as_ref()?.poll(len)
    }

    /// Sends one slice: first waits out the link's pacing (polling its
    /// token bucket and sleeping in between), then blocks while the link's
    /// buffer is full, then writes the slice — with anything queued on the
    /// link before it.
    ///
    /// Fails with [`TransportError::Disconnected`] once the receiving end has
    /// been dropped (a dead helper must fail the repair rather than silently
    /// truncate it), or [`TransportError::Io`] on a socket failure.
    pub fn send(&self, msg: SliceMsg) -> Result<(), TransportError> {
        self.queue(msg)?;
        self.flush()
    }

    /// Hands one slice to the link: first waits out the link's pacing
    /// (polling its token bucket and sleeping in between), then takes a
    /// credit, blocking while the link is full. Returns whether the slice is
    /// written — in-process channels write at once — or only queued, as
    /// `TcpTransport` does until the next [`flush`](Self::flush), so that
    /// one write carries every slice queued before it. A caller must flush
    /// before it waits for the link's receiver.
    pub(crate) fn queue(&self, msg: SliceMsg) -> Result<bool, TransportError> {
        let bytes = msg.data.len();
        while let Some(at) = self.poll_pacing(bytes) {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
        let started = self
            .pacer
            .as_ref()
            .and_then(Pacer::settle)
            .unwrap_or_else(Instant::now);
        let written = self.inner.queue(msg)?;
        // Count only traffic the link actually accepted, so failed sends
        // don't inflate the byte accounting the tests assert on. The time
        // from the first pacing poll (pacing, backpressure) is accumulated
        // alongside: bytes over busy time is the link's measured throughput.
        self.stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats
            .busy_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(written)
    }

    /// Writes every slice the link has queued, in one write when the socket
    /// takes them whole.
    pub(crate) fn flush(&self) -> Result<(), TransportError> {
        self.inner.flush()
    }
}

/// The receiving half of a link.
pub struct SliceReceiver {
    inner: Box<dyn SliceRx>,
}

impl SliceReceiver {
    /// A receiver over a backend's half.
    pub(crate) fn new(inner: impl SliceRx + 'static) -> Self {
        SliceReceiver {
            inner: Box::new(inner),
        }
    }

    /// Receives the next slice, or `None` once the sender is dropped and the
    /// link is drained.
    pub fn recv(&self) -> Option<SliceMsg> {
        self.inner.recv()
    }
}

/// Shared per-link traffic accounting, embedded by every backend.
pub struct StatsRegistry {
    /// Lock class: `transport.stats` ([`lock_order::TRANSPORT_STATS`]).
    links: Mutex<HashMap<(NodeId, NodeId), Arc<LinkStats>>>,
}

impl Default for StatsRegistry {
    fn default() -> Self {
        StatsRegistry {
            links: Mutex::new(&lock_order::TRANSPORT_STATS, HashMap::new()),
        }
    }
}

impl StatsRegistry {
    /// The stats cell for a directed link, created on first use. Repeated
    /// links over the same `(src, dst)` pair accumulate into one cell.
    pub fn register(&self, src: NodeId, dst: NodeId) -> Arc<LinkStats> {
        self.links
            .lock()
            .entry((src, dst))
            .or_insert_with(|| Arc::new(LinkStats::default()))
            .clone()
    }

    /// Bytes carried by one directed link so far.
    pub fn link_bytes(&self, src: NodeId, dst: NodeId) -> u64 {
        self.links
            .lock()
            .get(&(src, dst))
            .map(|s| s.bytes())
            .unwrap_or(0)
    }

    /// Total bytes moved over all links.
    pub fn total_bytes(&self) -> u64 {
        self.links.lock().values().map(|s| s.bytes()).sum()
    }

    /// Bytes on the most-loaded directed link.
    pub fn max_link_bytes(&self) -> u64 {
        self.links
            .lock()
            .values()
            .map(|s| s.bytes())
            .max()
            .unwrap_or(0)
    }

    /// The number of directed links that carried any traffic.
    pub fn links_used(&self) -> usize {
        self.links.lock().values().filter(|s| s.bytes() > 0).count()
    }

    /// A point-in-time copy of every directed link's counters. Telemetry and
    /// reporting diff two snapshots to attribute traffic to an interval.
    pub fn snapshot(&self) -> HashMap<(NodeId, NodeId), LinkSnapshot> {
        self.links
            .lock()
            .iter()
            .map(|(&pair, stats)| {
                (
                    pair,
                    LinkSnapshot {
                        bytes: stats.bytes(),
                        messages: stats.messages(),
                        busy_nanos: stats.busy_nanos(),
                    },
                )
            })
            .collect()
    }
}

/// A factory for inter-node links, with global traffic accounting.
///
/// The executors in [`crate::exec`] are generic over this trait, so the same
/// repair strategies run unchanged over in-process channels
/// ([`ChannelTransport`]) or localhost TCP sockets ([`TcpTransport`]).
///
/// ```
/// use bytes::Bytes;
/// use ecpipe::transport::{ChannelTransport, SliceMsg, Transport};
///
/// let transport = ChannelTransport::new();
/// // A bounded link from node 0 to node 1, as the executors open them.
/// let (tx, rx) = transport.link(0, 1, 8);
/// tx.send(SliceMsg::new(0, Bytes::from_static(b"slice")).tagged(7, 2))
///     .unwrap();
/// let msg = rx.recv().unwrap();
/// assert_eq!((msg.index, msg.stripe, msg.repair), (0, 7, 2));
/// drop(tx);
/// assert!(rx.recv().is_none(), "stream ends when the sender drops");
/// // Per-link accounting, used by the paper's traffic-distribution tests.
/// assert_eq!(transport.link_bytes(0, 1), 5);
/// assert_eq!(transport.total_bytes(), 5);
/// ```
pub trait Transport: Send + Sync {
    /// Opens a bounded link from `src` to `dst`. The capacity is the number
    /// of slices that may be buffered in flight (the pipeline depth between
    /// two stages); senders block once it is reached.
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver);

    /// The backend's traffic accounting.
    fn stats(&self) -> &StatsRegistry;

    /// Bytes carried by one directed link so far.
    fn link_bytes(&self, src: NodeId, dst: NodeId) -> u64 {
        self.stats().link_bytes(src, dst)
    }

    /// Total bytes moved over all links.
    fn total_bytes(&self) -> u64 {
        self.stats().total_bytes()
    }

    /// Bytes on the most-loaded directed link.
    fn max_link_bytes(&self) -> u64 {
        self.stats().max_link_bytes()
    }

    /// The number of directed links that carried any traffic.
    fn links_used(&self) -> usize {
        self.stats().links_used()
    }
}

struct ChannelTx {
    inner: Sender<SliceMsg>,
}

impl SliceTx for ChannelTx {
    fn queue(&self, msg: SliceMsg) -> Result<bool, TransportError> {
        self.inner
            .send(msg)
            .map(|()| true)
            .map_err(|_| TransportError::Disconnected)
    }
}

struct ChannelRx {
    inner: Receiver<SliceMsg>,
}

impl SliceRx for ChannelRx {
    fn recv(&self) -> Option<SliceMsg> {
        self.inner.recv().ok()
    }
}

/// The in-process backend: each link is a bounded MPMC channel, optionally
/// throttled by per-link or per-pair token buckets.
#[derive(Default)]
pub struct ChannelTransport {
    stats: StatsRegistry,
    shaper: Shaper,
}

impl ChannelTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        ChannelTransport::default()
    }

    /// Creates a transport where every link is throttled to `bytes_per_sec`
    /// by a token bucket, simulating bandwidth-limited links without
    /// sockets. Useful for measuring scheduling effects (e.g. concurrent
    /// versus sequential full-node recovery) where the repair is
    /// network-bound rather than CPU-bound.
    pub fn with_rate_limit(bytes_per_sec: u64) -> Self {
        ChannelTransport {
            stats: StatsRegistry::default(),
            shaper: Shaper::flat(bytes_per_sec),
        }
    }

    /// Creates a transport whose links are shaped per directed node pair by
    /// the topology's bandwidth model ([`Topology::bandwidth`]), so a
    /// heterogeneous cluster — slow NICs, constrained cross-rack links — is
    /// reproduced in process. All links over one pair share one bucket.
    pub fn with_topology(topology: Arc<Topology>) -> Self {
        ChannelTransport {
            stats: StatsRegistry::default(),
            shaper: Shaper::topology(topology),
        }
    }

    /// Re-rates one directed pair's shared bucket at runtime (topology-shaped
    /// transports only), throttling streams already in flight — the
    /// fault-injection hook behind the mid-stream link-degradation tests.
    /// Returns whether the transport shapes per pair.
    pub fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        self.shaper.set_link_rate(src, dst, bytes_per_sec)
    }
}

impl Transport for ChannelTransport {
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
        let stats = self.stats.register(src, dst);
        let (tx, rx) = bounded(capacity.max(1));
        // In process, a frame is its payload: nothing else is charged.
        let bucket = self.shaper.bucket(src, dst);
        (
            SliceSender::new(ChannelTx { inner: tx }, stats, bucket, 0),
            SliceReceiver::new(ChannelRx { inner: rx }),
        )
    }

    fn stats(&self) -> &StatsRegistry {
        &self.stats
    }
}

/// A backend chosen at runtime: either in-process channels or localhost TCP
/// behind one concrete type, so runtime handles like
/// [`EcPipe`](crate::EcPipe) can own "some transport" without being generic
/// over it.
pub enum AnyTransport {
    /// In-process bounded channels ([`ChannelTransport`]).
    Channel(ChannelTransport),
    /// Localhost TCP sockets, one pooled blocking connection per open link
    /// ([`TcpTransport`]).
    Tcp(TcpTransport),
}

impl AnyTransport {
    /// Re-rates one directed pair's shared bucket at runtime
    /// (topology-shaped transports only); see
    /// [`ChannelTransport::set_link_rate`] /
    /// [`TcpTransport::set_link_rate`]. Returns whether the backend shapes
    /// per pair.
    pub fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        match self {
            AnyTransport::Channel(t) => t.set_link_rate(src, dst, bytes_per_sec),
            AnyTransport::Tcp(t) => t.set_link_rate(src, dst, bytes_per_sec),
        }
    }
}

impl Transport for AnyTransport {
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
        match self {
            AnyTransport::Channel(t) => t.link(src, dst, capacity),
            AnyTransport::Tcp(t) => t.link(src, dst, capacity),
        }
    }

    fn stats(&self) -> &StatsRegistry {
        match self {
            AnyTransport::Channel(t) => t.stats(),
            AnyTransport::Tcp(t) => t.stats(),
        }
    }
}

impl From<ChannelTransport> for AnyTransport {
    fn from(t: ChannelTransport) -> Self {
        AnyTransport::Channel(t)
    }
}

impl From<TcpTransport> for AnyTransport {
    fn from(t: TcpTransport) -> Self {
        AnyTransport::Tcp(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_counts_traffic() {
        let transport = ChannelTransport::new();
        let (tx, rx) = transport.link(0, 1, 4);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"0123")))
            .unwrap();
        tx.send(SliceMsg::new(1, Bytes::from_static(b"45")))
            .unwrap();
        assert_eq!(rx.recv().unwrap().index, 0);
        assert_eq!(rx.recv().unwrap().data, Bytes::from_static(b"45"));
        assert_eq!(transport.link_bytes(0, 1), 6);
        assert_eq!(transport.total_bytes(), 6);
        assert_eq!(transport.links_used(), 1);
    }

    #[test]
    fn send_after_receiver_dropped_errors() {
        let transport = ChannelTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        drop(rx);
        assert!(matches!(
            tx.send(SliceMsg::new(0, Bytes::new())),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn stats_accumulate_across_links_on_same_pair() {
        let transport = ChannelTransport::new();
        {
            let (tx, rx) = transport.link(2, 3, 1);
            tx.send(SliceMsg::new(0, Bytes::from_static(b"abc")))
                .unwrap();
            rx.recv();
        }
        {
            let (tx, rx) = transport.link(2, 3, 1);
            tx.send(SliceMsg::new(0, Bytes::from_static(b"de")))
                .unwrap();
            rx.recv();
        }
        assert_eq!(transport.link_bytes(2, 3), 5);
        assert_eq!(transport.max_link_bytes(), 5);
    }

    #[test]
    fn recv_returns_none_when_sender_dropped() {
        let transport = ChannelTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        drop(tx);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn token_bucket_enforces_rate() {
        let bucket = TokenBucket::new(1_000_000); // 1 MB/s, 20 KB burst
        let start = Instant::now();
        bucket.take(120_000);
        // 120 KB minus the initial burst at 1 MB/s needs >= ~100 ms.
        assert!(start.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn throttled_channel_link_paces_traffic() {
        let transport = ChannelTransport::with_rate_limit(1_000_000);
        let (tx, rx) = transport.link(0, 1, 64);
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for j in 0..8 {
                    tx.send(SliceMsg::new(j, Bytes::from(vec![0u8; 16 * 1024])))
                        .unwrap();
                }
            });
            for _ in 0..8 {
                rx.recv().unwrap();
            }
        });
        // 128 KB at 1 MB/s needs >= ~100 ms even after the initial burst.
        assert!(start.elapsed() >= Duration::from_millis(90));
        assert_eq!(transport.link_bytes(0, 1), 8 * 16 * 1024);
    }

    #[test]
    fn token_bucket_rate_change_applies_mid_stream() {
        let bucket = TokenBucket::new(100_000_000); // effectively unthrottled
        bucket.take(64 * 1024);
        bucket.set_rate(100_000); // 100 KB/s
        let start = Instant::now();
        bucket.take(20 * 1024);
        // 20 KiB at 100 KB/s needs ~200 ms (burst is only ~2 KiB).
        assert!(start.elapsed() >= Duration::from_millis(150));
    }

    #[test]
    fn pacing_is_polled_without_blocking_and_banks_what_it_grabs() {
        // 1 MB/s with a 2 KiB burst: a 20 KB slice is ten bursts, so no
        // single poll can pay for it.
        let transport = ChannelTransport::with_rate_limit(1_000_000);
        let (tx, rx) = transport.link(0, 1, 4);
        let start = Instant::now();
        let mut polls = 0;
        while let Some(at) = tx.poll_pacing(20_000) {
            polls += 1;
            let asked = Instant::now();
            assert!(
                at <= asked + Duration::from_millis(5),
                "a poll waits at most a burst"
            );
            std::thread::sleep(at.saturating_duration_since(asked));
        }
        assert!(polls >= 5, "paid {polls} times: the grabs were not banked");
        let paid = start.elapsed();
        assert!(paid >= Duration::from_millis(18), "paid 20 KB in {paid:?}");
        // Paid for, it stays paid until sent; its busy time runs from its
        // first poll.
        assert!(tx.poll_pacing(20_000).is_none());
        tx.send(SliceMsg::new(0, Bytes::from(vec![0u8; 20_000])))
            .unwrap();
        assert_eq!(rx.recv().unwrap().data.len(), 20_000);
        let busy = Duration::from_nanos(transport.stats().register(0, 1).busy_nanos());
        assert!(busy >= Duration::from_millis(18), "busy {busy:?}");
        // The next slice starts owing afresh.
        assert!(tx.poll_pacing(20_000).is_some());
    }

    #[test]
    fn topology_shaping_throttles_only_the_slow_pair() {
        // Node 2's NIC is slow; the 0 -> 1 link is fast.
        let mut topo = Topology::flat(3, 64.0 * 1024.0 * 1024.0);
        topo.set_node_bandwidth(2, 100_000.0, 100_000.0);
        let transport = ChannelTransport::with_topology(Arc::new(topo));
        let elapsed_over = |src: NodeId, dst: NodeId| {
            let (tx, rx) = transport.link(src, dst, 64);
            let start = Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for j in 0..4 {
                        tx.send(SliceMsg::new(j, Bytes::from(vec![0u8; 16 * 1024])))
                            .unwrap();
                    }
                });
                for _ in 0..4 {
                    rx.recv().unwrap();
                }
            });
            start.elapsed()
        };
        assert!(elapsed_over(0, 1) < Duration::from_millis(100));
        // 64 KiB into the 100 KB/s node needs >= ~500 ms.
        assert!(elapsed_over(0, 2) >= Duration::from_millis(400));
    }

    #[test]
    fn topology_pairs_share_one_bucket_but_flat_links_do_not() {
        let topo = Arc::new(Topology::flat(2, 1_000_000.0));
        let shaped = ChannelTransport::with_topology(topo);
        let a = shaped.shaper.bucket(0, 1).unwrap();
        let b = shaped.shaper.bucket(0, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let flat = ChannelTransport::with_rate_limit(1_000_000);
        let c = flat.shaper.bucket(0, 1).unwrap();
        let d = flat.shaper.bucket(0, 1).unwrap();
        assert!(!Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn set_link_rate_applies_only_under_topology_shaping() {
        let unshaped = ChannelTransport::new();
        assert!(!unshaped.set_link_rate(0, 1, 1));
        let flat = ChannelTransport::with_rate_limit(1_000_000);
        assert!(!flat.set_link_rate(0, 1, 1));
        let shaped = ChannelTransport::with_topology(Arc::new(Topology::flat(2, 1e9)));
        assert!(shaped.set_link_rate(0, 1, 100_000));
        // The pre-created bucket is the one links draw from afterwards.
        let (tx, rx) = shaped.link(0, 1, 64);
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                tx.send(SliceMsg::new(0, Bytes::from(vec![0u8; 32 * 1024])))
                    .unwrap();
            });
            rx.recv().unwrap();
        });
        assert!(start.elapsed() >= Duration::from_millis(200));
    }

    #[test]
    fn snapshot_copies_all_counters() {
        let transport = ChannelTransport::new();
        let (tx, rx) = transport.link(0, 1, 4);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"0123")))
            .unwrap();
        rx.recv().unwrap();
        let snap = transport.stats().snapshot();
        let link = snap.get(&(0, 1)).unwrap();
        assert_eq!(link.bytes, 4);
        assert_eq!(link.messages, 1);
        // Unused registered pairs don't appear; busy time was recorded.
        assert_eq!(snap.len(), 1);
        let registered = transport.stats().register(0, 1);
        assert!(registered.busy_nanos() > 0);
    }

    #[test]
    fn tags_travel_with_the_message() {
        let transport = ChannelTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        tx.send(SliceMsg::new(3, Bytes::from_static(b"x")).tagged(7, 9))
            .unwrap();
        let msg = rx.recv().unwrap();
        assert_eq!((msg.index, msg.stripe, msg.repair), (3, 7, 9));
    }
}
