//! The reactor transport backend: slices move over nonblocking localhost
//! sockets multiplexed by a fixed pool of epoll threads (`ecpipe-reactor`).
//!
//! Byte-for-byte the same protocol as [`TcpTransport`](super::TcpTransport)
//! — the wire format lives in [`wire`](super::wire) and the conformance
//! suites run over both — but a different connection and threading model.
//! Where a TCP link owns a pooled blocking connection that its own
//! receiver reads, this backend shares one connection per directed node
//! pair among all links between the pair (credits and per-link queues in
//! [`framed`](super::framed)) and registers every socket (listeners and
//! connections alike) with one [`Reactor`]: a handful of poll threads serve
//! arbitrarily many nodes and connections, so neither threads nor sockets
//! grow with the number of concurrent links.
//!
//! # Data flow
//!
//! *Send path (caller threads).* A sender pays the link's token bucket (in
//! [`SliceSender`], as on every backend), passes its credit gate, then
//! locks the connection's outbound buffer: if the buffer is empty it
//! writes directly to the nonblocking socket and queues only the
//! remainder a full socket refuses (arming writable
//! interest); otherwise it appends — FIFO order is preserved, so `EOS`
//! always trails the data it follows. Senders block briefly on a high-water
//! mark so an unbounded burst cannot balloon the buffer.
//!
//! *Flush path (reactor threads).* When the socket turns writable the
//! reactor drains the outbound buffer, disarms writable interest once
//! empty, and wakes any sender parked on the watermark.
//!
//! *Receive path (reactor threads).* When an accepted socket turns readable
//! the reactor reads until `WouldBlock`, feeds an incremental
//! [`FrameDecoder`](super::wire::FrameDecoder), and dispatches the complete
//! frames to their link queues — where [`FramedRx`] receivers (caller
//! threads) pop them. On EOF — or a frame the decoder rejects — the
//! connection deregisters itself and every link it fed (the links
//! registered under its generation, not every link of the pair) is
//! sender-closed.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use ecpipe_reactor::{Interest, Reactor, Readiness, Registration, Source};
use ecpipe_sync::{Condvar, Mutex};
use simnet::{NodeId, Topology};

use crate::lock_order;

use super::framed::{FramedRx, LinkState, LinkTable};
use super::wire::{
    encode_header, payload_len, FrameDecoder, HEADER_LEN, OP_DATA, OP_EOS, OP_HELLO,
};
use super::{
    Shaper, SliceMsg, SliceReceiver, SliceSender, SliceTx, StatsRegistry, Transport,
    TransportError, WAIT_TICK,
};

/// Poll threads per transport unless overridden — deliberately small: the
/// whole point is that the thread budget does not scale with nodes, links
/// or in-flight operations.
const DEFAULT_THREADS: usize = 2;

/// Once a connection's outbound buffer exceeds this, senders park until the
/// reactor drains it below — bounding per-connection memory when a peer's
/// socket stops accepting bytes.
const HIGH_WATER: usize = 1 << 20;

/// Read chunk size for the receive path.
const READ_CHUNK: usize = 64 * 1024;

/// Buffered bytes to write out, plus the connection's liveness.
struct OutboundState {
    buf: Vec<u8>,
    /// Write cursor into `buf`; compacted as the reactor drains it.
    start: usize,
    closed: bool,
}

impl OutboundState {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// One outbound connection for a directed node pair, shared by every link
/// (and sender thread) between the pair.
struct OutboundConn {
    pair: (NodeId, NodeId),
    /// Unique per dial; announced in the `HELLO` frame so the accepting
    /// side closes exactly the links this connection carried.
    generation: u64,
    stream: TcpStream,
    /// Lock class: `rtransport.conn` ([`lock_order::RTRANSPORT_CONN`]).
    state: Mutex<OutboundState>,
    /// Senders park here when the buffer crosses [`HIGH_WATER`].
    drained: Condvar,
    /// The epoll registration slot; populated right after registration and
    /// taken by teardown.
    ///
    /// Lock class: `rtransport.conn_reg`
    /// ([`lock_order::RTRANSPORT_CONN_REG`]).
    registration: Mutex<Option<Registration>>,
}

impl OutboundConn {
    /// Arms or disarms writable interest. Called with the buffer state lock
    /// held, which makes the interest decision atomic with the buffer
    /// emptiness it is based on (the registration class ranks above the
    /// buffer class, so this nesting is legal).
    fn set_writable_interest(&self, writable: bool) {
        if let Some(reg) = self.registration.lock().as_ref() {
            let _ = reg.set_interest(Interest {
                readable: false,
                writable,
            });
        }
    }

    /// Writes one frame (header + payload), buffering whatever the socket
    /// refuses. Frames from concurrent senders never interleave: the buffer
    /// lock is held across both segments.
    fn send_frame(&self, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "reactor transport connection is closed",
            ));
        }
        for segment in [header, payload] {
            let mut offset = 0;
            // Direct-write only while nothing is queued ahead of us.
            if state.pending() == 0 {
                loop {
                    if offset == segment.len() {
                        break;
                    }
                    match (&self.stream).write(&segment[offset..]) {
                        Ok(0) => break,
                        Ok(n) => offset += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => {
                            state.closed = true;
                            self.drained.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
            if offset < segment.len() {
                state.buf.extend_from_slice(&segment[offset..]);
            }
        }
        if state.pending() > 0 {
            self.set_writable_interest(true);
            // High-water mark: hold senders until the reactor drains the
            // backlog (ticked, so a missed wakeup costs latency not
            // liveness).
            let state = self
                .drained
                .wait_while_tick(state, WAIT_TICK, |s| !s.closed && s.pending() > HIGH_WATER);
            if state.closed {
                return Err(std::io::Error::new(
                    ErrorKind::BrokenPipe,
                    "reactor transport connection closed while flushing",
                ));
            }
        }
        Ok(())
    }

    /// Drains the outbound buffer into the socket (reactor thread). Returns
    /// `true` once the connection is dead and should be evicted.
    fn flush(&self, peer_closed: bool) -> bool {
        let mut state = self.state.lock();
        if peer_closed {
            state.closed = true;
        }
        while !state.closed && state.pending() > 0 {
            let start = state.start;
            match (&self.stream).write(&state.buf[start..]) {
                Ok(0) => state.closed = true,
                Ok(n) => {
                    state.start += n;
                    if state.start == state.buf.len() {
                        state.buf.clear();
                        state.start = 0;
                    } else if state.start >= state.buf.len() / 2 {
                        // Compact once the drained prefix dominates, so a
                        // long-lived backlog can't grow the buffer without
                        // bound.
                        let start = state.start;
                        state.buf.drain(..start);
                        state.start = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => state.closed = true,
            }
        }
        if state.closed || state.pending() == 0 {
            self.set_writable_interest(false);
        }
        self.drained.notify_all();
        state.closed
    }

    /// Marks the connection dead, wakes parked senders, detaches it from
    /// the reactor and shuts the socket down. Idempotent.
    fn teardown(&self) {
        {
            let mut state = self.state.lock();
            state.closed = true;
        }
        self.drained.notify_all();
        let registration = self.registration.lock().take();
        drop(registration);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The readiness callback for an outbound connection: flush on writable,
/// evict on error/hangup. Kept separate from [`OutboundConn`] so the
/// registration can live *inside* the connection (the dispatch table holds
/// this thin wrapper, not the connection that owns the registration —
/// otherwise neither could ever drop).
struct FlushSource {
    conn: Arc<OutboundConn>,
    conns: Weak<Mutex<ConnTable>>,
}

impl Source for FlushSource {
    fn on_ready(&self, readiness: Readiness) {
        let dead = self.conn.flush(readiness.closed);
        if dead {
            if let Some(conns) = self.conns.upgrade() {
                evict_outbound(&conns, &self.conn);
            }
            self.conn.teardown();
        }
    }
}

/// Parser state of one accepted (inbound) connection.
struct InboundState {
    decoder: FrameDecoder,
    /// The connection generation announced by the HELLO frame.
    generation: Option<u64>,
    finished: bool,
}

/// One accepted connection: reads frames and routes them to link queues.
struct InboundConn {
    id: u64,
    stream: TcpStream,
    /// Lock class: `rtransport.conn` ([`lock_order::RTRANSPORT_CONN`]).
    state: Mutex<InboundState>,
    table: Arc<LinkTable>,
    conns: Weak<Mutex<ConnTable>>,
}

impl Source for InboundConn {
    fn on_ready(&self, readiness: Readiness) {
        let mut frames = Vec::new();
        let finished;
        let generation;
        {
            let mut state = self.state.lock();
            if state.finished {
                return;
            }
            if readiness.readable {
                let mut chunk = [0u8; READ_CHUNK];
                loop {
                    match (&self.stream).read(&mut chunk) {
                        Ok(0) => {
                            state.finished = true;
                            break;
                        }
                        Ok(n) => state.decoder.extend(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            state.finished = true;
                            break;
                        }
                    }
                }
            } else if readiness.closed {
                state.finished = true;
            }
            loop {
                match state.decoder.next_frame() {
                    Ok(Some(frame)) if frame.opcode == OP_HELLO => {
                        state.generation = Some(frame.stripe);
                    }
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    // A garbled header: the stream position is lost, so the
                    // connection (and the links it carries) is finished.
                    Err(_) => {
                        state.finished = true;
                        break;
                    }
                }
            }
            finished = state.finished;
            generation = state.generation;
        }
        // Dispatch outside the connection lock: pushing into link queues
        // takes the (higher-ranked) link locks and wakes receivers.
        for frame in frames {
            self.table.dispatch(frame);
        }
        if finished {
            // Deregister first (dropping the registration ends dispatch to
            // this source), then close every link the connection fed.
            if let Some(conns) = self.conns.upgrade() {
                conns.lock().inbound.remove(&self.id);
            }
            let _ = self.stream.shutdown(Shutdown::Both);
            if let Some(generation) = generation {
                self.table.close_conn_links(generation);
            }
        }
    }
}

/// The accept callback for one node's listener: drains the accept queue,
/// registering each new connection with the reactor.
struct AcceptSource {
    listener: TcpListener,
    reactor: Weak<Reactor>,
    conns: Weak<Mutex<ConnTable>>,
    table: Arc<LinkTable>,
}

impl Source for AcceptSource {
    fn on_ready(&self, _readiness: Readiness) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let (Some(reactor), Some(conns)) = (self.reactor.upgrade(), self.conns.upgrade())
            else {
                return;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let mut conn_table = conns.lock();
            let id = conn_table.next_inbound;
            conn_table.next_inbound += 1;
            let inbound = Arc::new(InboundConn {
                id,
                stream,
                state: Mutex::new(
                    &lock_order::RTRANSPORT_CONN,
                    InboundState {
                        decoder: FrameDecoder::default(),
                        generation: None,
                        finished: false,
                    },
                ),
                table: self.table.clone(),
                conns: Arc::downgrade(&conns),
            });
            let fd = inbound.stream.as_raw_fd();
            match reactor.register(fd, Interest::READABLE, inbound.clone() as _) {
                Ok(registration) => {
                    conn_table.inbound.insert(
                        id,
                        InboundEntry {
                            conn: inbound,
                            _registration: registration,
                        },
                    );
                }
                Err(_) => {
                    let _ = inbound.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

struct InboundEntry {
    conn: Arc<InboundConn>,
    /// Dropping the entry deregisters the socket.
    _registration: Registration,
}

struct Listener {
    addr: SocketAddr,
    /// Dropping the handle deregisters the listener; the socket itself is
    /// owned by the [`AcceptSource`] in the reactor's dispatch table.
    _registration: Registration,
}

/// Every live connection of the transport, inbound and outbound, under one
/// lock.
struct ConnTable {
    outbound: HashMap<(NodeId, NodeId), Arc<OutboundConn>>,
    inbound: HashMap<u64, InboundEntry>,
    next_inbound: u64,
}

/// Removes `conn` from the outbound cache if it is still the cached entry
/// for its pair (a reconnect may already have replaced it).
fn evict_outbound(conns: &Mutex<ConnTable>, conn: &Arc<OutboundConn>) {
    let mut table = conns.lock();
    if let Some(current) = table.outbound.get(&conn.pair) {
        if Arc::ptr_eq(current, conn) {
            table.outbound.remove(&conn.pair);
        }
    }
}

struct ReactorTx {
    /// The shared connection, or the socket-setup failure that prevented
    /// it (surfaced per-send, mirroring the TCP backend).
    conn: Result<Arc<OutboundConn>, String>,
    /// The generation the link is registered under (see `link`).
    generation: u64,
    link_id: u64,
    link: Arc<LinkState>,
    table: Arc<LinkTable>,
}

impl SliceTx for ReactorTx {
    fn queue(&self, msg: SliceMsg) -> Result<bool, TransportError> {
        let conn = self
            .conn
            .as_ref()
            .map_err(|reason| TransportError::Io(std::io::Error::other(reason.clone())))?;
        let len = payload_len(&msg.data).map_err(TransportError::Io)?;
        // Credit gate: block until the receiver has drained below capacity.
        {
            let inner = self.link.inner.lock();
            let mut inner = self
                .link
                .writable
                .wait_while_tick(inner, WAIT_TICK, |s| !s.receiver_closed && s.credits == 0);
            if inner.receiver_closed {
                return Err(TransportError::Disconnected);
            }
            inner.credits -= 1;
        }
        let header = encode_header(
            OP_DATA,
            self.link_id,
            msg.index as u64,
            msg.stripe,
            msg.repair,
            len,
        );
        conn.send_frame(&header, &msg.data)
            .map(|()| true)
            .map_err(TransportError::Io)
    }
}

impl Drop for ReactorTx {
    fn drop(&mut self) {
        // Graceful end-of-stream: the EOS frame joins the same buffer the
        // DATA frames went through, so it arrives after them.
        if let Ok(conn) = &self.conn {
            let header = encode_header(OP_EOS, self.link_id, 0, 0, 0, 0);
            let _ = conn.send_frame(&header, &[]);
        }
        self.table
            .release_link_half(self.generation, self.link_id, &self.link, true);
    }
}

/// The event-driven socket backend: the same framed protocol, credit
/// backpressure and token-bucket shaping as
/// [`TcpTransport`](super::TcpTransport), with one shared connection per
/// directed node pair served by a fixed pool of epoll threads. See the
/// module docs for the data flow.
pub struct ReactorTransport {
    stats: StatsRegistry,
    table: Arc<LinkTable>,
    /// Lock class: `rtransport.listeners`
    /// ([`lock_order::RTRANSPORT_LISTENERS`]).
    listeners: Mutex<HashMap<NodeId, Listener>>,
    /// Lock class: `rtransport.conns` ([`lock_order::RTRANSPORT_CONNS`]).
    conns: Arc<Mutex<ConnTable>>,
    next_link_id: AtomicU64,
    next_generation: AtomicU64,
    shaper: Shaper,
    /// Declared last: registrations in the tables above must drop before
    /// the pool they point into (transport `Drop` also tears down
    /// explicitly; the field order is the backstop).
    reactor: Arc<Reactor>,
}

impl Default for ReactorTransport {
    fn default() -> Self {
        ReactorTransport::new()
    }
}

impl ReactorTransport {
    /// Creates a transport served by the default small reactor pool.
    ///
    /// # Panics
    ///
    /// Panics if the reactor's epoll instances or threads cannot be
    /// created — an environment error (fd/thread exhaustion) with nothing
    /// sensible to degrade to.
    pub fn new() -> Self {
        ReactorTransport::with_threads(DEFAULT_THREADS)
    }

    /// Creates a transport served by exactly `threads` poll threads
    /// (clamped to at least one). The budget is fixed for the transport's
    /// lifetime regardless of how many nodes, connections or links it
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics if the reactor's epoll instances or threads cannot be
    /// created.
    pub fn with_threads(threads: usize) -> Self {
        let reactor =
            Arc::new(Reactor::new(threads).expect("create epoll reactor for ReactorTransport"));
        ReactorTransport {
            stats: StatsRegistry::default(),
            table: Arc::new(LinkTable::default()),
            listeners: Mutex::new(&lock_order::RTRANSPORT_LISTENERS, HashMap::new()),
            conns: Arc::new(Mutex::new(
                &lock_order::RTRANSPORT_CONNS,
                ConnTable {
                    outbound: HashMap::new(),
                    inbound: HashMap::new(),
                    next_inbound: 0,
                },
            )),
            next_link_id: AtomicU64::new(1),
            next_generation: AtomicU64::new(1),
            shaper: Shaper::default(),
            reactor,
        }
    }

    /// Creates a transport where every link is throttled to `bytes_per_sec`
    /// by a token bucket — the same shaping as the other backends.
    pub fn with_rate_limit(bytes_per_sec: u64) -> Self {
        let mut transport = ReactorTransport::new();
        transport.shaper = Shaper::flat(bytes_per_sec);
        transport
    }

    /// Creates a transport whose links are shaped per directed node pair by
    /// the topology's bandwidth model ([`Topology::bandwidth`]); all links
    /// over one pair share one bucket, matching the connection reuse.
    pub fn with_topology(topology: Arc<Topology>) -> Self {
        let mut transport = ReactorTransport::new();
        transport.shaper = Shaper::topology(topology);
        transport
    }

    /// Re-rates one directed pair's shared bucket at runtime
    /// (topology-shaped transports only). Returns whether the transport
    /// shapes per pair.
    pub fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        self.shaper.set_link_rate(src, dst, bytes_per_sec)
    }

    /// The fixed number of reactor threads serving this transport.
    pub fn reactor_threads(&self) -> usize {
        self.reactor.thread_count()
    }

    /// Fault-injection hook: severs the cached connection for a directed
    /// pair, as if the peer process restarted. In-flight senders on the
    /// pair fail; receivers see end-of-stream; the *next* link over the
    /// pair transparently reconnects. Returns whether a connection existed.
    pub fn disconnect_pair(&self, src: NodeId, dst: NodeId) -> bool {
        let conn = self.conns.lock().outbound.remove(&(src, dst));
        match conn {
            Some(conn) => {
                conn.teardown();
                true
            }
            None => false,
        }
    }

    /// The loopback address a node's listener is bound to (binding and
    /// registering it first if needed).
    fn listener_addr(&self, node: NodeId) -> std::io::Result<SocketAddr> {
        let mut listeners = self.listeners.lock();
        if let Some(listener) = listeners.get(&node) {
            return Ok(listener.addr);
        }
        let socket = TcpListener::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let fd = socket.as_raw_fd();
        let source = Arc::new(AcceptSource {
            listener: socket,
            reactor: Arc::downgrade(&self.reactor),
            conns: Arc::downgrade(&self.conns),
            table: self.table.clone(),
        });
        let registration = self.reactor.register(fd, Interest::READABLE, source)?;
        listeners.insert(
            node,
            Listener {
                addr,
                _registration: registration,
            },
        );
        Ok(addr)
    }

    /// The reusable outbound connection for a directed node pair
    /// (established on first use; every later link between the pair shares
    /// it).
    fn conn(&self, src: NodeId, dst: NodeId) -> std::io::Result<Arc<OutboundConn>> {
        if let Some(conn) = self.conns.lock().outbound.get(&(src, dst)) {
            return Ok(conn.clone());
        }
        let addr = self.listener_addr(dst)?;
        let mut conns = self.conns.lock();
        // Double-checked: another thread may have connected meanwhile.
        if let Some(conn) = conns.outbound.get(&(src, dst)) {
            return Ok(conn.clone());
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(OutboundConn {
            pair: (src, dst),
            generation,
            stream,
            state: Mutex::new(
                &lock_order::RTRANSPORT_CONN,
                OutboundState {
                    buf: Vec::new(),
                    start: 0,
                    closed: false,
                },
            ),
            drained: Condvar::new(),
            registration: Mutex::new(&lock_order::RTRANSPORT_CONN_REG, None),
        });
        // Registered with no interest armed: hangup/error events still
        // surface (so a dead peer evicts the connection), and writable
        // interest is armed only while the outbound buffer has bytes.
        let registration = self.reactor.register(
            conn.stream.as_raw_fd(),
            Interest {
                readable: false,
                writable: false,
            },
            Arc::new(FlushSource {
                conn: conn.clone(),
                conns: Arc::downgrade(&self.conns),
            }),
        )?;
        *conn.registration.lock() = Some(registration);
        let hello = encode_header(OP_HELLO, src as u64, dst as u64, generation, 0, 0);
        conn.send_frame(&hello, &[])?;
        conns.outbound.insert((src, dst), conn.clone());
        Ok(conn)
    }
}

impl Transport for ReactorTransport {
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
        let stats = self.stats.register(src, dst);
        let link_id = self.next_link_id.fetch_add(1, Ordering::Relaxed);
        let link = Arc::new(LinkState::new(capacity));
        let conn = self
            .conn(src, dst)
            .map_err(|e| format!("reactor transport setup for link {src}->{dst} failed: {e}"));
        if conn.is_err() {
            // No data can ever arrive; unblock the receiver immediately and
            // let the sender report the setup failure on first use.
            link.close_sender();
        }
        // Its connection's generation, or 0 (never issued to a connection)
        // when the connection could not be set up.
        let generation = conn.as_ref().map_or(0, |conn| conn.generation);
        self.table.register(generation, link_id, link.clone());
        // A connection severed between the cache lookup and the registration
        // may already have run its teardown, which would have missed this
        // link: nothing can be sent on it, so end its stream here.
        if conn.as_ref().is_ok_and(|conn| conn.state.lock().closed) {
            link.close_sender();
        }
        let tx = ReactorTx {
            conn,
            generation,
            link_id,
            link: link.clone(),
            table: self.table.clone(),
        };
        let rx = FramedRx {
            conn: generation,
            link_id,
            link,
            table: self.table.clone(),
        };
        // The shaper charges the frame as it crosses the wire, header too.
        let bucket = self.shaper.bucket(src, dst);
        (
            SliceSender::new(tx, stats, bucket, HEADER_LEN),
            SliceReceiver::new(rx),
        )
    }

    fn stats(&self) -> &StatsRegistry {
        &self.stats
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        // Unblock any straggling senders/receivers.
        self.table.close_all();
        // Tear down every connection: outbound teardown wakes parked
        // senders and deregisters; clearing the tables drops the inbound
        // registrations. The entries (and their sources in the reactor's
        // dispatch tables) die with the registrations.
        let (outbound, inbound) = {
            let mut conns = self.conns.lock();
            (
                std::mem::take(&mut conns.outbound),
                std::mem::take(&mut conns.inbound),
            )
        };
        for conn in outbound.values() {
            conn.teardown();
        }
        for entry in inbound.values() {
            let _ = entry.conn.stream.shutdown(Shutdown::Both);
        }
        drop(inbound);
        // Deregister the listeners, then the reactor (the last Arc) joins
        // its poll threads on drop.
        self.listeners.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn roundtrip_over_a_reactor_socket() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 4);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"hello")).tagged(5, 3))
            .unwrap();
        tx.send(SliceMsg::new(1, Bytes::from_static(b"world")))
            .unwrap();
        let first = rx.recv().unwrap();
        assert_eq!(first.index, 0);
        assert_eq!((first.stripe, first.repair), (5, 3));
        assert_eq!(first.data, Bytes::from_static(b"hello"));
        assert_eq!(rx.recv().unwrap().data, Bytes::from_static(b"world"));
        drop(tx);
        assert!(rx.recv().is_none());
        assert_eq!(transport.link_bytes(0, 1), 10);
    }

    #[test]
    fn connections_are_reused_across_links() {
        let transport = ReactorTransport::new();
        let (tx1, rx1) = transport.link(2, 3, 2);
        let (tx2, rx2) = transport.link(2, 3, 2);
        tx1.send(SliceMsg::new(0, Bytes::from_static(b"a")))
            .unwrap();
        tx2.send(SliceMsg::new(0, Bytes::from_static(b"b")))
            .unwrap();
        assert_eq!(rx1.recv().unwrap().data, Bytes::from_static(b"a"));
        assert_eq!(rx2.recv().unwrap().data, Bytes::from_static(b"b"));
        assert_eq!(transport.conns.lock().outbound.len(), 1);
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        drop(rx);
        assert!(matches!(
            tx.send(SliceMsg::new(0, Bytes::new())),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn finished_links_are_reclaimed() {
        let transport = ReactorTransport::new();
        for i in 0..10 {
            let (tx, rx) = transport.link(0, 1, 2);
            tx.send(SliceMsg::new(i, Bytes::from_static(b"p"))).unwrap();
            rx.recv().unwrap();
            drop((tx, rx));
        }
        // Both halves gone → no per-link state left behind.
        assert!(transport.table.links.lock().is_empty());
        assert!(transport
            .table
            .conn_links
            .lock()
            .values()
            .all(|ids| ids.is_empty()));
    }

    #[test]
    fn thread_budget_does_not_grow_with_links() {
        let transport = ReactorTransport::with_threads(2);
        assert_eq!(transport.reactor_threads(), 2);
        let mut links = Vec::new();
        for node in 1..9 {
            links.push(transport.link(0, node, 2));
        }
        for (i, (tx, rx)) in links.iter().enumerate() {
            tx.send(SliceMsg::new(i, Bytes::from_static(b"z"))).unwrap();
            assert_eq!(rx.recv().unwrap().index, i);
        }
        // Still exactly two poll threads, eight nodes later.
        assert_eq!(transport.reactor_threads(), 2);
    }

    #[test]
    fn large_bursts_flush_through_the_reactor() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 64);
        // Push well past socket buffers so the writable path must engage.
        let payload = Bytes::from(vec![7u8; 256 * 1024]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..32 {
                    tx.send(SliceMsg::new(i, payload.clone())).unwrap();
                }
            });
            for i in 0..32 {
                let msg = rx.recv().unwrap();
                assert_eq!(msg.index, i);
                assert_eq!(msg.data.len(), 256 * 1024);
                assert!(msg.data.iter().all(|&b| b == 7));
            }
        });
        assert_eq!(transport.link_bytes(0, 1), 32 * 256 * 1024);
    }

    #[test]
    fn disconnect_pair_fails_senders_and_reconnects() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 4);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"pre")))
            .unwrap();
        assert_eq!(rx.recv().unwrap().data, Bytes::from_static(b"pre"));
        assert!(transport.disconnect_pair(0, 1));
        assert!(!transport.disconnect_pair(0, 1), "already severed");
        // The old sender's connection is dead.
        let mut failed = false;
        for i in 0..50 {
            match tx.send(SliceMsg::new(i, Bytes::from_static(b"x"))) {
                Err(TransportError::Io(_)) => {
                    failed = true;
                    break;
                }
                Err(TransportError::Disconnected) => {
                    failed = true;
                    break;
                }
                Ok(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(failed, "sends on a severed connection must start failing");
        // A fresh link transparently reconnects — opened while the severed
        // connection's inbound teardown may still be pending: that teardown
        // closes the links of its own generation only.
        let (tx2, rx2) = transport.link(0, 1, 4);
        tx2.send(SliceMsg::new(9, Bytes::from_static(b"post")))
            .unwrap();
        assert_eq!(rx2.recv().unwrap().data, Bytes::from_static(b"post"));
        assert!(rx.recv().is_none(), "old receiver must see end-of-stream");
    }

    #[test]
    fn shutdown_is_clean_with_open_links() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"x"))).unwrap();
        let _ = rx.recv();
        drop((tx, rx));
        drop(transport); // must not hang or panic
    }
}
