//! The TCP transport backend: slices move over real localhost sockets.
//!
//! Mirrors the extended evaluation of the paper (arXiv:1908.01527), where
//! helpers exchange slices over direct TCP connections instead of Redis.
//!
//! # Connection model
//!
//! A link *owns* a connection for as long as either of its halves lives.
//! [`Transport::link`] checks an idle connection out of a pool kept per
//! directed `(src, dst)` node pair, dialing a new one only when the pool is
//! empty, so a pair holds as many connections as it ever had links open at
//! once. Both ends of a connection live in this process: the sender writes
//! the dialed end and the link's receiver reads the accepted end itself,
//! through a buffered frame reader that belongs to the connection. One
//! hand-off per slice hop, and **no background threads at all**: no accept
//! thread (a dial and its `accept` happen back to back under the listener
//! lock), no reader thread, no queue between the socket and
//! [`SliceReceiver::recv`].
//!
//! # A window per syscall
//!
//! A sender may queue frames ([`SliceSender::queue`]) and write them all
//! with one vectored write when it flushes; `send` is a queue and a flush.
//! The receiver reads whatever the socket holds with one `read`, into a
//! buffer from a pool shared by every connection of the transport and sized
//! for the link's credit window, and hands each frame out as a view of that
//! buffer (see [`wire`](super::wire)). The repair executor queues up to a
//! credit window per link and flushes it whole, so a repaired block costs a
//! write and a read per window per link instead of per slice.
//!
//! # A sender may drain its own connection
//!
//! The thread that sends a frame may be the one that will read it — the
//! repair executor drives every stage of a plan from one thread — so a
//! send must finish without anybody else reading, whatever the frame's
//! size. The dialed end is nonblocking: when the socket is full, the sender
//! moves the bytes waiting at the accepted end into the connection's frame
//! reader and writes on, and the receiver later finds them there before it
//! reads the socket (`HELLO` and `EOS` frames go the same way, behind any
//! frames already queued). The sender only
//! *tries* the read side's lock (taking `tcp.writer` then `tcp.reader` is
//! rank-legal): a receiver on another thread holds it while it waits for
//! the rest of the very frame being written, so waiting for the lock
//! would deadlock — instead the sender waits a tick for that receiver to
//! drain the socket, and tries again.
//!
//! The wire format is shared with [`ReactorTransport`](super::ReactorTransport)
//! and documented in [`wire`](super::wire). A link's `capacity` is enforced
//! with sender-side credits (process-local, like every node here): `queue`
//! takes a credit and blocks at zero (writing out what it queued before
//! that, so nothing waits on itself), `recv` returns one per slice.
//!
//! # Returning a connection to the pool
//!
//! When both halves of a link are gone the connection goes back to its
//! pair's pool, unless the stream can no longer be trusted:
//!
//! * either half saw an I/O error, end-of-file or a malformed frame;
//! * the receiver was dropped with slices still in flight (`credits <
//!   capacity`) — the sender may be waiting mid-frame on a socket nobody
//!   will drain, so the receiver shuts the connection down, which also
//!   fails that sender;
//! * the receiver was dropped before it read a single frame of its own, so
//!   it cannot vouch for what is still buffered ahead of it;
//! * the transport was dropped (every open socket is shut down, which
//!   unblocks every sender and receiver).
//!
//! A receiver that leaves after its last slice but before the sender's
//! `EOS` is the normal case for a sender on another thread. That leaves at
//! most one 37-byte `EOS` frame unread on a pooled connection; the next
//! link's receiver discards frames whose link id is not its own, and link
//! ids never repeat within a transport.
//!
//! # Throttling
//!
//! [`TcpTransport::with_rate_limit`] gives every link a token-bucket
//! throttle — paid by the link's [`SliceSender`] before the frame reaches
//! this backend, as on every backend — which is how the paper's 1 Gb/s
//! testbed is approximated on a loopback device: with `rate` bytes/s per
//! link, a single-block repair under repair pipelining should take about
//! `1 + (k-1)/s` times a direct block send (§3.2), which the conformance
//! tests measure.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ecpipe_reactor::sys::{recv_now, wait_writable};
use ecpipe_sync::{Condvar, Mutex};
use simnet::{NodeId, Topology};

use crate::buf::BufPool;
use crate::lock_order;

use super::wire::{
    encode_header, payload_len, write_frames, FrameReader, HEADER_LEN, OP_DATA, OP_EOS, OP_HELLO,
};
use super::{
    Shaper, SliceMsg, SliceReceiver, SliceRx, SliceSender, SliceTx, StatsRegistry, Transport,
    TransportError, WAIT_TICK,
};

/// The credit window of the link currently riding a connection.
struct Window {
    credits: usize,
    capacity: usize,
    receiver_gone: bool,
}

/// The read side of a connection: the frame buffer (which outlives links —
/// bytes read ahead of one link's last frame are the next link's first) and
/// the progress of the link currently reading it.
struct ReadHalf {
    frames: FrameReader,
    /// The current link has read a frame of its own, so everything older is
    /// consumed and what remains buffered is at most its own `EOS`.
    synced: bool,
    /// The current link's stream is over (`EOS`, or the connection failed).
    ended: bool,
}

/// One pooled connection, both ends in this process.
struct Conn {
    /// Dial number, unique within the transport.
    id: u64,
    pair: (NodeId, NodeId),
    /// The end the sender writes; nonblocking, so that a full socket sends
    /// the sender to [`Conn::make_room`] instead of to sleep.
    dialed: TcpStream,
    /// The end the receiver reads (blocking).
    accepted: TcpStream,
    /// Lock class: `tcp.window` ([`lock_order::TCP_WINDOW`]).
    window: Mutex<Window>,
    /// Senders out of credits park here.
    writable: Condvar,
    /// The frames queued for the next write, each a header and its payload.
    /// Held while a frame is queued or the queue written, which keeps frames
    /// whole against another sender on the same link; the stream itself is
    /// written through `&TcpStream`, which is what lets [`Conn::sever`] shut
    /// it down under a waiting writer.
    ///
    /// Lock class: `tcp.writer` ([`lock_order::TCP_WRITER`]).
    writer: Mutex<Vec<([u8; HEADER_LEN], Bytes)>>,
    /// Held by a receiver for one frame read, and tried (never waited for)
    /// by a writer that found the socket full.
    ///
    /// Lock class: `tcp.reader` ([`lock_order::TCP_READER`]).
    reader: Mutex<ReadHalf>,
    /// The byte stream can no longer be trusted: never pooled again.
    broken: AtomicBool,
    /// The transport's syscall counters.
    io: Arc<IoCounts>,
}

/// Socket writes and reads made by a transport's connections.
#[derive(Default)]
struct IoCounts {
    writes: AtomicU64,
    reads: AtomicU64,
}

/// The accepted end of a connection, counting its reads.
struct CountedReads<'a>(&'a Conn);

impl Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.io.reads.fetch_add(1, Ordering::Relaxed);
        (&self.0.accepted).read(buf)
    }
}

impl Conn {
    /// Writes every queued frame, then `last` if given (a `HELLO` or `EOS`,
    /// which carry no payload), into the dialed end with as few vectored
    /// writes as the socket allows — never waiting on the calling thread
    /// itself: frames larger than the socket buffers go out even when the
    /// thread that will read them is this one.
    fn flush(&self, last: Option<[u8; HEADER_LEN]>) -> io::Result<()> {
        let mut queue = self.writer.lock();
        queue.extend(last.map(|header| (header, Bytes::new())));
        if queue.is_empty() {
            return Ok(());
        }
        let written = write_frames(&self.dialed, &queue, || self.make_room());
        queue.clear();
        self.io.writes.fetch_add(written? as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The dialed socket is full. If no receiver is reading the accepted end
    /// right now, move what waits there into the read buffer, where the
    /// link's receiver finds it before the socket. Otherwise the receiver
    /// holding the read side is waiting for the rest of a frame this
    /// sender is writing — blocking on that lock would deadlock, so wait a
    /// tick for the socket to drain instead, and try again.
    fn make_room(&self) -> io::Result<()> {
        if let Some(mut half) = self.reader.try_lock() {
            let fd = self.accepted.as_raw_fd();
            let moved = half.frames.fill(|buf| {
                self.io.reads.fetch_add(1, Ordering::Relaxed);
                recv_now(fd, buf)
            })?;
            if moved > 0 {
                return Ok(());
            }
        }
        let tick = WAIT_TICK.as_millis() as i32;
        wait_writable(self.dialed.as_raw_fd(), tick).map(drop)
    }

    /// Shuts both sockets down — failing a sender waiting to write and a
    /// receiver blocked in `read` — wakes a sender parked at the credit
    /// gate, and bars the connection from the pool.
    fn sever(&self) {
        self.broken.store(true, Ordering::SeqCst);
        let _ = self.dialed.shutdown(Shutdown::Both);
        let _ = self.accepted.shutdown(Shutdown::Both);
        // Taken so the wake-up cannot slip between a parked sender's check
        // of `broken` and its wait.
        drop(self.window.lock());
        self.writable.notify_all();
    }
}

/// Every connection the transport has open.
#[derive(Default)]
struct Pool {
    /// Idle or leased, by id — what the transport's `Drop` shuts down.
    open: HashMap<u64, Arc<Conn>>,
    /// Idle, per directed pair.
    idle: HashMap<(NodeId, NodeId), Vec<Arc<Conn>>>,
}

/// A link's hold on its connection, shared by the two halves: when the last
/// of them is dropped the connection returns to the pool, or is closed.
struct Lease {
    conn: Arc<Conn>,
    pool: Arc<Mutex<Pool>>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut pool = self.pool.lock();
        if self.conn.broken.load(Ordering::SeqCst) {
            pool.open.remove(&self.conn.id);
        } else {
            pool.idle
                .entry(self.conn.pair)
                .or_default()
                .push(self.conn.clone());
        }
    }
}

struct TcpTx {
    /// The link's connection, or the socket-setup failure that prevented
    /// it: setup errors surface per-send as `TransportError::Io` (failing
    /// the repair) instead of panicking inside the executor.
    lease: Result<Arc<Lease>, String>,
    link_id: u64,
}

impl TcpTx {
    fn conn(&self) -> Result<&Conn, TransportError> {
        match &self.lease {
            Ok(lease) => Ok(&lease.conn),
            Err(reason) => Err(TransportError::Io(io::Error::other(reason.clone()))),
        }
    }
}

impl SliceTx for TcpTx {
    fn queue(&self, msg: SliceMsg) -> Result<bool, TransportError> {
        let conn = self.conn()?;
        let len = payload_len(&msg.data).map_err(TransportError::Io)?;
        // Credit gate: block until the receiver has drained below capacity —
        // after writing what is queued, or the receiver could never drain.
        if conn.window.lock().credits == 0 {
            self.flush()?;
        }
        {
            let window = conn.window.lock();
            let mut window = conn.writable.wait_while_tick(window, WAIT_TICK, |w| {
                !w.receiver_gone && w.credits == 0 && !conn.broken.load(Ordering::SeqCst)
            });
            if window.receiver_gone {
                return Err(TransportError::Disconnected);
            }
            if window.credits == 0 {
                return Err(TransportError::Io(ErrorKind::BrokenPipe.into()));
            }
            window.credits -= 1;
        }
        let header = encode_header(
            OP_DATA,
            self.link_id,
            msg.index as u64,
            msg.stripe,
            msg.repair,
            len,
        );
        conn.writer.lock().push((header, msg.data));
        Ok(false)
    }

    fn flush(&self) -> Result<(), TransportError> {
        let conn = self.conn()?;
        conn.flush(None).map_err(|e| {
            conn.broken.store(true, Ordering::SeqCst);
            TransportError::Io(e)
        })
    }
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        let Ok(lease) = &self.lease else { return };
        let conn = &lease.conn;
        // Graceful end-of-stream, behind the DATA frames on the same socket
        // — unless the receiver is already gone and nobody would read them.
        if conn.window.lock().receiver_gone {
            conn.writer.lock().clear();
            return;
        }
        let header = encode_header(OP_EOS, self.link_id, 0, 0, 0, 0);
        if conn.flush(Some(header)).is_err() {
            conn.broken.store(true, Ordering::SeqCst);
        }
    }
}

struct TcpRx {
    /// `None` when the connection could not be set up: the stream is empty.
    lease: Option<Arc<Lease>>,
    link_id: u64,
}

impl SliceRx for TcpRx {
    fn recv(&self) -> Option<SliceMsg> {
        let conn = &self.lease.as_ref()?.conn;
        let frame = {
            let mut half = conn.reader.lock();
            if half.ended {
                return None;
            }
            loop {
                match half.frames.read_frame(CountedReads(conn)) {
                    // Left unread by an earlier link on this connection.
                    Ok(frame) if frame.opcode == OP_HELLO || frame.link != self.link_id => {}
                    Ok(frame) => {
                        half.synced = true;
                        if frame.opcode == OP_DATA {
                            break frame;
                        }
                        half.ended = true;
                        return None;
                    }
                    // End-of-file, a reset or a malformed frame: the link is
                    // over and the connection is not reusable.
                    Err(_) => {
                        half.ended = true;
                        conn.broken.store(true, Ordering::SeqCst);
                        return None;
                    }
                }
            }
        };
        // A sender parks only on an empty window, so only the credit that
        // ends one can have somebody to wake — and a `notify_one` costs a
        // `FUTEX_WAKE` per slice even with nobody parked.
        let ended_empty = {
            let mut window = conn.window.lock();
            window.credits += 1;
            window.credits == 1
        };
        if ended_empty {
            conn.writable.notify_one();
        }
        Some(SliceMsg {
            index: frame.index as usize,
            stripe: frame.stripe,
            repair: frame.repair,
            data: frame.payload,
        })
    }
}

impl Drop for TcpRx {
    fn drop(&mut self) {
        let Some(lease) = &self.lease else { return };
        let conn = &lease.conn;
        let in_flight = {
            let mut window = conn.window.lock();
            window.receiver_gone = true;
            window.credits < window.capacity
        };
        conn.writable.notify_all();
        // With nothing in flight the sender's only remaining write is the
        // 37-byte EOS, which cannot block, and the next link skips it.
        // Otherwise (see the module docs) the stream is abandoned.
        if in_flight || !conn.reader.lock().synced {
            conn.sever();
        }
    }
}

/// The localhost TCP backend: framed slices over pooled per-node-pair
/// connections, each owned by one link at a time and read by that link's
/// receiver; credit-based backpressure at link capacity, and an optional
/// per-link token-bucket throttle. See the module docs for the connection
/// model and the `wire` module source for the wire format.
pub struct TcpTransport {
    stats: StatsRegistry,
    /// One listener per destination node, bound on first use. Held across a
    /// dial and its `accept`, which is what pairs the two sockets.
    ///
    /// Lock class: `tcp.listeners` ([`lock_order::TCP_LISTENERS`]).
    listeners: Mutex<HashMap<NodeId, TcpListener>>,
    /// Lock class: `tcp.conns` ([`lock_order::TCP_CONNS`]).
    pool: Arc<Mutex<Pool>>,
    next_link_id: AtomicU64,
    /// Connections dialed so far; the next one's id.
    dials: AtomicU64,
    shaper: Shaper,
    /// The buffers every connection's receiver reads into.
    read_buffers: BufPool,
    io: Arc<IoCounts>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl TcpTransport {
    /// Creates a transport with no bandwidth limit. Listeners are bound
    /// lazily, one per node, on `127.0.0.1` ephemeral ports.
    pub fn new() -> Self {
        TcpTransport {
            stats: StatsRegistry::default(),
            listeners: Mutex::new(&lock_order::TCP_LISTENERS, HashMap::new()),
            pool: Arc::new(Mutex::new(&lock_order::TCP_CONNS, Pool::default())),
            next_link_id: AtomicU64::new(1),
            dials: AtomicU64::new(0),
            shaper: Shaper::default(),
            read_buffers: BufPool::new(),
            io: Arc::default(),
        }
    }

    /// Creates a transport where every link is throttled to `bytes_per_sec`
    /// by a token bucket, approximating the paper's per-link 1 Gb/s testbed
    /// on the loopback device.
    pub fn with_rate_limit(bytes_per_sec: u64) -> Self {
        let mut transport = TcpTransport::new();
        transport.shaper = Shaper::flat(bytes_per_sec);
        transport
    }

    /// Creates a transport whose links are shaped per directed node pair by
    /// the topology's bandwidth model ([`Topology::bandwidth`]), so a
    /// heterogeneous cluster is reproduced on loopback sockets. All links
    /// over one pair share one bucket, however many pooled connections
    /// carry them.
    pub fn with_topology(topology: Arc<Topology>) -> Self {
        let mut transport = TcpTransport::new();
        transport.shaper = Shaper::topology(topology);
        transport
    }

    /// Re-rates one directed pair's shared bucket at runtime
    /// (topology-shaped transports only), throttling streams already in
    /// flight — the fault-injection hook behind the mid-stream
    /// link-degradation tests. Returns whether the transport shapes per
    /// pair.
    pub fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        self.shaper.set_link_rate(src, dst, bytes_per_sec)
    }

    /// `(connections dialed so far, connections open now)` — for the tests
    /// that pin pool reuse and the absence of leaks.
    #[doc(hidden)]
    pub fn connection_counts(&self) -> (u64, usize) {
        (
            self.dials.load(Ordering::Relaxed),
            self.pool.lock().open.len(),
        )
    }

    /// `(socket writes, socket reads)` made so far — for the tests that pin
    /// how many syscalls a window of frames costs.
    #[doc(hidden)]
    pub fn syscall_counts(&self) -> (u64, u64) {
        (
            self.io.writes.load(Ordering::Relaxed),
            self.io.reads.load(Ordering::Relaxed),
        )
    }

    /// Dials a new `src -> dst` connection and accepts it on `dst`'s
    /// listener (binding that first if needed).
    fn dial(&self, src: NodeId, dst: NodeId) -> io::Result<Arc<Conn>> {
        let (dialed, accepted) = {
            let mut listeners = self.listeners.lock();
            let listener = match listeners.entry(dst) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => entry.insert(TcpListener::bind("127.0.0.1:0")?),
            };
            // `connect` returns once the kernel has queued the connection on
            // the listener, so the `accept` below finds it without a thread
            // waiting there. The lock keeps other dials out of the queue;
            // anything else in it is a stranger to be dropped.
            let dialed = TcpStream::connect(listener.local_addr()?)?;
            let local = dialed.local_addr()?;
            let accepted = loop {
                let (stream, peer) = listener.accept()?;
                if peer == local {
                    break stream;
                }
            };
            (dialed, accepted)
        };
        dialed.set_nodelay(true).ok();
        dialed.set_nonblocking(true)?;
        let id = self.dials.fetch_add(1, Ordering::Relaxed) + 1;
        let conn = Arc::new(Conn {
            id,
            pair: (src, dst),
            dialed,
            accepted,
            window: Mutex::new(
                &lock_order::TCP_WINDOW,
                Window {
                    credits: 0,
                    capacity: 0,
                    receiver_gone: false,
                },
            ),
            writable: Condvar::new(),
            writer: Mutex::new(&lock_order::TCP_WRITER, Vec::new()),
            reader: Mutex::new(
                &lock_order::TCP_READER,
                ReadHalf {
                    frames: FrameReader::new(self.read_buffers.clone()),
                    synced: false,
                    ended: false,
                },
            ),
            broken: AtomicBool::new(false),
            io: self.io.clone(),
        });
        let hello = encode_header(OP_HELLO, src as u64, dst as u64, id, 0, 0);
        conn.flush(Some(hello))?;
        self.pool.lock().open.insert(id, conn.clone());
        Ok(conn)
    }

    /// Checks a connection for `src -> dst` out of the pool (dialing on a
    /// miss) and resets its per-link state for a link of `capacity` slices.
    fn checkout(&self, src: NodeId, dst: NodeId, capacity: usize) -> io::Result<Arc<Lease>> {
        let idle = self
            .pool
            .lock()
            .idle
            .get_mut(&(src, dst))
            .and_then(Vec::pop);
        let conn = match idle {
            Some(conn) => conn,
            None => self.dial(src, dst)?,
        };
        *conn.window.lock() = Window {
            credits: capacity,
            capacity,
            receiver_gone: false,
        };
        {
            let mut half = conn.reader.lock();
            half.synced = false;
            half.ended = false;
            half.frames.set_capacity(capacity);
        }
        Ok(Arc::new(Lease {
            conn,
            pool: self.pool.clone(),
        }))
    }
}

impl Transport for TcpTransport {
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
        let stats = self.stats.register(src, dst);
        let link_id = self.next_link_id.fetch_add(1, Ordering::Relaxed);
        // On a setup failure no data can ever arrive: the receiver's stream
        // is empty and the sender reports the failure on first use.
        let lease = self
            .checkout(src, dst, capacity.max(1))
            .map_err(|e| format!("tcp transport setup for link {src}->{dst} failed: {e}"));
        let tx = TcpTx {
            lease: lease.clone(),
            link_id,
        };
        let rx = TcpRx {
            lease: lease.ok(),
            link_id,
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

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Shut every socket down, leased or idle: blocked senders and
        // receivers return, surviving senders fail from now on, and leases
        // still out find their connection broken and close it.
        let open = {
            let mut pool = self.pool.lock();
            pool.idle.clear();
            std::mem::take(&mut pool.open)
        };
        for conn in open.values() {
            conn.sever();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn roundtrip_over_a_socket() {
        let transport = TcpTransport::new();
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
        assert!(rx.recv().is_none(), "end-of-stream is sticky");
        assert_eq!(transport.link_bytes(0, 1), 10);
    }

    /// The repair executor sends and receives every hop on one thread, so a
    /// frame must go out with nobody else reading — even one far larger than
    /// the kernel's socket buffers. A hang here fails within the deadline
    /// instead of wedging the suite.
    #[test]
    fn one_thread_sends_then_receives_a_frame_larger_than_the_socket_buffers() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let transport = TcpTransport::new();
            let (tx, rx) = transport.link(0, 1, 2);
            let payload: Bytes = (0..16u32 << 20)
                .map(|i| (i * 7 + i / 4093) as u8)
                .collect::<Vec<u8>>()
                .into();
            tx.send(SliceMsg::new(3, payload.clone()).tagged(1, 2))
                .unwrap();
            // The EOS goes the same way, behind the frame.
            drop(tx);
            let got = rx.recv().unwrap();
            let ended = rx.recv().is_none();
            let _ = done_tx.send((got.index, got.data == payload, ended));
        });
        let outcome = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a 16 MiB frame sent and received on one thread did not finish");
        assert_eq!(outcome, (3, true, true));
    }

    /// Queued frames leave together, in one write, when the sender flushes
    /// — or when a `queue` finds no credit left, since the receiver could
    /// never return one for frames it cannot see.
    #[test]
    fn queued_frames_leave_in_one_write() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let transport = TcpTransport::new();
            let (tx, rx) = transport.link(0, 1, 2);
            let dialed = transport.syscall_counts().0;
            let queued = std::thread::scope(|scope| {
                let receiver = scope.spawn(|| {
                    (0..3)
                        .map(|_| rx.recv().map(|msg| msg.index))
                        .collect::<Vec<_>>()
                });
                let queued: Vec<bool> = (0..3)
                    .map(|j| {
                        tx.queue(SliceMsg::new(j, Bytes::from_static(b"w")))
                            .unwrap()
                    })
                    .collect();
                tx.flush().unwrap();
                assert_eq!(receiver.join().unwrap(), [Some(0), Some(1), Some(2)]);
                queued
            });
            let writes = transport.syscall_counts().0 - dialed;
            let _ = done_tx.send((queued, writes));
        });
        let (queued, writes) = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a queue out of credit waited on frames it had not written");
        assert_eq!(queued, [false; 3], "TCP frames wait for the flush");
        assert_eq!(writes, 2, "two frames per write, then the third");
    }

    /// `recv` wakes a sender only when it ends an empty window — and that
    /// wake-up must not be lost: a sender parked on a full window, on
    /// another thread, resumes at once after one `recv`, not a `WAIT_TICK`
    /// later. The `recv` comes a fifth of a tick after the sender parks, so
    /// a missed wake-up would cost it the other four fifths; the best of
    /// three rounds is held to the bound.
    #[test]
    fn a_sender_parked_on_a_full_window_resumes_after_one_recv() {
        use std::time::{Duration, Instant};
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, 2);
        for j in 0..2 {
            tx.send(SliceMsg::new(j, Bytes::from_static(b"full")))
                .unwrap();
        }
        let mut fastest = Duration::MAX;
        for j in 2..5 {
            let resumed = std::thread::scope(|scope| {
                let sender = scope.spawn(|| {
                    tx.send(SliceMsg::new(j, Bytes::from_static(b"late")))
                        .unwrap();
                    Instant::now()
                });
                std::thread::sleep(WAIT_TICK / 5);
                let received = Instant::now();
                assert_eq!(rx.recv().unwrap().index, j - 2);
                sender.join().unwrap().saturating_duration_since(received)
            });
            fastest = fastest.min(resumed);
        }
        assert!(
            fastest < Duration::from_millis(10),
            "the parked sender resumed {fastest:?} after the recv"
        );
        for j in 3..5 {
            assert_eq!(rx.recv().unwrap().index, j);
        }
    }

    #[test]
    fn connections_are_reused_across_links() {
        let transport = TcpTransport::new();
        // Two links open at once need two connections ...
        let (tx1, rx1) = transport.link(2, 3, 2);
        let (tx2, rx2) = transport.link(2, 3, 2);
        tx1.send(SliceMsg::new(0, Bytes::from_static(b"a")))
            .unwrap();
        tx2.send(SliceMsg::new(0, Bytes::from_static(b"b")))
            .unwrap();
        assert_eq!(rx1.recv().unwrap().data, Bytes::from_static(b"a"));
        assert_eq!(rx2.recv().unwrap().data, Bytes::from_static(b"b"));
        assert_eq!(transport.connection_counts(), (2, 2));
        drop((tx1, rx1, tx2, rx2));
        // ... which the next two reuse instead of dialing.
        let (tx3, rx3) = transport.link(2, 3, 2);
        let (tx4, rx4) = transport.link(2, 3, 2);
        tx3.send(SliceMsg::new(7, Bytes::from_static(b"c")))
            .unwrap();
        tx4.send(SliceMsg::new(8, Bytes::from_static(b"d")))
            .unwrap();
        assert_eq!(rx3.recv().unwrap().index, 7);
        assert_eq!(rx4.recv().unwrap().index, 8);
        assert_eq!(transport.connection_counts(), (2, 2));
        // A different pair has a pool of its own.
        let _other = transport.link(3, 2, 2);
        assert_eq!(transport.connection_counts(), (3, 3));
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        drop(rx);
        assert!(matches!(
            tx.send(SliceMsg::new(0, Bytes::new())),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn finished_links_are_reclaimed() {
        let transport = TcpTransport::new();
        for i in 0..10 {
            let (tx, rx) = transport.link(0, 1, 2);
            tx.send(SliceMsg::new(i, Bytes::from_static(b"p"))).unwrap();
            rx.recv().unwrap();
            drop((tx, rx));
        }
        // Both halves gone → the one connection they all rode is idle
        // again, and nothing else was left behind.
        assert_eq!(transport.connection_counts(), (1, 1));
        assert_eq!(transport.pool.lock().idle[&(0, 1)].len(), 1);
    }

    #[test]
    fn unused_and_abandoned_connections_are_closed_not_pooled() {
        let transport = TcpTransport::new();
        // A receiver that never read cannot vouch for the stream.
        drop(transport.link(0, 1, 2));
        assert_eq!(transport.connection_counts(), (1, 0));
        // A receiver that leaves slices unread abandons the connection.
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"read")))
            .unwrap();
        tx.send(SliceMsg::new(1, Bytes::from_static(b"unread")))
            .unwrap();
        rx.recv().unwrap();
        drop(rx);
        assert!(tx.send(SliceMsg::new(2, Bytes::new())).is_err());
        drop(tx);
        assert_eq!(transport.connection_counts(), (2, 0));
    }

    #[test]
    fn a_garbled_frame_fails_the_link_and_discards_the_connection() {
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"fine")))
            .unwrap();
        assert_eq!(rx.recv().unwrap().data, Bytes::from_static(b"fine"));
        // Corrupt the stream behind the sender's back: a 4 GiB length.
        let conn = transport.pool.lock().open[&1].clone();
        let garbage = encode_header(OP_DATA, 1, 0, 0, 0, u32::MAX);
        conn.flush(Some(garbage)).unwrap();
        assert!(rx.recv().is_none(), "the link ends instead of allocating");
        drop((tx, rx, conn));
        assert_eq!(transport.connection_counts(), (1, 0));
        // The pair itself is fine: the next link dials afresh.
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(5, Bytes::from_static(b"next")))
            .unwrap();
        assert_eq!(rx.recv().unwrap().index, 5);
    }

    #[test]
    fn shutdown_is_clean_with_open_links() {
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"x"))).unwrap();
        let _ = rx.recv();
        drop((tx, rx));
        drop(transport); // must not hang or panic
    }
}
