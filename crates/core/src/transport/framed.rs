//! Link-level flow control for the reactor transport.
//!
//! [`ReactorTransport`](super::ReactorTransport) multiplexes many logical
//! links over one connection per directed node pair and enforces a link's
//! `capacity` with sender-side credits: a sender consumes one credit per
//! slice and blocks at zero; the receiver returns a credit each time it
//! pops a slice. Credits are process-local control state (the backend runs
//! all nodes in one process over localhost); the data plane — every slice
//! payload — always crosses a real socket. The per-link queue/credit state
//! ([`LinkState`]) and the registry tying link ids to the connection that
//! carries them ([`LinkTable`]) live here.
//! ([`TcpTransport`](super::TcpTransport) keeps the same credit rule but
//! needs neither: a link there owns its connection and its receiver reads
//! the socket itself.)

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ecpipe_sync::{Condvar, Mutex};

use crate::lock_order;

use super::wire::{Frame, OP_DATA, OP_EOS};
use super::{SliceMsg, SliceRx, WAIT_TICK};

/// Shared state of one logical link (queue on the receive side, credits on
/// the send side).
pub(super) struct LinkState {
    /// Lock class: `framed.link_state` ([`lock_order::FRAMED_LINK_STATE`]).
    pub(super) inner: Mutex<LinkInner>,
    pub(super) readable: Condvar,
    pub(super) writable: Condvar,
}

pub(super) struct LinkInner {
    pub(super) queue: VecDeque<SliceMsg>,
    pub(super) credits: usize,
    pub(super) sender_closed: bool,
    pub(super) receiver_closed: bool,
    /// Local halves dropped (distinct from the wire-level closed flags
    /// above): once both are gone the registry entry can be reclaimed.
    pub(super) tx_dropped: bool,
    pub(super) rx_dropped: bool,
}

impl LinkState {
    pub(super) fn new(capacity: usize) -> Self {
        LinkState {
            inner: Mutex::new(
                &lock_order::FRAMED_LINK_STATE,
                LinkInner {
                    queue: VecDeque::new(),
                    credits: capacity.max(1),
                    sender_closed: false,
                    receiver_closed: false,
                    tx_dropped: false,
                    rx_dropped: false,
                },
            ),
            readable: Condvar::new(),
            writable: Condvar::new(),
        }
    }

    pub(super) fn close_sender(&self) {
        self.inner.lock().sender_closed = true;
        self.readable.notify_all();
    }

    pub(super) fn close_receiver(&self) {
        self.inner.lock().receiver_closed = true;
        self.writable.notify_all();
    }
}

/// The registry of live links and of which connection carries each one, so
/// a connection teardown can close exactly the receive queues it fed. A
/// connection is named by its *generation* — unique per dial, never by its
/// node pair — so the late end-of-file of a severed connection cannot close
/// links opened over its replacement.
pub(super) struct LinkTable {
    /// Lock class: `framed.links` ([`lock_order::FRAMED_LINKS`]).
    pub(super) links: Mutex<HashMap<u64, Arc<LinkState>>>,
    /// Links riding each connection, by connection generation.
    ///
    /// Lock class: `framed.conn_links` ([`lock_order::FRAMED_CONN_LINKS`]).
    pub(super) conn_links: Mutex<HashMap<u64, Vec<u64>>>,
}

impl Default for LinkTable {
    fn default() -> Self {
        LinkTable {
            links: Mutex::new(&lock_order::FRAMED_LINKS, HashMap::new()),
            conn_links: Mutex::new(&lock_order::FRAMED_CONN_LINKS, HashMap::new()),
        }
    }
}

impl LinkTable {
    /// Registers a freshly-opened link as riding the connection of
    /// generation `conn`.
    pub(super) fn register(&self, conn: u64, link_id: u64, link: Arc<LinkState>) {
        self.links.lock().insert(link_id, link);
        self.conn_links
            .lock()
            .entry(conn)
            .or_default()
            .push(link_id);
    }

    /// Records that one local half of a link was dropped; once both halves
    /// are gone the registry entries are reclaimed, so a long-lived
    /// transport does not accumulate state for finished repairs.
    pub(super) fn release_link_half(&self, conn: u64, link_id: u64, link: &LinkState, tx: bool) {
        let both_dropped = {
            let mut inner = link.inner.lock();
            if tx {
                inner.tx_dropped = true;
            } else {
                inner.rx_dropped = true;
            }
            inner.tx_dropped && inner.rx_dropped
        };
        if both_dropped {
            self.links.lock().remove(&link_id);
            let mut conn_links = self.conn_links.lock();
            if let Some(ids) = conn_links.get_mut(&conn) {
                ids.retain(|&id| id != link_id);
                if ids.is_empty() {
                    conn_links.remove(&conn);
                }
            }
        }
    }

    /// Marks every link fed by the connection of generation `conn` as
    /// sender-closed: the connection is gone, no more slices can arrive.
    pub(super) fn close_conn_links(&self, conn: u64) {
        let ids = self
            .conn_links
            .lock()
            .get(&conn)
            .cloned()
            .unwrap_or_default();
        let links = self.links.lock();
        for id in ids {
            if let Some(link) = links.get(&id) {
                link.close_sender();
            }
        }
    }

    /// Closes both ends of every live link — the shutdown path, unblocking
    /// any straggling senders and receivers.
    pub(super) fn close_all(&self) {
        let links = self.links.lock();
        for link in links.values() {
            link.close_sender();
            link.close_receiver();
        }
    }

    /// Routes one received `DATA`/`EOS` frame to its link queue. Frames for
    /// links already gone (both halves dropped) are discarded — the normal
    /// fate of an `EOS` racing a receiver teardown.
    pub(super) fn dispatch(&self, frame: Frame) {
        match frame.opcode {
            OP_DATA => {
                let link = self.links.lock().get(&frame.link).cloned();
                if let Some(link) = link {
                    let mut inner = link.inner.lock();
                    if !inner.receiver_closed {
                        inner.queue.push_back(SliceMsg {
                            index: frame.index as usize,
                            stripe: frame.stripe,
                            repair: frame.repair,
                            data: frame.payload,
                        });
                        link.readable.notify_one();
                    }
                }
            }
            OP_EOS => {
                let link = self.links.lock().get(&frame.link).cloned();
                if let Some(link) = link {
                    link.close_sender();
                }
            }
            _ => {}
        }
    }
}

/// The receiving half of a reactor-transport link: pops slices pushed by
/// the frame-dispatch path, returning credits as it drains.
pub(super) struct FramedRx {
    /// Generation of the connection that carries the link.
    pub(super) conn: u64,
    pub(super) link_id: u64,
    pub(super) link: Arc<LinkState>,
    pub(super) table: Arc<LinkTable>,
}

impl SliceRx for FramedRx {
    fn recv(&self) -> Option<SliceMsg> {
        let inner = self.link.inner.lock();
        let mut inner = self
            .link
            .readable
            .wait_while_tick(inner, WAIT_TICK, |s| s.queue.is_empty() && !s.sender_closed);
        let msg = inner.queue.pop_front()?;
        inner.credits += 1;
        self.link.writable.notify_one();
        Some(msg)
    }

    fn delivered(&self) -> bool {
        let inner = self.link.inner.lock();
        !inner.queue.is_empty() || inner.sender_closed
    }
}

impl Drop for FramedRx {
    fn drop(&mut self) {
        self.link.close_receiver();
        self.table
            .release_link_half(self.conn, self.link_id, &self.link, false);
    }
}
