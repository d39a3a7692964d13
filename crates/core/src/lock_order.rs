//! The runtime's lock hierarchy.
//!
//! Every lock in this crate belongs to one of the classes below; ranks
//! strictly increase along every legal nesting path, so acquiring in
//! increasing-rank order is always safe and anything else panics in checked
//! builds (see `ecpipe-sync`). The table is mirrored in
//! docs/ARCHITECTURE.md ("Lock hierarchy"); `cargo run -p xtask -- lint`
//! rejects rank or name collisions workspace-wide.
//!
//! Conventions:
//!
//! * Outermost (longest-held, coarsest) classes get the lowest ranks; leaf
//!   classes that never hold anything else get the highest.
//! * Ranks are spaced by ~5 so a new class can slot between two existing
//!   ones without renumbering.
//! * A condition variable shares the class of the mutex it waits on; only
//!   the mutex is ranked.

use ecpipe_sync::lock_class;

lock_class!(
    /// `EngineState::scheduled` — keys of repairs queued or in flight;
    /// `wait_for` and `wait_idle` block on its two condvars.
    pub ENGINE_SCHEDULED = ("engine.scheduled", rank = 30)
);

lock_class!(
    /// `RepairQueue` internals; `pop` blocks
    /// on its condvar.
    pub MANAGER_QUEUE = ("manager.queue", rank = 36)
);

lock_class!(
    /// `AdmissionGate` per-node in-flight counts; `acquire` blocks on its
    /// condvar and records metrics while counting, so this precedes
    /// [`MANAGER_METRICS`].
    pub MANAGER_GATE = ("manager.gate", rank = 40)
);

lock_class!(
    /// `MetricsCollector` counters.
    pub MANAGER_METRICS = ("manager.metrics", rank = 42)
);

lock_class!(
    /// `Liveness` per-node health map.
    pub MANAGER_LIVENESS = ("manager.liveness", rank = 44)
);

lock_class!(
    /// [`LinkTelemetry`](crate::telemetry::LinkTelemetry) per-pair EWMA
    /// throughput state. `observe` holds it while snapshotting transport
    /// counters, so it precedes [`TRANSPORT_STATS`].
    pub MANAGER_TELEMETRY = ("manager.telemetry", rank = 46)
);

lock_class!(
    /// Transport [`StatsRegistry`](crate::transport::StatsRegistry) link
    /// table.
    pub TRANSPORT_STATS = ("transport.stats", rank = 50)
);

lock_class!(
    /// TCP transport listener table; held across a dial and the `accept`
    /// that pairs with it (no other lock is taken meanwhile).
    pub TCP_LISTENERS = ("tcp.listeners", rank = 52)
);

lock_class!(
    /// TCP transport connection pool (idle connections per directed pair
    /// plus the registry of every open one); taken for a push/pop only.
    pub TCP_CONNS = ("tcp.conns", rank = 54)
);

lock_class!(
    /// TCP per-connection credit window of the link riding it; senders out
    /// of credits block on its condvar. A sender passes it (and releases
    /// it) before taking [`TCP_WRITER`]; a receiver returns its credit only
    /// after releasing [`TCP_READER`] — it is never held with either.
    pub TCP_WINDOW = ("tcp.window", rank = 57)
);

lock_class!(
    /// TCP per-connection write side (the queue of frames not yet written):
    /// held by the owning link's sender while it queues a frame or writes
    /// the queue. When the socket is full the sender *tries* [`TCP_READER`]
    /// under it (to move the waiting bytes into the read buffer), never
    /// waiting for it.
    pub TCP_WRITER = ("tcp.writer", rank = 62)
);

lock_class!(
    /// TCP per-connection read side (frame buffer + stream progress): held
    /// by the owning link's receiver while it blocks in `read`, or —
    /// tried, never waited for — by a sender holding [`TCP_WRITER`] whose
    /// socket is full. Takes nothing but [`BUF_POOL`], for a read buffer.
    pub TCP_READER = ("tcp.reader", rank = 64)
);

lock_class!(
    /// [`MemoryStore`](crate::MemoryStore) block map. Takes nothing but
    /// [`BUF_POOL`]: a block erased, deleted or overwritten under the write
    /// guard returns its allocation to the cluster's block pool right there.
    pub STORE_MEMORY = ("store.memory", rank = 72)
);

lock_class!(
    /// [`Coordinator`](crate::Coordinator) helper-selection clock: when each
    /// node last served as a helper (§3.3). Leaf: held while choosing and
    /// stamping one plan's helpers, which touches no other lock.
    pub COORDINATOR_SELECTION = ("coordinator.selection", rank = 74)
);

lock_class!(
    /// [`BufPool`](crate::BufPool) free-list of recycled slice, read and
    /// block buffers. Leaf: taken for a push/pop only, holding nothing —
    /// wherever the last view of a buffer drops, which includes under
    /// [`TCP_WRITER`] (a written queue), [`TCP_READER`] (a read buffer taken
    /// or let go) and [`STORE_MEMORY`] (a stored block dropped under the
    /// map's write guard: rank 72 → 76, legal).
    pub BUF_POOL = ("buf.pool", rank = 76)
);

lock_class!(
    /// Transport `Shaper` bucket map (per-directed-pair token buckets under
    /// topology shaping). Taken while opening links and when re-rating a
    /// pair, which touches bucket state — so it precedes
    /// [`TRANSPORT_TOKEN_BUCKET`].
    pub TRANSPORT_SHAPER = ("transport.shaper", rank = 78)
);

lock_class!(
    /// A [`SliceSender`](crate::transport::SliceSender)'s pacing of its next
    /// frame (tokens banked so far, first poll). Held while drawing on the
    /// link's bucket, so it precedes [`TRANSPORT_TOKEN_BUCKET`]; taken with
    /// nothing else held.
    pub TRANSPORT_PACER = ("transport.pacer", rank = 79)
);

lock_class!(
    /// Token-bucket rate-limiter state. Leaf: drawn on under a
    /// [`TRANSPORT_PACER`], re-rated under the [`TRANSPORT_SHAPER`].
    pub TRANSPORT_TOKEN_BUCKET = ("transport.token_bucket", rank = 80)
);
