//! `ecpipe-reactor` — the runtime's one shim of raw Linux socket syscalls.
//!
//! [`sys`] holds every `unsafe` line the socket path needs, each block
//! `// SAFETY:`-annotated, mirroring `crates/gf256/src/simd`:
//!
//! * [`sys::recv_now`] and [`sys::wait_writable`], which let the TCP
//!   transport's sender drain its own connection instead of waiting on
//!   itself;
//! * the epoll and eventfd wrappers ([`sys::Epoll`], [`sys::EventFd`]),
//!   kept for a worker that waits on the readiness of many nonblocking
//!   sockets at once (ROADMAP item 8).
//!
//! The crate keeps its name from the event loop it once held.

#[cfg(not(target_os = "linux"))]
compile_error!("ecpipe-reactor requires Linux (epoll + eventfd)");

pub mod sys;
