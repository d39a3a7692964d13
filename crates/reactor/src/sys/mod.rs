//! Raw epoll/eventfd syscall bindings — the one `unsafe` island of the
//! reactor, mirroring the `crates/gf256/src/simd` convention: every
//! `unsafe` block carries a `// SAFETY:` comment and nothing outside this
//! directory touches a raw pointer or a foreign function. The rest of the
//! crate (and the transports built on it) consumes only the safe wrappers
//! exported here: [`Epoll`], [`Event`] and [`EventFd`], plus the two
//! one-socket helpers the blocking TCP transport needs so that a thread
//! never waits on itself, [`wait_writable`] and [`recv_now`].
//!
//! The bindings are declared `extern "C"` against the C library the Rust
//! standard library already links (there is no `libc` crate in the offline
//! workspace), using the glibc symbol names and the kernel ABI structs.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;

// Kernel event-mask bits (uapi/linux/eventpoll.h).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (glibc's
/// `__EPOLL_PACKED`); naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// SAFETY: these are the glibc prototypes for the epoll/eventfd family and
// the POSIX fd primitives, with types matching the C declarations
// (`int` -> i32, `uint32_t` -> u32, `nfds_t` -> c_ulong, `void *` -> raw
// pointer). The symbols
// are provided by the C library std already links on Linux.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

// `poll(2)` event bits and the `recv(2)` flag (uapi/asm-generic/poll.h,
// bits/socket.h).
const POLLOUT: i16 = 0x004;
const MSG_DONTWAIT: i32 = 0x40;

/// The kernel's `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// Waits up to `timeout_ms` for `fd` to accept writes, and says whether it
/// does (an error or hangup state also ends the wait: the next write
/// surfaces it). `EINTR` counts as a timeout.
pub fn wait_writable(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLOUT,
        revents: 0,
    };
    // SAFETY: `pfd` is one live, properly laid-out pollfd for the duration
    // of the call, matching `nfds = 1`; the kernel only writes `revents`.
    match cvt(unsafe { poll(&mut pfd, 1, timeout_ms) }) {
        Ok(ready) => Ok(ready > 0),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
        Err(e) => Err(e),
    }
}

/// Reads what socket `fd` holds right now into `buf` without blocking, even
/// when the socket is in blocking mode (`MSG_DONTWAIT`): `WouldBlock` when
/// nothing is waiting, `Ok(0)` at end of stream.
pub fn recv_now(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: the kernel writes at most `buf.len()` bytes into the live,
    // exclusively borrowed `buf` and returns how many it wrote.
    let n = unsafe { recv(fd, buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One decoded readiness event, as returned by [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable (or has pending error/hangup state, which
    /// a read will surface).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer closed or the descriptor errored (`EPOLLERR`/`EPOLLHUP`/
    /// `EPOLLRDHUP`).
    pub closed: bool,
}

/// A safe wrapper over one epoll instance.
///
/// All methods take `&self`: the kernel serializes `epoll_ctl` against
/// `epoll_wait` internally, so registration changes may race an in-flight
/// wait from another thread — the wait simply observes the updated interest
/// list.
pub struct Epoll {
    fd: RawFd,
}

// How many events one `wait` call decodes at most; more simply arrive on
// the next call (epoll is level-triggered here, nothing is lost).
const WAIT_BATCH: usize = 64;

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // mapped to an error, otherwise the fd is owned by the new wrapper.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLRDHUP
                | if readable { EPOLLIN } else { 0 }
                | if writable { EPOLLOUT } else { 0 },
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid-out epoll_event for the
        // duration of the call; the kernel copies it before returning. For
        // EPOLL_CTL_DEL the kernel ignores the pointer (pre-2.6.9 quirks
        // aside), but a valid one is passed regardless.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest; readiness is reported with
    /// `token`. Peer-hangup is always watched.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Replaces the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Removes `fd` from the interest list. Harmless if the fd was already
    /// closed (the kernel auto-removes closed descriptors).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Waits up to `timeout_ms` (-1 = forever) for readiness, appending
    /// decoded events to `out` (which is cleared first). Returns the number
    /// of events. `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        let cap = WAIT_BATCH as i32;
        let n = loop {
            // SAFETY: `raw` is a stack array of WAIT_BATCH properly-sized
            // epoll_event structs; the kernel writes at most `cap` entries
            // and returns how many are valid.
            let ret = unsafe { epoll_wait(self.fd, raw.as_mut_ptr(), cap, timeout_ms) };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before taking refs.
            let (events, data) = (ev.events, ev.data);
            out.push(Event {
                token: data,
                readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                closed: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: the wrapper owns the fd and this is its last use.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd: the cross-thread wakeup primitive that interrupts
/// a blocked [`Epoll::wait`].
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; a negative return is mapped to
        // an error, otherwise the fd is owned by the wrapper.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for registering with an [`Epoll`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the eventfd readable, waking any epoll watching it. Lossy by
    /// design: failures (e.g. a full counter, which is itself a pending
    /// wakeup) are ignored.
    pub fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly the 8 bytes of a live u64, as the eventfd
        // contract requires.
        unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Consumes pending wakeups so the eventfd stops polling readable.
    /// Nonblocking: returns immediately if there is nothing to drain.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live 8-byte buffer; EAGAIN
        // (nothing pending) is the expected no-op outcome and is ignored.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: the wrapper owns the fd and this is its last use.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn eventfd_wakes_epoll() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait sees nothing.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        efd.signal();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        // Drained, the level-triggered readiness goes away.
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_and_hangup() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        use std::os::fd::AsRawFd;
        epoll.add(client.as_raw_fd(), 1, true, false).unwrap();
        let mut events = Vec::new();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no data yet");
        server.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].readable && !events[0].closed);
        drop(server);
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].closed, "peer close must surface as closed");
    }

    #[test]
    fn recv_now_and_wait_writable_never_block_a_blocking_socket() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut buf = [0u8; 16];
        let empty = recv_now(server.as_raw_fd(), &mut buf).unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::WouldBlock);
        client.write_all(b"abc").unwrap();
        // Loopback delivery is synchronous with the write.
        assert_eq!(recv_now(server.as_raw_fd(), &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        assert!(wait_writable(client.as_raw_fd(), 1000).unwrap());
        drop(client);
        assert_eq!(recv_now(server.as_raw_fd(), &mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn modify_switches_interest() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let _server = listener.accept().unwrap();
        use std::os::fd::AsRawFd;
        let epoll = Epoll::new().unwrap();
        // Writable interest on an idle socket fires immediately.
        epoll.add(client.as_raw_fd(), 2, false, true).unwrap();
        let mut events = Vec::new();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].writable);
        // Switch to read-only interest: no more writable events.
        epoll.modify(client.as_raw_fd(), 2, true, false).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        epoll.delete(client.as_raw_fd()).unwrap();
    }
}
