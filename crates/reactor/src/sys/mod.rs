//! Raw socket syscall bindings — the one `unsafe` island of the socket
//! path, mirroring the `crates/gf256/src/simd` convention: every `unsafe`
//! block carries a `// SAFETY:` comment and nothing outside this directory
//! touches a raw pointer or a foreign function. Callers use only the safe
//! wrappers exported here: the two one-socket helpers the TCP transport
//! needs so that a thread never waits on itself, [`wait_writable`] and
//! [`recv_now`].
//!
//! The bindings are declared `extern "C"` against the C library the Rust
//! standard library already links (there is no `libc` crate in the offline
//! workspace), using the glibc symbol names and the kernel ABI structs.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;

// SAFETY: these are the glibc prototypes of `poll(2)` and `recv(2)`, with
// types matching the C declarations (`int` -> i32, `nfds_t` -> c_ulong,
// `void *` -> raw pointer). The symbols are provided by the C library std
// already links on Linux.
extern "C" {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

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
}
