//! Minimal `extern "C"` bindings for the readiness syscalls the reactor
//! needs: `epoll` and `eventfd`. This is the only module in the crate
//! allowed to use `unsafe` — everything above it speaks through the safe
//! [`Epoll`] / [`EventFd`] wrappers, which own their file descriptors
//! and close them on drop.
//!
//! Zero-dependency rule: no libc crate, no mio/tokio. The bindings cover
//! exactly the five calls the event loop uses (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, `close`) plus the `read`/`write`
//! pair on the eventfd. Sockets themselves stay `std::net` types with
//! `set_nonblocking(true)`; readiness is the only thing std does not
//! expose.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// One readiness event, ABI-compatible with the kernel's
/// `struct epoll_event` (packed on x86_64 — matching that layout is what
/// makes the `data` cookie round-trip intact).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness mask (`EPOLLIN` / `EPOLLOUT` / ...).
    pub events: u32,
    /// Caller-owned cookie, returned verbatim with each event.
    pub data: u64,
}

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs arming).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never needs arming).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Disarm the fd after delivering one event; re-arm with `modify`.
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` with the given interest mask and cookie.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change an already-registered fd's interest mask (also how a
    /// `EPOLLONESHOT` registration is re-armed).
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: a non-null event pointer keeps pre-2.6.9 kernels happy.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Block until readiness or `timeout_ms` (`-1` = forever); fills
    /// `events` and returns how many landed. EINTR retries internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer is valid for `events.len()` entries.
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.fd) };
    }
}

// SAFETY: an epoll fd is just an integer handle, and the kernel allows
// concurrent `epoll_ctl`/`epoll_wait` on the same instance from any
// thread — that is how every server thread waits on the one set and
// re-arms the connection it just served.
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}

/// An owned non-blocking eventfd — a cross-thread doorbell. Any thread
/// may `ring()` it; the server registers it in its epoll set and rings
/// it once to shut down.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a close-on-exec, non-blocking eventfd.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell. Async-signal-safe, callable from any thread;
    /// errors are ignored (the counter saturating still leaves the fd
    /// readable, which is all a doorbell needs).
    pub fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack buffer.
        unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.fd) };
    }
}

// `EventFd` is a ring over an atomic kernel counter.
unsafe impl Send for EventFd {}
unsafe impl Sync for EventFd {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_rings_through_epoll() {
        let ep = Epoll::new().expect("epoll");
        let efd = EventFd::new().expect("eventfd");
        ep.add(efd.raw(), EPOLLIN | EPOLLONESHOT, 7).expect("add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0, "silent before ring");
        efd.ring();
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7, "cookie round-trips");
        // Never drained, so every re-arm fires again: how the server's
        // threads pass one shutdown ring along.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0, "disarmed after one event");
        ep.modify(efd.raw(), EPOLLIN | EPOLLONESHOT, 7).expect("rearm");
        assert_eq!(ep.wait(&mut events, 1000).expect("wait"), 1, "still rung");
    }

    #[test]
    fn socket_readiness_and_oneshot_rearm() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");

        let ep = Epoll::new().expect("epoll");
        ep.add(server_side.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 42).expect("add");

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        client.write_all(b"hi").expect("write");
        let n = ep.wait(&mut events, 2000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        // Oneshot: the fd is disarmed until re-armed, even with unread data.
        assert_eq!(ep.wait(&mut events, 50).expect("wait"), 0, "disarmed after one event");
        ep.modify(server_side.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 42).expect("rearm");
        assert_eq!(ep.wait(&mut events, 2000).expect("wait"), 1, "re-armed fires again");
    }
}
