//! The vendored epoll syscall shim — the workspace's **second** audited
//! `unsafe` region (the first is the lifetime erasure in
//! `anonet_sim::pool`).
//!
//! ## Why raw FFI
//!
//! The workspace is offline and dependency-free by policy (the vendored
//! `proptest` stub exists for the same reason), so the `libc`
//! crate is not available. `std` exposes no readiness API. What `std`
//! *does* guarantee is that every Linux target links the C runtime, whose
//! `syscall(2)` entry point is a stable, documented, variadic trampoline
//! into the kernel. This module declares exactly that one symbol and
//! issues five syscalls through it: `epoll_create1`, `epoll_ctl`,
//! `epoll_pwait` (the portable spelling — arm64 never had plain
//! `epoll_wait`), `eventfd2`, and `listen` (to deepen a bound listener's
//! accept queue, which `std` fixes at 128).
//!
//! ## Soundness argument
//!
//! Every `unsafe` block in this file is a single `syscall(...)` invocation
//! or a single `OwnedFd::from_raw_fd` adoption, each with its own
//! `// SAFETY:` note. The shared reasoning:
//!
//! * `syscall(2)` has no type-level contract beyond "arguments are
//!   machine words"; all arguments here are passed as `c_long`, so no
//!   variadic promotion mismatch is possible. The *kernel* validates
//!   values and returns `-EINVAL`/`-EBADF` instead of corrupting memory.
//! * The only pointers handed to the kernel are (a) a `*mut EpollEvent`
//!   to a live local or caller-provided buffer whose length is passed
//!   alongside it, and (b) NULL where the ABI permits it (`epoll_ctl`
//!   DEL, the `epoll_pwait` sigmask). The kernel writes at most
//!   `maxevents` entries, and [`EpollEvent`] is `repr(C)` (packed on
//!   x86_64, matching the kernel ABI), so the write stays in bounds.
//! * File descriptors are adopted into [`OwnedFd`] immediately after the
//!   kernel returns them, exactly once, so ownership is unique and the
//!   close-on-drop obligation holds on every path (including early `?`
//!   returns).
//! * Failure is reported via the C runtime's `errno`, which
//!   `std::io::Error::last_os_error()` reads; `EINTR` on the wait path is
//!   retried in a loop, never surfaced.
//!
//! Syscall numbers are architecture-specific and cfg-gated for x86_64 and
//! aarch64; any other target is a deliberate `compile_error!` rather than
//! a silent miscompile. The lint allowlists this file (`unsafe-audit`) so
//! the "all unsafe is audited" claim stays compiler- and linter-backed.

use std::ffi::c_long;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

#[cfg(target_arch = "x86_64")]
mod nr {
    //! x86_64 syscall numbers (arch/x86/entry/syscalls/syscall_64.tbl).
    use std::ffi::c_long;
    pub const LISTEN: c_long = 50;
    pub const EPOLL_CTL: c_long = 233;
    pub const EPOLL_PWAIT: c_long = 281;
    pub const EVENTFD2: c_long = 290;
    pub const EPOLL_CREATE1: c_long = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    //! aarch64 syscall numbers (include/uapi/asm-generic/unistd.h).
    use std::ffi::c_long;
    pub const EVENTFD2: c_long = 19;
    pub const EPOLL_CREATE1: c_long = 20;
    pub const EPOLL_CTL: c_long = 21;
    pub const EPOLL_PWAIT: c_long = 22;
    pub const LISTEN: c_long = 201;
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!(
    "anonet-net's epoll shim carries syscall numbers for x86_64 and aarch64 only; \
     add this target's numbers to `epoll::nr` before enabling it"
);

extern "C" {
    /// The C runtime's variadic syscall trampoline (`syscall(2)`). Returns
    /// the kernel's result, or `-1` with `errno` set.
    fn syscall(num: c_long, ...) -> c_long;
}

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never registered.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never registered.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_long = 1;
const EPOLL_CTL_DEL: c_long = 2;
const EPOLL_CTL_MOD: c_long = 3;
/// `EPOLL_CLOEXEC` == `O_CLOEXEC` (fcntl.h octal constant).
const EPOLL_CLOEXEC: c_long = 0o2000000;
/// `EFD_CLOEXEC` == `O_CLOEXEC`, `EFD_NONBLOCK` == `O_NONBLOCK`.
const EFD_CLOEXEC: c_long = 0o2000000;
const EFD_NONBLOCK: c_long = 0o4000;
/// `sizeof(sigset_t)` on 64-bit Linux; only validated by the kernel when a
/// non-NULL sigmask is passed (ours never is).
const SIGSET_BYTES: c_long = 8;

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event`. On x86_64 the kernel struct is packed (12 bytes);
/// everywhere else it has natural alignment (16 bytes).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller's token, passed back verbatim (`epoll_data_t.u64`).
    pub data: u64,
}

/// Maps a raw syscall return to `io::Result`, reading `errno` on failure.
fn check(ret: c_long) -> io::Result<c_long> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Re-issues `listen(2)` on an already listening socket with a deeper
/// accept queue; the kernel caps `backlog` at `net.core.somaxconn`.
/// `std` binds with a queue of 128, and a loopback connect burst completes
/// each handshake inside the client's own `connect`, so it can fill 128
/// slots before a reactor thread is scheduled to accept them. Every
/// connection past a full queue has its SYN dropped and retried one
/// second later.
pub(crate) fn set_listen_backlog(listener: &std::net::TcpListener, backlog: i32) -> io::Result<()> {
    // SAFETY: both arguments are plain integers; the kernel validates the
    // descriptor (it belongs to the live `listener`) and clamps the
    // backlog.
    #[allow(unsafe_code)]
    let ret = unsafe { syscall(nr::LISTEN, listener.as_raw_fd() as c_long, backlog as c_long) };
    check(ret).map(|_| ())
}

/// An owned epoll instance. Closed on drop via [`OwnedFd`].
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes one integer flag argument and
        // returns a new fd (or -1/errno); no pointers cross the boundary.
        #[allow(unsafe_code)]
        let ret = unsafe { syscall(nr::EPOLL_CREATE1, EPOLL_CLOEXEC) };
        let fd = check(ret)? as RawFd;
        // SAFETY: `fd` was returned by the kernel on the previous line and
        // is adopted exactly once, so OwnedFd's unique-ownership contract
        // (it will close the fd on drop) holds.
        #[allow(unsafe_code)]
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd: owned })
    }

    /// Registers `fd` for the `interest` events, reported with `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the registered interest/token of an already-added `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // SAFETY: EPOLL_CTL_DEL ignores the event argument (NULL is the
        // documented spelling since Linux 2.6.9); the other arguments are
        // plain integers validated by the kernel.
        #[allow(unsafe_code)]
        let ret = unsafe {
            syscall(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as c_long,
                EPOLL_CTL_DEL,
                fd as c_long,
                std::ptr::null_mut::<EpollEvent>() as c_long,
            )
        };
        check(ret).map(|_| ())
    }

    fn ctl(&self, op: c_long, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        // SAFETY: the pointer names the live local `ev` above, which
        // outlives the call; the kernel only *reads* it for ADD/MOD. All
        // other arguments are plain integers the kernel validates.
        #[allow(unsafe_code)]
        let ret = unsafe {
            syscall(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as c_long,
                op,
                fd as c_long,
                (&mut ev as *mut EpollEvent) as c_long,
            )
        };
        check(ret).map(|_| ())
    }

    /// Waits up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events` from the front and returning how many entries are valid.
    /// Retries `EINTR` internally; returns `Ok(0)` on timeout or when
    /// `events` is empty.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        loop {
            // SAFETY: `events` is a live, initialised slice for the whole
            // call; its length is passed as `maxevents`, so the kernel
            // writes at most `events.len()` records into it and never past
            // the end. The sigmask is NULL (no mask change), for which the
            // kernel ignores the size argument.
            #[allow(unsafe_code)]
            let ret = unsafe {
                syscall(
                    nr::EPOLL_PWAIT,
                    self.fd.as_raw_fd() as c_long,
                    events.as_mut_ptr() as c_long,
                    events.len() as c_long,
                    timeout_ms as c_long,
                    std::ptr::null::<u8>() as c_long,
                    SIGSET_BYTES,
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A nonblocking `eventfd(2)` — the reactor's cross-thread wakeup: worker
/// threads [`wake`](EventFd::wake) it after pushing a completion, and the
/// reactor holds it in its epoll set so the wakeup interrupts `wait`.
pub struct EventFd {
    file: File,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd2 takes two integer arguments and returns a new
        // fd (or -1/errno); no pointers cross the boundary.
        #[allow(unsafe_code)]
        let ret = unsafe { syscall(nr::EVENTFD2, 0 as c_long, EFD_CLOEXEC | EFD_NONBLOCK) };
        let fd = check(ret)? as RawFd;
        // SAFETY: `fd` was returned by the kernel on the previous line and
        // is adopted exactly once into an OwnedFd (via File), which closes
        // it on drop.
        #[allow(unsafe_code)]
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(EventFd { file: File::from(owned) })
    }

    /// The raw fd, for registering in an [`Epoll`] set.
    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Adds 1 to the counter, making the fd readable. Infallible by
    /// design: the only nonblocking-mode failure is a saturated counter
    /// (`EAGAIN`), and a saturated counter is already readable — the
    /// wakeup this call exists to deliver is guaranteed either way.
    pub fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Resets the counter to 0 (a level-triggered reactor must drain the
    /// fd or it would spin on its own waker). Nonblocking: returns once
    /// the counter reads empty.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // One successful read zeroes a non-semaphore eventfd; the loop
        // covers the racy case where a wake lands between read and return.
        while matches!((&self.file).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_and_drains_through_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 7).unwrap();

        let mut buf = [EpollEvent::default(); 4];
        // Nothing pending: an immediate wait times out empty.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        ev.wake();
        ev.wake(); // coalesces: still one readable fd
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ buf[0].data }, 7);
        assert_ne!({ buf[0].events } & EPOLLIN, 0);

        // Drained: level-triggered readiness goes away.
        ev.drain();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn modify_and_delete_change_reported_interest() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 1).unwrap();
        ev.wake();

        let mut buf = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut buf, 1000).unwrap(), 1);

        // Drop read interest: the still-readable fd is no longer reported.
        ep.modify(ev.raw_fd(), 0, 1).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        // Restore it under a new token.
        ep.modify(ev.raw_fd(), EPOLLIN, 2).unwrap();
        assert_eq!(ep.wait(&mut buf, 1000).unwrap(), 1);
        assert_eq!({ buf[0].data }, 2);

        ep.delete(ev.raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
        // Double-delete is an error (EBADF/ENOENT), not UB.
        assert!(ep.delete(ev.raw_fd()).is_err());
    }

    #[test]
    fn wait_with_empty_buffer_is_a_no_op() {
        let ep = Epoll::new().unwrap();
        assert_eq!(ep.wait(&mut [], 0).unwrap(), 0);
    }
}
