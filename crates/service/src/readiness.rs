//! Readiness-driven I/O for the Unix-socket server, with no external
//! crates.
//!
//! The previous accept loop was `O(connections)` per tick: every connection
//! owned a thread (bounded by `--threads`-ish `max_connections`), and the
//! listener round-robined nonblocking accepts with a sleep. That caps
//! concurrent clients at the thread budget and burns a wakeup per idle
//! connection. This module provides the one primitive the rewrite needs — a
//! [`Poller`] multiplexing *readable* readiness over an arbitrary number of
//! fds — so `serve_unix` can keep idle connections parked at no thread cost
//! and hand only *ready* ones to a small worker pool.
//!
//! The backend is `poll(2)`, reached through an `extern "C"` declaration
//! against the symbol the already-linked C runtime exports (the workspace
//! vendors no libc crate; adding dependencies is off the table). It is the
//! same code on every unix. The poller keeps its own registry of fds; each
//! [`Poller::wait`] polls the armed ones, so a wakeup costs
//! O(registered fds) — building the `pollfd` array and the kernel's scan of
//! it. That is nothing at the daemon's scale (a handful of connections);
//! an epoll-style backend only pays off with thousands of idle ones.
//!
//! Connection fds are registered *oneshot*: after one event the
//! registration disarms until the owning worker calls [`Poller::rearm`], so
//! exactly one worker owns a readable connection at a time — no herd, no
//! double-read. Because a blocked `wait` polls the set it took when it
//! started, [`Poller::add`] and [`Poller::rearm`] wake a `wait` in progress
//! (it returns with no events, and the caller's next `wait` polls the new
//! set): a connection re-armed while the loop is blocked is polled at once,
//! not when some other fd happens to fire.
//!
//! Tokens are caller-chosen `u64`s; [`TOKEN_LISTENER`] and [`TOKEN_WAKE`]
//! are reserved by convention, and the wake channel (a socketpair the
//! poller owns) lets any thread kick [`Poller::wait`] out of its block —
//! used for shutdown and for the re-arms above.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Token conventionally used for the accept listener (level-triggered).
pub const TOKEN_LISTENER: u64 = 0;
/// Token reserved for the poller's internal wake channel.
pub const TOKEN_WAKE: u64 = 1;
/// First token free for connection fds.
pub const TOKEN_FIRST_CONN: u64 = 2;

/// One readiness event: which registration fired. A hang-up or an error
/// fires it too; the owner's read then returns 0 or the error.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
}

/// `struct pollfd`, the same layout on every unix.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

extern "C" {
    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs;
    // passed in a register, the wider type is read correctly by both.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// One registered fd.
#[derive(Debug)]
struct Registration {
    token: u64,
    oneshot: bool,
    /// Polled by the next `wait`? A oneshot registration disarms when it
    /// fires.
    armed: bool,
}

#[derive(Debug, Default)]
struct Registry {
    fds: BTreeMap<RawFd, Registration>,
    /// Is a `wait` polling the set it took when it started? Then a change
    /// must wake it.
    waiting: bool,
}

/// Readiness multiplexer over raw fds. See the module docs.
pub struct Poller {
    registry: Mutex<Registry>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl Poller {
    /// A poller with its wake channel registered under [`TOKEN_WAKE`].
    pub fn new() -> io::Result<Poller> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let poller = Poller {
            registry: Mutex::new(Registry::default()),
            wake_rx,
            wake_tx,
        };
        poller.add(poller.wake_rx.as_raw_fd(), TOKEN_WAKE, false)?;
        Ok(poller)
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        // Every holder leaves the map valid between its steps, so a
        // poisoned lock is still usable.
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Release the registry after a change, waking a `wait` in progress: it
    /// polls a set taken before the change.
    fn changed(&self, registry: MutexGuard<'_, Registry>) {
        let waiting = registry.waiting;
        drop(registry);
        if waiting {
            self.wake();
        }
    }

    /// Register an fd for readable readiness under `token`. With `oneshot`,
    /// the registration disarms after one event until [`Poller::rearm`] —
    /// exactly one worker owns a ready connection at a time.
    pub fn add(&self, fd: RawFd, token: u64, oneshot: bool) -> io::Result<()> {
        let mut registry = self.lock();
        let registration = Registration {
            token,
            oneshot,
            armed: true,
        };
        registry.fds.insert(fd, registration);
        self.changed(registry);
        Ok(())
    }

    /// Re-arm a oneshot registration after the owning worker is done with
    /// the fd. Fails when `fd` is not registered.
    pub fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut registry = self.lock();
        let Some(registration) = registry.fds.get_mut(&fd) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "re-arming an fd that is not registered",
            ));
        };
        *registration = Registration {
            token,
            oneshot: true,
            armed: true,
        };
        self.changed(registry);
        Ok(())
    }

    /// Remove an fd (close it *after* deleting, never before).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.lock().fds.remove(&fd);
        Ok(())
    }

    /// Kick a blocked [`Poller::wait`] from any thread.
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Block until something is readable (or `timeout`), appending events to
    /// `events` (cleared first). Wake-channel traffic is drained internally:
    /// a wake returns with zero events so the caller re-checks its own
    /// state. EINTR retries.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let (mut fds, tokens): (Vec<PollFd>, Vec<u64>) = {
            let mut registry = self.lock();
            registry.waiting = true;
            registry
                .fds
                .iter()
                .filter(|(_, r)| r.armed)
                .map(|(&fd, r)| {
                    let pollfd = PollFd {
                        fd,
                        events: POLLIN,
                        revents: 0,
                    };
                    (pollfd, r.token)
                })
                .unzip()
        };
        let timeout_ms = timeout
            .map(|t| c_int::try_from(t.as_millis()).unwrap_or(c_int::MAX).max(1))
            .unwrap_or(-1);
        let polled = loop {
            // SAFETY: `fds` is `fds.len()` initialized `struct pollfd`s,
            // alive and unaliased for the call; `poll` writes only their
            // `revents`.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if n >= 0 {
                break Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                break Err(err);
            }
        };
        let mut registry = self.lock();
        registry.waiting = false;
        polled?;
        for (pollfd, token) in fds.iter().zip(tokens) {
            if pollfd.revents == 0 {
                continue;
            }
            if token == TOKEN_WAKE {
                self.drain_wake();
                continue;
            }
            // An fd deleted (or re-registered under another token) while
            // the poll ran is no longer this registration's.
            let Some(registration) = registry.fds.get_mut(&pollfd.fd) else {
                continue;
            };
            if registration.token != token {
                continue;
            }
            if registration.oneshot {
                registration.armed = false;
            }
            events.push(Event { token });
        }
        Ok(())
    }

    fn drain_wake(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}
