//! Readiness-driven I/O for the Unix-socket server, with no external
//! crates.
//!
//! The previous accept loop was `O(connections)` per tick: every connection
//! owned a thread (bounded by `--threads`-ish `max_connections`), and the
//! listener round-robined nonblocking accepts with a sleep. That caps
//! concurrent clients at the thread budget and burns a wakeup per idle
//! connection. This module provides the one primitive the rewrite needs — a
//! [`Poller`] multiplexing *readable* readiness over an arbitrary number of
//! fds — so `serve_unix` can keep thousands of idle connections parked for
//! free and hand only *ready* ones to a small worker pool.
//!
//! On Linux this is epoll, reached through `extern "C"` declarations
//! against symbols the already-linked C runtime exports (the workspace
//! vendors no libc crate; adding dependencies is off the table). Connection
//! fds are registered `EPOLLONESHOT` so exactly one worker owns a readable
//! connection until it re-arms it — no herd, no double-read. Other unixes
//! get a `poll(2)` fallback with the same surface.
//!
//! Tokens are caller-chosen `u64`s carried in the kernel event payload;
//! [`TOKEN_LISTENER`] and [`TOKEN_WAKE`] are reserved by convention, and the
//! wake channel (a socketpair the poller owns) lets any thread kick
//! [`Poller::wait`] out of its block — used for shutdown.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Token conventionally used for the accept listener (level-triggered).
pub const TOKEN_LISTENER: u64 = 0;
/// Token reserved for the poller's internal wake channel.
pub const TOKEN_WAKE: u64 = 1;
/// First token free for connection fds.
pub const TOKEN_FIRST_CONN: u64 = 2;

/// One readiness event: which registration fired, and whether the peer has
/// hung up (best-effort; a read returning 0 is still the authoritative EOF).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The peer closed (HUP/ERR); the fd should be drained and dropped.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    // x86-64's epoll_event layout is packed (no padding between the 32-bit
    // mask and the 64-bit payload); other architectures use natural C
    // alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// Readiness multiplexer over raw fds. See the module docs.
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: RawFd,
    /// `poll(2)` fallback registry: fd -> (token, oneshot, armed).
    #[cfg(not(target_os = "linux"))]
    registry: std::sync::Mutex<std::collections::BTreeMap<RawFd, (u64, bool, bool)>>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl Poller {
    /// A poller with its wake channel registered under [`TOKEN_WAKE`].
    pub fn new() -> io::Result<Poller> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let poller = Poller {
                epfd,
                wake_rx,
                wake_tx,
            };
            poller.add(poller.wake_rx.as_raw_fd(), TOKEN_WAKE, false)?;
            Ok(poller)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let poller = Poller {
                registry: std::sync::Mutex::new(std::collections::BTreeMap::new()),
                wake_rx,
                wake_tx,
            };
            poller.add(poller.wake_rx.as_raw_fd(), TOKEN_WAKE, false)?;
            Ok(poller)
        }
    }

    /// Register an fd for readable readiness under `token`. With `oneshot`,
    /// the registration disarms after one event until [`Poller::rearm`] —
    /// exactly one worker owns a ready connection at a time.
    pub fn add(&self, fd: RawFd, token: u64, oneshot: bool) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            let mut event = sys::EpollEvent {
                events: sys::EPOLLIN
                    | sys::EPOLLRDHUP
                    | if oneshot { sys::EPOLLONESHOT } else { 0 },
                data: token,
            };
            if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.registry
                .lock()
                .unwrap()
                .insert(fd, (token, oneshot, true));
            Ok(())
        }
    }

    /// Re-arm a oneshot registration after the owning worker is done with
    /// the fd.
    pub fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            let mut event = sys::EpollEvent {
                events: sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT,
                data: token,
            };
            if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, &mut event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        {
            if let Some(entry) = self.registry.lock().unwrap().get_mut(&fd) {
                *entry = (token, true, true);
            }
            Ok(())
        }
    }

    /// Remove an fd (close it *after* deleting, never before).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            let mut event = sys::EpollEvent { events: 0, data: 0 };
            if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.registry.lock().unwrap().remove(&fd);
            Ok(())
        }
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
        #[cfg(target_os = "linux")]
        {
            const CAPACITY: usize = 64;
            let mut buffer = [sys::EpollEvent { events: 0, data: 0 }; CAPACITY];
            let timeout_ms = timeout
                .map(|t| i32::try_from(t.as_millis()).unwrap_or(i32::MAX).max(1))
                .unwrap_or(-1);
            let n = loop {
                let n = unsafe {
                    sys::epoll_wait(self.epfd, buffer.as_mut_ptr(), CAPACITY as i32, timeout_ms)
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for event in &buffer[..n] {
                // Copy out of the (possibly packed) struct before use.
                let token = event.data;
                let mask = event.events;
                if token == TOKEN_WAKE {
                    self.drain_wake();
                    continue;
                }
                events.push(Event {
                    token,
                    closed: mask & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        {
            #[repr(C)]
            struct PollFd {
                fd: i32,
                events: i16,
                revents: i16,
            }
            extern "C" {
                fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
            }
            const POLLIN: i16 = 0x001;
            const POLLERR: i16 = 0x008;
            const POLLHUP: i16 = 0x010;
            let (mut fds, tokens): (Vec<PollFd>, Vec<u64>) = {
                let registry = self.registry.lock().unwrap();
                registry
                    .iter()
                    .filter(|(_, (_, _, armed))| *armed)
                    .map(|(fd, (token, _, _))| {
                        (
                            PollFd {
                                fd: *fd,
                                events: POLLIN,
                                revents: 0,
                            },
                            *token,
                        )
                    })
                    .unzip()
            };
            let timeout_ms = timeout
                .map(|t| i32::try_from(t.as_millis()).unwrap_or(i32::MAX).max(1))
                .unwrap_or(-1);
            let n = loop {
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u32, timeout_ms) };
                if n >= 0 {
                    break n;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pollfd, token) in fds.iter().zip(tokens) {
                if pollfd.revents == 0 {
                    continue;
                }
                if token == TOKEN_WAKE {
                    self.drain_wake();
                    continue;
                }
                let mut registry = self.registry.lock().unwrap();
                if let Some((_, oneshot, armed)) = registry.get_mut(&pollfd.fd) {
                    if *oneshot {
                        *armed = false;
                    }
                }
                drop(registry);
                events.push(Event {
                    token,
                    closed: pollfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    fn drain_wake(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::{UnixListener, UnixStream};

    /// The kernel reads `epoll_event` as its C layout: packed on x86-64 (12
    /// bytes, payload right after the 32-bit mask), naturally aligned
    /// elsewhere (16 bytes, payload at 8). A wrong layout would hand
    /// `epoll_wait` a buffer whose tokens come back shifted.
    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_event_has_the_kernel_layout() {
        use std::mem::{offset_of, size_of};
        let (size, data_at) = if cfg!(target_arch = "x86_64") {
            (12, 4)
        } else {
            (16, 8)
        };
        assert_eq!(size_of::<sys::EpollEvent>(), size);
        assert_eq!(offset_of!(sys::EpollEvent, events), 0);
        assert_eq!(offset_of!(sys::EpollEvent, data), data_at);
    }

    #[test]
    fn wake_unblocks_wait_with_no_events() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::clone(&poller);
        let kicker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.is_empty());
        kicker.join().unwrap();
    }

    #[test]
    fn listener_readiness_fires_on_connect_and_oneshot_conn_needs_rearm() {
        let dir = std::env::temp_dir().join(format!("plankton-poller-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("poller.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(listener.as_raw_fd(), TOKEN_LISTENER, false)
            .unwrap();

        let mut client = UnixStream::connect(&path).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == TOKEN_LISTENER));

        let (conn, _) = listener.accept().unwrap();
        poller
            .add(conn.as_raw_fd(), TOKEN_FIRST_CONN, true)
            .unwrap();
        client.write_all(b"one\n").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == TOKEN_FIRST_CONN));

        // Oneshot: without a re-arm, more client bytes do not fire again.
        client.write_all(b"two\n").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == TOKEN_FIRST_CONN));

        poller.rearm(conn.as_raw_fd(), TOKEN_FIRST_CONN).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == TOKEN_FIRST_CONN));

        poller.delete(conn.as_raw_fd()).unwrap();
        drop(conn);
        drop(client);
        let _ = std::fs::remove_file(&path);
    }
}
