//! The `poll(2)` readiness multiplexer on its own: wakes, oneshot
//! registrations, and changes made while another thread is blocked in
//! `wait`.

use plankton_service::readiness::{Poller, TOKEN_FIRST_CONN, TOKEN_LISTENER};
use std::io::Write;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[test]
fn wake_unblocks_wait_with_no_events() {
    let poller = Arc::new(Poller::new().unwrap());
    let waker = Arc::clone(&poller);
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
    assert!(poller.rearm(conn.as_raw_fd(), TOKEN_FIRST_CONN).is_err());
    drop(conn);
    drop(client);
    let _ = std::fs::remove_file(&path);
}

/// A thread looping on `wait(None)` the way the serve loop does,
/// reporting each connection event on `fired` until stopped.
struct EventLoop {
    fired: mpsc::Receiver<u64>,
    stopped: Arc<AtomicBool>,
    poller: Arc<Poller>,
    thread: std::thread::JoinHandle<()>,
}

impl EventLoop {
    fn spawn(poller: &Arc<Poller>) -> EventLoop {
        let (tx, fired) = mpsc::channel();
        let stopped = Arc::new(AtomicBool::new(false));
        let (looped, stop) = (Arc::clone(poller), Arc::clone(&stopped));
        let thread = std::thread::spawn(move || {
            let mut events = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                looped.wait(&mut events, None).unwrap();
                for event in &events {
                    let _ = tx.send(event.token);
                }
            }
        });
        EventLoop {
            fired,
            stopped,
            poller: Arc::clone(poller),
            thread,
        }
    }

    fn next_event(&self) -> Result<u64, mpsc::RecvTimeoutError> {
        self.fired.recv_timeout(Duration::from_secs(5))
    }

    fn stop(self) {
        self.stopped.store(true, Ordering::Relaxed);
        self.poller.wake();
        self.thread.join().unwrap();
    }
}

#[test]
fn a_rearm_from_another_thread_reaches_a_blocked_wait() {
    let poller = Arc::new(Poller::new().unwrap());
    let (conn, mut client) = UnixStream::pair().unwrap();
    poller
        .add(conn.as_raw_fd(), TOKEN_FIRST_CONN, true)
        .unwrap();
    client.write_all(b"one\n").unwrap();
    let event_loop = EventLoop::spawn(&poller);
    assert_eq!(event_loop.next_event(), Ok(TOKEN_FIRST_CONN));
    // The registration is disarmed and the loop blocks again (the pause
    // lets it get there; were it late, the re-arm would still be seen, so
    // the pause cannot fail the test). The unread byte keeps the fd
    // readable; nothing else fires.
    std::thread::sleep(Duration::from_millis(100));
    poller.rearm(conn.as_raw_fd(), TOKEN_FIRST_CONN).unwrap();
    assert_eq!(
        event_loop.next_event(),
        Ok(TOKEN_FIRST_CONN),
        "a blocked wait must poll a connection re-armed after it started"
    );
    event_loop.stop();
}

#[test]
fn an_add_from_another_thread_reaches_a_blocked_wait() {
    let poller = Arc::new(Poller::new().unwrap());
    let event_loop = EventLoop::spawn(&poller);
    let (conn, mut client) = UnixStream::pair().unwrap();
    client.write_all(b"one\n").unwrap();
    // Let the loop block first, as in the re-arm test above.
    std::thread::sleep(Duration::from_millis(100));
    poller
        .add(conn.as_raw_fd(), TOKEN_FIRST_CONN, true)
        .unwrap();
    assert_eq!(
        event_loop.next_event(),
        Ok(TOKEN_FIRST_CONN),
        "a blocked wait must poll an fd added after it started"
    );
    event_loop.stop();
}
