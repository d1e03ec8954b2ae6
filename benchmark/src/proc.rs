//! Running the programs under test: one `plankton` process per cold sample
//! (timed spawn → exit, peak RSS from `/proc`), and a `planktond` daemon
//! driven over its Unix socket with the NDJSON protocol.

use crate::trace::{SpanId, Tracer};
use plankton::service::Response;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Where the binaries under test and the benchmark's scratch files live.
#[derive(Clone, Debug)]
pub struct Env {
    pub plankton: PathBuf,
    pub planktond: PathBuf,
    /// `benchmark/out`: results, traces and sockets.
    pub out: PathBuf,
    /// `benchmark/out/tmp`: generated inputs and child output.
    pub tmp: PathBuf,
}

impl Env {
    /// Binaries from `$PLANKTON_BIN_DIR`, else `$CARGO_TARGET_DIR/release`,
    /// else `target/release`; paths relative to the current directory, which
    /// is the repository root.
    pub fn locate() -> Result<Env, String> {
        let bin_dir = std::env::var_os("PLANKTON_BIN_DIR")
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var_os("CARGO_TARGET_DIR").map(|d| PathBuf::from(d).join("release"))
            })
            .unwrap_or_else(|| PathBuf::from("target/release"));
        let env = Env {
            plankton: bin_dir.join("plankton"),
            planktond: bin_dir.join("planktond"),
            out: PathBuf::from("benchmark/out"),
            tmp: PathBuf::from("benchmark/out/tmp"),
        };
        for bin in [&env.plankton, &env.planktond] {
            if !bin.is_file() {
                return Err(format!(
                    "{} not found: build the root binaries first \
                     (cargo build --release --offline --bins) and run from the repository root",
                    bin.display()
                ));
            }
        }
        std::fs::create_dir_all(&env.tmp)
            .map_err(|e| format!("cannot create {}: {e}", env.tmp.display()))?;
        Ok(env)
    }
}

/// `VmHWM` of a live process from `/proc/<pid>/status`, kilobytes: the peak
/// resident set of the address space it has had since its last `exec`.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// How often a running CLI child's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(5);

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs of
/// which the first is `ru_maxrss` (kilobytes).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one CLI process did.
#[derive(Clone, Debug)]
pub struct CliRun {
    /// Spawn → exit.
    pub wall: Duration,
    /// `None` when the process was killed (timeout) or died on a signal.
    pub exit_code: Option<i32>,
    pub stdout: String,
    /// Peak resident set, kilobytes: the last `VmHWM` read while the process
    /// ran (at most [`RSS_POLL`] before it exited). `wait4`'s `ru_maxrss` is
    /// not used for this: across `fork` + `exec` the kernel carries the
    /// parent's resident set into the child's high-water mark, so it reads
    /// the *harness's* size whenever that is the larger one. It is the
    /// fallback for a process that exited before the first read.
    pub max_rss_kb: u64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    pub timed_out: bool,
}

/// Run `bin args...` to completion, stdout to a scratch file, killed after
/// `timeout`. The child is reaped with `wait4` (CPU time); a second thread
/// polls its peak RSS and is the one that kills it on timeout.
pub fn run_cli(env: &Env, bin: &Path, args: &[String], timeout: Duration) -> io::Result<CliRun> {
    let out_path = env.tmp.join(format!("cli.{}.out", std::process::id()));
    let out_file = File::create(&out_path)?;
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out_file)
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id() as i32;
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (status, usage, (timed_out, hwm_kb)) = std::thread::scope(|scope| {
        // The watchdog owns the `Child` handle only to kill it on timeout;
        // reaping happens below, by pid.
        let watchdog = scope.spawn(move || {
            let deadline = Instant::now() + timeout;
            let mut hwm_kb = 0u64;
            loop {
                match done_rx.recv_timeout(RSS_POLL) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        hwm_kb = hwm_kb.max(vm_hwm_kb(child.id()).unwrap_or(0));
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            return (true, hwm_kb);
                        }
                    }
                    // The child was reaped (or the reaping side is gone).
                    _ => return (false, hwm_kb),
                }
            }
        });
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `pid` is our own un-reaped child; `status` and `usage` are
        // valid, writable and live for the whole call, and `Rusage` matches
        // the kernel's 64-bit `struct rusage` layout (144 bytes).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        let wall = start.elapsed();
        let _ = done_tx.send(());
        let watched = watchdog.join().expect("watchdog thread does not panic");
        ((reaped == pid).then_some((status, wall)), usage, watched)
    });
    let Some((status, wall)) = status else {
        return Err(io::Error::other("wait4 did not reap the child"));
    };
    let stdout = std::fs::read_to_string(&out_path)?;
    let _ = std::fs::remove_file(&out_path);
    // WIFEXITED / WEXITSTATUS.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(CliRun {
        wall,
        exit_code,
        stdout,
        max_rss_kb: if hwm_kb > 0 {
            hwm_kb
        } else {
            usage.maxrss.max(0) as u64
        },
        cpu_s: (usage.utime[0] + usage.stime[0]) as f64
            + (usage.utime[1] + usage.stime[1]) as f64 / 1e6,
        timed_out,
    })
}

/// How long one request spent in each client-side stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestTiming {
    pub send: Duration,
    /// Request written → first response byte.
    pub wait: Duration,
    /// First response byte → whole line read.
    pub recv: Duration,
    pub parse: Duration,
}

impl RequestTiming {
    pub fn total(&self) -> Duration {
        self.send + self.wait + self.recv + self.parse
    }
}

/// One client connection to the daemon.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn new(stream: UnixStream, read_timeout: Duration) -> io::Result<Conn> {
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one request line and read its one response line. Spans (when the
    /// tracer is on): `client.send`, `client.wait`, `client.recv`,
    /// `client.parse`, all children of `parent`.
    pub fn request(
        &mut self,
        line: &str,
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) -> io::Result<(Response, RequestTiming)> {
        let mut timing = RequestTiming::default();
        let t0 = Instant::now();
        let span = tracer.begin("client.send", parent, request);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        tracer.end(span);
        let t1 = Instant::now();
        let span = tracer.begin("client.wait", parent, request);
        let first = self.reader.fill_buf()?.len();
        tracer.end(span);
        let t2 = Instant::now();
        if first == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let span = tracer.begin("client.recv", parent, request);
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        tracer.end(span);
        let t3 = Instant::now();
        let span = tracer.begin("client.parse", parent, request);
        let response: Response = serde_json::from_str(self.line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        tracer.end(span);
        let t4 = Instant::now();
        timing.send = t1 - t0;
        timing.wait = t2 - t1;
        timing.recv = t3 - t2;
        timing.parse = t4 - t3;
        Ok((response, timing))
    }

    /// One untimed, untraced request: set-up, checks and shutdown.
    pub fn ask(&mut self, line: &str) -> io::Result<Response> {
        let mut off = Tracer::new(false, 0);
        self.request(line, &mut off, crate::trace::NO_PARENT, 0)
            .map(|(response, _)| response)
    }

    /// The raw text of the last response line.
    pub fn last_line(&self) -> &str {
        self.line.trim_end()
    }
}

/// A running `planktond`. Dropping it kills and reaps the process, so no run
/// leaves a daemon behind whatever path it exits by.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    reaped: bool,
}

/// Client read timeout: far above the slowest op (a cold k=16 verify is
/// under 2 s); an op past the workload's own limit is counted as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    /// Start `planktond --config <config> --socket <socket> --threads <n>`
    /// and wait until the socket accepts.
    pub fn spawn(env: &Env, config: &Path, tag: &str, threads: usize) -> io::Result<Daemon> {
        let socket = env.out.join(format!("d{}{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let log = File::create(env.tmp.join("planktond.log"))?;
        let child = Command::new(&env.planktond)
            .arg("--config")
            .arg(config)
            .arg("--socket")
            .arg(&socket)
            .arg("--threads")
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut daemon = Daemon {
            child,
            socket,
            reaped: false,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                daemon.reaped = true;
                return Err(io::Error::other(format!(
                    "planktond exited during start-up: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "planktond socket never came up",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::new(UnixStream::connect(&self.socket)?, READ_TIMEOUT)
    }

    /// Peak resident set of the daemon so far, kilobytes.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        vm_hwm_kb(self.child.id())
    }

    /// Graceful stop: `Shutdown` over `conn`, then wait for exit (killed
    /// after ten seconds). Returns whether the daemon exited with code 0.
    pub fn shutdown(&mut self, conn: &mut Conn) -> io::Result<bool> {
        conn.ask("\"Shutdown\"")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                self.reaped = true;
                let _ = std::fs::remove_file(&self.socket);
                return Ok(status.success());
            }
            if Instant::now() > deadline {
                return Ok(false); // Drop kills it.
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
