//! The worker pool: dependency-counting task execution with work stealing
//! and an early-stop broadcast.
//!
//! Each worker loops: pop local work (LIFO), else steal (FIFO), else sleep
//! briefly. Completing a task decrements the pending-dependency counter of
//! every dependent; a dependent whose counter hits zero is pushed onto the
//! *completing* worker's deque — its dependency outcomes were just produced
//! there, so running it on the same worker keeps them cache-hot, and idle
//! workers steal it away if the owner is busy. There are no level barriers:
//! a finished component immediately unblocks its dependents while unrelated
//! components keep running.
//!
//! The caller's task closure performs all outcome storage before returning,
//! so "the engine released a dependent" implies "its dependencies' outcomes
//! have landed in the store" (the §3.2 scheduling contract).
//!
//! When [`WorkerContext::request_stop`] fires (first policy violation under
//! stop-at-first semantics), remaining tasks *drain*: they complete without
//! running, still releasing their dependents, so the pool winds down without
//! special-case termination logic and the skipped count is reported.

use crate::graph::{TaskGraph, TaskId};
use crate::queue::TaskQueue;
use crate::stats::{EngineStats, TaskFailure};
use plankton_checker::SearchScratch;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The work-stealing verification engine: a fixed pool of workers.
#[derive(Clone, Debug)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// An engine with `workers` workers (at least one).
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every task in `graph`, honoring dependency edges, and return
    /// the pool statistics. `f` runs once per task unless the early-stop
    /// broadcast fires first; it must finish all outcome storage for the
    /// task before returning.
    pub fn run<F>(&self, graph: &TaskGraph, f: F) -> EngineStats
    where
        F: Fn(TaskId, &WorkerContext<'_>) + Sync,
    {
        let start = Instant::now();
        let total = graph.len();
        let shared = Shared {
            graph,
            queue: TaskQueue::new(self.workers),
            pending: graph
                .dependency_counts()
                .into_iter()
                .map(AtomicUsize::new)
                .collect(),
            total,
            completed: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
            queued: AtomicUsize::new(0),
            queue_depth_max: AtomicUsize::new(0),
            busy_micros: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        };

        // A cyclic graph would leave pending counters that never reach zero
        // and hang the pool with no diagnostic; the check is O(V+E), noise
        // next to the model checking each task performs.
        assert!(graph.is_acyclic(), "task graph contains a dependency cycle");

        // Seed the roots round-robin across the workers.
        let mut seeded = 0usize;
        for t in 0..total {
            if graph.dependencies(TaskId(t)).is_empty() {
                shared.push_tracked(seeded % self.workers, TaskId(t));
                seeded += 1;
            }
        }
        assert!(
            total == 0 || seeded > 0,
            "task graph has no runnable roots (dependency cycle?)"
        );

        let scratch_reuses: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|worker| {
                    let shared = &shared;
                    let f = &f;
                    scope.spawn(move || worker_loop(shared, worker, f))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(reuses) => reuses,
                    // Task panics are caught inside the loop; a worker loop
                    // panicking here is an engine bug, not a task fault.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .sum()
        });

        let mut failures = shared
            .failures
            .lock()
            .expect("engine failure list poisoned")
            .clone();
        failures.sort_by_key(|f| f.task);
        let completed = shared.completed.load(Ordering::Acquire);
        let stats = EngineStats {
            workers: self.workers,
            tasks_total: total,
            tasks_executed: shared.executed.load(Ordering::Relaxed),
            tasks_stolen: shared.stolen.load(Ordering::Relaxed),
            tasks_skipped: shared.skipped.load(Ordering::Relaxed),
            tasks_pending: total - completed,
            scratch_reuses,
            interned_routes: 0,
            states_explored: 0,
            wall_micros: start.elapsed().as_micros() as u64,
            queue_depth_max: shared.queue_depth_max.load(Ordering::Relaxed),
            busy_micros: shared.busy_micros.load(Ordering::Relaxed),
            tasks_panicked: shared.panicked.load(Ordering::Relaxed),
            failures,
        };
        record_run_metrics(&stats);
        stats
    }
}

/// Fold one finished engine run into the process-global metrics. Handles
/// resolve once per process; this runs once per engine run, and the only
/// per-task cost added anywhere is two `Instant` reads and one histogram
/// observe in [`worker_loop`]. Contained panics are not counted here: the
/// run's caller reads them from [`EngineStats::tasks_panicked`] (a daemon
/// session counts them in its own registry).
fn record_run_metrics(stats: &EngineStats) {
    use std::sync::OnceLock;
    struct Handles {
        stolen: std::sync::Arc<plankton_telemetry::Counter>,
        busy: std::sync::Arc<plankton_telemetry::Counter>,
        queue_depth: std::sync::Arc<plankton_telemetry::Gauge>,
    }
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        let registry = plankton_telemetry::metrics::global();
        Handles {
            stolen: registry.counter(
                "plankton_tasks_stolen_total",
                "Tasks a worker took from another worker's deque.",
            ),
            busy: registry.counter(
                "plankton_worker_busy_micros_total",
                "Microseconds workers spent inside task closures, summed across workers.",
            ),
            queue_depth: registry.gauge(
                "plankton_queue_depth_max",
                "High-water mark of runnable tasks queued at once, across all engine runs.",
            ),
        }
    });
    handles.stolen.add(stats.tasks_stolen);
    handles.busy.add(stats.busy_micros);
    handles.queue_depth.record_max(stats.queue_depth_max as u64);
}

/// The per-task wall-time histogram (`plankton_task_seconds`), resolved once.
fn task_seconds() -> &'static std::sync::Arc<plankton_telemetry::Histogram> {
    use std::sync::OnceLock;
    static HANDLE: OnceLock<std::sync::Arc<plankton_telemetry::Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        plankton_telemetry::metrics::global().histogram(
            "plankton_task_seconds",
            "Wall time of one executed (PEC-component, failure-scenario) task.",
            plankton_telemetry::Unit::Micros,
        )
    })
}

/// Per-worker execution context handed to the task closure.
pub struct WorkerContext<'e> {
    /// This worker's index in the pool.
    pub worker: usize,
    scratch: RefCell<SearchScratch>,
    shared: &'e dyn StopControl,
    /// When the running task started.
    task_start: Cell<Instant>,
    /// Microseconds of the running task its laps have accounted for (`None`
    /// before its first [`WorkerContext::lap_micros`]).
    lapped: Cell<Option<u64>>,
}

impl<'e> WorkerContext<'e> {
    /// Broadcast early stop: remaining tasks drain without running.
    pub fn request_stop(&self) {
        self.shared.request_stop();
    }

    /// Has any worker requested a stop?
    pub fn stop_requested(&self) -> bool {
        self.shared.stop_requested()
    }

    /// This worker's search scratch, which each of its model-checking runs
    /// borrows in turn.
    pub fn scratch(&self) -> &RefCell<SearchScratch> {
        &self.scratch
    }

    /// Microseconds since the running task started or since its previous
    /// lap. A task that takes laps is observed in `plankton_task_seconds` as
    /// the sum of its laps, so a caller that attributes its laps elsewhere
    /// (per-PEC task costs) and the histogram read the same clock readings
    /// and agree exactly.
    pub fn lap_micros(&self) -> u64 {
        let total = self.task_start.get().elapsed().as_micros() as u64;
        total - self.lapped.replace(Some(total)).unwrap_or(0)
    }
}

/// The stop-broadcast interface `WorkerContext` needs from the pool (object
/// safe so the context does not carry the graph lifetime).
trait StopControl: Sync {
    fn request_stop(&self);
    fn stop_requested(&self) -> bool;
}

struct Shared<'g> {
    graph: &'g TaskGraph,
    queue: TaskQueue,
    pending: Vec<AtomicUsize>,
    total: usize,
    completed: AtomicUsize,
    stop: AtomicBool,
    executed: AtomicU64,
    stolen: AtomicU64,
    skipped: AtomicU64,
    panicked: AtomicU64,
    failures: Mutex<Vec<TaskFailure>>,
    /// Runnable tasks currently sitting in worker deques.
    queued: AtomicUsize,
    queue_depth_max: AtomicUsize,
    busy_micros: AtomicU64,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl Shared<'_> {
    /// Push a runnable task, maintaining the queue-depth high-water mark.
    fn push_tracked(&self, worker: usize, task: TaskId) {
        self.queue.push(worker, task);
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }
}

impl StopControl for Shared<'_> {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or format string covers practically every real payload).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop<F>(shared: &Shared<'_>, worker: usize, f: &F) -> u64
where
    F: Fn(TaskId, &WorkerContext<'_>) + Sync,
{
    let ctx = WorkerContext {
        worker,
        scratch: RefCell::new(SearchScratch::new()),
        shared,
        task_start: Cell::new(Instant::now()),
        lapped: Cell::new(None),
    };
    loop {
        if shared.completed.load(Ordering::Acquire) >= shared.total {
            break;
        }
        let task = shared.queue.pop(worker).or_else(|| {
            let stolen = shared.queue.steal(worker);
            if stolen.is_some() {
                shared.stolen.fetch_add(1, Ordering::Relaxed);
            }
            stolen
        });
        match task {
            Some(task) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                if shared.stop_requested() {
                    shared.skipped.fetch_add(1, Ordering::Relaxed);
                } else {
                    // A panicking task is contained, not re-raised: record a
                    // structured TaskFailure and broadcast stop *before* the
                    // accounting below releases this task's dependents — they
                    // (and every other remaining task) then drain as skipped,
                    // so nothing runs against outcome records the panicked
                    // closure never stored, and the caller gets a completed
                    // (but degraded) run instead of a dead process.
                    let task_start = Instant::now();
                    ctx.task_start.set(task_start);
                    ctx.lapped.set(None);
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(task, &ctx))) {
                        Ok(()) => {
                            let elapsed = task_start.elapsed().as_micros() as u64;
                            shared.busy_micros.fetch_add(elapsed, Ordering::Relaxed);
                            task_seconds().observe(ctx.lapped.get().unwrap_or(elapsed));
                            shared.executed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            shared.request_stop();
                            shared.panicked.fetch_add(1, Ordering::Relaxed);
                            shared
                                .failures
                                .lock()
                                .expect("engine failure list poisoned")
                                .push(TaskFailure {
                                    task: task.index(),
                                    message: panic_message(payload.as_ref()),
                                });
                        }
                    }
                }
                // Release dependents whose last dependency this was. The
                // AcqRel decrement orders the task's outcome writes before
                // any dependent observes a zero counter.
                let mut released = false;
                for &d in shared.graph.dependents(task) {
                    if shared.pending[d.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                        shared.push_tracked(worker, d);
                        released = true;
                    }
                }
                let done = shared.completed.fetch_add(1, Ordering::AcqRel) + 1;
                if released || done >= shared.total {
                    shared.wake.notify_all();
                }
            }
            None => {
                let guard = shared.sleep.lock().expect("engine sleep lock poisoned");
                if shared.completed.load(Ordering::Acquire) >= shared.total {
                    break;
                }
                // Timed wait: a wakeup can slip in between the queue check
                // and this lock, so never sleep unbounded.
                let _ = shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("engine sleep lock poisoned");
            }
        }
    }
    let reuses = ctx.scratch.borrow().reuse_count();
    reuses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn every_task_runs_exactly_once() {
        let graph = TaskGraph::new(64);
        let ran: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let stats = Engine::new(4).run(&graph, |t, _| {
            ran[t.index()].fetch_add(1, Ordering::SeqCst);
        });
        assert!(ran.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(stats.tasks_executed, 64);
        assert_eq!(stats.tasks_total, 64);
        assert_eq!(stats.tasks_pending, 0);
        assert_eq!(stats.tasks_skipped, 0);
    }

    #[test]
    fn dependencies_complete_before_dependents_run() {
        // A diamond repeated many times to give races a chance: 4k+0 -> 4k+1,
        // 4k+2 -> 4k+3.
        let n = 40;
        let mut graph = TaskGraph::new(n);
        for k in (0..n).step_by(4) {
            graph.add_dependency(TaskId(k), TaskId(k + 1));
            graph.add_dependency(TaskId(k), TaskId(k + 2));
            graph.add_dependency(TaskId(k + 1), TaskId(k + 3));
            graph.add_dependency(TaskId(k + 2), TaskId(k + 3));
        }
        for _ in 0..20 {
            let outcome: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            Engine::new(4).run(&graph, |t, _| {
                // A task's outcome is stored before it returns; dependents
                // must observe every dependency outcome.
                for d in graph.dependencies(t) {
                    assert_eq!(
                        outcome[d.index()].load(Ordering::SeqCst),
                        1,
                        "task {t:?} ran before its dependency {d:?} landed"
                    );
                }
                outcome[t.index()].store(1, Ordering::SeqCst);
            });
        }
    }

    #[test]
    fn early_stop_drains_remaining_tasks() {
        // A chain of 10 tasks on one worker: the first requests a stop, the
        // other nine must drain as skipped, deterministically.
        let mut graph = TaskGraph::new(10);
        for t in 1..10 {
            graph.add_dependency(TaskId(t), TaskId(t - 1));
        }
        let stats = Engine::new(1).run(&graph, |t, ctx| {
            if t.index() == 0 {
                ctx.request_stop();
            } else {
                panic!("task {t:?} ran after the stop broadcast");
            }
        });
        assert_eq!(stats.tasks_executed, 1);
        assert_eq!(stats.tasks_skipped, 9);
        assert!(stats.stopped_early());
        assert_eq!(stats.tasks_pending, 0);
    }

    #[test]
    fn released_work_is_stolen_by_idle_workers() {
        // One root fans out into many slow children. The children are all
        // released onto the root's worker, so the other workers can only get
        // work by stealing.
        let children = 48;
        let mut graph = TaskGraph::new(children + 1);
        for c in 1..=children {
            graph.add_dependency(TaskId(c), TaskId(0));
        }
        let seen_workers = StdMutex::new(std::collections::BTreeSet::new());
        let stats = Engine::new(4).run(&graph, |_, ctx| {
            seen_workers.lock().unwrap().insert(ctx.worker);
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(stats.tasks_executed as usize, children + 1);
        assert!(
            stats.tasks_stolen > 0,
            "idle workers should have stolen fanned-out work: {stats}"
        );
        assert!(seen_workers.lock().unwrap().len() > 1);
    }

    #[test]
    fn task_panic_is_contained_as_a_structured_failure() {
        let mut graph = TaskGraph::new(12);
        for t in 1..12 {
            graph.add_dependency(TaskId(t), TaskId(t - 1));
        }
        // Without the catch-unwind accounting this would deadlock (the test
        // finishing at all is half the assertion). The panic must NOT reach
        // the caller: it becomes a TaskFailure, stop broadcasts, and the
        // dependents of the dead task drain as skipped — none of them runs
        // against the outcome the panicked closure never stored.
        let ran_after_panic = AtomicU32::new(0);
        let stats = Engine::new(3).run(&graph, |t, _| {
            if t.index() == 2 {
                panic!("task blew up");
            }
            if t.index() > 2 {
                ran_after_panic.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(stats.tasks_panicked, 1);
        assert_eq!(stats.failures.len(), 1);
        assert_eq!(stats.failures[0].task, 2);
        assert_eq!(stats.failures[0].message, "task blew up");
        assert_eq!(ran_after_panic.load(Ordering::SeqCst), 0);
        assert_eq!(stats.tasks_executed, 2);
        assert_eq!(stats.tasks_skipped, 9);
        assert_eq!(stats.tasks_pending, 0, "the pool drained fully");
        assert!(stats.stopped_early());
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let stats = Engine::new(8).run(&TaskGraph::new(0), |_, _| {
            panic!("no tasks to run");
        });
        assert_eq!(stats.tasks_total, 0);
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn scratch_is_available_per_worker() {
        let graph = TaskGraph::new(8);
        let opts = plankton_checker::SearchOptions::all_optimizations();
        let stats = Engine::new(2).run(&graph, |_, ctx| {
            ctx.scratch().borrow_mut().prepare(&opts);
        });
        // 8 runs across 2 workers: at least 6 visited-set reuses.
        assert!(stats.scratch_reuses >= 6, "{stats}");
    }
}
