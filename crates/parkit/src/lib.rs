//! # parkit — a deterministic worker pool for experiment grids
//!
//! The paper's figure families are embarrassingly parallel: every
//! replication cell (method × granularity × offset/seed) scores
//! independently against the same precomputed parent distribution. This
//! crate provides the execution engine those loops run on — a
//! **std-only scoped-thread worker pool** (the workspace is offline, so
//! no rayon) with one hard guarantee:
//!
//! > Parallel results are **bit-identical** to serial results.
//!
//! [`Pool::run`] executes an *indexed* task list `0..tasks` and returns
//! the outputs in a slot vector ordered **by task index, never by
//! completion order**. Tasks must derive everything they need from
//! their index (the experiment layer derives per-cell seeds/offsets
//! from `(cell index, base seed)`), so scheduling — chunk stealing,
//! worker count, preemption — cannot leak into results.
//!
//! ## Scheduling
//!
//! Workers claim **chunks** of consecutive indices from a shared atomic
//! cursor (chunk stealing): cheap enough that thousands of sub-millisecond
//! cells amortize to one `fetch_add` per chunk, while the tail of the
//! list self-balances across workers. Each worker buffers its
//! `(index, output)` pairs locally and the pool merges them into the
//! slot vector after the scope joins — no locks on the task path.
//!
//! ## Serial path
//!
//! A pool with one worker (`--jobs 1`, [`Pool::serial`]) runs every task
//! **inline on the calling thread, in index order**, spawning nothing.
//! This keeps the serial path byte-for-byte equivalent to the historical
//! single-threaded loops — including `obskit` span nesting, which is
//! thread-local.
//!
//! ## Panics
//!
//! A panicking task does not take the pool down and does not lose other
//! tasks: every remaining task still runs, and [`Pool::run`] reports all
//! panics as a single [`PoolError`] naming the lowest panicked index.
//!
//! ## Observability
//!
//! Each parallel worker counts completed tasks in an
//! [`obskit::CounterShard`] — a local, unsynchronized cell merged into
//! the global `parkit_tasks_completed_total` counter exactly once, when
//! the worker drains. Spans opened inside tasks land on the worker's
//! thread-local span stack and fold into the global span-tree aggregate
//! as usual.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Session-wide default worker count override (0 = unset). Set once by
/// the CLI's `--jobs` flag; read by [`default_jobs`].
static DEFAULT_JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the session default worker count (the CLI's `--jobs N`).
///
/// # Panics
/// Panics if `jobs` is zero.
pub fn set_default_jobs(jobs: usize) {
    assert!(jobs >= 1, "a pool needs at least one worker");
    DEFAULT_JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The widest pool a `--jobs` flag or `NETSAMPLE_JOBS` may ask for.
/// [`Pool::run`] spawns `min(jobs, tasks)` threads, so without a ceiling
/// a large width and a large grid would ask the OS for that many threads.
pub const MAX_JOBS: usize = 1024;

/// Parse a pool width given as text (a `--jobs` value or
/// `NETSAMPLE_JOBS`): an integer from 1 to [`MAX_JOBS`].
///
/// # Errors
/// Anything else, with a message for the `--jobs` flag.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_JOBS).contains(&n) => Ok(n),
        _ => Err(format!(
            "--jobs needs a positive integer up to {MAX_JOBS}, got '{v}'"
        )),
    }
}

/// The session default worker count, resolved in precedence order:
/// [`set_default_jobs`] (the `--jobs` flag) > the `NETSAMPLE_JOBS`
/// environment variable, when [`parse_jobs`] accepts it >
/// [`std::thread::available_parallelism`].
#[must_use]
pub fn default_jobs() -> usize {
    let explicit = DEFAULT_JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("NETSAMPLE_JOBS")
        .ok()
        .and_then(|v| parse_jobs(v.trim()).ok())
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One or more tasks panicked during a [`Pool::run`].
///
/// The pool still ran every task (nothing is lost to a neighbor's
/// panic); for determinism the error reports the **lowest** panicked
/// task index regardless of which panic happened first on the clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Total tasks submitted to the run.
    pub tasks: usize,
    /// How many of them panicked.
    pub panicked: usize,
    /// The lowest panicked task index.
    pub first_task: usize,
    /// That task's panic message.
    pub first_message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} pool tasks panicked; first: task {}: {}",
            self.panicked, self.tasks, self.first_task, self.first_message
        )
    }
}

impl std::error::Error for PoolError {}

/// A fixed-width worker pool. Cheap to construct; threads are scoped to
/// each [`Pool::run`] call, so a `Pool` holds no OS resources between
/// runs.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool with exactly `jobs` workers.
    ///
    /// # Panics
    /// Panics if `jobs` is zero.
    #[must_use]
    pub fn new(jobs: usize) -> Pool {
        assert!(jobs >= 1, "a pool needs at least one worker");
        Pool { jobs }
    }

    /// The single-worker pool: every task runs inline on the calling
    /// thread, in index order — the historical serial code path.
    #[must_use]
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// A pool sized by [`default_jobs`] (the `--jobs` flag,
    /// `NETSAMPLE_JOBS`, or the machine's available parallelism).
    #[must_use]
    pub fn with_default_jobs() -> Pool {
        Pool::new(default_jobs())
    }

    /// Run `task(i)` for every `i in 0..tasks` and return the outputs
    /// **in index order** (slot `i` holds `task(i)`'s output).
    ///
    /// Scheduling cannot affect the result: outputs are placed by task
    /// index, so as long as `task` is a pure function of its index the
    /// returned vector is bit-identical across any worker count.
    ///
    /// # Errors
    /// If any task panics, every other task still runs and the call
    /// returns a single [`PoolError`] naming the lowest panicked index.
    pub fn run<T, F>(&self, tasks: usize, task: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if tasks == 0 {
            return Ok(Vec::new());
        }
        obskit::counter("parkit_runs_total").inc();
        obskit::counter("parkit_tasks_submitted_total").add(tasks as u64);
        let workers = self.jobs.min(tasks);
        if workers == 1 {
            run_serial(tasks, &task)
        } else {
            run_parallel(tasks, workers, &task)
        }
    }
}

/// Inline execution in index order on the calling thread. Panic
/// semantics match the parallel path so `--jobs 1` differs only in
/// scheduling, never in behavior.
fn run_serial<T, F: Fn(usize) -> T>(tasks: usize, task: &F) -> Result<Vec<T>, PoolError> {
    let mut done: Vec<T> = Vec::with_capacity(tasks);
    let mut panics: Vec<(usize, String)> = Vec::new();
    for i in 0..tasks {
        match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(v) => done.push(v),
            Err(p) => panics.push((i, panic_message(&*p))),
        }
    }
    if let Some((first_task, first_message)) = panics.first().cloned() {
        return Err(PoolError {
            tasks,
            panicked: panics.len(),
            first_task,
            first_message,
        });
    }
    obskit::counter("parkit_tasks_completed_total").add(done.len() as u64);
    Ok(done)
}

/// The chunk of consecutive indices a worker claims per steal. Small
/// enough that the tail of the task list balances across workers, large
/// enough that the shared cursor sees one RMW per chunk, not per task.
fn chunk_size(tasks: usize, workers: usize) -> usize {
    (tasks / (workers * 8)).clamp(1, 64)
}

/// One worker's output: its (index, value) buffer plus its panic log.
type WorkerBucket<T> = (Vec<(usize, T)>, Vec<(usize, String)>);

fn run_parallel<T, F>(tasks: usize, workers: usize, task: &F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(tasks, workers);
    // Each worker's bucket, in worker order. Collected after the scope
    // joins; the panic branch covers a worker dying outside
    // catch_unwind (which the task wrapper makes unreachable in
    // practice).
    let mut buckets: Vec<WorkerBucket<T>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Per-worker sharded counter: local increments, one
                    // atomic merge into the global total at drain (drop).
                    let completed =
                        obskit::CounterShard::new(obskit::counter("parkit_tasks_completed_total"));
                    let mut done: Vec<(usize, T)> = Vec::new();
                    let mut panics: Vec<(usize, String)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= tasks {
                            break;
                        }
                        for i in start..(start + chunk).min(tasks) {
                            match catch_unwind(AssertUnwindSafe(|| task(i))) {
                                Ok(v) => {
                                    done.push((i, v));
                                    completed.inc();
                                }
                                Err(p) => panics.push((i, panic_message(&*p))),
                            }
                        }
                    }
                    (done, panics)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(bucket) => buckets.push(bucket),
                Err(p) => buckets.push((Vec::new(), vec![(usize::MAX, panic_message(&*p))])),
            }
        }
    });

    // Merge by task index — never by completion order.
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut panics: Vec<(usize, String)> = Vec::new();
    for (done, p) in buckets {
        panics.extend(p);
        for (i, v) in done {
            assert!(
                slots[i].replace(v).is_none(),
                "pool task {i} produced two outputs"
            );
        }
    }
    if !panics.is_empty() {
        panics.sort_by_key(|&(i, _)| i);
        let (first_task, first_message) = panics[0].clone();
        return Err(PoolError {
            tasks,
            panicked: panics.len(),
            first_task,
            first_message,
        });
    }
    Ok(slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("pool task {i} left its slot empty")))
        .collect())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_any_width() {
        for jobs in [1, 2, 3, 8, 33] {
            let pool = Pool::new(jobs);
            let out = pool.run(100, |i| i * i).unwrap();
            let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        let pool = Pool::new(4);
        assert_eq!(pool.run(0, |i| i).unwrap(), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 7).unwrap(), vec![7]);
    }

    #[test]
    fn fewer_tasks_than_workers() {
        let pool = Pool::new(16);
        assert_eq!(pool.run(3, |i| i).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn serial_pool_runs_inline_in_order() {
        // Observable inline execution: every task sees the caller's
        // thread id, and the order log comes back strictly ascending.
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let pool = Pool::serial();
        let out = pool
            .run(5, |i| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
                i
            })
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn panic_reports_lowest_index_and_runs_the_rest() {
        for jobs in [1, 4] {
            let ran = AtomicUsize::new(0);
            let e = Pool::new(jobs)
                .run(20, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 3 && i != 11, "boom {i}");
                    i
                })
                .unwrap_err();
            assert_eq!(e.panicked, 2, "jobs={jobs}");
            assert_eq!(e.first_task, 3, "jobs={jobs}");
            assert!(e.first_message.contains("boom 3"), "{e}");
            assert_eq!(e.tasks, 20);
            // Panicking neighbors lose nothing: all 20 tasks started.
            assert_eq!(ran.load(Ordering::Relaxed), 20, "jobs={jobs}");
            let msg = e.to_string();
            assert!(msg.contains("2 of 20"), "{msg}");
        }
    }

    #[test]
    fn chunk_size_is_bounded() {
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(10_000, 2), 64);
        assert_eq!(chunk_size(64, 8), 1);
        assert!(chunk_size(1_000, 4) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Pool::new(0);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn parse_jobs_accepts_one_to_the_ceiling() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(&MAX_JOBS.to_string()), Ok(MAX_JOBS));
        let too_wide = (MAX_JOBS + 1).to_string();
        for bad in ["0", &too_wide, &u64::MAX.to_string(), "-1", "2.5", ""] {
            let msg = parse_jobs(bad).unwrap_err();
            assert_eq!(
                msg,
                format!("--jobs needs a positive integer up to 1024, got '{bad}'")
            );
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_on_floats() {
        // f64 work derived from the index only: any scheduling must
        // reproduce the serial bits exactly.
        let work = |i: usize| {
            let mut x = i as f64 + 0.5;
            for _ in 0..100 {
                x = (x * 1.000_000_1).sin() + i as f64;
            }
            x
        };
        let serial = Pool::serial().run(257, work).unwrap();
        let parallel = Pool::new(7).run(257, work).unwrap();
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}");
        }
    }
}
