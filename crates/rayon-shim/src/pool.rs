//! Persistent work-stealing worker pool backing the rayon-compatible API.
//!
//! Design goals (in priority order):
//!
//! 1. **Determinism by construction.** The pool never influences *what* is
//!    computed — only *when*. Work is pre-split into fixed index intervals
//!    (one per participant) derived purely from the total item count; workers
//!    claim indices with `fetch_add` and may steal from other participants'
//!    intervals, but every index is executed exactly once and the caller
//!    merges per-chunk results in index order. Thread count therefore cannot
//!    change any observable output.
//! 2. **No external dependencies.** Built on `std::thread` + atomics only
//!    (the container has no crates.io access).
//! 3. **Borrowed closures.** Jobs borrow stack data from the submitting
//!    thread. Safety comes from the submitter blocking until every index has
//!    *finished* executing (`completed == total`) before returning, so the
//!    borrow outlives all worker accesses.
//!
//! Nested parallelism (a `par_iter` inside a worker closure) runs inline on
//! the current thread: a thread-local `IN_TASK` flag collapses the effective
//! width to 1. This prevents pool-starvation deadlocks and keeps the
//! evaluation structure identical at every width.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard upper bound on pool width; callers asking for more are clamped.
pub(crate) const MAX_THREADS: usize = 256;

thread_local! {
    /// Width override installed by `ThreadPool::install` (None = global default).
    static WIDTH_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while this thread is executing pool work; nested ops run inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn clamp_width(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

/// Global default width: `GCBFS_THREADS` env override, else the number of
/// available hardware threads. Resolved once per process.
///
/// # Panics
/// If `GCBFS_THREADS` is set to something other than a thread count, so a
/// run meant to be pinned never runs unpinned.
pub(crate) fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var_os("GCBFS_THREADS").map(|v| v.to_string_lossy().into_owned());
        match parse_threads(raw.as_deref()) {
            Ok(Some(n)) => clamp_width(n),
            Ok(None) => {
                std::thread::available_parallelism().map(|n| clamp_width(n.get())).unwrap_or(1)
            }
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// Parses a `GCBFS_THREADS` value. Unset or `0` selects the default width
/// (`None`); a positive integer pins it; anything else is an error that
/// names the value.
fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "GCBFS_THREADS={raw:?} is not a thread count (use a positive integer, or 0 or unset for every core)"
        )),
    }
}

/// Width in effect for a parallel operation started on this thread.
pub(crate) fn effective_width() -> usize {
    if IN_TASK.with(|f| f.get()) {
        return 1;
    }
    WIDTH_OVERRIDE.with(|w| w.get()).unwrap_or_else(default_width)
}

/// Run `f` with the width override set to `width` (restored on unwind).
pub(crate) fn with_width_override<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH_OVERRIDE.with(|w| w.set(self.0));
        }
    }
    let prev = WIDTH_OVERRIDE.with(|w| w.replace(Some(clamp_width(width))));
    let _restore = Restore(prev);
    f()
}

/// Type-erased pointer to a borrowed `&(dyn Fn(usize) + Sync)` task living on
/// the submitting thread's stack.
///
/// # Safety
/// The pointee must outlive the job; `run` guarantees this by waiting for
/// `completed == total` before returning. Claims are bounded by the queue
/// `end`s, so no worker can touch the task after the final completion signal.
#[derive(Clone, Copy)]
struct TaskRef {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

impl TaskRef {
    fn new(task: &&(dyn Fn(usize) + Sync)) -> Self {
        unsafe fn call(data: *const (), index: usize) {
            let task = unsafe { &**(data as *const &(dyn Fn(usize) + Sync)) };
            task(index);
        }
        TaskRef { data: task as *const &(dyn Fn(usize) + Sync) as *const (), call }
    }

    /// # Safety
    /// Must only be called while the borrowed task is alive (see struct docs).
    unsafe fn invoke(&self, index: usize) {
        unsafe { (self.call)(self.data, index) }
    }
}

/// One participant's index interval. `next` advances via `fetch_add`; indices
/// in `[next, end)` are unclaimed.
struct Queue {
    next: AtomicUsize,
    end: usize,
}

impl Queue {
    /// Claim one index, or None if the interval is drained.
    fn claim(&self) -> Option<usize> {
        // Optimistic fetch_add; repair overshoot is unnecessary because
        // `next` only ever grows and `end` bounds validity checks.
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx < self.end {
            Some(idx)
        } else {
            None
        }
    }

    fn looks_nonempty(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.end
    }
}

/// A submitted parallel job: a borrowed task plus per-participant queues.
struct Job {
    task: TaskRef,
    queues: Vec<Queue>,
    total: usize,
    /// Number of indices fully executed (success or panic).
    completed: AtomicUsize,
    /// Number of pool workers currently attached (bounded by `width - 1`;
    /// the submitting thread participates without attaching).
    attached: AtomicUsize,
    width: usize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn new(task: TaskRef, total: usize, width: usize) -> Self {
        let queues = (0..width)
            .map(|k| Queue {
                next: AtomicUsize::new(k * total / width),
                end: (k + 1) * total / width,
            })
            .collect();
        Job {
            task,
            queues,
            total,
            completed: AtomicUsize::new(0),
            attached: AtomicUsize::new(0),
            width,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Execute one claimed index, catching panics and signalling completion
    /// when it is the last index of the job.
    fn run_one(&self, index: usize) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            // SAFETY: the submitter blocks in `wait_done` until
            // `completed == total`; this index has been claimed but not
            // yet counted, so the borrow is still alive.
            self.task.invoke(index)
        }));
        if let Err(payload) = result {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if done == self.total {
            let mut flag = self.done.lock().unwrap();
            *flag = true;
            self.done_cv.notify_all();
        }
    }

    /// Drain work starting from queue `start_q`: own interval first, then
    /// steal round-robin from the other participants.
    fn work(&self, start_q: usize) {
        struct InTaskGuard(bool);
        impl Drop for InTaskGuard {
            fn drop(&mut self) {
                IN_TASK.with(|f| f.set(self.0));
            }
        }
        let prev = IN_TASK.with(|f| f.replace(true));
        let _guard = InTaskGuard(prev);

        let n = self.queues.len();
        'outer: loop {
            // Own queue.
            while let Some(idx) = self.queues[start_q].claim() {
                self.run_one(idx);
            }
            // Steal from the others, round-robin from our successor.
            for off in 1..n {
                let q = &self.queues[(start_q + off) % n];
                if let Some(idx) = q.claim() {
                    self.run_one(idx);
                    continue 'outer;
                }
            }
            break;
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.queues.iter().any(Queue::looks_nonempty)
    }

    fn is_complete(&self) -> bool {
        self.completed.load(Ordering::Acquire) == self.total
    }

    fn wait_done(&self) {
        let mut flag = self.done.lock().unwrap();
        while !*flag {
            flag = self.done_cv.wait(flag).unwrap();
        }
    }
}

struct PoolState {
    jobs: Vec<Arc<Job>>,
    workers: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(PoolState { jobs: Vec::new(), workers: 0 }),
        cv: Condvar::new(),
    })
}

/// Ensure at least `n` pool worker threads exist (lazily grown, detached).
fn ensure_workers(n: usize) {
    let sh = shared();
    let mut state = sh.state.lock().unwrap();
    while state.workers < n {
        let id = state.workers;
        state.workers += 1;
        std::thread::Builder::new()
            .name(format!("gcbfs-pool-{id}"))
            .spawn(worker_loop)
            .expect("failed to spawn pool worker thread");
    }
}

fn worker_loop() {
    let sh = shared();
    loop {
        // Find a job with unclaimed work and attach capacity.
        let found = {
            let state = sh.state.lock().unwrap();
            state.jobs.iter().find_map(|job| {
                if !job.has_unclaimed() {
                    return None;
                }
                // CAS-attach, bounded by width - 1 (submitter holds slot 0).
                loop {
                    let cur = job.attached.load(Ordering::Relaxed);
                    if cur >= job.width - 1 {
                        return None;
                    }
                    if job
                        .attached
                        .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        // Queue index 1..width for pool workers.
                        return Some((Arc::clone(job), cur + 1));
                    }
                }
            })
        };
        match found {
            Some((job, q)) => {
                job.work(q);
                job.attached.fetch_sub(1, Ordering::AcqRel);
            }
            None => {
                let state = sh.state.lock().unwrap();
                // Re-check under the lock to avoid missed notifications.
                let has_work = state
                    .jobs
                    .iter()
                    .any(|j| j.has_unclaimed() && j.attached.load(Ordering::Relaxed) < j.width - 1);
                if !has_work {
                    // Timed wait keeps the pool robust against the (benign)
                    // race where a notification lands between the scan and
                    // the wait; it also lets idle workers re-scan cheaply.
                    let _ =
                        sh.cv.wait_timeout(state, std::time::Duration::from_millis(50)).unwrap();
                }
            }
        }
    }
}

/// Execute `task(i)` for every `i in 0..total`, potentially in parallel.
///
/// Every index is executed exactly once unless `task` panics. At width > 1 a
/// panic is caught, every other index still runs, and the first payload
/// caught (in time, not index order) is rethrown on the caller. The inline
/// width-1 path stops at the first panic and unwinds straight through.
pub(crate) fn run(total: usize, task: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    let width = effective_width().min(total);
    if width <= 1 {
        // Inline sequential execution (also every nested op, whose
        // effective width is 1): identical index order, same evaluation
        // structure, no pool involvement.
        for i in 0..total {
            task(i);
        }
        return;
    }

    ensure_workers(width - 1);
    let job = Arc::new(Job::new(TaskRef::new(&task), total, width));

    let sh = shared();
    {
        let mut state = sh.state.lock().unwrap();
        state.jobs.push(Arc::clone(&job));
    }
    sh.cv.notify_all();

    // Participate from queue 0.
    job.work(0);

    // Wait until every index has fully executed (workers may still be
    // running indices they claimed before we drained the queues).
    if !job.is_complete() {
        job.wait_done();
    }

    // Prune this job (and any other completed jobs) from the registry.
    {
        let mut state = sh.state.lock().unwrap();
        state.jobs.retain(|j| !j.is_complete());
    }

    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn gcbfs_threads_parse_pins_defaults_and_rejects() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("0")), Ok(None));
        assert_eq!(parse_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_threads(Some(" 1\n")), Ok(Some(1)));
        for bad in ["four", "1.5", "-2", ""] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err} must name {bad:?}");
        }
    }
}
