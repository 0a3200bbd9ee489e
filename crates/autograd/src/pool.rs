//! Shared kernel thread pool and tensor buffer recycling.
//!
//! Two allocation/scheduling services used by the tensor kernels:
//!
//! 1. **A process-wide worker pool** ([`configure_threads`], [`run_chunks`])
//!    that large kernels (matmul, transpose, elementwise maps, row
//!    gathers/reductions) partition work onto. The pool is deliberately
//!    *deterministic*: every output element is computed by exactly one chunk
//!    with the same inner loop order as the sequential kernel, so results are
//!    bit-identical for any thread count. Chunks are claimed from a shared
//!    atomic counter (work stealing), so load balances even when chunk costs
//!    vary.
//!
//! 2. **A thread-local buffer pool** for `Vec<f64>` tensor storage. The
//!    unrolled PDS training loop and the CG solve allocate thousands of
//!    same-shaped gradient buffers per planning call; [`Tape::reset`], the
//!    tape drop path and the truncation after each batch of Hessian-vector
//!    products return exclusive buffers here so the next iteration reuses
//!    them instead of hitting the allocator.
//!
//! Callers above this crate set the pool size through their configs
//! (`GameConfig::kernel_threads`, `XpConfig::threads`, the `--threads` flag
//! of `repro` and `serve`); cell-level parallelism in the experiment harness
//! and kernel-level lanes share one budget so the process never
//! oversubscribes.
//!
//! [`Tape::reset`]: crate::Tape::reset

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use msopds_telemetry as telemetry;

/// Parallel jobs dispatched to the worker pool (sequential fallbacks included).
static POOL_JOBS: telemetry::Counter = telemetry::Counter::new("autograd.pool.jobs");
/// Work chunks executed across all [`run_chunks`] calls.
static POOL_CHUNKS: telemetry::Counter = telemetry::Counter::new("autograd.pool.chunks");
/// Buffer requests served from the thread-local recycle pool.
static BUFFER_HITS: telemetry::Counter = telemetry::Counter::new("autograd.buffer_pool.hits");
/// Buffer requests that fell through to a fresh allocation.
static BUFFER_MISSES: telemetry::Counter = telemetry::Counter::new("autograd.buffer_pool.misses");

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Erased pointer to the chunk closure of an in-flight [`run_chunks`] call.
///
/// Safety: workers only dereference after claiming a chunk index below
/// `n_chunks`, and the caller blocks until every claimed chunk has completed,
/// so the pointee outlives every dereference. Stale queue entries observed
/// after completion see an exhausted counter and never dereference.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for TaskPtr {}

struct JobStatus {
    completed: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

#[derive(Clone)]
struct Job {
    task: TaskPtr,
    next_chunk: Arc<AtomicUsize>,
    n_chunks: usize,
    status: Arc<JobStatus>,
}

struct PoolState {
    tx: Option<crossbeam::channel::Sender<Job>>,
    workers: usize,
    configured: bool,
}

static POOL: OnceLock<Mutex<PoolState>> = OnceLock::new();
/// Cached lane count so hot kernels can check parallelism without locking.
static LANES: AtomicUsize = AtomicUsize::new(0);

fn pool() -> &'static Mutex<PoolState> {
    POOL.get_or_init(|| Mutex::new(PoolState { tx: None, workers: 0, configured: false }))
}

/// The machine's parallelism, or 1 when it cannot be read: the thread
/// budget every config takes by default.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn configure_locked(st: &mut PoolState, threads: usize) {
    let threads = if threads == 0 { available_parallelism() } else { threads };
    let workers = threads - 1;
    if st.configured && st.workers == workers {
        return;
    }
    // Dropping the old sender disconnects idle workers; busy ones finish
    // their current job first (the caller of that job participates, so it
    // completes either way).
    st.tx = None;
    if workers > 0 {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for _ in 0..workers {
            let rx = rx.clone();
            std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    run_job(&job);
                }
            });
        }
        st.tx = Some(tx);
    }
    st.workers = workers;
    st.configured = true;
    LANES.store(workers + 1, Ordering::SeqCst);
}

/// Sets the kernel pool to `threads` total lanes (the calling thread counts
/// as one lane, so `threads - 1` workers are kept). `0` means auto-detect
/// from `available_parallelism`. `1` disables kernel parallelism entirely.
///
/// Reconfiguring to the current size is a cheap no-op, so per-call sites
/// (games, solves) can set it unconditionally.
pub fn configure_threads(threads: usize) {
    configure_locked(&mut pool().lock().unwrap(), threads);
}

/// Number of parallel lanes kernels may use (worker threads + the caller).
pub fn lanes() -> usize {
    let lanes = LANES.load(Ordering::SeqCst);
    if lanes > 0 {
        return lanes;
    }
    configure_threads(0);
    LANES.load(Ordering::SeqCst)
}

fn run_job(job: &Job) {
    loop {
        let c = job.next_chunk.fetch_add(1, Ordering::SeqCst);
        if c >= job.n_chunks {
            break;
        }
        // Safety: see `TaskPtr`. `c < n_chunks` and this chunk's completion
        // has not been counted yet, so the caller is still blocked in
        // `run_chunks` and the closure is alive.
        let task = unsafe { &*job.task.0 };
        if catch_unwind(AssertUnwindSafe(|| task(c))).is_err() {
            job.status.panicked.store(true, Ordering::SeqCst);
        }
        let mut done = job.status.completed.lock().unwrap();
        *done += 1;
        if *done == job.n_chunks {
            job.status.all_done.notify_all();
        }
    }
}

/// Runs `task(0..n_chunks)` across the pool, the calling thread included.
///
/// Falls back to a plain sequential loop when the pool has one lane or there
/// is only one chunk. Blocks until every chunk has completed; panics if any
/// chunk panicked.
pub fn run_chunks(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    POOL_JOBS.incr();
    POOL_CHUNKS.add(n_chunks as u64);
    let tx = if n_chunks == 1 || lanes() <= 1 { None } else { pool().lock().unwrap().tx.clone() };
    let Some(tx) = tx else {
        for c in 0..n_chunks {
            task(c);
        }
        return;
    };

    let status = Arc::new(JobStatus {
        completed: Mutex::new(0),
        all_done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    // Safety: the fat pointer's lifetime is erased so it can cross the
    // channel, but it is only dereferenced while a chunk claim succeeds, and
    // this function does not return until all chunks are done — so the
    // referent outlives every dereference.
    let task_ptr = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
            task,
        )
    };
    let job = Job {
        task: TaskPtr(task_ptr),
        next_chunk: Arc::new(AtomicUsize::new(0)),
        n_chunks,
        status: Arc::clone(&status),
    };
    // One wake-up per worker that could usefully claim a chunk; the send only
    // fails if the pool was just reconfigured, in which case the caller
    // simply processes every chunk itself.
    let workers = lanes() - 1;
    for _ in 0..workers.min(n_chunks - 1) {
        let _ = tx.send(job.clone());
    }
    run_job(&job);
    let mut done = status.completed.lock().unwrap();
    while *done < n_chunks {
        done = status.all_done.wait(done).unwrap();
    }
    drop(done);
    if status.panicked.load(Ordering::SeqCst) {
        panic!("a parallel kernel chunk panicked");
    }
}

/// Splits `len` items into contiguous ranges of at most `chunk` and runs
/// `body(start, end)` for each across the pool.
pub fn for_each_range(len: usize, chunk: usize, body: impl Fn(usize, usize) + Sync) {
    debug_assert!(chunk > 0);
    let n_chunks = len.div_ceil(chunk.max(1));
    run_chunks(n_chunks, &|c| {
        let start = c * chunk;
        let end = (start + chunk).min(len);
        body(start, end);
    });
}

/// Send+Sync wrapper for a mutable output pointer shared across chunks.
///
/// Soundness contract: chunks must write disjoint ranges of the pointee, and
/// the owning call must not return until [`run_chunks`] does.
pub(crate) struct SendMutPtr(pub *mut f64);

unsafe impl Send for SendMutPtr {}
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// The output sub-slice `[start, end)`. Caller asserts range disjointness.
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    pub(crate) unsafe fn slice(&self, start: usize, end: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.0.add(start), end - start)
    }
}

// ---------------------------------------------------------------------------
// Parallelism thresholds
// ---------------------------------------------------------------------------

static ELEMWISE_MIN: AtomicUsize = AtomicUsize::new(DEFAULT_ELEMWISE_MIN);
static COPY_MIN: AtomicUsize = AtomicUsize::new(DEFAULT_COPY_MIN);
static MATMUL_MIN: AtomicUsize = AtomicUsize::new(DEFAULT_MATMUL_MIN);

/// Default minimum element count before elementwise kernels go parallel.
pub const DEFAULT_ELEMWISE_MIN: usize = 16 * 1024;
/// Default minimum element count before copy/shuffle kernels go parallel.
pub const DEFAULT_COPY_MIN: usize = 64 * 1024;
/// Default minimum `m·k·n` product before matmul goes parallel.
pub const DEFAULT_MATMUL_MIN: usize = 256 * 1024;

/// Overrides the size thresholds below which kernels stay sequential.
///
/// Exposed for tuning and for tests that want to exercise the parallel code
/// paths on small tensors. Pass the `DEFAULT_*` constants to restore.
pub fn set_parallel_thresholds(elementwise: usize, copy: usize, matmul: usize) {
    ELEMWISE_MIN.store(elementwise.max(1), Ordering::SeqCst);
    COPY_MIN.store(copy.max(1), Ordering::SeqCst);
    MATMUL_MIN.store(matmul.max(1), Ordering::SeqCst);
}

pub(crate) fn elementwise_min() -> usize {
    ELEMWISE_MIN.load(Ordering::SeqCst)
}

pub(crate) fn copy_min() -> usize {
    COPY_MIN.load(Ordering::SeqCst)
}

pub(crate) fn matmul_min() -> usize {
    MATMUL_MIN.load(Ordering::SeqCst)
}

/// True when a kernel over `work` units (against threshold `min`) should use
/// the pool.
pub(crate) fn should_parallelize(work: usize, min: usize) -> bool {
    work >= min && lanes() > 1
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// Upper bound on recycled buffers kept per exact length.
const MAX_PER_BUCKET: usize = 16;
/// Upper bound on total recycled elements held per thread (128 MiB of f64).
const MAX_HELD_ELEMS: usize = 1 << 24;

#[derive(Default)]
struct BufferPool {
    buckets: HashMap<usize, Vec<Vec<f64>>>,
    held_elems: usize,
}

thread_local! {
    static BUFFERS: RefCell<BufferPool> = RefCell::new(BufferPool::default());
}

/// A length-`len` buffer with unspecified contents; the caller must overwrite
/// every element. Reuses a recycled buffer of the exact length when one is
/// available.
pub(crate) fn take_any(len: usize) -> Vec<f64> {
    if len == 0 {
        return Vec::new();
    }
    BUFFERS
        .with(|b| {
            let mut pool = b.borrow_mut();
            let v = pool.buckets.get_mut(&len).and_then(Vec::pop);
            if v.is_some() {
                pool.held_elems -= len;
            }
            v
        })
        .inspect(|_| BUFFER_HITS.incr())
        .unwrap_or_else(|| {
            BUFFER_MISSES.incr();
            vec![0.0; len]
        })
}

/// A zero-filled length-`len` buffer, recycled when possible.
pub(crate) fn take_zeroed(len: usize) -> Vec<f64> {
    let mut v = take_any(len);
    v.fill(0.0);
    v
}

/// Returns a tensor buffer to the thread's pool for reuse.
pub(crate) fn recycle(v: Vec<f64>) {
    let len = v.len();
    if len == 0 {
        return;
    }
    BUFFERS.with(|b| {
        let mut pool = b.borrow_mut();
        if pool.held_elems + len > MAX_HELD_ELEMS {
            return;
        }
        let bucket = pool.buckets.entry(len).or_default();
        if bucket.len() < MAX_PER_BUCKET {
            bucket.push(v);
            pool.held_elems += len;
        }
    });
}

/// `(buffers, elements)` currently held by this thread's buffer pool.
pub fn buffer_pool_stats() -> (usize, usize) {
    BUFFERS.with(|b| {
        let pool = b.borrow();
        (pool.buckets.values().map(Vec::len).sum(), pool.held_elems)
    })
}

/// Drops every buffer held by this thread's pool.
pub fn clear_buffer_pool() {
    BUFFERS.with(|b| *b.borrow_mut() = BufferPool::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pool configuration is process-global; serialize tests that change it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn chunks_cover_range_exactly_once() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure_threads(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        for_each_range(hits.len(), 7, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn sequential_when_single_lane() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure_threads(1);
        let sum = AtomicUsize::new(0);
        run_chunks(10, &|c| {
            sum.fetch_add(c, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 45);
        configure_threads(4);
    }

    #[test]
    fn reconfigure_is_idempotent() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure_threads(3);
        configure_threads(3);
        assert_eq!(lanes(), 3);
        configure_threads(4);
    }

    #[test]
    fn buffers_recycle_by_exact_length() {
        clear_buffer_pool();
        recycle(vec![7.0; 64]);
        let (bufs, elems) = buffer_pool_stats();
        assert_eq!((bufs, elems), (1, 64));
        let v = take_zeroed(64);
        assert_eq!(v, vec![0.0; 64]);
        assert_eq!(buffer_pool_stats(), (0, 0));
        // A different length misses the bucket.
        recycle(vec![1.0; 64]);
        let w = take_any(32);
        assert_eq!(w.len(), 32);
        assert_eq!(buffer_pool_stats().0, 1);
        clear_buffer_pool();
    }

    #[test]
    #[should_panic(expected = "parallel kernel chunk panicked")]
    fn worker_panic_propagates() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        configure_threads(4);
        run_chunks(8, &|c| {
            if c == 3 {
                panic!("boom");
            }
        });
    }
}
