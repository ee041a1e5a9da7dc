//! The one executor: every thread the workspace spawns is spawned here.
//!
//! * [`run_dag`] — the scheduling primitive, a dependency-respecting
//!   scheduler for an acyclic graph (it panics on a cycle, naming it,
//!   before any job runs). With `workers <= 1` it runs a deterministic
//!   lowest-index topological order inline, on one [`with_stack`] thread —
//!   zero pool setup.
//!   With more workers it runs a *work-stealing* pool: each worker owns a
//!   deque, pushes the nodes it unblocks onto its own deque (LIFO,
//!   cache-warm), and steals from the front of a victim's deque (FIFO,
//!   oldest first) only when its own runs dry. There is no
//!   barrier anywhere: a node runs the moment its last dependency
//!   finishes, whichever phase it belongs to.
//! * [`par_map`] — [`run_dag`] without edges: an order-preserving map for
//!   independent jobs (theorem replay, disk-store decode).
//! * [`plan_workers`] — the adaptive sizing policy every pool width comes
//!   from: how many workers a given amount of estimated work actually
//!   deserves on this host (1 on single-CPU hosts, never more than the
//!   host has cores, fewer when the work is too small to amortize a pool).
//! * [`with_stack`] — one closure on a big-stack thread, for the
//!   interpreters' native recursion.
//!
//! One stack rule: every job and every `with_stack` closure runs on a
//! thread spawned here with [`BIG_STACK_BYTES`] — a pool worker, or the
//! one thread of an inline run — and `with_stack` called on such a thread
//! runs its closure in place. So a job has the same stack at every width,
//! and how deep an input may nest does not depend on the worker count.
//!
//! Sequential and parallel schedules execute the *same* closures —
//! byte-identical output is a property of the closures (per-function
//! seeds, name/slot-keyed result collection), not of scheduling luck. Both
//! report [`PoolStats`], whose busy time is the jobs' own. A panicking job
//! is re-raised on the caller's thread with its original payload.

use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worker-pool occupancy of one scheduled graph (or map).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Workers the caller asked for.
    pub requested: usize,
    /// Workers the pool actually ran with (after [`plan_workers`] and
    /// clamping to the job count). `1` means the inline fast path: no
    /// threads were spawned at all.
    pub workers: usize,
    /// Sum of the jobs' durations: time a worker spent parked, stealing
    /// or starting is not busy.
    pub busy: Duration,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Tasks executed by a worker other than the one that made them ready.
    pub steals: u64,
}

impl PoolStats {
    /// Raw busy time over capacity (`wall × effective workers`).
    ///
    /// Deliberately *not* clamped to `[0, 1]`: a value above `1.0` means
    /// the reported worker count is wrong (more concurrency happened than
    /// the pool admits to), and a value far below `1.0` at a high worker
    /// count means the pool was oversubscribed or starved. Both are
    /// pathologies worth seeing, not clamping away.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / capacity
        }
    }
}

/// Number of CPUs the host exposes (1 when undetectable).
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Target scheduled units per worker: the work a pool is sized for is
/// enough to hand each worker this many [`MIN_TASK_COST`]-sized shares,
/// so stealing has slack to balance uneven job costs.
pub const TASKS_PER_WORKER: usize = 4;

/// Minimum estimated cost (term-size units) per scheduled share before a
/// worker is worth adding. Calibrated so a workload measured in
/// milliseconds stays inline while anything seconds-scale fans out fully
/// on real cores.
pub const MIN_TASK_COST: u64 = 500;

/// The adaptive pool-sizing policy: how many workers `requested` workers
/// and `estimated_cost` units of work (term-size units; `u64::MAX` for
/// "plenty") actually deserve.
///
/// * `requested <= 1` → `1` (explicitly sequential).
/// * `force_pool` → `requested` verbatim (tests and benches that must
///   exercise the parallel machinery, including oversubscription).
/// * one host CPU → `1`: a pool can only time-slice there, so it is pure
///   overhead.
/// * otherwise `min(requested, host_cpus, cost / (MIN_TASK_COST ×
///   TASKS_PER_WORKER))` — never more workers than cores (oversubscription
///   never helps a CPU-bound pipeline) and never so many that a worker's
///   share drops below [`MIN_TASK_COST`].
///
/// The choice never affects output bytes — only wall-clock time — so it is
/// free to depend on the host.
#[must_use]
pub fn plan_workers(requested: usize, estimated_cost: u64, force_pool: bool) -> usize {
    if requested <= 1 {
        return 1;
    }
    if force_pool {
        return requested;
    }
    let cpus = host_cpus();
    if cpus <= 1 {
        return 1;
    }
    let by_cost = (estimated_cost / (MIN_TASK_COST * TASKS_PER_WORKER as u64))
        .min(usize::MAX as u64) as usize;
    requested.min(cpus).min(by_cost.max(1))
}

/// Applies `job` to every item, returning results in item order: exactly
/// [`run_dag`] over a graph with no edges, so it shares the inline path,
/// the pool and the panic propagation.
pub fn par_map<T, R, F>(items: &[T], workers: usize, job: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let no_edges = vec![Vec::new(); items.len()];
    run_dag(items.len(), &no_edges, workers, |i| job(i, &items[i]))
}

/// Stack size of every thread spawned here: [`with_stack`] threads and
/// [`run_dag`]'s pool workers. Debug builds spend on the order of 100 KiB
/// of host stack per interpreted call level, so the interpreters'
/// call-depth caps need far more than a default 2 MiB thread stack, and
/// the translation phases recurse on term depth too.
pub const BIG_STACK_BYTES: usize = 64 * 1024 * 1024;

thread_local! {
    /// Whether this thread was spawned here, with [`BIG_STACK_BYTES`].
    static BIG_STACK: Cell<bool> = const { Cell::new(false) };
}

/// Spawns `f` on a scoped thread with a [`BIG_STACK_BYTES`] stack, which
/// marks itself as such a thread first.
fn big_stack_thread<'s, T: Send + 's>(
    scope: &'s std::thread::Scope<'s, '_>,
    f: impl FnOnce() -> T + Send + 's,
) -> std::thread::ScopedJoinHandle<'s, T> {
    let marked = move || {
        BIG_STACK.set(true);
        f()
    };
    let builder = std::thread::Builder::new().stack_size(BIG_STACK_BYTES);
    builder
        .spawn_scoped(scope, marked)
        .expect("spawn big-stack thread")
}

/// Runs `f` on a thread with a [`BIG_STACK_BYTES`] stack and returns its
/// result, re-raising its panic with the original payload. On a thread
/// spawned here (a pool worker or a `with_stack` thread) `f` runs in
/// place; elsewhere on one fresh thread.
pub fn with_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    if BIG_STACK.get() {
        return f();
    }
    std::thread::scope(|scope| {
        big_stack_thread(scope, f)
            .join()
            .unwrap_or_else(|e| resume_unwind(e))
    })
}

/// The deterministic lowest-index topological order of a dependency graph
/// (Kahn's algorithm): the order the sequential scheduler executes, and
/// the pool's check. Panics, naming one cycle, on a cycle or a self-edge.
fn topo_order(deps: &[Vec<usize>]) -> Vec<usize> {
    let (dependents, mut indegree) = reverse_edges(deps);
    let mut ready: BinaryHeap<Reverse<usize>> = (0..deps.len())
        .filter(|&i| indegree[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(deps.len());
    while let Some(Reverse(i)) = ready.pop() {
        order.push(i);
        for &dep in &dependents[i] {
            indegree[dep] -= 1;
            if indegree[dep] == 0 {
                ready.push(Reverse(dep));
            }
        }
    }
    assert!(
        order.len() == deps.len(),
        "run_dag: dependency cycle {}",
        cycle(deps, &indegree)
    );
    order
}

/// A cycle among the nodes Kahn's algorithm stalled on, as `a -> b -> a`
/// (each depends on the next): each waits on another, so a walk repeats.
fn cycle(deps: &[Vec<usize>], indegree: &[usize]) -> String {
    let stalled = |i: &usize| indegree[*i] > 0;
    let mut path: Vec<usize> = (0..deps.len()).filter(stalled).take(1).collect();
    while let Some(next) = path
        .last()
        .and_then(|&i| deps[i].iter().copied().find(stalled))
    {
        if let Some(at) = path.iter().position(|&i| i == next) {
            path.drain(..at);
            path.push(next);
            break;
        }
        path.push(next);
    }
    let names: Vec<String> = path.iter().map(usize::to_string).collect();
    names.join(" -> ")
}

/// Reverse adjacency (which nodes each node unblocks) and per-node
/// indegree.
fn reverse_edges(deps: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let n = deps.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            assert!(d < n, "run_dag: dependency index out of range");
            dependents[d].push(i);
        }
    }
    (dependents, deps.iter().map(Vec::len).collect())
}

/// A job's panic caught on a pool worker: the node it hit and its payload.
type Caught = (usize, Box<dyn Any + Send>);

/// Runs one job per node of an acyclic dependency graph, never starting a
/// node before all of `deps[node]` have finished. Results are returned in
/// node order.
///
/// With `workers <= 1` this runs the deterministic lowest-index
/// topological order inline on one [`with_stack`] thread, with zero pool
/// setup.
/// Otherwise each worker owns a deque: finishing a node pushes the nodes
/// it unblocked onto the finisher's own deque (popped LIFO), and a worker
/// whose deque is empty steals the oldest node from a victim's deque
/// (counted in [`PoolStats::steals`]). Workers with nothing to run or
/// steal park on a condvar.
///
/// A panicking job stops the pool: no new node starts, and once the
/// running ones finish the panic of the lowest-index node that panicked is
/// re-raised on the caller's thread with its original payload.
///
/// # Panics
///
/// Panics before any job runs if `deps.len() != n`, an edge index is out
/// of range or the graph has a cycle (the message names it), and
/// re-raises a job's panic.
pub fn run_dag<R, F>(n: usize, deps: &[Vec<usize>], workers: usize, job: F) -> (Vec<R>, PoolStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert_eq!(deps.len(), n, "run_dag: deps length mismatch");
    let start = Instant::now();
    let order = topo_order(deps);
    let requested = workers.max(1);
    let workers = requested.clamp(1, n.max(1));
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut busy = Duration::ZERO;
    let mut steals = 0;

    if workers <= 1 {
        busy = with_stack(|| {
            let mut busy = Duration::ZERO;
            for i in order {
                let t0 = Instant::now();
                slots[i] = Some(job(i));
                busy += t0.elapsed();
            }
            busy
        });
    } else {
        let (dependents, indegree) = reverse_edges(deps);
        let pool = WsPool::new(workers, indegree);
        let mut panicked: Option<Caught> = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let pool = &pool;
                    let dependents = &dependents;
                    let job = &job;
                    big_stack_thread(s, move || {
                        let mut mine: Vec<(usize, R)> = Vec::new();
                        let mut busy = Duration::ZERO;
                        while let Some(i) = pool.acquire(w) {
                            let t0 = Instant::now();
                            match catch_unwind(AssertUnwindSafe(|| job(i))) {
                                Ok(r) => mine.push((i, r)),
                                Err(payload) => {
                                    pool.abort();
                                    return Err((i, payload));
                                }
                            }
                            busy += t0.elapsed();
                            pool.complete(w, i, dependents);
                        }
                        Ok((mine, busy))
                    })
                })
                .collect();
            for h in handles {
                match h.join().unwrap_or_else(|p| Err((usize::MAX, p))) {
                    Ok((mine, worker_busy)) => {
                        busy += worker_busy;
                        for (i, r) in mine {
                            slots[i] = Some(r);
                        }
                    }
                    Err(caught) => {
                        if panicked.as_ref().is_none_or(|(j, _)| caught.0 < *j) {
                            panicked = Some(caught);
                        }
                    }
                }
            }
        });
        if let Some((_, payload)) = panicked {
            resume_unwind(payload);
        }
        steals = pool.steals.load(Ordering::Relaxed);
    }

    let out: Vec<R> = slots
        .into_iter()
        .map(|s| s.expect("every node scheduled exactly once"))
        .collect();
    (
        out,
        PoolStats {
            requested,
            workers,
            busy,
            wall: start.elapsed(),
            steals,
        },
    )
}

/// Shared state of the work-stealing pool.
struct WsPool {
    /// Per-worker deques. The owner pushes/pops at the back; thieves pop
    /// at the front. Each deque has its own lock, so owners and thieves
    /// only contend pairwise.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Unresolved dependency count per node.
    pending: Vec<AtomicUsize>,
    /// Nodes fully executed (forced to `n` by [`WsPool::abort`]).
    finished: AtomicUsize,
    n: usize,
    /// Workers currently parked (or about to park).
    idle: AtomicUsize,
    /// Park/wake coordination. The lock protects nothing but the condvar;
    /// all scheduling state is in the atomics and deques.
    park: Mutex<()>,
    cond: Condvar,
    steals: AtomicU64,
}

impl WsPool {
    /// A pool whose deques are seeded round-robin with the initially
    /// ready nodes, lowest index first, so early work spreads across
    /// workers immediately.
    fn new(workers: usize, indegree: Vec<usize>) -> WsPool {
        let n = indegree.len();
        let mut deques = vec![VecDeque::new(); workers];
        for (k, i) in (0..n).filter(|&i| indegree[i] == 0).enumerate() {
            deques[k % workers].push_back(i);
        }
        WsPool {
            deques: deques.into_iter().map(Mutex::new).collect(),
            pending: indegree.into_iter().map(AtomicUsize::new).collect(),
            finished: AtomicUsize::new(0),
            n,
            idle: AtomicUsize::new(0),
            park: Mutex::new(()),
            cond: Condvar::new(),
            steals: AtomicU64::new(0),
        }
    }

    /// Pops the next node for worker `w`: own deque first (newest),
    /// then steal (oldest) from the other deques, then park. Returns
    /// `None` when the whole graph has finished.
    fn acquire(&self, w: usize) -> Option<usize> {
        loop {
            if self.finished.load(Ordering::Acquire) >= self.n {
                return None;
            }
            let own = self.deques[w].lock().expect("deque poisoned").pop_back();
            if let Some(i) = own.or_else(|| self.try_steal(w)) {
                return Some(i);
            }
            self.park();
        }
    }

    fn try_steal(&self, w: usize) -> Option<usize> {
        let k = self.deques.len();
        for v in 1..k {
            let victim = (w + v) % k;
            if let Some(i) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(i);
            }
        }
        None
    }

    /// Marks node `i` done and enqueues every node it unblocked onto
    /// worker `w`'s own deque, waking parked workers if any.
    fn complete(&self, w: usize, i: usize, dependents: &[Vec<usize>]) {
        let mut released = 0usize;
        for &dep in &dependents[i] {
            if self.pending[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.deques[w]
                    .lock()
                    .expect("deque poisoned")
                    .push_back(dep);
                released += 1;
            }
        }
        let done = self.finished.fetch_add(1, Ordering::AcqRel) + 1;
        if done >= self.n || (released > 0 && self.idle.load(Ordering::SeqCst) > 0) {
            let _g = self.park.lock().expect("park lock poisoned");
            self.cond.notify_all();
        }
    }

    /// Stops the pool after a job panicked: the graph counts as finished,
    /// so every worker leaves as soon as its current node is done.
    fn abort(&self) {
        self.finished.store(self.n, Ordering::Release);
        let _g = self.park.lock().expect("park lock poisoned");
        self.cond.notify_all();
    }

    /// Parks the calling worker until new work may exist.
    fn park(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
        let mut g = self.park.lock().expect("park lock poisoned");
        loop {
            if self.finished.load(Ordering::Acquire) >= self.n {
                break;
            }
            if self
                .deques
                .iter()
                .any(|d| !d.lock().expect("deque poisoned").is_empty())
            {
                break;
            }
            // Timed wait: a bounded backstop against any lost-wakeup
            // window between the deque re-check and the wait.
            let (guard, _timeout) = self
                .cond
                .wait_timeout(g, Duration::from_micros(200))
                .expect("park lock poisoned");
            g = guard;
        }
        drop(g);
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 8] {
            let (out, stats) = par_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
            assert!(stats.workers >= 1 && stats.utilization() <= 1.01);
            assert_eq!(stats.requested, workers.max(1));
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let (out, _) = par_map(&[] as &[u8], 8, |_, &x| x);
        assert!(out.is_empty());
        let (out, stats) = par_map(&[7u8], 8, |_, &x| x + 1);
        assert_eq!(out, vec![8]);
        assert_eq!(stats.workers, 1, "one item never needs more than one worker");
        assert_eq!(stats.requested, 8, "the request is still reported");
    }

    #[test]
    fn run_dag_respects_dependencies() {
        // Chain with a diamond: 0 ← 1 ← {2, 3} ← 4.
        let deps = vec![vec![], vec![0], vec![1], vec![1], vec![2, 3]];
        let clock = AtomicU64::new(0);
        for workers in [1, 2, 8] {
            let (stamps, _) = run_dag(5, &deps, workers, |_| {
                clock.fetch_add(1, Ordering::SeqCst)
            });
            for (i, ds) in deps.iter().enumerate() {
                for &d in ds {
                    assert!(
                        stamps[d] < stamps[i],
                        "workers={workers}: node {i} ran before its dependency {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_dag_sequential_is_lowest_index_topological() {
        let deps = vec![vec![2], vec![], vec![], vec![0, 1]];
        let order = Mutex::new(Vec::new());
        run_dag(4, &deps, 1, |i| order.lock().unwrap().push(i));
        // Ready sets evolve as {1,2} → pop 1 → {2} → pop 2 → {0} → {3}.
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 0, 3]);
        assert_eq!(topo_order(&deps), vec![1, 2, 0, 3]);
    }

    #[test]
    fn run_dag_rejects_a_cycle() {
        // A 0 ⇄ 1 cycle with 2 depending on both, and a self-edge on 1.
        for (deps, named) in [
            (
                vec![vec![1], vec![0], vec![0, 1]],
                "dependency cycle 0 -> 1 -> 0",
            ),
            (vec![vec![], vec![1]], "dependency cycle 1 -> 1"),
        ] {
            for workers in [1, 4] {
                let ran = AtomicUsize::new(0);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    run_dag(deps.len(), &deps, workers, |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    })
                }))
                .expect_err("a cyclic graph is rejected");
                let msg = caught
                    .downcast_ref::<String>()
                    .expect("a formatted message");
                assert!(msg.contains(named), "workers={workers}: {msg}");
                assert_eq!(
                    ran.load(Ordering::SeqCst),
                    0,
                    "workers={workers}: a job ran"
                );
            }
        }
    }

    #[test]
    fn busy_time_counts_jobs_not_parked_workers() {
        // A chain runs one job at a time, so three of four workers wait
        // throughout: job time over capacity is about a quarter.
        let deps: Vec<Vec<usize>> = (0..8usize)
            .map(|i| i.checked_sub(1).into_iter().collect())
            .collect();
        let (_, stats) = run_dag(8, &deps, 4, |_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(stats.workers, 4);
        assert!(stats.busy >= Duration::from_millis(16), "{stats:?}");
        assert!(stats.utilization() <= 0.5, "{}", stats.utilization());
    }

    #[test]
    fn run_dag_reraises_the_original_panic_payload() {
        let deps = vec![Vec::new(); 16];
        let caught = catch_unwind(|| {
            run_dag(16, &deps, 2, |i| {
                assert!(i != 7, "boom-7");
                i
            })
        })
        .expect_err("the job at node 7 panics");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom-7"));
    }

    #[test]
    fn work_stealing_attributes_steals() {
        // A wide independent graph with slow jobs: with several workers
        // the seeded round-robin spread means most nodes run un-stolen,
        // but the counter must stay coherent (0 ≤ steals ≤ n).
        let deps = vec![Vec::new(); 64];
        let (_, stats) = run_dag(64, &deps, 4, |_| {
            std::thread::yield_now();
        });
        assert!(stats.steals <= 64);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn plan_workers_policy() {
        // Explicit sequential stays sequential, whatever the work.
        assert_eq!(plan_workers(1, u64::MAX, false), 1);
        assert_eq!(plan_workers(0, u64::MAX, false), 1);
        // Forcing bypasses every cap, including host CPUs.
        assert_eq!(plan_workers(8, 0, true), 8);
        // Tiny work never fans out.
        assert_eq!(plan_workers(8, 0, false), 1);
        let planned = plan_workers(8, u64::MAX, false);
        if host_cpus() == 1 {
            assert_eq!(planned, 1, "a 1-CPU host always runs inline");
        } else {
            assert!(planned >= 2 && planned <= host_cpus().min(8));
        }
    }

    #[test]
    fn with_stack_returns_and_reraises() {
        assert_eq!(with_stack(|| 6 * 7), 42);
        let caught = catch_unwind(|| with_stack(|| std::panic::panic_any("deep"))).unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"deep"));
    }

    #[test]
    fn with_stack_in_a_job_runs_on_the_jobs_own_thread() {
        let caller = std::thread::current().id();
        let deps = vec![Vec::new(); 4];
        for workers in [1, 2] {
            let (threads, _) = run_dag(4, &deps, workers, |_| {
                let job = std::thread::current().id();
                (job, with_stack(|| std::thread::current().id()))
            });
            for (job, inner) in threads {
                assert_eq!(job, inner, "workers={workers}: with_stack spawned a thread");
                assert_ne!(
                    job, caller,
                    "workers={workers}: a job ran on the caller's stack"
                );
            }
        }
    }

    #[test]
    fn topo_order_covers_every_node_once() {
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2], vec![3], vec![]];
        let order = topo_order(&deps);
        let mut seen = vec![false; deps.len()];
        let mut pos = vec![0usize; deps.len()];
        for (k, &i) in order.iter().enumerate() {
            assert!(!seen[i]);
            seen[i] = true;
            pos[i] = k;
        }
        assert!(seen.iter().all(|&b| b));
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(pos[d] < pos[i], "{d} must precede {i}");
            }
        }
    }
}
