//! A persistent host worker pool (std-only).
//!
//! The execution engine used to spawn fresh scoped OS threads for every
//! kernel launch. On the simulated-GPU hot path that is a thread creation
//! per MCTS iteration. [`WorkerPool`] replaces them: a fixed set of workers
//! is created once per device (or shared across devices) and serves
//! [`run_scoped`](WorkerPool::run_scoped) — synchronous fan-out where the
//! closure may borrow from the caller's stack (the blocks of
//! `execute_kernel`, the searchers' host tree phases).
//!
//! **Determinism.** The pool never decides *what* work is done, only *which
//! thread* does it: `execute_kernel` keys every block's result by block id
//! and folds in block order, so results are bit-identical for any pool size
//! (the same property the old scoped-thread fan-out had).
//!
//! **Deadlock freedom.** `run_scoped(participants, f)` always runs
//! participant 0 on the calling thread, so all work can complete even if no
//! worker ever picks up a queued participant job (e.g. every worker is busy
//! with another caller's fan-out on a shared pool). After its own share the
//! caller *cancels* any of its jobs still sitting unclaimed in the queue
//! and waits only for jobs a worker actually started — a bounded wait on
//! actively executing closures.
//!
//! **No lost wakeups.** Every state a waiter tests changes under the
//! waiter's mutex: the queue and the shutdown flag under the queue's
//! (workers), a scope's pending count under its own (callers). A worker
//! that found the queue empty and open therefore either sees the change or
//! is already parked when it is notified.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A scoped participant closure with its lifetime erased.
///
/// Safety: `run_scoped` guarantees the referent outlives every access — it
/// does not return until each queued job was either executed to completion
/// or removed from the queue unstarted.
struct ScopedFn(*const (dyn Fn(usize) + Sync + 'static));
unsafe impl Send for ScopedFn {}
unsafe impl Sync for ScopedFn {}

/// Shared bookkeeping of one `run_scoped` call.
struct ScopeState {
    run: ScopedFn,
    /// Participant jobs not yet finished (queued or executing).
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a participant, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Participant `index` of a scoped fan-out.
struct Job {
    scope: Arc<ScopeState>,
    index: usize,
}

/// What a waiting worker tests, under one mutex.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// A fixed-size pool of persistent worker threads.
///
/// Dropping the pool joins all workers. No job outlives its `run_scoped`
/// call, so the queue is empty by then.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (`0` is treated as 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpu-sim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of worker threads.
    #[inline]
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0), f(1), …, f(participants-1)` concurrently and returns when
    /// all calls have finished. `f(0)` runs on the calling thread; the rest
    /// are offered to the workers, so at most `participants` threads run `f`
    /// at any moment. `f` may borrow from the caller's stack.
    ///
    /// # Panics
    /// Re-raises the first panic any participant raised.
    pub fn run_scoped<F>(&self, participants: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if participants <= 1 {
            f(0);
            return;
        }
        let narrow: &(dyn Fn(usize) + Sync) = &f;
        // Erase the stack lifetime; see `ScopedFn` for the safety argument.
        let erased: &'static (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(narrow) };
        let scope = Arc::new(ScopeState {
            run: ScopedFn(erased as *const _),
            pending: Mutex::new(participants - 1),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for index in 1..participants {
                queue.jobs.push_back(Job {
                    scope: Arc::clone(&scope),
                    index,
                });
            }
        }
        self.shared.available.notify_all();

        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));

        // Cancel this scope's still-unclaimed jobs: a popped job is owned by
        // a worker, so whatever remains in the queue never started and can
        // be discarded (participant 0 plus the executing workers drain the
        // shared work source — for `map_indexed`, the index counter).
        let cancelled = {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            let before = queue.jobs.len();
            queue.jobs.retain(|job| !Arc::ptr_eq(&job.scope, &scope));
            before - queue.jobs.len()
        };
        {
            let mut pending = scope.pending.lock().expect("scope state poisoned");
            *pending -= cancelled;
            while *pending > 0 {
                pending = scope.done.wait(pending).expect("scope state poisoned");
            }
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        let participant_panic = scope.panic.lock().expect("scope state poisoned").take();
        if let Some(payload) = participant_panic {
            resume_unwind(payload);
        }
    }

    /// Applies `f` to every element of `items` on the pool and returns the
    /// results **in item order**, regardless of which worker ran which item.
    ///
    /// This is the deterministic fan-out primitive behind kernel launches
    /// and the searchers' pool-parallel host phases: each item (one block's
    /// slot, one search tree) is claimed by exactly one participant via an
    /// atomic counter, `f` gets exclusive `&mut` access to it, and the
    /// result lands in the slot of the item's index. Because outputs are
    /// keyed by index and the caller folds them in order, results are
    /// bit-identical for any pool size.
    ///
    /// Built on [`run_scoped`](Self::run_scoped), so it inherits its
    /// guarantees: the caller participates (no deadlock when all workers
    /// are busy), at most `min(size, items.len())` threads run `f`, and a
    /// panic in `f` is re-raised here. With one worker (or one item) the
    /// whole map runs inline on the calling thread.
    pub fn map_indexed<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        {
            let items = SendSlice(items.as_mut_ptr());
            let slots = SendSlice(out.as_mut_ptr());
            let next = std::sync::atomic::AtomicUsize::new(0);
            let participants = self.size().min(n);
            self.run_scoped(participants, |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Safety: the atomic counter hands out each index exactly
                // once, so no two participants touch the same element or
                // result slot, and `run_scoped` does not return before
                // every started participant finished.
                let item = unsafe { &mut *items.at(i) };
                let result = f(i, item);
                unsafe { *slots.at(i) = Some(result) };
            });
        }
        out.into_iter()
            .map(|slot| slot.expect("map_indexed: every index was claimed"))
            .collect()
    }
}

/// Raw pointer into a caller-owned slice, shareable across the scoped
/// participants. Safety: see `map_indexed` — indices are claimed uniquely.
struct SendSlice<T>(*mut T);
unsafe impl<T: Send> Send for SendSlice<T> {}
unsafe impl<T: Send> Sync for SendSlice<T> {}

impl<T> SendSlice<T> {
    /// Pointer to element `i`. Going through a method (rather than field
    /// access in the closure) makes the closure capture the whole `Sync`
    /// wrapper instead of the raw pointer field.
    fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Under the lock: a worker between its shutdown check and its wait
        // would otherwise miss the notification and sleep forever. Every
        // queue update leaves it valid, so a poisoned lock is still usable
        // (and `drop` must not panic).
        let locked = self.shared.queue.lock();
        locked.unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let Job { scope, index } = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        // SAFETY: `run_scoped` does not return before this claimed job
        // finishes, so the closure is alive (see `ScopedFn`).
        let run = unsafe { &*scope.run.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(index))) {
            let mut slot = scope.panic.lock().expect("scope state poisoned");
            slot.get_or_insert(payload);
        }
        let mut pending = scope.pending.lock().expect("scope state poisoned");
        *pending -= 1;
        if *pending == 0 {
            scope.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn scoped_fanout_runs_every_participant_work_item() {
        let pool = WorkerPool::new(4);
        let next = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        pool.run_scoped(4, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= 100 {
                break;
            }
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..100).sum());
    }

    #[test]
    fn single_participant_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        pool.run_scoped(1, |idx| {
            assert_eq!(idx, 0);
            assert_eq!(std::thread::current().id(), caller);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn completes_even_when_workers_are_busy() {
        // The only worker is held by another caller's fan-out (as
        // multi-node ranks share one pool): run_scoped must still finish
        // because the caller can do all the work itself.
        let pool = Arc::new(WorkerPool::new(1));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (started, on_worker) = mpsc::channel();
        let holder = {
            let (pool, gate) = (Arc::clone(&pool), Arc::clone(&gate));
            std::thread::spawn(move || {
                pool.run_scoped(2, |idx| {
                    if idx == 1 {
                        started.send(()).unwrap();
                    }
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                });
            })
        };
        on_worker.recv().unwrap();
        let done = AtomicUsize::new(0);
        pool.run_scoped(3, |_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        // Participants 1 and 2 were cancelled; participant 0 ran here.
        assert_eq!(done.load(Ordering::Relaxed), 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        holder.join().unwrap();
    }

    #[test]
    fn create_and_drop_never_hangs() {
        // Regression: `drop` once set the shutdown flag outside the queue
        // lock, so a worker between its check and its wait slept forever
        // and `join` hung. The watchdog turns a recurrence into a failure.
        let (done, finished) = mpsc::channel();
        let churn = std::thread::spawn(move || {
            for _ in 0..2_000 {
                drop(WorkerPool::new(2));
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("creating and dropping pools hung");
        churn.join().unwrap();
    }

    #[test]
    fn participant_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(2, |idx| {
                if idx == 1 {
                    panic!("participant exploded");
                }
                // Give the worker time to claim and run participant 1 so the
                // panic path (not the cancellation path) is exercised.
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must remain usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run_scoped(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn map_indexed_returns_results_in_item_order() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut items: Vec<usize> = (0..37).collect();
            let results = pool.map_indexed(&mut items, |i, item| {
                *item *= 2;
                i * 10
            });
            assert_eq!(results, (0..37).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(items, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indexed_gives_exclusive_mutable_access() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u64; 200];
        // Each item incremented exactly once even under contention.
        let results = pool.map_indexed(&mut items, |_, item| {
            *item += 1;
            *item
        });
        assert!(items.iter().all(|&v| v == 1));
        assert!(results.iter().all(|&v| v == 1));
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        let pool = WorkerPool::new(3);
        let mut empty: Vec<u8> = Vec::new();
        assert!(pool.map_indexed(&mut empty, |_, _| 0u8).is_empty());
        let mut one = vec![7u8];
        assert_eq!(pool.map_indexed(&mut one, |i, v| (i, *v)), vec![(0, 7)]);
    }

    #[test]
    fn map_indexed_panic_propagates() {
        let pool = WorkerPool::new(2);
        let mut items = vec![0u8; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(&mut items, |i, _| {
                if i == 3 {
                    panic!("item exploded");
                }
                i
            })
        }));
        assert!(result.is_err());
        // Pool stays usable.
        let mut items = vec![0u8; 4];
        let results = pool.map_indexed(&mut items, |i, _| i);
        assert_eq!(results, vec![0, 1, 2, 3]);
    }
}
