//! A persistent execution pool: the caller works, helpers park between
//! runs.
//!
//! [`WorkerPool::run`] executes one borrowed `Fn(worker) + Sync` job on the
//! **calling thread plus up to `workers − 1` long-lived helper threads**
//! and returns when every invocation has returned. The miners and the
//! fork-join validator of `cc_core` run each block through one such pool
//! instead of creating and joining a fresh thread set per block.
//!
//! # The job's contract
//!
//! The pool decides how many invocations a run gets: `min(workers, items)`
//! at most, fewer if a helper thread could not be started, and **one — the
//! caller alone — when the pool is already busy** (a re-entrant run from
//! inside a job, or a second thread driving the same pool). A job must
//! therefore be correct at any worker count down to one: every invocation
//! keeps going until the run's work is finished or claimed by another
//! running invocation. Invocations receive distinct `worker` ids, `0` for
//! the caller.
//!
//! # Park / wake protocol
//!
//! All coordination state lives under one mutex. A run publishes the job
//! and a count of **unclaimed shares** under the lock, then signals the
//! `work` condvar once per share. A helper parks in the classic predicate
//! loop — `while unclaimed == 0 { wait }` — and claims a share by
//! decrementing the count under the same lock. No wake-up can be lost: a
//! helper either is inside `wait` when the signal is sent, or has not yet
//! evaluated the predicate and will see `unclaimed > 0` when it does.
//! There is no spinning and no timed wait; a helper between runs costs
//! nothing.
//!
//! When the caller's own invocation returns it withdraws the shares no
//! helper has claimed yet (by the job's contract nothing is left for them
//! to do, so the run does not wait for a slow wake-up), then waits on the
//! `done` condvar until the helpers that did claim have returned.
//!
//! # Panics
//!
//! Every invocation runs under `catch_unwind`. The first payload is kept,
//! the run still waits for every helper to return, and only then is the
//! panic re-raised on the caller. Helpers survive it: the pool runs the
//! next job normally.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// The erased form in which a run's job is lent to the helpers.
type Job = &'static (dyn Fn(usize) + Sync);

/// Snapshot of a pool's activity counters (see [`WorkerPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`WorkerPool::run`].
    pub runs: u64,
    /// Shares offered to helpers: one wake-up signal each. A run over `n`
    /// items on an idle pool adds exactly `min(workers, n) − 1`.
    pub helper_wakes: u64,
    /// Runs executed by the caller alone: one item or one worker, a busy
    /// pool, or no helper thread could be started.
    pub caller_only_runs: u64,
}

impl PoolStats {
    /// The activity between an earlier snapshot and this one (counters are
    /// monotone; saturates rather than underflows if snapshots are swapped).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            runs: self.runs.saturating_sub(earlier.runs),
            helper_wakes: self.helper_wakes.saturating_sub(earlier.helper_wakes),
            caller_only_runs: self
                .caller_only_runs
                .saturating_sub(earlier.caller_only_runs),
        }
    }
}

/// Pool-lifetime counters on relaxed atomics: statistics only, they
/// publish no other data.
#[derive(Debug, Default)]
struct StatCounters {
    runs: AtomicU64,
    helper_wakes: AtomicU64,
    caller_only_runs: AtomicU64,
}

/// Everything the caller and the helpers coordinate through.
#[derive(Default)]
struct State {
    /// The current run's job; `Some` exactly while `busy`.
    job: Option<Job>,
    /// Shares of the current run no helper has claimed yet.
    unclaimed: usize,
    /// Worker id handed to the next claimer (the caller is 0).
    next_worker: usize,
    /// Helpers currently inside the job.
    active: usize,
    /// A run is in progress; other runs degrade to caller-only.
    busy: bool,
    /// First panic payload of the current run's helpers.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; helpers exit.
    shutdown: bool,
    /// Helper threads started so far (lazily, never more than
    /// `workers − 1`).
    helpers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Helpers park here between runs.
    work: Condvar,
    /// The running caller parks here until `active == 0`.
    done: Condvar,
    stats: StatCounters,
}

impl Shared {
    /// Jobs run outside the lock and every update under it is a plain
    /// field store, so the state is valid even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size pool of parked helper threads that lends them to one job
/// at a time (see the [module docs](self)).
pub struct WorkerPool {
    workers: usize,
    shared: Arc<Shared>,
}

impl WorkerPool {
    /// A pool that runs jobs on up to `workers` threads, the caller
    /// included (clamped to at least 1). Starts no thread: helpers are
    /// created by the first run that can use them.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
            shared: Arc::new(Shared::default()),
        }
    }

    /// The most threads a run uses, the caller included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Activity counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        let stats = &self.shared.stats;
        PoolStats {
            runs: stats.runs.load(Ordering::Relaxed),
            helper_wakes: stats.helper_wakes.load(Ordering::Relaxed),
            caller_only_runs: stats.caller_only_runs.load(Ordering::Relaxed),
        }
    }

    /// Runs `job(worker)` on the calling thread (`worker == 0`) and on up
    /// to `min(workers, items) − 1` helpers, and returns when all of them
    /// have returned. `items` is how much independent work the run holds;
    /// a run over zero or one items never leaves the calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of any invocation, after every helper has
    /// returned.
    pub fn run<F>(&self, items: usize, job: F)
    where
        F: Fn(usize) + Sync,
    {
        let stats = &self.shared.stats;
        stats.runs.fetch_add(1, Ordering::Relaxed);
        let wanted = self.workers.min(items).saturating_sub(1);
        if wanted == 0 || !self.publish(wanted, &job) {
            stats.caller_only_runs.fetch_add(1, Ordering::Relaxed);
            job(0);
            return;
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        let theirs = self.retire();
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }

    /// Offers `wanted` shares of `job` to the helpers, starting threads as
    /// needed. Returns `false` — nothing published — if the pool is busy
    /// or has no helper to offer; after `true` the caller must `retire`.
    fn publish(&self, wanted: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let mut state = self.shared.lock();
        if state.busy {
            return false;
        }
        while state.helpers.len() < wanted {
            let shared = Arc::clone(&self.shared);
            let spawned = thread::Builder::new()
                .name(format!("cc-exec-{}", state.helpers.len() + 1))
                .spawn(move || helper_loop(&shared));
            match spawned {
                Ok(handle) => state.helpers.push(handle),
                // Fewer helpers, not a failed run: every job is correct
                // on the workers it gets.
                Err(_) => break,
            }
        }
        let shares = wanted.min(state.helpers.len());
        if shares == 0 {
            return false;
        }
        // SAFETY: the transmute only erases the borrow's lifetime. The
        // reference is reachable by other threads solely through
        // `state.job`, which a helper reads only while claiming a share
        // (`unclaimed > 0`, counted into `active` under the same lock).
        // `retire` — which `run` always reaches once this returns `true`,
        // the job's own panic being caught first — zeroes `unclaimed`,
        // waits for `active == 0` and clears `state.job` before `run`
        // returns or unwinds. So no helper holds or can obtain the
        // reference once the borrow ends: the argument of
        // `std::thread::scope`, with parked threads in place of joined
        // ones. `F: Sync` makes sharing `&F` across threads sound.
        #[allow(unsafe_code)]
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
        state.job = Some(job);
        state.busy = true;
        state.unclaimed = shares;
        state.next_worker = 1;
        drop(state);
        for _ in 0..shares {
            self.shared.work.notify_one();
        }
        self.shared
            .stats
            .helper_wakes
            .fetch_add(shares as u64, Ordering::Relaxed);
        true
    }

    /// Ends the run `publish` started: withdraws unclaimed shares, waits
    /// for the helpers inside the job, and returns their first panic.
    fn retire(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.shared.lock();
        state.unclaimed = 0;
        while state.active > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        state.busy = false;
        state.panic.take()
    }
}

/// The message of a caught panic (`catch_unwind` / `JoinHandle::join`
/// payload), for callers that turn a worker thread's panic into an error.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic>")
}

fn helper_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        while state.unclaimed == 0 && !state.shutdown {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.shutdown {
            return;
        }
        state.unclaimed -= 1;
        state.active += 1;
        let worker = state.next_worker;
        state.next_worker += 1;
        let job = state.job.expect("shares are published with their job");
        drop(state);

        let outcome = catch_unwind(AssertUnwindSafe(|| job(worker)));

        state = shared.lock();
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for WorkerPool {
    /// Stops and joins the helpers. No run can be in progress: `run`
    /// borrows the pool.
    fn drop(&mut self) {
        let helpers = {
            let mut state = self.shared.lock();
            state.shutdown = true;
            std::mem::take(&mut state.helpers)
        };
        self.shared.work.notify_all();
        for helper in helpers {
            // A helper only unwinds through a bug in this module; there
            // is nobody left to report it to.
            let _ = helper.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// A bound on things that must happen promptly; tripping it fails the
    /// test (nothing in the pool falls back on a timeout).
    const PROMPTLY: Duration = Duration::from_secs(60);

    /// Runs `body` on its own thread and fails if it has not finished
    /// `PROMPTLY` — a lost wake-up shows as a hang, not as a wrong value.
    fn within_bound<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let _ = tx.send(body());
        });
        let out = rx
            .recv_timeout(PROMPTLY)
            .expect("the pool run did not finish: a wake-up was lost");
        runner.join().expect("runner thread");
        out
    }

    fn helper_count(pool: &WorkerPool) -> usize {
        pool.shared.lock().helpers.len()
    }

    /// The executors' shape: invocations claim indices until none are left.
    fn claim_all(pool: &WorkerPool, n: usize, seen: &[AtomicUsize]) {
        let next = AtomicUsize::new(0);
        pool.run(n, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            seen[i].fetch_add(1, Ordering::Relaxed);
        });
    }

    #[test]
    fn one_worker_starts_no_thread() {
        let pool = WorkerPool::new(1);
        let seen: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        claim_all(&pool, 50, &seen);
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(helper_count(&pool), 0);
        assert_eq!(
            pool.stats(),
            PoolStats {
                runs: 1,
                helper_wakes: 0,
                caller_only_runs: 1
            }
        );
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn a_run_wakes_min_workers_items_minus_one_helpers() {
        let pool = WorkerPool::new(4);
        assert_eq!(helper_count(&pool), 0, "helpers start on first use");
        for (items, wakes) in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 3), (100, 3)] {
            let before = pool.stats();
            let invocations = AtomicUsize::new(0);
            // Every share must be claimed here: no invocation returns
            // before all expected ones have arrived.
            let arrived = Barrier::new(wakes + 1);
            pool.run(items, |_| {
                invocations.fetch_add(1, Ordering::Relaxed);
                arrived.wait();
            });
            let delta = pool.stats().since(&before);
            assert_eq!(delta.runs, 1);
            assert_eq!(delta.helper_wakes, wakes as u64, "{items} items");
            assert_eq!(delta.caller_only_runs, u64::from(wakes == 0));
            assert_eq!(invocations.load(Ordering::Relaxed), wakes + 1);
        }
        assert_eq!(helper_count(&pool), 3, "never more than workers - 1");
    }

    #[test]
    fn worker_ids_are_distinct_and_the_caller_is_zero() {
        let pool = WorkerPool::new(3);
        let caller = thread::current().id();
        let ids = Mutex::new(Vec::new());
        let arrived = Barrier::new(3);
        pool.run(3, |worker| {
            ids.lock().unwrap().push(worker);
            assert_eq!(worker == 0, thread::current().id() == caller);
            arrived.wait();
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn back_to_back_tiny_runs_lose_no_item_and_no_wakeup() {
        const RUNS: usize = 100_000;
        within_bound(|| {
            let pool = WorkerPool::new(3);
            let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let all_three = Barrier::new(3);
            for run in 0..RUNS {
                if run % 8 == 0 {
                    // A free run returns without the helpers if the caller
                    // drains the items first, which would hide a lost
                    // wake-up; this one cannot return until both woke.
                    pool.run(4, |_| {
                        all_three.wait();
                    });
                }
                claim_all(&pool, 4, &seen);
            }
            for count in &seen {
                assert_eq!(count.load(Ordering::Relaxed), RUNS);
            }
            let stats = pool.stats();
            let runs = (RUNS + RUNS / 8) as u64;
            assert_eq!(stats.runs, runs);
            assert_eq!(stats.helper_wakes, 2 * runs);
            assert_eq!(stats.caller_only_runs, 0);
        });
    }

    #[test]
    fn every_claimed_share_finishes_before_run_returns() {
        // The soundness condition, observed: a helper still inside the
        // job holds the run open.
        within_bound(|| {
            let pool = WorkerPool::new(2);
            for _ in 0..1_000 {
                let helper_done = AtomicBool::new(false);
                let helper_in = Barrier::new(2);
                pool.run(2, |worker| {
                    helper_in.wait();
                    if worker != 0 {
                        thread::yield_now();
                        helper_done.store(true, Ordering::SeqCst);
                    }
                });
                assert!(helper_done.load(Ordering::SeqCst));
            }
        });
    }

    #[test]
    fn a_panic_in_either_share_reaches_the_caller_and_the_pool_survives() {
        within_bound(|| {
            let pool = WorkerPool::new(3);
            for panicking_worker in [0usize, 1] {
                let others_finished = AtomicUsize::new(0);
                let arrived = Barrier::new(3);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(3, |worker| {
                        arrived.wait();
                        if worker == panicking_worker {
                            panic!("share {worker} failed");
                        }
                        others_finished.fetch_add(1, Ordering::SeqCst);
                    });
                }));
                let payload = outcome.expect_err("the panic is re-raised on the caller");
                assert_eq!(
                    panic_message(payload.as_ref()),
                    format!("share {panicking_worker} failed")
                );
                assert_eq!(
                    others_finished.load(Ordering::SeqCst),
                    2,
                    "the run waited for the other shares"
                );
            }
            // Same helpers, next job: nothing is poisoned.
            assert_eq!(helper_count(&pool), 2);
            let seen: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            claim_all(&pool, 64, &seen);
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn a_busy_pool_degrades_to_caller_only() {
        within_bound(|| {
            let pool = WorkerPool::new(2);

            // Re-entrant: a job that runs the pool it is running on.
            let inner_invocations = AtomicUsize::new(0);
            let before = pool.stats();
            pool.run(2, |worker| {
                if worker == 0 {
                    pool.run(2, |_| {
                        inner_invocations.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(inner_invocations.load(Ordering::Relaxed), 1);
            let delta = pool.stats().since(&before);
            assert_eq!((delta.runs, delta.caller_only_runs), (2, 1));

            // Concurrent: two OS threads drive one pool; the barrier
            // holds the first run open until the second has run inside it.
            let second_ran = Barrier::new(2);
            let before = pool.stats();
            thread::scope(|s| {
                s.spawn(|| {
                    pool.run(2, |worker| {
                        if worker == 0 {
                            second_ran.wait();
                        }
                    });
                });
                s.spawn(|| {
                    // Wait until the first run holds the pool.
                    while !pool.shared.lock().busy {
                        thread::yield_now();
                    }
                    let invocations = AtomicUsize::new(0);
                    pool.run(2, |_| {
                        invocations.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(invocations.load(Ordering::Relaxed), 1);
                    second_ran.wait();
                });
            });
            let delta = pool.stats().since(&before);
            assert_eq!((delta.runs, delta.caller_only_runs), (2, 1));
        });
    }

    #[test]
    fn two_threads_hammering_one_pool_both_finish() {
        within_bound(|| {
            let pool = WorkerPool::new(3);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let seen: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
                        for _ in 0..5_000 {
                            claim_all(&pool, 8, &seen);
                        }
                        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 5_000));
                    });
                }
            });
            assert_eq!(pool.stats().runs, 10_000);
        });
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        within_bound(|| {
            let pool = WorkerPool::new(4);
            let arrived = Barrier::new(4);
            pool.run(4, |_| {
                arrived.wait();
            });
            assert_eq!(helper_count(&pool), 3);
            // Helpers hold the only other references to the shared state;
            // after the joining drop this one is unique.
            let shared = Arc::clone(&pool.shared);
            drop(pool);
            assert_eq!(Arc::strong_count(&shared), 1);
        });
    }
}
