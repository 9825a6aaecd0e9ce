//! A deterministic fork-join executor for dependency DAGs.
//!
//! Paper Algorithm 2 turns the happens-before graph into a fork-join
//! program: each transaction becomes a task that joins on its immediate
//! predecessors before executing. This module provides the equivalent
//! executor on the persistent [`WorkerPool`]: it runs each task exactly
//! once, only after all of its predecessors have completed. The validator
//! is free to use any number of threads — the paper notes the validator
//! "is not required to match the miner's level of parallelism".
//!
//! Workers claim ready vertices themselves (the shape of Anjana et al.'s
//! validator): a worker that completes a task decrements its successors'
//! predecessor counts, **runs the first successor it enabled itself** and
//! publishes only the others to the shared ready queue. A worker with
//! nothing to run parks on the queue's condvar until a task is published
//! or the run ends — a dependency chain is executed by one worker without
//! a single hand-off, and nobody polls.
//!
//! The executor itself is generic over the task body, so it is also reused
//! by tests and the ablation benchmarks.

use crate::schedule::HappensBeforeGraph;
use cc_primitives::pool::WorkerPool;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `task(i)` for every `i in 0..graph.len()`, never running a task
/// before all of its happens-before predecessors have finished, using
/// `threads` worker threads: the executor below on a pool made for the
/// call, whose helpers are joined before this returns.
///
/// Tasks with no ordering constraint run concurrently; the wall-clock
/// lower bound is therefore the critical path of the graph, exactly as in
/// a fork-join program built per Algorithm 2.
///
/// The `task` closure is called exactly once per index. If a task panics
/// the run stops — no further task is started — and the panic is re-raised
/// here once every worker has stopped.
pub fn run_fork_join<F>(graph: &HappensBeforeGraph, threads: usize, task: F)
where
    F: Fn(usize) + Sync,
{
    run_fork_join_on(&WorkerPool::new(threads), graph, task);
}

/// [`run_fork_join`] on a pool the caller keeps (the validator's: the
/// engine's one pool). After a task's panic the pool stays usable.
pub(crate) fn run_fork_join_on<F>(pool: &WorkerPool, graph: &HappensBeforeGraph, task: F)
where
    F: Fn(usize) + Sync,
{
    let n = graph.len();
    if n == 0 {
        return;
    }
    // Remaining-predecessor counters; a task becomes ready when its
    // counter reaches zero.
    let pending: Vec<AtomicUsize> = (0..n)
        .map(|i| AtomicUsize::new(graph.pred_count(i)))
        .collect();
    let run = Run {
        ready: Mutex::new(Ready {
            queue: (0..n).filter(|&i| graph.pred_count(i) == 0).collect(),
            parked: 0,
        }),
        wake: Condvar::new(),
        remaining: AtomicUsize::new(n),
        stop: AtomicBool::new(false),
    };

    pool.run(n, |_worker| {
        // If `task` unwinds, end the run for everyone before the pool
        // carries the panic to the caller.
        let _stop_on_unwind = StopOnUnwind(&run);
        let mut next = run.take_ready();
        while let Some(i) = next.take() {
            task(i);
            // The first successor this completion enables stays with this
            // worker; the others go to the queue.
            for succ in graph.successors(i) {
                if pending[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                    match next {
                        None => next = Some(succ),
                        Some(_) => run.publish(succ),
                    }
                }
            }
            if run.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                run.stop();
            }
            if run.stop.load(Ordering::Acquire) {
                return;
            }
            if next.is_none() {
                next = run.take_ready();
            }
        }
    });
}

/// Tasks whose predecessors have all completed and that no worker has
/// taken yet, plus how many workers are parked waiting for one.
struct Ready {
    queue: VecDeque<usize>,
    parked: usize,
}

/// The shared state of one fork-join run.
struct Run {
    ready: Mutex<Ready>,
    /// Parked workers wait here for a published task or the end of the run.
    wake: Condvar,
    /// Tasks not yet completed.
    remaining: AtomicUsize,
    /// The run is over: every task completed, or one panicked. Written
    /// under `ready`'s lock so a worker about to park cannot miss it.
    stop: AtomicBool,
}

impl Run {
    /// The next ready task, parking until there is one; `None` once the
    /// run is over.
    fn take_ready(&self) -> Option<usize> {
        let mut ready = self.ready.lock();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(i) = ready.queue.pop_front() {
                return Some(i);
            }
            ready.parked += 1;
            self.wake.wait(&mut ready);
            ready.parked -= 1;
        }
    }

    /// Makes `i` available to the other workers, waking one if any is
    /// parked.
    fn publish(&self, i: usize) {
        let someone_parked = {
            let mut ready = self.ready.lock();
            ready.queue.push_back(i);
            ready.parked > 0
        };
        if someone_parked {
            self.wake.notify_one();
        }
    }

    /// Ends the run and releases every parked worker.
    fn stop(&self) {
        let _ready = self.ready.lock();
        self.stop.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

struct StopOnUnwind<'a>(&'a Run);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    fn chain(n: usize) -> HappensBeforeGraph {
        HappensBeforeGraph::from_edges(n, (1..n).map(|i| (i - 1, i)))
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let g = HappensBeforeGraph::new(100);
        let counts: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_fork_join(&g, 4, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chain_preserves_order() {
        let g = chain(50);
        let log = Mutex::new(Vec::new());
        run_fork_join(&g, 4, |i| {
            log.lock().push(i);
        });
        assert_eq!(*log.lock(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_dependencies_respected() {
        // 0 -> {1, 2} -> 3
        let g = HappensBeforeGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        for _ in 0..20 {
            let log = Mutex::new(Vec::new());
            run_fork_join(&g, 3, |i| {
                log.lock().push(i);
            });
            let order = log.lock().clone();
            let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
            assert_eq!(pos(0), 0);
            assert_eq!(pos(3), 3);
        }
    }

    #[test]
    fn random_dag_respects_all_edges() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60;
        let mut edges = Vec::new();
        for b in 1..n {
            for a in 0..b {
                if rng.gen_bool(0.08) {
                    edges.push((a, b));
                }
            }
        }
        let g = HappensBeforeGraph::from_edges(n, edges);
        let log = Mutex::new(Vec::new());
        run_fork_join(&g, 5, |i| {
            log.lock().push(i);
        });
        let order = log.lock().clone();
        assert_eq!(order.iter().copied().collect::<HashSet<_>>().len(), n);
        let pos: Vec<usize> = {
            let mut p = vec![0; n];
            for (idx, &v) in order.iter().enumerate() {
                p[v] = idx;
            }
            p
        };
        for (a, b) in g.edges() {
            assert!(pos[a] < pos[b], "edge ({a},{b}) violated");
        }
    }

    #[test]
    fn single_thread_equals_topological_execution() {
        let g = chain(10);
        let log = Mutex::new(Vec::new());
        run_fork_join(&g, 1, |i| log.lock().push(i));
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = HappensBeforeGraph::new(0);
        run_fork_join(&g, 3, |_| panic!("no tasks expected"));
    }

    #[test]
    fn a_panicking_task_stops_the_run_and_reaches_the_caller() {
        // An 8-chain on 2 threads with a panic at index 3. The run happens
        // on a thread of its own so that a hang (what the per-block thread
        // set did: the survivors polled for a completion that never came)
        // fails the test instead of wedging it.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ran = Mutex::new(Vec::new());
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_fork_join(&chain(8), 2, |i| {
                    assert_ne!(i, 3, "task 3 fails");
                    ran.lock().push(i);
                });
            }));
            let _ = done.send((result.is_err(), ran.into_inner()));
        });
        let (panicked, ran) = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a panicking task must end the run, not hang it");
        assert!(panicked, "the panic is re-raised on the caller");
        assert_eq!(ran, vec![0, 1, 2], "nothing after the failed task starts");
    }

    #[test]
    fn the_pool_runs_the_next_graph_correctly_after_a_panic() {
        let pool = WorkerPool::new(3);
        // Wide graph: 0 fans out to 1..=12, so the other workers are
        // running or parked inside the executor when task 5 fails.
        let fan = HappensBeforeGraph::from_edges(13, (1..13).map(|i| (0, i)));
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_fork_join_on(&pool, &fan, |i| assert_ne!(i, 5, "task 5 fails"));
        }));
        assert!(result.is_err());

        // The same pool, the same helpers: a diamond-heavy graph still
        // runs every task exactly once and in dependency order.
        let edges = (0..40).flat_map(|i| [(i, i + 1), (i, i + 2)]);
        let g = HappensBeforeGraph::from_edges(42, edges);
        for _ in 0..50 {
            let log = Mutex::new(Vec::new());
            run_fork_join_on(&pool, &g, |i| log.lock().push(i));
            let order = log.into_inner();
            assert_eq!(order.iter().copied().collect::<HashSet<_>>().len(), 42);
            let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
            for (a, b) in g.edges() {
                assert!(pos(a) < pos(b), "edge ({a},{b}) violated");
            }
        }
        assert_eq!(pool.stats().runs, 51);
    }

    #[test]
    fn a_chain_is_run_by_one_worker_without_handoffs() {
        // Each completion enables exactly one successor, which stays with
        // the worker that enabled it: whoever takes the root runs it all.
        let g = chain(200);
        let workers = Mutex::new(HashSet::new());
        run_fork_join(&g, 4, |_| {
            workers.lock().insert(std::thread::current().id());
        });
        assert_eq!(workers.into_inner().len(), 1);
    }
}
