//! Lock-manager contention harness: measures raw acquire/release
//! throughput of the STM's synchronization core (the one
//! [`LockManager`]) under configurable thread counts and key mixes.
//! `repro contention` prints the table and records it in the
//! `contention` section of `BENCH_BASELINE.json`: it is the lock
//! manager's only raw number.

use cc_stm::manager::LockManager;
use cc_stm::{LockId, LockMode, LockSpace, TxnId};
use std::fmt;
use std::time::Instant;

/// How the worker threads pick their abstract locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every thread works a private key range: no two transactions ever
    /// contend, which is the paper's best case and the workload sharding
    /// is supposed to make scale.
    Disjoint,
    /// All threads hammer one hot key in exclusive mode: maximal blocking,
    /// which exercises the waiter/wakeup path.
    Hot,
    /// All threads touch the same hot key, but 15 of every 16
    /// transactions only *read* it ([`cc_stm::LockMode::Shared`]) while
    /// the 16th writes it exclusively. The same access pattern as
    /// [`Mix::Hot`] — so the throughput delta between the two mixes is
    /// exactly what shared-mode read concurrency buys.
    ReadHeavy,
}

/// In the read-heavy mix, one transaction in this many is a writer.
pub const READ_HEAVY_WRITE_PERIOD: u64 = 16;

impl fmt::Display for Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mix::Disjoint => f.write_str("disjoint"),
            Mix::Hot => f.write_str("hot"),
            Mix::ReadHeavy => f.write_str("read-heavy"),
        }
    }
}

/// One measured configuration and its result.
#[derive(Debug, Clone, Copy)]
pub struct ContentionPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Key mix (disjoint / hot / read-heavy).
    pub mix: Mix,
    /// Committed lock transactions per second (each takes
    /// [`LOCKS_PER_TXN`] locks for the disjoint mix, one for hot and
    /// read-heavy).
    pub ops_per_sec: f64,
    /// Blocking waits per 1000 transactions during the measured run — the
    /// conflict-rate metric that is meaningful even on a single-core host
    /// (raw throughput cannot show lock concurrency without parallelism,
    /// but a reader that never blocks shows up here regardless).
    pub waits_per_1k: f64,
}

/// Abstract locks acquired per transaction in the disjoint mix (the hot
/// mix takes a single lock so that blocking, not deadlock retries, is
/// what gets measured).
pub const LOCKS_PER_TXN: usize = 4;

/// Distinct keys per thread in the disjoint mix; cycling through a pool
/// (rather than fresh keys every transaction) keeps the table at a steady
/// size like a real block does.
const KEY_POOL: u64 = 64;

fn run_workload(manager: &LockManager, threads: usize, ops_per_thread: usize, mix: Mix) {
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let space = LockSpace::new("contention");
            scope.spawn(move || {
                let mut locks: Vec<LockId> = Vec::with_capacity(LOCKS_PER_TXN);
                for op in 0..ops_per_thread as u64 {
                    let txn = TxnId(t * ops_per_thread as u64 + op + 1);
                    locks.clear();
                    let mut mode = LockMode::Exclusive;
                    match mix {
                        Mix::Disjoint => {
                            for j in 0..LOCKS_PER_TXN as u64 {
                                let key = t * KEY_POOL + ((op + j * 17) % KEY_POOL);
                                locks.push(space.lock_for(&key));
                            }
                        }
                        Mix::Hot => locks.push(space.lock_for(&0u64)),
                        Mix::ReadHeavy => {
                            locks.push(space.lock_for(&0u64));
                            if op % READ_HEAVY_WRITE_PERIOD != 0 {
                                mode = LockMode::Shared;
                            }
                        }
                    }
                    loop {
                        let mut acquired = 0;
                        for &lock in &locks {
                            if manager.acquire(txn, lock, mode).is_err() {
                                break;
                            }
                            acquired += 1;
                        }
                        if acquired == locks.len() {
                            break;
                        }
                        // Deadlock victim: give back exactly what was
                        // acquired (no use-counter increments) and retry,
                        // as the miner's worker loop would.
                        manager.release_abort(txn, &locks[..acquired]);
                    }
                    manager.release_commit(txn, &locks);
                }
            });
        }
    });
}

fn throughput(
    manager: &LockManager,
    threads: usize,
    ops_per_thread: usize,
    mix: Mix,
) -> (f64, f64) {
    // One warm-up pass populates the table and the allocator.
    run_workload(manager, threads, ops_per_thread.min(512), mix);
    let waits_before = manager.stats().waits;
    let start = Instant::now();
    run_workload(manager, threads, ops_per_thread, mix);
    let elapsed = start.elapsed().as_secs_f64();
    let txns = (threads * ops_per_thread) as f64;
    let waits = manager.stats().waits.saturating_sub(waits_before) as f64;
    (txns / elapsed, waits * 1000.0 / txns)
}

/// Measures one configuration, constructing a fresh manager per pass.
pub fn measure_contention(threads: usize, ops_per_thread: usize, mix: Mix) -> ContentionPoint {
    // Each pass only takes milliseconds, so a single scheduler hiccup can
    // halve a one-shot measurement. Run a few passes and report the best
    // one — anything below the best is interference, not the lock manager
    // (the same min-filtering rationale as the micro suite). Important on
    // the single-core CI container and for the committed `BENCH_*.json`
    // baselines that `repro diff` compares against.
    const PASSES: usize = 5;
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..PASSES {
        let sample = throughput(&LockManager::new(), threads, ops_per_thread, mix);
        best = match best {
            Some(current) if current.0 >= sample.0 => Some(current),
            _ => Some(sample),
        };
    }
    let (ops_per_sec, waits_per_1k) = best.expect("at least one pass runs");
    ContentionPoint {
        threads,
        mix,
        ops_per_sec,
        waits_per_1k,
    }
}

/// The thread counts the contention suite sweeps.
pub fn contention_threads() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_throughput_is_positive_for_all_backends() {
        let p = measure_contention(2, 200, Mix::Disjoint);
        assert!(p.ops_per_sec > 0.0, "the manager produced no throughput");
    }

    #[test]
    fn hot_mix_serializes_but_completes() {
        let p = measure_contention(4, 100, Mix::Hot);
        assert!(p.ops_per_sec > 0.0);
    }

    #[test]
    fn read_heavy_mix_completes_on_all_backends() {
        let p = measure_contention(4, 200, Mix::ReadHeavy);
        assert!(p.ops_per_sec > 0.0, "the manager produced no throughput");
    }
}
