//! The pool's threads are long-lived: the process has as many after the
//! thousandth block as after the first.
//!
//! A test binary of its own with a single test — the count is read from
//! `/proc/self/status`, so no other test may start or stop threads while
//! it runs.

#![cfg(target_os = "linux")]

use cc_primitives::pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

/// One "block": 16 items claimed off a shared counter, as the miners do.
fn run_block(pool: &WorkerPool) {
    let next = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    pool.run(16, |_| {
        while next.fetch_add(1, Ordering::Relaxed) < 16 {
            executed.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(executed.load(Ordering::Relaxed), 16);
}

#[test]
fn pool_thread_count_is_the_same_after_block_1_and_block_1000() {
    let before = process_threads();
    let pool = WorkerPool::new(3);
    assert_eq!(process_threads(), before, "a new pool starts no thread");

    run_block(&pool);
    let after_first = process_threads();
    assert_eq!(after_first, before + 2, "workers - 1 helpers, started once");

    for _ in 1..1_000 {
        run_block(&pool);
    }
    assert_eq!(process_threads(), after_first);

    // `join` returns when a thread has exited, which can be a moment
    // before the kernel takes it off the process's books.
    drop(pool);
    let deadline = Instant::now() + Duration::from_secs(10);
    while process_threads() != before {
        assert!(
            Instant::now() < deadline,
            "dropping the pool joins its helpers"
        );
        std::thread::yield_now();
    }
}
