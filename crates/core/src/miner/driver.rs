//! What the two concurrent miners share: the block driver that spreads a
//! block's transactions over the execution pool, and schedule capture.

use crate::error::CoreError;
use crate::schedule::HappensBeforeGraph;
use cc_ledger::ScheduleMetadata;
use cc_primitives::pool::WorkerPool;
use cc_stm::{LockProfile, StmError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Outcome of one attempt to execute and commit a transaction.
pub(crate) enum Attempt<T> {
    /// Committed; `T` is what the miner publishes for it.
    Committed(T),
    /// A conflict victim (deadlock or failed validation), already rolled
    /// back: retried at once (a miner that wants a pause takes it before
    /// returning this), and the error the block fails with once the
    /// attempt budget is spent.
    Conflict(StmError),
    /// Not retryable: the block fails.
    Fatal(StmError),
}

/// Executes transactions `0..n` on `pool`: every worker claims the next
/// unexecuted index, retries it until it commits or `max_attempts` are
/// spent, and keeps its results locally until it runs out of indices.
/// Returns the committed values by transaction index, plus the number of
/// retries.
///
/// `worker_state` is called once per worker and its value handed to every
/// `attempt(state, index, attempt_number)` that worker makes. The first
/// failure dooms the block: other workers stop at their next attempt.
pub(crate) fn execute_block<S, T: Send>(
    pool: &WorkerPool,
    n: usize,
    max_attempts: u32,
    worker_state: impl Fn() -> S + Sync,
    attempt: impl Fn(&mut S, usize, u32) -> Attempt<T> + Sync,
) -> Result<(Vec<T>, u64), CoreError> {
    let next = AtomicUsize::new(0);
    let retries = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<CoreError>> = Mutex::new(None);
    // Each index is claimed by exactly one worker (the `next` counter), so
    // results need no per-slot synchronization: a worker publishes its
    // `(index, value)` pairs once, when it is done.
    let committed: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));

    pool.run(n, |_worker| {
        let mut state = worker_state();
        let mut local: Vec<(usize, T)> = Vec::new();
        'block: while !failed.load(Ordering::Acquire) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            let mut attempt_number = 0u32;
            // Another worker may fail the whole block while this one is
            // executing or pausing between attempts — don't keep retrying
            // a doomed block.
            while !failed.load(Ordering::Acquire) {
                attempt_number += 1;
                let source = match attempt(&mut state, index, attempt_number) {
                    Attempt::Committed(value) => {
                        local.push((index, value));
                        continue 'block;
                    }
                    Attempt::Conflict(source) => {
                        retries.fetch_add(1, Ordering::Relaxed);
                        if attempt_number < max_attempts {
                            continue;
                        }
                        source
                    }
                    Attempt::Fatal(source) => source,
                };
                failed.store(true, Ordering::Release);
                failure.lock().get_or_insert(CoreError::MiningFailed {
                    tx_index: index,
                    source,
                });
                break 'block;
            }
        }
        committed.lock().append(&mut local);
    });

    if let Some(err) = failure.into_inner() {
        return Err(err);
    }
    let mut committed = committed.into_inner();
    committed.sort_unstable_by_key(|&(index, _)| index);
    assert!(
        committed.iter().map(|&(index, _)| index).eq(0..n),
        "every transaction commits exactly once on success"
    );
    let values = committed.into_iter().map(|(_, value)| value).collect();
    Ok((values, retries.into_inner()))
}

/// Algorithm 1's tail: derive the happens-before graph from the committed
/// lock profiles and produce the equivalent serial order by topological
/// sort. The profiles move into the published metadata; nothing is cloned.
/// Returns the metadata (none when capture is off) with the graph's
/// critical path and edge count.
pub(crate) fn capture_schedule(
    capture: bool,
    profiles: Vec<LockProfile>,
) -> Result<(Option<ScheduleMetadata>, usize, usize), CoreError> {
    if !capture {
        return Ok((None, 0, 0));
    }
    let graph = HappensBeforeGraph::from_profiles(&profiles);
    let critical_path = graph.critical_path();
    let hb_edges = graph.edge_count();
    Ok((
        Some(graph.into_metadata(profiles)?),
        critical_path,
        hb_edges,
    ))
}
