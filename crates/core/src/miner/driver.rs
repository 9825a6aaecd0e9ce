//! The one mining driver: [`mine_on`] runs a block's transactions on the
//! execution pool with a strategy's per-transaction attempt
//! ([`execute_block`]), publishes the schedule and assembles the block.

use super::{mvcc, parallel};
use crate::engine::ExecutionStrategy;
use crate::error::CoreError;
use crate::schedule::HappensBeforeGraph;
use crate::stats::MinerStats;
use cc_ledger::{Transaction, WellFormedBlock};
use cc_primitives::hash::Hash256;
use cc_primitives::pool::WorkerPool;
use cc_stm::{LockProfile, StmError};
use cc_vm::{Receipt, World};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Outcome of one attempt to execute and commit a transaction.
pub(super) enum Attempt<T> {
    /// Committed; `T` is what the miner publishes for it.
    Committed(T),
    /// A conflict victim (deadlock or failed validation), already rolled
    /// back: retried at once (a miner that waits for its winner does so
    /// before returning this), and the error the block fails with once the
    /// attempt budget is spent.
    Conflict(StmError),
    /// Not retryable: the block fails.
    Fatal(StmError),
}

/// What a strategy's run of a block hands back to [`mine_on`].
pub(super) struct Executed {
    /// Receipts by transaction index.
    pub(super) receipts: Vec<Receipt>,
    /// The lock profile of every committed transaction, by index.
    pub(super) profiles: Vec<LockProfile>,
    /// Attempts that lost a conflict and ran again.
    pub(super) retries: u64,
    /// Commits that wrote nothing.
    pub(super) read_only: u64,
}

/// Mines `transactions` on `world` under `strategy`, on `pool`, as block
/// `number` on top of `parent_hash`.
///
/// The optimistic strategy runs the multi-version attempt, the
/// speculative one the pessimistic attempt; the serial baseline is the
/// latter on a one-worker pool: one transaction at a time, in block
/// order. Every strategy publishes Algorithm 1's tail — the happens-before graph of the
/// committed lock profiles and the serial order it sorts into; the
/// profiles move into the metadata, nothing is cloned.
///
/// The block comes back as a [`WellFormedBlock`]: its commitments were
/// computed by construction, and the chain appends it as it is.
///
/// # Errors
///
/// [`CoreError::MiningFailed`] when a transaction fails, or is still a
/// conflict victim once its attempts are spent; the other workers'
/// commits are already in the world by then.
pub(crate) fn mine_on(
    strategy: ExecutionStrategy,
    pool: &WorkerPool,
    world: &World,
    transactions: Vec<Transaction>,
    parent_hash: Hash256,
    number: u64,
) -> Result<(WellFormedBlock, MinerStats), CoreError> {
    let start = Instant::now();
    let locks_before = world.stm().lock_stats();
    let executed = match strategy {
        ExecutionStrategy::OptimisticMvcc => mvcc::execute(pool, world, &transactions)?,
        ExecutionStrategy::SpeculativeStm => parallel::execute(pool, world, &transactions)?,
    };
    let n = transactions.len();
    let graph = HappensBeforeGraph::from_profiles(&executed.profiles);
    let (critical_path, hb_edges) = (graph.critical_path(), graph.edge_count());
    let schedule = graph.into_metadata(executed.profiles)?;

    let elapsed = start.elapsed();
    let gas_used = executed.receipts.iter().map(|r| r.gas_used).sum();
    let block = WellFormedBlock::build(
        parent_hash,
        number,
        transactions,
        executed.receipts,
        world.state_root_on(pool),
        Some(schedule),
    );
    let stats = MinerStats {
        threads: pool.workers(),
        transactions: n,
        retries: executed.retries,
        elapsed,
        gas_used,
        critical_path,
        hb_edges,
        locks: world.stm().lock_stats().since(&locks_before),
        read_only: executed.read_only,
    };
    Ok((block, stats))
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
pub(super) fn execute_block<S, T: Send>(
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

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use cc_ledger::Transaction;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData, Receipt, World};
    use std::sync::Arc;

    fn counter_world() -> (World, Address) {
        let world = World::new();
        let addr = Address::from_name("counter-serial");
        world.deploy(Arc::new(CounterContract::new(addr)));
        (world, addr)
    }

    fn increment_tx(i: u64, to: Address) -> Transaction {
        Transaction::new(
            i,
            Address::from_index(i),
            to,
            CallData::new("increment", vec![ArgValue::Uint(1)]),
            1_000_000,
        )
    }

    #[test]
    fn mines_a_block_and_applies_state() {
        let (world, addr) = counter_world();
        let txs: Vec<Transaction> = (0..10).map(|i| increment_tx(i, addr)).collect();
        let mined = Engine::serial().mine(&world, txs).unwrap();
        assert_eq!(mined.block.len(), 10);
        assert!(mined.block.is_well_formed());
        assert_eq!(mined.block.header.state_root, world.state_root());
        assert_eq!(mined.stats.threads, 1);
        assert_eq!(mined.stats.transactions, 10);
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        // The graph of its lock profiles is published: ten senders' counts
        // and one additive total, so nothing is ordered.
        let schedule = mined.block.schedule.as_ref().unwrap();
        assert_eq!(schedule.profiles.len(), 10);
        assert_eq!((schedule.edges.len(), schedule.critical_path()), (0, 1));
    }

    #[test]
    fn empty_block() {
        let (world, _) = counter_world();
        let mined = Engine::serial().mine(&world, Vec::new()).unwrap();
        assert!(mined.block.is_empty());
        assert!(mined.block.is_well_formed());
    }

    #[test]
    fn mine_on_links_to_parent() {
        let (world, addr) = counter_world();
        let parent = cc_primitives::sha256(b"parent");
        let mined = Engine::serial()
            .mine_on(&world, vec![increment_tx(0, addr)], parent, 7)
            .unwrap();
        assert_eq!(mined.block.header.parent_hash, parent);
        assert_eq!(mined.block.header.number, 7);
        assert_eq!(mined.state_root(), world.state_root());
    }
}
