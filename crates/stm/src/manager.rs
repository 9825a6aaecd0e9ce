//! The sharded abstract-lock manager.
//!
//! A single [`LockManager`] is shared by all speculative transactions of a
//! miner. It implements:
//!
//! * blocking acquisition with mode compatibility (exclusive vs. additive),
//! * lock upgrades (additive → exclusive) for a sole holder,
//! * deadlock detection on the wait-for graph, resolved by aborting the
//!   requesting transaction (the paper: "deadlocks are detected and
//!   resolved by aborting one execution"), which then waits on the lock it
//!   lost on,
//! * update mode for a lock whose upgrade deadlocked (see "Wakeup
//!   protocol"),
//! * per-lock **use counters** incremented by committing transactions,
//!   which is the raw material for the published lock profiles.
//!
//! # Scalability architecture
//!
//! The paper's whole speedup claim rests on transactions that take
//! *disjoint* abstract locks proceeding in parallel, so the manager's fast
//! path must not serialize them. The lock table is therefore split into
//! [`LockManager::DEFAULT_SHARDS`] independent **stripes**, each guarded by
//! its own mutex. A `LockId` already consists of two FNV-64 hashes, so
//! stripe selection is a multiply-mix and mask — no extra hashing. Within a
//! stripe the table is keyed through [`cc_primitives::fx::FxHasher`], which
//! folds the pre-hashed key in a couple of arithmetic instructions instead
//! of SipHash's full pass. Counters ([`LockStats`]) are relaxed atomics
//! touched outside every critical section.
//!
//! ## Wakeup protocol
//!
//! Blocking is **targeted**: a blocked transaction parks on its own
//! `WaitNode` registered with the lock entry it is waiting for, and a
//! release wakes *only that lock's* waiters (there is no global condition
//! variable, no periodic poll and no `notify_all` thundering herd). Woken
//! waiters re-contend under the stripe mutex — barging is allowed, i.e. a
//! newly arriving transaction may win the lock ahead of an already-queued
//! waiter. This trades strict FIFO fairness for a shorter hot path.
//!
//! A deadlock victim waits on the lock it lost, not on a timer: after its
//! abort has released everything, [`LockManager::await_release`] parks it
//! on that lock's entry, exactly like a blocked acquirer, until the entry's
//! holder set changes. It holds nothing, so it publishes no wait-for edge.
//!
//! **Update mode.** Once a shared → exclusive (or additive → exclusive)
//! upgrade on a lock has deadlocked, every later *new* holder of that lock
//! in the block is granted it `Exclusive`. Otherwise the victim's retry,
//! and every later reader-then-writer, takes the shared lock again and
//! re-enters the same deadlock. The transaction still records the mode it
//! requested, so its published profile states what it needed: readers of
//! an update-mode lock publish `Shared` and stay unordered among
//! themselves. The mark lives on the lock entry and is cleared by
//! [`LockManager::reset_counters`] at the next block start.
//!
//! ## Cross-shard deadlock detection
//!
//! The wait-for graph spans stripes, so it lives in a small dedicated
//! **wait registry** guarded by one mutex — touched *only* on the slow
//! (blocking) path, never on grant or release. Before parking, a
//! transaction snapshots the current holders of the contested lock (it
//! holds the stripe mutex, so the snapshot is consistent), then — under the
//! registry mutex, atomically with the cycle check — publishes the edge
//! `requester → holders`. A cycle means blocking would deadlock, and the
//! requester aborts ([`StmError::Deadlock`]).
//!
//! Snapshots are refreshed every time a waiter wakes and fails to acquire,
//! and the manager wakes a lock's waiters whenever its **holder set
//! changes** — on release *and* when a new holder is granted alongside
//! waiters (the additive-mode case). Together these guarantee a cycle
//! formed *after* a transaction parked is still observed by whichever
//! transaction adds the closing edge; a stale snapshot can at worst cause a
//! spurious victim (a conservative abort, which the retry layer absorbs),
//! never a missed deadlock that wedges the miner. A coarse fallback timeout
//! (`WAIT_FALLBACK`) backstops the protocol: a waiter that somehow sleeps
//! through a wakeup re-evaluates from scratch. Every such timer wake is
//! counted in [`LockStats::fallback_wakes`], so a lost wakeup shows as a
//! nonzero count instead of hiding behind the timer.

use crate::error::StmError;
use crate::lock::{LockId, LockMode};
use crate::txn::TxnId;
use cc_primitives::fx::{FxHashMap, FxHashSet};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fallback re-check interval for parked waiters. Wakeups are targeted and
/// explicit, so this fires only if a wakeup was lost (a bug) or a deadlock
/// snapshot went stale in the narrow unsynchronized window; it bounds how
/// long either condition can persist without reintroducing a hot poll.
const WAIT_FALLBACK: Duration = Duration::from_millis(50);

/// Snapshot of lock-manager activity, used by the miner's statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Number of successful acquisitions (including re-entrant ones).
    pub acquisitions: u64,
    /// Number of times a transaction had to block waiting for a lock.
    pub waits: u64,
    /// Number of deadlocks detected (each aborts the requester).
    pub deadlocks: u64,
    /// Number of targeted waiter wakeups issued by grants and releases.
    pub wakeups: u64,
    /// Number of parked waiters woken by the `WAIT_FALLBACK` timer rather
    /// than by a targeted wakeup. A waiter whose wait outlasts the timer
    /// counts here too, but with prompt releases any nonzero value is a
    /// lost wakeup.
    pub fallback_wakes: u64,
    /// Number of stripes the lock table is sharded into (configuration,
    /// not a counter; reported so stats consumers can normalize).
    pub shards: u64,
}

impl LockStats {
    /// The activity between an earlier snapshot and this one (counters are
    /// monotone; saturates rather than underflows if snapshots are swapped).
    pub fn since(&self, earlier: &LockStats) -> LockStats {
        LockStats {
            acquisitions: self.acquisitions.saturating_sub(earlier.acquisitions),
            waits: self.waits.saturating_sub(earlier.waits),
            deadlocks: self.deadlocks.saturating_sub(earlier.deadlocks),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            fallback_wakes: self.fallback_wakes.saturating_sub(earlier.fallback_wakes),
            shards: self.shards,
        }
    }
}

/// Manager-lifetime activity counters, updated with relaxed atomics so the
/// fast path never serializes on statistics.
#[derive(Debug, Default)]
struct StatCounters {
    acquisitions: AtomicU64,
    waits: AtomicU64,
    deadlocks: AtomicU64,
    wakeups: AtomicU64,
    fallback_wakes: AtomicU64,
}

/// One parked waiter: a private flag + condvar pair the releaser flips.
///
/// The flag is checked and set under the node's own mutex, so a wakeup
/// issued between "queue the node" and "park on it" is never lost.
#[derive(Debug, Default)]
struct WaitNode {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl WaitNode {
    /// Parks until notified or the fallback interval elapses; returns
    /// whether it was notified (`false`: the timer, or a spurious wakeup,
    /// woke it).
    fn park(&self) -> bool {
        let mut ready = self.ready.lock();
        if !*ready {
            self.cv.wait_for(&mut ready, WAIT_FALLBACK);
        }
        *ready
    }

    /// Flips the flag and wakes the parked owner.
    fn notify(&self) {
        let mut ready = self.ready.lock();
        *ready = true;
        self.cv.notify_one();
    }
}

#[derive(Debug, Default)]
struct LockEntry {
    /// Current holders and the mode each holds the lock in. Holder sets
    /// are almost always tiny (usually one), so a flat vector beats a
    /// hash map on both lookup and iteration.
    holders: Vec<(TxnId, LockMode)>,
    /// Number of times a committing transaction has released this lock
    /// since the manager was last reset (i.e. since the block started).
    use_counter: u64,
    /// Wait nodes of transactions currently parked on this lock. Drained
    /// wholesale whenever the holder set changes.
    waiters: Vec<Arc<WaitNode>>,
    /// An upgrade on this lock has deadlocked this block: new holders take
    /// it `Exclusive` (update mode; see the module docs).
    update_mode: bool,
}

impl LockEntry {
    /// Grants the lock to `txn` in `mode` if currently grantable, in one
    /// pass over the holder set. Returns `Some(newly)` on success (`newly`
    /// = `txn` was not a holder before) and `None` when the request must
    /// wait. The empty-holders case — the entire fast path of an
    /// uncontended acquisition, shared reads included — is decided on the
    /// first branch. In update mode a new holder is granted `Exclusive`;
    /// a re-entrant request keeps its own mode.
    fn try_grant(&mut self, txn: TxnId, mode: LockMode) -> Option<bool> {
        let new_mode = if self.update_mode {
            LockMode::Exclusive
        } else {
            mode
        };
        if self.holders.is_empty() {
            self.holders.push((txn, new_mode));
            return Some(true);
        }
        let mut ours: Option<usize> = None;
        let mut others_compatible = true;
        for (i, &(t, m)) in self.holders.iter().enumerate() {
            if t == txn {
                ours = Some(i);
            } else if !m.compatible(new_mode) {
                others_compatible = false;
            }
        }
        match ours {
            Some(i) => {
                // Re-entrant request: same or weaker mode is trivially
                // fine; an upgrade is possible only for the sole holder.
                let held = self.holders[i].1;
                if held.strongest(mode) == held {
                    Some(false)
                } else if self.holders.len() == 1 {
                    self.holders[i].1 = held.strongest(mode);
                    Some(false)
                } else {
                    None
                }
            }
            // New holder: every current holder must be compatible.
            None if others_compatible => {
                self.holders.push((txn, new_mode));
                Some(true)
            }
            None => None,
        }
    }

    /// Removes `txn` from the holder set; returns whether it was a holder.
    fn remove_holder(&mut self, txn: TxnId) -> bool {
        match self.holders.iter().position(|&(t, _)| t == txn) {
            Some(pos) => {
                self.holders.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Drops a specific wait node (used after a fallback-timeout wake; a
    /// notified node has already been drained by the waker).
    fn remove_waiter(&mut self, node: &Arc<WaitNode>) {
        self.waiters.retain(|w| !Arc::ptr_eq(w, node));
    }

    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

/// One stripe of the lock table.
#[derive(Debug, Default)]
struct Shard {
    locks: Mutex<FxHashMap<LockId, LockEntry>>,
}

/// A blocked transaction's published wait edge: the holders of the lock it
/// parked on, snapshotted under the stripe mutex at park time (and
/// refreshed on every wake that fails to acquire).
#[derive(Debug)]
struct BlockedOn {
    holders: Vec<TxnId>,
}

/// The cross-shard wait-for registry. Touched only on the slow path.
#[derive(Debug, Default)]
struct WaitRegistry {
    blocked: FxHashMap<TxnId, BlockedOn>,
}

impl WaitRegistry {
    /// Would `requester` waiting on `first_holders` close a cycle? Walks
    /// holder → (what that holder is blocked on) → holder edges over the
    /// published snapshots.
    fn would_deadlock(&self, requester: TxnId, first_holders: &[TxnId]) -> bool {
        let mut stack: Vec<TxnId> = first_holders.to_vec();
        let mut visited: FxHashSet<TxnId> = FxHashSet::default();
        while let Some(t) = stack.pop() {
            if t == requester {
                return true;
            }
            if !visited.insert(t) {
                continue;
            }
            if let Some(blocked) = self.blocked.get(&t) {
                stack.extend(blocked.holders.iter().copied());
            }
        }
        false
    }
}

/// The shared, sharded abstract-lock manager.
///
/// Cheap to share: a fixed array of mutex-protected stripes plus a slow-path
/// wait registry. Fast-path critical sections are constant work under one
/// stripe mutex; transactions over disjoint locks touch disjoint stripes
/// and never serialize.
#[derive(Debug)]
pub struct LockManager {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; stripe count is always a power of two.
    mask: u64,
    registry: Mutex<WaitRegistry>,
    stats: StatCounters,
    /// Per-block serial-order counter: every commit claims the next value
    /// with one `fetch_add` (no mutex, no shared `Vec`), and the claimed
    /// value is published as [`crate::CommitProfile::sequence`]. Reset by
    /// [`LockManager::reset_counters`] at block boundaries.
    commit_seq: AtomicU64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl LockManager {
    /// Default number of stripes. Enough that the paper-scale thread
    /// counts (and well beyond) rarely collide on a stripe mutex, small
    /// enough that whole-table sweeps (`reset_counters`) stay cheap.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates an empty lock manager with [`LockManager::DEFAULT_SHARDS`]
    /// stripes and all counters at zero.
    pub fn new() -> Self {
        LockManager::with_shards(LockManager::DEFAULT_SHARDS)
    }

    /// Creates a manager with `shards` stripes, rounded up to the next
    /// power of two (minimum 1). `with_shards(1)` reproduces the old
    /// single-mutex behaviour and is what the contention benchmarks use as
    /// their "unsharded" arm.
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        LockManager {
            shards: (0..count).map(|_| Shard::default()).collect(),
            mask: (count - 1) as u64,
            registry: Mutex::new(WaitRegistry::default()),
            stats: StatCounters::default(),
            commit_seq: AtomicU64::new(0),
        }
    }

    /// Claims the next commit-sequence number. Called once per committing
    /// transaction; the returned values order commits within the block.
    pub(crate) fn next_commit_seq(&self) -> u64 {
        self.commit_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of stripes the lock table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stripe index for a lock: the high bits (best mixed by the multiply)
    /// of the mix the `LockId` computed once at construction. No hashing
    /// happens here at all.
    fn shard_index(&self, lock: LockId) -> usize {
        ((lock.mix() >> 32) & self.mask) as usize
    }

    fn shard(&self, lock: LockId) -> &Shard {
        &self.shards[self.shard_index(lock)]
    }

    /// Issues targeted wakeups for a drained waiter list.
    fn notify_waiters(&self, waiters: Vec<Arc<WaitNode>>) {
        if waiters.is_empty() {
            return;
        }
        self.stats
            .wakeups
            .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        for node in waiters {
            node.notify();
        }
    }

    /// Acquires `lock` in `mode` on behalf of `txn`, blocking while an
    /// incompatible holder exists.
    ///
    /// Returns `Ok(true)` if this call actually acquired (or upgraded) the
    /// lock and `Ok(false)` if the transaction already held it in a
    /// sufficient mode (the caller uses this to know whether to register
    /// the lock for later release).
    ///
    /// # Errors
    ///
    /// Returns [`StmError::Deadlock`] if blocking would create a cycle in
    /// the wait-for graph; the caller is expected to abort and retry.
    pub fn acquire(&self, txn: TxnId, lock: LockId, mode: LockMode) -> Result<bool, StmError> {
        let shard = self.shard(lock);
        let mut state = shard.locks.lock();
        let mut parked = false;
        loop {
            let entry = state.entry(lock).or_default();
            if let Some(newly) = entry.try_grant(txn, mode) {
                // A new holder changes the holder set concurrent waiters
                // snapshotted for deadlock detection; wake them so they
                // refresh (see module docs). Upgrades keep the holder set.
                let wake = if newly && !entry.waiters.is_empty() {
                    std::mem::take(&mut entry.waiters)
                } else {
                    Vec::new()
                };
                self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
                if parked {
                    self.registry.lock().blocked.remove(&txn);
                }
                drop(state);
                self.notify_waiters(wake);
                return Ok(newly);
            }

            // Slow path: snapshot the holders blocking us (excluding
            // ourselves — the upgrade-wait case), then atomically check
            // for a cycle and publish our wait edge.
            let holders: Vec<TxnId> = entry
                .holders
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t != txn)
                .collect();
            {
                let mut registry = self.registry.lock();
                if registry.would_deadlock(txn, &holders) {
                    registry.blocked.remove(&txn);
                    drop(registry);
                    // The requester already holds the lock: an upgrade
                    // deadlocked, so the lock goes to update mode.
                    entry.update_mode |= entry.holders.iter().any(|&(t, _)| t == txn);
                    self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                    return Err(StmError::Deadlock { victim: txn, lock });
                }
                registry.blocked.insert(txn, BlockedOn { holders });
            }
            parked = true;
            self.park(lock, state);
            state = shard.locks.lock();
        }
    }

    /// Parks the caller until the holder set of `lock` changes; returns at
    /// once if nobody holds it.
    ///
    /// A deadlock victim calls this after its abort released everything it
    /// held, with the lock it lost on: it waits for the transaction it lost
    /// to instead of re-running straight back into the same cycle. Holding
    /// nothing, it publishes no wait-for edge and can close no cycle.
    pub fn await_release(&self, lock: LockId) {
        let state = self.shard(lock).locks.lock();
        if state.get(&lock).is_some_and(|e| !e.holders.is_empty()) {
            self.park(lock, state);
        }
    }

    /// Counts a wait, queues a wait node on `lock`'s entry, releases the
    /// stripe mutex and parks. A notified node was already drained by the
    /// waker; after a fallback-timer wake the node is still queued, so it
    /// is removed and the wake counted.
    fn park(&self, lock: LockId, mut state: MutexGuard<'_, FxHashMap<LockId, LockEntry>>) {
        self.stats.waits.fetch_add(1, Ordering::Relaxed);
        let node = Arc::new(WaitNode::default());
        let entry = state.entry(lock).or_default();
        entry.waiters.push(Arc::clone(&node));
        drop(state);
        if !node.park() {
            self.stats.fallback_wakes.fetch_add(1, Ordering::Relaxed);
            if let Some(entry) = self.shard(lock).locks.lock().get_mut(&lock) {
                entry.remove_waiter(&node);
            }
        }
    }

    /// Releases one lock under its stripe mutex; returns the post-release
    /// use counter (0 on an abort release) and collects targeted wakeups.
    fn release_one(
        &self,
        txn: TxnId,
        lock: LockId,
        commit: bool,
        wake: &mut Vec<Arc<WaitNode>>,
    ) -> u64 {
        let mut state = self.shard(lock).locks.lock();
        let mut counter = 0;
        if let Some(entry) = state.get_mut(&lock) {
            let removed = entry.remove_holder(txn);
            if commit {
                entry.use_counter += 1;
                counter = entry.use_counter;
            }
            if removed && !entry.waiters.is_empty() {
                // Targeted wakeup: only this lock's waiters.
                wake.append(&mut entry.waiters);
            }
        }
        counter
    }

    /// Releases the lock of every entry on behalf of a **committing**
    /// transaction, writing each lock's incremented use counter into the
    /// entry in place. This is the commit hot path: no intermediate
    /// collections are allocated — the caller's profile entries are the
    /// only buffer, and locks are released in held order, one constant-work
    /// stripe critical section each.
    pub fn release_commit_entries(&self, txn: TxnId, entries: &mut [crate::ProfileEntry]) {
        let mut wake: Vec<Arc<WaitNode>> = Vec::new();
        for entry in entries.iter_mut() {
            entry.counter = self.release_one(txn, entry.lock, true, &mut wake);
        }
        self.notify_waiters(wake);
    }

    /// Releases every lock in `locks` on behalf of a **committing**
    /// transaction: each lock's use counter is incremented and the new
    /// counter value returned (in the same order as the input).
    pub fn release_commit(&self, txn: TxnId, locks: &[LockId]) -> Vec<u64> {
        let mut wake: Vec<Arc<WaitNode>> = Vec::new();
        let counters = locks
            .iter()
            .map(|&lock| self.release_one(txn, lock, true, &mut wake))
            .collect();
        self.notify_waiters(wake);
        counters
    }

    /// Releases every lock in `locks` on behalf of an **aborting**
    /// transaction; use counters are not incremented.
    pub fn release_abort(&self, txn: TxnId, locks: &[LockId]) {
        let mut wake: Vec<Arc<WaitNode>> = Vec::new();
        for &lock in locks {
            self.release_one(txn, lock, false, &mut wake);
        }
        self.notify_waiters(wake);
    }

    /// Resets all use counters and update-mode marks and forgets idle
    /// locks. The miner calls this when it starts assembling a new block
    /// (paper §4: "When a miner starts a block, it sets these counters to
    /// zero").
    pub fn reset_counters(&self) {
        self.commit_seq.store(0, Ordering::Relaxed);
        for shard in self.shards.iter() {
            let mut state = shard.locks.lock();
            state.retain(|_, entry| !entry.is_idle());
            for entry in state.values_mut() {
                entry.use_counter = 0;
                entry.update_mode = false;
            }
        }
    }

    /// Returns activity statistics accumulated since creation.
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.stats.acquisitions.load(Ordering::Relaxed),
            waits: self.stats.waits.load(Ordering::Relaxed),
            deadlocks: self.stats.deadlocks.load(Ordering::Relaxed),
            wakeups: self.stats.wakeups.load(Ordering::Relaxed),
            fallback_wakes: self.stats.fallback_wakes.load(Ordering::Relaxed),
            shards: self.shards.len() as u64,
        }
    }

    /// Current use counter of a lock (0 if never committed through).
    pub fn use_counter(&self, lock: LockId) -> u64 {
        self.shard(lock)
            .locks
            .lock()
            .get(&lock)
            .map(|e| e.use_counter)
            .unwrap_or(0)
    }

    /// Number of locks currently held by anyone (for tests/diagnostics).
    pub fn held_lock_count(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .locks
                    .lock()
                    .values()
                    .filter(|e| !e.holders.is_empty())
                    .count()
            })
            .sum()
    }

    /// Number of transactions currently parked in the wait registry
    /// (diagnostics; 0 whenever the manager is quiescent).
    pub fn blocked_count(&self) -> usize {
        self.registry.lock().blocked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;
    use std::sync::Arc;
    use std::thread;

    fn lock(name: &str, key: u64) -> LockId {
        LockSpace::new(name).lock_for(&key)
    }

    #[test]
    fn exclusive_then_reentrant() {
        let m = LockManager::new();
        let l = lock("m", 1);
        assert!(m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap());
        // Re-entrant acquisition by the same transaction is not "new".
        assert!(!m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap());
        assert_eq!(m.held_lock_count(), 1);
        m.release_commit(TxnId(1), &[l]);
        assert_eq!(m.held_lock_count(), 0);
    }

    #[test]
    fn additive_holders_share() {
        let m = LockManager::new();
        let l = lock("votes", 3);
        assert!(m.acquire(TxnId(1), l, LockMode::Additive).unwrap());
        assert!(m.acquire(TxnId(2), l, LockMode::Additive).unwrap());
        assert_eq!(m.held_lock_count(), 1);
        m.release_commit(TxnId(1), &[l]);
        m.release_commit(TxnId(2), &[l]);
        assert_eq!(m.use_counter(l), 2);
    }

    #[test]
    fn shared_holders_share_while_writer_is_excluded() {
        // Two shared readers of the same lock never block each other; a
        // writer requesting the same lock exclusively blocks until *both*
        // readers release. This is the concurrency claim of Shared mode,
        // proven with real threads: the readers park on a barrier while
        // both hold the lock, so if shared acquisition blocked, the test
        // would deadlock (and the harness time out) rather than pass.
        let m = Arc::new(LockManager::new());
        let l = lock("shared", 7);
        let both_reading = Arc::new(std::sync::Barrier::new(2));
        let readers: Vec<_> = (1..=2)
            .map(|t| {
                let m = Arc::clone(&m);
                let both_reading = Arc::clone(&both_reading);
                thread::spawn(move || {
                    m.acquire(TxnId(t), l, LockMode::Shared).unwrap();
                    // Rendezvous while both hold the lock: proves neither
                    // reader waited for the other.
                    both_reading.wait();
                    m.release_commit(TxnId(t), &[l]);
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(m.stats().waits, 0, "shared readers never block");

        // Now a reader holds the lock; a writer must wait for it.
        m.acquire(TxnId(3), l, LockMode::Shared).unwrap();
        let m2 = Arc::clone(&m);
        let writer = thread::spawn(move || {
            m2.acquire(TxnId(4), l, LockMode::Exclusive).unwrap();
            m2.release_commit(TxnId(4), &[l]);
        });
        while m.stats().waits == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        m.release_commit(TxnId(3), &[l]);
        writer.join().unwrap();
        assert_eq!(m.held_lock_count(), 0);
    }

    #[test]
    fn shared_conflicts_with_additive() {
        // A shared reader and an additive adder must not hold the lock
        // simultaneously (a read does not commute with an increment).
        let m = Arc::new(LockManager::new());
        let l = lock("shared-vs-add", 0);
        m.acquire(TxnId(1), l, LockMode::Shared).unwrap();
        let m2 = Arc::clone(&m);
        let adder = thread::spawn(move || {
            m2.acquire(TxnId(2), l, LockMode::Additive).unwrap();
            m2.release_commit(TxnId(2), &[l])
        });
        while m.stats().waits == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let counters = m.release_commit(TxnId(1), &[l]);
        assert_eq!(counters, vec![1]);
        assert_eq!(adder.join().unwrap(), vec![2], "adder ordered after reader");
    }

    #[test]
    fn sole_shared_holder_upgrades_to_exclusive() {
        let m = LockManager::new();
        let l = lock("upgrade-shared", 0);
        assert!(m.acquire(TxnId(1), l, LockMode::Shared).unwrap());
        // Sole holder: the upgrade is granted in place (not a new hold).
        assert!(!m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap());
        // The lock is now exclusive: a second shared request must wait.
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        let reader = thread::spawn(move || {
            m2.acquire(TxnId(2), l, LockMode::Shared).unwrap();
            m2.release_commit(TxnId(2), &[l])
        });
        while m.stats().waits == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        m.release_commit(TxnId(1), &[l]);
        assert_eq!(reader.join().unwrap(), vec![2]);
    }

    #[test]
    fn competing_shared_upgrades_abort_one() {
        // Two shared holders of the same lock both request an upgrade:
        // each must wait for the other to release, a cycle the deadlock
        // detector must break by aborting one of them.
        let m = Arc::new(LockManager::new());
        let l = lock("upgrade-race", 0);
        m.acquire(TxnId(1), l, LockMode::Shared).unwrap();
        m.acquire(TxnId(2), l, LockMode::Shared).unwrap();

        let m1 = Arc::clone(&m);
        let t1 = thread::spawn(move || {
            let r = m1.acquire(TxnId(1), l, LockMode::Exclusive);
            if r.is_ok() {
                m1.release_commit(TxnId(1), &[l]);
            } else {
                m1.release_abort(TxnId(1), &[l]);
            }
            r
        });
        thread::sleep(Duration::from_millis(10));
        let r2 = m.acquire(TxnId(2), l, LockMode::Exclusive);
        if r2.is_ok() {
            m.release_commit(TxnId(2), &[l]);
        } else {
            m.release_abort(TxnId(2), &[l]);
        }
        let r1 = t1.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "one upgrade must be chosen as deadlock victim"
        );
        assert_eq!(m.held_lock_count(), 0);
        assert_eq!(m.blocked_count(), 0);
    }

    #[test]
    fn upgrade_sole_holder() {
        let m = LockManager::new();
        let l = lock("bid", 0);
        m.acquire(TxnId(1), l, LockMode::Additive).unwrap();
        // Sole holder can upgrade.
        assert!(!m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap());
        // Another additive request must now wait; we only verify it would
        // not be granted immediately by checking in a thread with a commit
        // unblocking it.
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || m2.acquire(TxnId(2), l, LockMode::Additive).unwrap());
        thread::sleep(Duration::from_millis(20));
        m.release_commit(TxnId(1), &[l]);
        assert!(t.join().unwrap());
    }

    #[test]
    fn exclusive_blocks_until_commit() {
        let m = Arc::new(LockManager::new());
        let l = lock("voter", 42);
        m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap();

        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.acquire(TxnId(2), l, LockMode::Exclusive).unwrap();
            m2.release_commit(TxnId(2), &[l])
        });

        thread::sleep(Duration::from_millis(20));
        let counters = m.release_commit(TxnId(1), &[l]);
        assert_eq!(counters, vec![1]);
        let counters2 = waiter.join().unwrap();
        // The second committer sees the next counter value, establishing
        // the happens-before edge T1 -> T2.
        assert_eq!(counters2, vec![2]);
    }

    /// Runs a two-transaction lock-order-inversion scenario over `(la, lb)`
    /// under a watchdog: if deadlock detection ever regresses, the
    /// scenario threads would re-park forever, so the driver fails the
    /// test after a timeout instead of wedging the whole test binary.
    fn assert_deadlock_resolved(m: Arc<LockManager>, la: LockId, lb: LockId) {
        let (done, outcome) = std::sync::mpsc::channel();
        let driver = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                m.acquire(TxnId(1), la, LockMode::Exclusive).unwrap();
                m.acquire(TxnId(2), lb, LockMode::Exclusive).unwrap();

                // T1 blocks on b (held by T2).
                let m1 = Arc::clone(&m);
                let t1 = thread::spawn(move || {
                    let r = m1.acquire(TxnId(1), lb, LockMode::Exclusive);
                    if r.is_ok() {
                        m1.release_commit(TxnId(1), &[la, lb]);
                    } else {
                        m1.release_abort(TxnId(1), &[la]);
                    }
                    r
                });
                thread::sleep(Duration::from_millis(20));
                // T2 requests a (held by T1): cycle. One of the two must
                // abort. Release T2's locks *before* joining: if T2 was the
                // victim, T1 is still blocked on lock b and only makes
                // progress once T2 gives it up.
                let r2 = m.acquire(TxnId(2), la, LockMode::Exclusive);
                if r2.is_ok() {
                    m.release_commit(TxnId(2), &[la, lb]);
                } else {
                    m.release_abort(TxnId(2), &[lb]);
                }
                let r1 = t1.join().unwrap();
                let _ = done.send((r1, r2));
            })
        };
        let (r1, r2) = outcome
            .recv_timeout(Duration::from_secs(20))
            .expect("deadlock went undetected: scenario threads are wedged");
        driver.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one transaction must be chosen as deadlock victim"
        );
        let err = r1.err().or_else(|| r2.err()).expect("one side failed");
        assert!(err.is_retryable());
        assert!(m.stats().deadlocks >= 1);
        assert_eq!(m.held_lock_count(), 0);
        assert_eq!(m.blocked_count(), 0, "registry drains after resolution");
    }

    #[test]
    fn deadlock_detected_and_victim_aborted() {
        let m = Arc::new(LockManager::new());
        assert_deadlock_resolved(m, lock("a", 0), lock("b", 0));
    }

    #[test]
    fn cross_shard_deadlock_detected() {
        // Force the two locks of the cycle onto *different* stripes so the
        // wait-for walk must span shards.
        let m = Arc::new(LockManager::new());
        let la = lock("cross", 0);
        let lb = (1u64..)
            .map(|k| lock("cross", k))
            .find(|&l| m.shard_index(l) != m.shard_index(la))
            .expect("some key lands on another stripe");
        assert_ne!(m.shard_index(la), m.shard_index(lb));
        assert_deadlock_resolved(m, la, lb);
    }

    #[test]
    fn same_shard_deadlock_detected() {
        // The complementary case: both locks of the cycle on one stripe.
        let m = Arc::new(LockManager::new());
        let la = lock("samestripe", 0);
        let lb = (1u64..)
            .map(|k| lock("samestripe", k))
            .find(|&l| m.shard_index(l) == m.shard_index(la))
            .expect("some key lands on the same stripe");
        assert_deadlock_resolved(m, la, lb);
    }

    #[test]
    fn single_shard_manager_still_correct() {
        let m = LockManager::with_shards(1);
        assert_eq!(m.shard_count(), 1);
        let a = lock("one", 1);
        let b = lock("one", 2);
        m.acquire(TxnId(1), a, LockMode::Exclusive).unwrap();
        m.acquire(TxnId(1), b, LockMode::Exclusive).unwrap();
        assert_eq!(m.release_commit(TxnId(1), &[a, b]), vec![1, 1]);
        assert_eq!(m.held_lock_count(), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(LockManager::with_shards(0).shard_count(), 1);
        assert_eq!(LockManager::with_shards(3).shard_count(), 4);
        assert_eq!(LockManager::with_shards(16).shard_count(), 16);
        assert_eq!(
            LockManager::new().shard_count(),
            LockManager::DEFAULT_SHARDS
        );
        assert_eq!(LockManager::new().stats().shards, 16);
    }

    #[test]
    fn abort_does_not_increment_counter() {
        let m = LockManager::new();
        let l = lock("doc", 9);
        m.acquire(TxnId(5), l, LockMode::Exclusive).unwrap();
        m.release_abort(TxnId(5), &[l]);
        assert_eq!(m.use_counter(l), 0);
        m.acquire(TxnId(6), l, LockMode::Exclusive).unwrap();
        assert_eq!(m.release_commit(TxnId(6), &[l]), vec![1]);
    }

    #[test]
    fn reset_counters_clears_history() {
        let m = LockManager::new();
        let l = lock("doc", 1);
        m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap();
        m.release_commit(TxnId(1), &[l]);
        assert_eq!(m.use_counter(l), 1);
        m.reset_counters();
        assert_eq!(m.use_counter(l), 0);
    }

    #[test]
    fn stats_accumulate() {
        let m = LockManager::new();
        let l = lock("s", 0);
        m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap();
        m.release_commit(TxnId(1), &[l]);
        assert!(m.stats().acquisitions >= 1);
    }

    #[test]
    fn many_threads_distinct_locks_commit() {
        let m = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for i in 0..16u64 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                let l = lock("parallel", i);
                m.acquire(TxnId(i), l, LockMode::Exclusive).unwrap();
                let c = m.release_commit(TxnId(i), &[l]);
                assert_eq!(c, vec![1], "disjoint locks never contend");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.stats().waits, 0, "disjoint locks never block");
    }

    #[test]
    fn contended_lock_serializes_counters() {
        let m = Arc::new(LockManager::new());
        let l = lock("hot", 0);
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                loop {
                    match m.acquire(TxnId(i), l, LockMode::Exclusive) {
                        Ok(_) => break,
                        Err(_) => continue,
                    }
                }
                m.release_commit(TxnId(i), &[l])[0]
            }));
        }
        let mut counters: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        counters.sort_unstable();
        assert_eq!(counters, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn stress_use_counters_serialize_and_no_locks_leak() {
        // Many threads hammer a small hot set plus private locks, with a
        // mix of commits and aborts. Afterwards: every hot lock's use
        // counter equals the number of commits through it, nothing is
        // still held, and the wait registry is empty.
        const THREADS: u64 = 8;
        const OPS: u64 = 200;
        let m = Arc::new(LockManager::new());
        let hot: Vec<LockId> = (0..4u64).map(|k| lock("stress.hot", k)).collect();
        let commits = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            let hot = hot.clone();
            let commits = Arc::clone(&commits);
            handles.push(thread::spawn(move || {
                for op in 0..OPS {
                    let txn = TxnId(t * OPS + op + 1);
                    let h = hot[((t + op) % hot.len() as u64) as usize];
                    let private = lock("stress.private", t * OPS + op);
                    if m.acquire(txn, private, LockMode::Exclusive).is_err() {
                        continue;
                    }
                    match m.acquire(txn, h, LockMode::Exclusive) {
                        Ok(_) => {
                            if op % 5 == 0 {
                                m.release_abort(txn, &[private, h]);
                            } else {
                                m.release_commit(txn, &[private, h]);
                                commits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => m.release_abort(txn, &[private]),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let hot_total: u64 = hot.iter().map(|&l| m.use_counter(l)).sum();
        assert_eq!(
            hot_total,
            commits.load(Ordering::Relaxed),
            "every commit increments exactly one hot-lock use counter"
        );
        assert_eq!(m.held_lock_count(), 0, "no leaked locks");
        assert_eq!(m.blocked_count(), 0, "no leaked wait edges");
        let stats = m.stats();
        assert!(stats.acquisitions > 0);
    }

    #[test]
    fn waiters_are_woken_by_targeted_wakeups() {
        // The wakeups counter is incremented only on the targeted notify
        // path (a fallback-timer wake counts in `fallback_wakes` instead),
        // so observing it proves the release actually woke its waiter. No
        // wall-clock assertion: the single-core CI container schedules too
        // coarsely for latency bounds to be reliable.
        let m = Arc::new(LockManager::new());
        let l = lock("wake", 0);
        m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.acquire(TxnId(2), l, LockMode::Exclusive).unwrap();
            m2.release_commit(TxnId(2), &[l]);
        });
        // Only release once the waiter has actually parked, so the release
        // is guaranteed to take the notify path.
        while m.stats().waits == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        m.release_commit(TxnId(1), &[l]);
        waiter.join().unwrap();
        assert!(m.stats().wakeups >= 1);
        assert!(m.stats().waits >= 1);
        assert_eq!(m.stats().fallback_wakes, 0, "no wakeup was lost");
    }

    /// Polls until `m` has counted a wait beyond `before`, failing if
    /// `thread` finished without blocking.
    fn until_parked<T>(m: &LockManager, before: u64, thread: &thread::JoinHandle<T>) {
        while m.stats().waits == before {
            assert!(!thread.is_finished(), "the request did not wait");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Two shared holders of `l` both upgrade. T1 parks first, so T2's
    /// request closes the cycle: T2 is the victim, and T1 upgrades and
    /// commits. Leaves `l` free.
    fn upgrade_deadlock(m: &Arc<LockManager>, l: LockId) {
        m.acquire(TxnId(1), l, LockMode::Shared).unwrap();
        m.acquire(TxnId(2), l, LockMode::Shared).unwrap();
        let before = m.stats().waits;
        let m1 = Arc::clone(m);
        let t1 = thread::spawn(move || {
            m1.acquire(TxnId(1), l, LockMode::Exclusive).unwrap();
            m1.release_commit(TxnId(1), &[l]);
        });
        until_parked(m, before, &t1);
        let r2 = m.acquire(TxnId(2), l, LockMode::Exclusive);
        assert!(matches!(r2, Err(StmError::Deadlock { .. })), "{r2:?}");
        m.release_abort(TxnId(2), &[l]);
        t1.join().unwrap();
    }

    #[test]
    fn after_an_upgrade_deadlock_new_readers_exclude_each_other() {
        let m = Arc::new(LockManager::new());
        let l = lock("update-mode", 0);
        upgrade_deadlock(&m, l);
        // A fresh reader is granted the lock in update mode, so a second
        // fresh reader waits for it.
        m.acquire(TxnId(3), l, LockMode::Shared).unwrap();
        let before = m.stats().waits;
        let m4 = Arc::clone(&m);
        let reader = thread::spawn(move || {
            m4.acquire(TxnId(4), l, LockMode::Shared).unwrap();
            m4.release_commit(TxnId(4), &[l])
        });
        until_parked(&m, before, &reader);
        assert_eq!(m.release_commit(TxnId(3), &[l]), vec![2]);
        assert_eq!(reader.join().unwrap(), vec![3]);
        assert_eq!(m.stats().deadlocks, 1);
        assert_eq!(m.stats().fallback_wakes, 0);
    }

    #[test]
    fn a_lock_order_inversion_leaves_its_locks_shareable() {
        // The victim of an inversion did not hold the lock it requested,
        // so neither lock goes to update mode.
        let m = Arc::new(LockManager::new());
        let (la, lb) = (lock("inversion", 0), lock("inversion", 1));
        assert_deadlock_resolved(Arc::clone(&m), la, lb);
        let before = m.stats().waits;
        for l in [la, lb] {
            m.acquire(TxnId(3), l, LockMode::Shared).unwrap();
            m.acquire(TxnId(4), l, LockMode::Shared).unwrap();
        }
        assert_eq!(m.stats().waits, before, "readers share both locks");
        m.release_commit(TxnId(3), &[la, lb]);
        m.release_commit(TxnId(4), &[la, lb]);
        assert_eq!(m.stats().fallback_wakes, 0);
    }

    #[test]
    fn await_release_returns_once_the_holder_set_changes() {
        let m = Arc::new(LockManager::new());
        let l = lock("await", 0);
        // A lock never taken, and one taken and released: no wait.
        m.await_release(l);
        m.acquire(TxnId(1), l, LockMode::Exclusive).unwrap();
        m.release_commit(TxnId(1), &[l]);
        m.await_release(l);
        assert_eq!(m.stats().waits, 0);

        // A held lock: the caller parks until the holder commits, and as
        // it holds nothing it publishes no wait-for edge.
        m.acquire(TxnId(2), l, LockMode::Exclusive).unwrap();
        let m3 = Arc::clone(&m);
        let victim = thread::spawn(move || m3.await_release(l));
        until_parked(&m, 0, &victim);
        assert_eq!(m.blocked_count(), 0);
        m.release_commit(TxnId(2), &[l]);
        victim.join().unwrap();
        assert_eq!(m.stats().wakeups, 1);
        assert_eq!(m.stats().fallback_wakes, 0);
    }

    #[test]
    fn reset_counters_clears_update_mode() {
        let m = Arc::new(LockManager::new());
        let l = lock("update-mode-reset", 0);
        upgrade_deadlock(&m, l);
        m.reset_counters();
        let before = m.stats().waits;
        m.acquire(TxnId(3), l, LockMode::Shared).unwrap();
        m.acquire(TxnId(4), l, LockMode::Shared).unwrap();
        assert_eq!(m.stats().waits, before, "readers share again");
        m.release_commit(TxnId(3), &[l]);
        m.release_commit(TxnId(4), &[l]);
        assert_eq!(m.stats().fallback_wakes, 0);
    }
}
