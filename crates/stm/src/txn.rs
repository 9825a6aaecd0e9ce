//! Speculative transactions: undo logs, nested actions, savepoints and
//! commit/abort. There is one kind: every transaction acquires the
//! abstract locks of what it touches. Validators replay blocks as
//! multi-version transactions (`cc_mvcc`), whose footprint is the trace
//! they compare against the published lock profiles.

use crate::error::StmError;
use crate::lock::{LockId, LockMode};
use crate::manager::{LockManager, LockStats};
use crate::profile::{CommitProfile, LockProfile, ProfileEntry};
use crate::retry;
use cc_primitives::fx::FxHashMap;
use cc_primitives::small::InlineVec;
use std::any::Any;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runtime identifier of one transaction *attempt*. Retrying an aborted
/// transaction produces a fresh id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// A typed undo sink: the per-collection half of the undo log.
///
/// Each boosted collection registers **one** erased sink per transaction
/// (keyed by the collection's storage pointer) and pushes `(key, prior
/// value)` entries into it **by move** via
/// [`Transaction::log_undo_typed`]. The transaction only remembers, per
/// logged operation, *which* sink owns the next entry to reverse — so the
/// common mutation path performs no boxed-closure allocation at all (the
/// one `Box` per collection per transaction is amortized across all of
/// that collection's operations).
///
/// Inverse operations run while the transaction replays its log (abort,
/// savepoint rollback, nested-action failure); they must restore the
/// collection's backing storage directly and must **not** log further
/// undo entries or otherwise re-enter the transaction. A collection
/// reaches its own sink's typed entries by upcasting to [`Any`].
pub trait UndoSink: Any + Send {
    /// Reverses this sink's most recently recorded entry.
    fn undo_last(&mut self);
    /// Discards all recorded entries while keeping the sink's allocation,
    /// so a recycled transaction arena reuses the sink (and its capacity)
    /// instead of re-boxing one per collection per transaction.
    fn reset(&mut self);
}

/// The transaction's undo log: typed sinks plus the global entry order.
#[derive(Default)]
struct UndoLog {
    /// For each logged operation (oldest first), the index into `sinks`
    /// of the sink holding its entry. Replayed in reverse.
    order: InlineVec<u32, 16>,
    /// One sink per collection touched by this transaction.
    sinks: Vec<Box<dyn UndoSink>>,
    /// sink token (collection storage address) → index into `sinks`.
    index: FxHashMap<usize, u32>,
    /// One-slot cache of the most recently used `(token, sink index)`:
    /// contract transactions overwhelmingly log consecutive entries into
    /// the same collection, so the common mutation skips the `index` map.
    last: Option<(usize, u32)>,
}

impl UndoLog {
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Empties the log while **keeping** the typed sinks, their token
    /// index and all their capacity. Used by the commit path and by
    /// recycled transaction arenas: within a block the same collections
    /// are touched over and over, and a retained sink's token stays valid
    /// because the sink's own `Arc` on the backing storage keeps that
    /// address from ever being reused by a different collection.
    fn reset(&mut self) {
        self.order.clear();
        self.last = None;
        for sink in self.sinks.iter_mut() {
            sink.reset();
        }
    }

    /// Appends one entry to the sink identified by `token`, creating the
    /// sink via `init` on first use (see [`Transaction::log_undo_typed`]).
    ///
    /// `record` returns whether it actually pushed an entry; the global
    /// order slot is appended only then, so conditional inverses (e.g. a
    /// remove of an absent key) stay perfectly aligned with their sinks.
    fn record<S: UndoSink>(
        &mut self,
        token: usize,
        init: impl FnOnce() -> S,
        record: impl FnOnce(&mut S) -> bool,
    ) {
        let idx = match self.last {
            Some((t, idx)) if t == token => idx,
            _ => {
                let idx = match self.index.get(&token) {
                    Some(&idx) => idx,
                    None => {
                        // Invariant: one sink per distinct collection a
                        // transaction wrote, far below 2^32.
                        let idx = u32::try_from(self.sinks.len()).expect("fewer than 2^32 sinks");
                        self.sinks.push(Box::new(init()));
                        self.index.insert(token, idx);
                        idx
                    }
                };
                self.last = Some((token, idx));
                idx
            }
        };
        // Invariant (a documented panic of `log_undo_typed`): a token names
        // one collection's backing store, which logs through one sink type.
        let sink = (&mut *self.sinks[idx as usize] as &mut dyn Any)
            .downcast_mut::<S>()
            .expect("undo token reused with a different sink type");
        if record(sink) {
            self.order.push(idx);
        }
    }
}

/// A position in the undo log that execution can be rolled back to while
/// keeping all acquired locks (used to emulate Solidity `throw`, which
/// reverts state but still participates in scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint {
    undo_len: usize,
}

/// Above this many held locks the linear-scan held set is augmented with a
/// positional hash index. Typical contract transactions hold a handful of
/// locks, for which scanning an inline array of `(LockId, LockMode)` pairs
/// is faster than any hashing — and it makes the commit path a straight
/// iteration with zero lookups.
const HELD_LINEAR_MAX: usize = 16;

struct TxnInner {
    /// Typed undo log. Replayed in reverse on abort/rollback.
    undo: UndoLog,
    /// All locks held by this transaction (top-level and nested frames) in
    /// acquisition order, each with the strongest mode acquired so far.
    /// Doubles as the release order and the commit-time profile source.
    held: InlineVec<(LockId, LockMode), 8>,
    /// Positional index over `held` (`lock → position`), maintained only
    /// while `held.len() > HELD_LINEAR_MAX`. May contain stale entries
    /// after a nested abort; lookups verify position and lock before
    /// trusting a hit.
    held_index: FxHashMap<LockId, u32>,
    /// One-slot cache of the most recently touched held lock. Contract
    /// code overwhelmingly does `get` → `insert` on the same key; the
    /// cache resolves the second acquisition without scanning.
    last_held: Option<(LockId, u32)>,
    /// Nested-action bookkeeping: each open frame is a mark into
    /// `held` — everything pushed after the mark was acquired by
    /// the frame (locks are only appended while the single-threaded frame
    /// runs, so a frame's locks are exactly a suffix).
    frames: InlineVec<u32, 4>,
    closed: bool,
    /// True while the undo log is being replayed (its sinks are moved out
    /// of this struct for the duration). Logging new undo entries in this
    /// window is a contract violation — see [`UndoSink`] — and is
    /// rejected rather than silently corrupting the moved-out log.
    replaying: bool,
}

impl Default for TxnInner {
    fn default() -> Self {
        TxnInner {
            undo: UndoLog::default(),
            held: InlineVec::new(),
            held_index: FxHashMap::default(),
            last_held: None,
            frames: InlineVec::new(),
            closed: false,
            replaying: false,
        }
    }
}

impl TxnInner {
    /// Returns the arena to the pristine post-construction state while
    /// keeping every allocation: the undo log's typed sinks (and their
    /// entry capacity), the held set's spill and the index maps' buckets
    /// all survive into the next transaction. This is
    /// what makes a pooled begin ([`TxnScope::begin`]) allocation-free.
    fn recycle(&mut self) {
        self.undo.reset();
        self.held.clear();
        self.held_index.clear();
        self.last_held = None;
        self.frames.clear();
        self.closed = false;
        self.replaying = false;
    }

    /// Position of `lock` in the held set, if held. Verifies indexed hits,
    /// so stale `held_index` entries (left by nested aborts) are treated
    /// as misses.
    fn held_pos(&self, lock: LockId) -> Option<usize> {
        if self.held.len() > HELD_LINEAR_MAX {
            let pos = *self.held_index.get(&lock)? as usize;
            match self.held.get(pos) {
                Some(&(l, _)) if l == lock => Some(pos),
                _ => None,
            }
        } else {
            (0..self.held.len()).find(|&i| self.held.get(i).is_some_and(|&(l, _)| l == lock))
        }
    }

    /// Records a newly granted lock at the end of the held set.
    fn push_held(&mut self, lock: LockId, mode: LockMode) {
        let pos = self.held.len();
        self.held.push((lock, mode));
        let len = self.held.len();
        if len == HELD_LINEAR_MAX + 1 {
            // Crossing the threshold: build the index over everything.
            self.held_index = self
                .held
                .iter()
                .enumerate()
                .map(|(i, &(l, _))| (l, i as u32))
                .collect();
        } else if len > HELD_LINEAR_MAX + 1 {
            self.held_index.insert(lock, pos as u32);
        }
        self.last_held = Some((lock, pos as u32));
    }

    /// Resolves `lock` against the held set; returns `true` when it is
    /// already held in a sufficient mode (and primes the one-slot cache).
    fn held_sufficient(&mut self, lock: LockId, mode: LockMode) -> bool {
        let pos = match self.last_held {
            Some((l, i)) if l == lock => Some(i as usize),
            _ => self.held_pos(lock),
        };
        if let Some(pos) = pos {
            if let Some(&(_, held)) = self.held.get(pos) {
                if held.strongest(mode) == held {
                    self.last_held = Some((lock, pos as u32));
                    return true;
                }
            }
        }
        false
    }
}

impl fmt::Debug for TxnInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnInner")
            .field("undo_len", &self.undo.len())
            .field(
                "held",
                &self.held.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            )
            .field("frames", &self.frames.len())
            .field("closed", &self.closed)
            .finish()
    }
}

/// A speculative atomic action.
///
/// Created by [`Stm::begin`] or the retrying helper [`Stm::run`]. Boosted collections take `&Transaction` and call
/// [`Transaction::acquire`] / [`Transaction::log_undo_typed`]; user code
/// normally never calls those directly.
///
/// A transaction is **single-threaded by construction**: one worker owns
/// it for its whole lifetime (blocking, if any, happens inside the shared
/// [`LockManager`], never on the transaction itself). Its interior is
/// therefore an unsynchronized [`RefCell`] — `Transaction` is `Send` (a
/// worker may create it on one thread and finish it on another) but
/// deliberately **not** `Sync`:
///
/// ```compile_fail
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<cc_stm::Transaction>();
/// ```
pub struct Transaction {
    id: TxnId,
    manager: Arc<LockManager>,
    inner: RefCell<TxnInner>,
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("inner", &*self.inner.borrow())
            .finish()
    }
}

impl Transaction {
    fn new(id: TxnId, manager: Arc<LockManager>) -> Self {
        Transaction {
            id,
            manager,
            inner: RefCell::new(TxnInner::default()),
        }
    }

    /// Debug-only proof obligation for raw backing-store access: panics
    /// unless this transaction currently holds `lock` (in any mode).
    ///
    /// The boosted collections' backing stores carry no reader-writer
    /// lock; their safety argument is that the abstract lock serializing
    /// the operation is held for the duration of the raw access. Every
    /// transactional read path calls this immediately before touching the
    /// raw store, so a collection that forgot to acquire fails loudly in
    /// debug/test builds instead of racing silently. (Mutations go through
    /// [`Transaction::acquire_and_log`], which performs the same check
    /// internally.) There is no exemption: every transaction acquires.
    ///
    /// Compiled to nothing in release builds.
    #[cfg(debug_assertions)]
    pub fn debug_assert_held(&self, lock: LockId) {
        let inner = self.inner.borrow();
        assert!(
            inner.held_pos(lock).is_some(),
            "raw backing-store access without holding abstract lock {lock:?}"
        );
    }

    /// Release-build no-op twin of the debug assertion.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_assert_held(&self, _lock: LockId) {}

    /// The runtime id of this transaction attempt.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Acquires `lock` in `mode`, blocking while a conflicting holder
    /// has it.
    ///
    /// Boosted collections call this before every storage operation.
    ///
    /// # Errors
    ///
    /// * [`StmError::Deadlock`] if blocking would deadlock; the caller
    ///   should propagate this so the whole transaction aborts and
    ///   retries.
    /// * [`StmError::TransactionClosed`] if the transaction already
    ///   committed or aborted.
    pub fn acquire(&self, lock: LockId, mode: LockMode) -> Result<(), StmError> {
        let mut inner = self.inner.borrow_mut();
        if inner.closed {
            return Err(StmError::TransactionClosed);
        }
        if inner.held_sufficient(lock, mode) {
            return Ok(());
        }
        // Release the borrow while potentially blocking in the manager: an
        // undo closure of a boosted collection must be able to re-enter
        // the transaction if it ever needs to.
        drop(inner);
        self.acquire_slow(lock, mode)
    }

    /// Acquires through the shared manager (blocking if contended) and
    /// records the grant in the held set. Must be called with the interior
    /// borrow released.
    fn acquire_slow(&self, lock: LockId, mode: LockMode) -> Result<(), StmError> {
        let newly = self.manager.acquire(self.id, lock, mode)?;
        let mut inner = self.inner.borrow_mut();
        if newly {
            // Open nested frames need no bookkeeping here: a frame's
            // acquisitions are exactly the `held` suffix past its mark.
            inner.push_held(lock, mode);
        } else {
            // Re-entrant grant or in-place upgrade: strengthen the
            // recorded mode.
            match inner.held_pos(lock) {
                Some(pos) => {
                    // Invariant: `held_pos` returns an index into `held`.
                    let entry = inner.held.get_mut(pos).expect("held position is in bounds");
                    entry.1 = entry.1.strongest(mode);
                    inner.last_held = Some((lock, pos as u32));
                }
                // Defensive: the manager believes we already hold the
                // lock but the held set lost track (cannot happen while
                // the nested-abort bookkeeping is correct); record it so
                // release still happens.
                None => inner.push_held(lock, mode),
            }
        }
        Ok(())
    }

    /// Fused acquire + mutate + undo-log entry point for the boosted
    /// collections' mutation path.
    ///
    /// Semantically equivalent to [`Transaction::acquire`] followed by the
    /// backing-store mutation `op` and [`Transaction::log_undo_typed`],
    /// but the already-held fast path crosses the interior `RefCell` once
    /// instead of twice, and the sink lookup goes through the one-slot
    /// undo cache. `op` performs the collection's backing-store mutation
    /// and returns the raw material of the inverse entry; `record` moves
    /// that entry into the (downcast) sink, returning whether it pushed
    /// one (a conditional mutation — removing an absent key, writing out
    /// of bounds — records nothing and must return `false`).
    ///
    /// `op` and `record` run while the transaction's interior is borrowed:
    /// they must mutate only the collection's own storage and must **not**
    /// re-enter the transaction (acquire locks, log undo entries, open
    /// savepoints). Boosted collections satisfy this by construction.
    ///
    /// # Errors
    ///
    /// Same as [`Transaction::acquire`].
    pub fn acquire_and_log<S: UndoSink, T>(
        &self,
        lock: LockId,
        mode: LockMode,
        token: usize,
        init: impl FnOnce() -> S,
        op: impl FnOnce() -> T,
        record: impl FnOnce(&mut S, T) -> bool,
    ) -> Result<(), StmError> {
        let mut inner = self.inner.borrow_mut();
        if inner.closed {
            return Err(StmError::TransactionClosed);
        }
        if !inner.held_sufficient(lock, mode) {
            drop(inner);
            self.acquire_slow(lock, mode)?;
            inner = self.inner.borrow_mut();
        }
        // Same proof obligation as `debug_assert_held`: the raw mutation
        // below is licensed by the abstract lock.
        debug_assert!(
            inner.held_pos(lock).is_some(),
            "raw backing-store mutation without holding abstract lock {lock:?}"
        );
        if inner.replaying {
            // Same contract as `log_undo_typed`: inverse operations must
            // not log new entries. Mutate but skip the log.
            debug_assert!(
                !inner.replaying,
                "inverse operations must not re-enter boosted mutators"
            );
            drop(inner);
            op();
            return Ok(());
        }
        let value = op();
        inner.undo.record(token, init, |sink| record(sink, value));
        Ok(())
    }

    /// Records a typed inverse entry with the sink identified by `token`.
    ///
    /// `token` must uniquely identify the logging collection for the
    /// lifetime of the transaction — boosted collections use the address
    /// of their backing storage (`Arc::as_ptr`), which is stable and
    /// unique while the collection is alive. On the first entry for a
    /// token the sink is created via `init`; every entry then runs
    /// `record` against the (downcast) sink, which is expected to push
    /// one `(key, prior value)` item by move.
    ///
    /// A no-op on a closed transaction.
    ///
    /// # Panics
    ///
    /// Panics if `token` was previously registered with a sink of a
    /// different concrete type (a collection bug, not a runtime
    /// condition).
    pub fn log_undo_typed<S: UndoSink>(
        &self,
        token: usize,
        init: impl FnOnce() -> S,
        record: impl FnOnce(&mut S),
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.closed || inner.replaying {
            // Logging during replay would register sinks into the
            // moved-out log and corrupt it on restore; enforce the
            // UndoSink contract loudly in debug builds, safely in release.
            debug_assert!(
                !inner.replaying,
                "inverse operations must not log new undo entries"
            );
            return;
        }
        inner.undo.record(token, init, |sink| {
            record(sink);
            true
        });
    }

    /// Returns a savepoint capturing the current undo-log position.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            undo_len: self.inner.borrow().undo.len(),
        }
    }

    /// Replays (and discards) every undo entry logged at or after position
    /// `from`, most recent first. The undo state is moved out of the
    /// `RefCell` for the duration so inverse operations may re-enter the
    /// transaction; inverse operations must not log *new*
    /// undo entries (see [`UndoSink`]).
    fn replay_undo_from(&self, from: usize) {
        let (mut sinks, index, tail) = {
            let mut inner = self.inner.borrow_mut();
            if from >= inner.undo.order.len() {
                return;
            }
            inner.replaying = true;
            let tail = inner.undo.order.split_off(from);
            (
                std::mem::take(&mut inner.undo.sinks),
                std::mem::take(&mut inner.undo.index),
                tail,
            )
        };
        for idx in tail.into_iter().rev() {
            sinks[idx as usize].undo_last();
        }
        let mut inner = self.inner.borrow_mut();
        inner.replaying = false;
        inner.undo.sinks = sinks;
        inner.undo.index = index;
    }

    /// Rolls the transaction back to `savepoint`: every inverse operation
    /// logged after the savepoint is replayed (most recent first). Locks
    /// acquired since the savepoint are **kept** — this mirrors a contract
    /// `throw`, which discards tentative storage changes but whose reads
    /// and writes still determine the block's happens-before order.
    pub fn rollback_to(&self, savepoint: Savepoint) {
        self.replay_undo_from(savepoint.undo_len);
    }

    /// Runs `body` as a **nested speculative action** (paper §3): the child
    /// inherits the parent's locks, keeps its own inverse log, and
    ///
    /// * on `Ok`, its effects and newly acquired locks are merged into the
    ///   parent (they become permanent only when the parent commits);
    /// * on `Err`, its inverse log is replayed and the locks *it* acquired
    ///   are released, without aborting the parent.
    ///
    /// # Errors
    ///
    /// Propagates whatever error `body` returned after undoing the child's
    /// effects.
    pub fn nested<R, E>(&self, body: impl FnOnce(&Transaction) -> Result<R, E>) -> Result<R, E> {
        let undo_start = {
            let mut inner = self.inner.borrow_mut();
            // Invariant: a transaction holds one entry per lock it took,
            // far below 2^32.
            let mark = u32::try_from(inner.held.len()).expect("fewer than 2^32 locks");
            inner.frames.push(mark);
            inner.undo.len()
        };
        let result = body(self);
        match result {
            Ok(value) => {
                // The child's acquisitions stay in `held` past the
                // enclosing frame's mark, so an aborting ancestor releases
                // them too — popping the mark is all the merging needed.
                self.inner.borrow_mut().frames.pop();
                Ok(value)
            }
            Err(err) => {
                // Undo the child's operations.
                self.replay_undo_from(undo_start);
                // Release the locks the child acquired (they are not needed
                // for the parent's consistency: the child's effects are gone).
                let child_locks: Vec<LockId> = {
                    let mut inner = self.inner.borrow_mut();
                    let mark = inner.frames.pop().unwrap_or(0) as usize;
                    let child_pairs = inner.held.split_off(mark);
                    if inner.held.len() <= HELD_LINEAR_MAX {
                        // Back under the linear-scan threshold: the index
                        // is unused; drop whatever it holds. (Above the
                        // threshold stale suffix entries are tolerated —
                        // `held_pos` verifies every hit.)
                        inner.held_index.clear();
                    }
                    inner.last_held = None;
                    child_pairs.into_iter().map(|(l, _)| l).collect()
                };
                self.manager.release_abort(self.id, &child_locks);
                Err(err)
            }
        }
    }

    /// Commits the transaction: locks are released, each lock's use counter
    /// is incremented, and the resulting [`LockProfile`] is returned. The
    /// inverse log is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::TransactionClosed`] if already closed.
    pub fn commit(&self) -> Result<CommitProfile, StmError> {
        // The held set already carries `(lock, strongest mode)` in
        // acquisition order, so the profile is built by straight iteration
        // — the entry vector below is the commit path's only allocation,
        // and the manager writes release counters into it in place.
        let mut entries: Vec<ProfileEntry>;
        let sequence;
        {
            let mut inner = self.inner.borrow_mut();
            if inner.closed {
                return Err(StmError::TransactionClosed);
            }
            inner.closed = true;
            // Keep the typed sinks (entries discarded in place): a pooled
            // transaction reuses them on its next life, an unpooled one
            // drops them moments later.
            inner.undo.reset();
            entries = Vec::with_capacity(inner.held.len());
            for &(lock, mode) in inner.held.iter() {
                entries.push(ProfileEntry {
                    lock,
                    mode,
                    counter: 0,
                });
            }
            inner.held.clear();
            inner.held_index.clear();
            inner.last_held = None;
            // Claim the serial-order slot while the locks are still held:
            // for two conflicting transactions, sequence order then agrees
            // with the per-lock use-counter order.
            sequence = self.manager.next_commit_seq();
        }
        self.manager.release_commit_entries(self.id, &mut entries);
        Ok(CommitProfile {
            txn: self.id,
            profile: LockProfile::new(entries),
            sequence,
        })
    }

    /// Aborts the transaction: the inverse log is replayed (most recent
    /// operation first) and all locks are released without incrementing
    /// use counters.
    ///
    /// # Errors
    ///
    /// Returns [`StmError::TransactionClosed`] if already closed.
    pub fn abort(&self) -> Result<(), StmError> {
        let locks = {
            let mut inner = self.inner.borrow_mut();
            if inner.closed {
                return Err(StmError::TransactionClosed);
            }
            inner.closed = true;
            let locks: Vec<LockId> = inner.held.iter().map(|&(l, _)| l).collect();
            inner.held.clear();
            inner.held_index.clear();
            inner.last_held = None;
            locks
        };
        // `closed` is already set, so inverse operations cannot log new
        // undo entries.
        self.replay_undo_from(0);
        self.manager.release_abort(self.id, &locks);
        Ok(())
    }

    /// Number of locks currently held (diagnostics and tests).
    pub fn held_locks(&self) -> usize {
        self.inner.borrow().held.len()
    }

    /// Length of the undo log (diagnostics and tests).
    pub fn undo_len(&self) -> usize {
        self.inner.borrow().undo.len()
    }

    /// Whether the transaction has already committed or aborted.
    pub fn is_closed(&self) -> bool {
        self.inner.borrow().closed
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        // A transaction dropped without commit is aborted, so that panics in
        // contract code do not leak abstract locks and wedge the miner.
        if !self.is_closed() {
            let _ = self.abort();
        }
    }
}

/// The speculative-execution runtime: a shared lock manager plus a
/// transaction-id allocator.
///
/// One `Stm` instance corresponds to one miner (or validator) process in
/// the paper's model. It is cheap to clone (`Arc` internals) and safe to
/// share across worker threads.
#[derive(Debug, Clone)]
pub struct Stm {
    manager: Arc<LockManager>,
    next_id: Arc<AtomicU64>,
}

impl Default for Stm {
    fn default() -> Self {
        Self::new()
    }
}

impl Stm {
    /// Creates a new runtime.
    pub fn new() -> Self {
        Stm {
            manager: Arc::new(LockManager::new()),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The shared lock manager (exposed for statistics and for the miner's
    /// per-block counter reset).
    pub fn lock_manager(&self) -> &Arc<LockManager> {
        &self.manager
    }

    /// Resets per-block lock state (use counters and the commit-sequence
    /// counter) and returns a fresh [`TxnScope`] whose recycled arenas
    /// amortize per-transaction setup across the block. Call when starting
    /// a new block; callers that manage transactions themselves may simply
    /// drop the returned scope.
    pub fn begin_block(&self) -> TxnScope {
        self.manager.reset_counters();
        self.txn_scope()
    }

    /// Creates a transaction-arena pool **without** resetting per-block
    /// counters. Each worker thread participating in a block takes its own
    /// scope (the pool is deliberately single-threaded — like
    /// [`Transaction`] itself, a scope is `Send` but not `Sync`), while the
    /// block driver calls [`Stm::begin_block`] exactly once.
    pub fn txn_scope(&self) -> TxnScope {
        TxnScope {
            stm: self.clone(),
            free: RefCell::new(Vec::new()),
        }
    }

    /// Lock-manager statistics (acquisitions, waits, deadlocks).
    pub fn lock_stats(&self) -> LockStats {
        self.manager.stats()
    }

    /// Begins a speculative transaction. The caller is responsible for
    /// calling [`Transaction::commit`] or [`Transaction::abort`].
    pub fn begin(&self) -> Transaction {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        Transaction::new(id, Arc::clone(&self.manager))
    }

    /// Runs `body` as a speculative transaction, retrying automatically on
    /// deadlock aborts once the lock the victim lost on changes hands
    /// ([`LockManager::await_release`]).
    ///
    /// `body` returning `Ok` commits; returning `Err` aborts and propagates
    /// the error (retrying only if the error is retryable).
    ///
    /// # Errors
    ///
    /// Propagates the body's terminal error, or
    /// [`StmError::RetriesExhausted`] after [`retry::MAX_ATTEMPTS`].
    pub fn run<R>(
        &self,
        body: impl FnMut(&Transaction) -> Result<R, StmError>,
    ) -> Result<(R, CommitProfile), StmError> {
        run_retrying(&self.manager, || self.begin(), body)
    }
}

/// The loop behind [`Stm::run`] and [`TxnScope::run`]: `body` in a
/// transaction from `begin`, committed on `Ok`; on `Err` aborted, and
/// re-run while the error is retryable and attempts remain — a deadlock
/// victim first waits on the lock it lost on.
fn run_retrying<T: Borrow<Transaction>, R>(
    manager: &LockManager,
    begin: impl Fn() -> T,
    mut body: impl FnMut(&Transaction) -> Result<R, StmError>,
) -> Result<(R, CommitProfile), StmError> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let owned = begin();
        let txn = owned.borrow();
        match body(txn) {
            Ok(value) => return Ok((value, txn.commit()?)),
            Err(err) => {
                let _ = txn.abort();
                let StmError::Deadlock { lock, .. } = err else {
                    return Err(err);
                };
                if attempt == retry::MAX_ATTEMPTS {
                    return Err(StmError::RetriesExhausted { attempts: attempt });
                }
                manager.await_release(lock);
            }
        }
    }
}

/// A per-worker pool of recycled transaction arenas for one block.
///
/// [`Stm::begin`] pays a fixed setup cost per transaction: initializing
/// ~600 bytes of `TxnInner` (inline held set, undo log, index maps), an
/// `Arc<LockManager>` refcount round-trip, and — across the transaction's
/// life — one box per touched collection's undo sink. At block scale that
/// fixed cost *is* the throughput. A scope recycles whole boxed
/// [`Transaction`]s instead: [`TxnScope::begin`] pops a finished arena,
/// stamps a fresh [`TxnId`], and hands it back with every allocation (held
/// spill, sink boxes and their entry capacity, index buckets) still warm. `TxnInner::recycle` restores the pristine
/// logical state, and the fresh-vs-pooled property test in
/// `boosted::tests` pins that no state leaks between lives.
///
/// Obtain one scope per worker from [`Stm::begin_block`] (block driver) or
/// [`Stm::txn_scope`] (additional workers). Like `Transaction`, a scope is
/// `Send` but not `Sync` — its free list is an unsynchronized `RefCell`.
#[derive(Debug)]
pub struct TxnScope {
    stm: Stm,
    // Boxed on purpose (not what clippy::vec_box assumes): pool↔guard
    // moves must be one pointer, not a ~600-byte `Transaction` memcpy.
    #[allow(clippy::vec_box)]
    free: RefCell<Vec<Box<Transaction>>>,
}

impl TxnScope {
    /// Begins a speculative transaction, reusing a recycled arena when one
    /// is available. Dropping the returned handle returns the arena to
    /// this scope (aborting first if the transaction is still open, same
    /// as [`Transaction`]'s own drop behaviour).
    pub fn begin(&self) -> PooledTxn<'_> {
        let id = TxnId(self.stm.next_id.fetch_add(1, Ordering::Relaxed));
        let txn = match self.free.borrow_mut().pop() {
            // The arena was recycled on its way into the free list; only
            // the identity needs stamping.
            Some(mut txn) => {
                txn.id = id;
                txn
            }
            None => Box::new(Transaction::new(id, Arc::clone(&self.stm.manager))),
        };
        PooledTxn {
            txn: Some(txn),
            scope: self,
        }
    }

    /// Runs `body` as a pooled speculative transaction, retrying on
    /// deadlock aborts exactly like [`Stm::run`] — every attempt
    /// (including retries) draws from and returns to the pool.
    ///
    /// # Errors
    ///
    /// Propagates the body's terminal error, or
    /// [`StmError::RetriesExhausted`] after [`retry::MAX_ATTEMPTS`].
    pub fn run<R>(
        &self,
        body: impl FnMut(&Transaction) -> Result<R, StmError>,
    ) -> Result<(R, CommitProfile), StmError> {
        run_retrying(&self.stm.manager, || self.begin(), body)
    }

    /// Number of idle arenas currently in the pool (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.borrow().len()
    }

    fn reclaim(&self, mut txn: Box<Transaction>) {
        // An arena dropped while still open aborts first (releasing its
        // locks and replaying its undo log), mirroring Transaction::drop.
        if !txn.is_closed() {
            let _ = txn.abort();
        }
        txn.inner.get_mut().recycle();
        self.free.borrow_mut().push(txn);
    }
}

/// A pooled transaction handle: derefs to [`Transaction`], returns its
/// arena to the owning [`TxnScope`] on drop.
#[derive(Debug)]
pub struct PooledTxn<'scope> {
    txn: Option<Box<Transaction>>,
    scope: &'scope TxnScope,
}

impl std::ops::Deref for PooledTxn<'_> {
    type Target = Transaction;
    fn deref(&self) -> &Transaction {
        // Invariant: only `Drop` takes the arena out.
        self.txn.as_deref().expect("arena present until drop")
    }
}

impl Borrow<Transaction> for PooledTxn<'_> {
    fn borrow(&self) -> &Transaction {
        self
    }
}

impl Drop for PooledTxn<'_> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.scope.reclaim(txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockSpace;
    use std::sync::atomic::AtomicI64;

    fn stm() -> Stm {
        Stm::new()
    }

    /// A sink of boxed inverse closures, so a test can log an arbitrary
    /// undo entry through [`Transaction::log_undo_typed`].
    #[derive(Default)]
    struct FnSink(Vec<Box<dyn FnOnce() + Send>>);

    impl UndoSink for FnSink {
        fn undo_last(&mut self) {
            if let Some(op) = self.0.pop() {
                op();
            }
        }
        fn reset(&mut self) {
            self.0.clear();
        }
    }

    /// Logs `undo` in the test sink (collection tokens are storage
    /// addresses, so `1` never collides with one).
    fn log_fn(txn: &Transaction, undo: impl FnOnce() + Send + 'static) {
        txn.log_undo_typed(1, FnSink::default, |sink| sink.0.push(Box::new(undo)));
    }

    #[test]
    fn commit_produces_profile_with_counters() {
        let stm = stm();
        let space = LockSpace::new("t");
        let txn = stm.begin();
        txn.acquire(space.lock_for(&1u64), LockMode::Exclusive)
            .unwrap();
        txn.acquire(space.lock_for(&2u64), LockMode::Additive)
            .unwrap();
        let commit = txn.commit().unwrap();
        assert_eq!(commit.profile.len(), 2);
        assert!(commit.profile.locks.iter().all(|e| e.counter == 1));
    }

    #[test]
    fn undo_restores_shared_state_on_abort() {
        let stm = stm();
        let value = Arc::new(AtomicI64::new(10));
        let txn = stm.begin();
        let v = Arc::clone(&value);
        value.store(99, Ordering::SeqCst);
        log_fn(&txn, move || v.store(10, Ordering::SeqCst));
        txn.abort().unwrap();
        assert_eq!(value.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn undo_runs_most_recent_first() {
        // Serial-order capture without a mutex: an atomic sequence counter
        // plus preallocated per-op slots (each undo closure claims the next
        // sequence number and stamps it into its own slot).
        let stm = stm();
        let seq = Arc::new(AtomicU64::new(0));
        let slots: Arc<[AtomicU64; 3]> = Arc::new([const { AtomicU64::new(u64::MAX) }; 3]);
        let txn = stm.begin();
        for i in 0..3 {
            let seq = Arc::clone(&seq);
            let slots = Arc::clone(&slots);
            log_fn(&txn, move || {
                slots[i].store(seq.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            });
        }
        txn.abort().unwrap();
        let observed: Vec<u64> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        // Op 2 undone first (sequence 0), op 0 last (sequence 2).
        assert_eq!(observed, vec![2, 1, 0]);
    }

    #[test]
    fn savepoint_rollback_keeps_locks() {
        let stm = stm();
        let space = LockSpace::new("sp");
        let value = Arc::new(AtomicI64::new(0));
        let txn = stm.begin();
        txn.acquire(space.whole(), LockMode::Exclusive).unwrap();
        let sp = txn.savepoint();
        value.store(7, Ordering::SeqCst);
        let v = Arc::clone(&value);
        log_fn(&txn, move || v.store(0, Ordering::SeqCst));
        txn.rollback_to(sp);
        assert_eq!(value.load(Ordering::SeqCst), 0, "state rolled back");
        assert_eq!(txn.held_locks(), 1, "locks survive the rollback");
        let commit = txn.commit().unwrap();
        assert_eq!(commit.profile.len(), 1, "profile still records the lock");
    }

    #[test]
    fn nested_commit_merges_into_parent() {
        let stm = stm();
        let space = LockSpace::new("nested");
        let txn = stm.begin();
        txn.acquire(space.lock_for(&"parent"), LockMode::Exclusive)
            .unwrap();
        let out: Result<u32, StmError> = txn.nested(|t| {
            t.acquire(space.lock_for(&"child"), LockMode::Exclusive)?;
            Ok(5)
        });
        assert_eq!(out.unwrap(), 5);
        assert_eq!(txn.held_locks(), 2);
        let commit = txn.commit().unwrap();
        assert_eq!(commit.profile.len(), 2);
    }

    #[test]
    fn nested_abort_releases_only_child_locks_and_undoes_child_ops() {
        let stm = stm();
        let space = LockSpace::new("nested2");
        let value = Arc::new(AtomicI64::new(1));
        let txn = stm.begin();
        txn.acquire(space.lock_for(&"parent"), LockMode::Exclusive)
            .unwrap();

        let v = Arc::clone(&value);
        let res: Result<(), StmError> = txn.nested(|t| {
            t.acquire(space.lock_for(&"child"), LockMode::Exclusive)?;
            value.store(2, Ordering::SeqCst);
            let v2 = Arc::clone(&v);
            log_fn(t, move || v2.store(1, Ordering::SeqCst));
            Err(StmError::Aborted {
                reason: "child throws".into(),
            })
        });
        assert!(res.is_err());
        assert_eq!(value.load(Ordering::SeqCst), 1, "child effects undone");
        assert_eq!(txn.held_locks(), 1, "parent keeps its own lock");

        // The child's lock is actually free for other transactions now.
        let other = stm.begin();
        other
            .acquire(space.lock_for(&"child"), LockMode::Exclusive)
            .unwrap();
        other.commit().unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn run_retries_on_deadlock_and_commits() {
        // Construct an artificial deadlock between two threads and verify
        // both eventually commit via Stm::run retry. The barrier forces the
        // lock-order inversion on the *first* attempt only; a retried
        // (deadlock-victim) execution must not wait on it again, since the
        // surviving transaction has already moved on.
        let stm = stm();
        let space = LockSpace::new("dl");
        let la = space.lock_for(&"a");
        let lb = space.lock_for(&"b");
        let barrier = Arc::new(std::sync::Barrier::new(2));

        crossbeam::scope(|s| {
            for (first, second) in [(la, lb), (lb, la)] {
                let stm = stm.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move |_| {
                    let mut attempt = 0;
                    stm.run(|txn| {
                        attempt += 1;
                        txn.acquire(first, LockMode::Exclusive)?;
                        if attempt == 1 {
                            barrier.wait();
                        }
                        txn.acquire(second, LockMode::Exclusive)?;
                        Ok(())
                    })
                    .unwrap();
                });
            }
        })
        .unwrap();
        // Both committed; locks are free.
        assert_eq!(stm.lock_manager().held_lock_count(), 0);
    }

    #[test]
    fn run_propagates_non_retryable_errors() {
        let stm = stm();
        let result: Result<((), CommitProfile), StmError> = stm.run(|_| {
            Err(StmError::Aborted {
                reason: "no".into(),
            })
        });
        assert!(matches!(result, Err(StmError::Aborted { .. })));
    }

    #[test]
    fn closed_transaction_rejects_operations() {
        let stm = stm();
        let txn = stm.begin();
        txn.commit().unwrap();
        assert_eq!(
            txn.acquire(LockSpace::new("x").whole(), LockMode::Exclusive),
            Err(StmError::TransactionClosed)
        );
        assert_eq!(txn.commit().unwrap_err(), StmError::TransactionClosed);
        assert_eq!(txn.abort().unwrap_err(), StmError::TransactionClosed);
    }

    #[test]
    fn dropped_transaction_releases_locks() {
        let stm = stm();
        let lock = LockSpace::new("drop").whole();
        {
            let txn = stm.begin();
            txn.acquire(lock, LockMode::Exclusive).unwrap();
            // Dropped without commit.
        }
        assert_eq!(stm.lock_manager().held_lock_count(), 0);
    }

    #[test]
    fn txn_ids_are_unique() {
        let stm = stm();
        let a = stm.begin();
        let b = stm.begin();
        assert_ne!(a.id(), b.id());
        a.commit().unwrap();
        b.commit().unwrap();
    }

    #[test]
    fn transaction_is_send() {
        // Workers create a transaction on one thread and may finish it on
        // another; `Send` is required. `Sync` is deliberately absent — see
        // the compile_fail doctest on [`Transaction`].
        fn assert_send<T: Send>() {}
        assert_send::<Transaction>();
        assert_send::<Stm>();
    }
}
