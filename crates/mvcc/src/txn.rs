//! Optimistic read-set/write-set transactions.
//!
//! An [`MvccTxn`] never blocks and never fails mid-execution: reads come
//! from the snapshot fixed at begin time (plus the transaction's own
//! buffered writes), and writes are buffered privately until commit. At
//! commit, an update transaction runs **first-committer-wins** validation
//! under the runtime's commit mutex: if any key it read or wrote gained a
//! conflicting version after its snapshot, it aborts (cheaply — the shared
//! version lists were never touched) and the caller re-executes it. A
//! transaction with no buffered writes skips validation entirely, which is
//! the structural reason read-only transactions never abort.
//!
//! A loser lost to a writer that has **already published**, so the caller
//! re-runs it at once: a fresh snapshot sees the winner, and there is
//! nothing to wait for. Re-running alone does not bound the retries — a
//! loser whose execution is no shorter than a neighbour's can keep losing
//! to that neighbour's next commit. The bound is
//! [`MvccRuntime::begin_exclusive`]: that transaction takes the commit
//! mutex *before* fixing its snapshot and keeps it until it closes, so no
//! conflicting version can be installed past its snapshot and its
//! validation (which still runs) cannot fail. A retry loop that ends in
//! one exclusive attempt therefore always terminates.
//!
//! The transaction also records a **lock footprint**: the `(LockId,
//! LockMode)` pairs the equivalent boosted (pessimistic) execution would
//! have acquired. The footprint never influences optimistic concurrency
//! control — it exists so the miner can publish the same
//! `ScheduleMetadata` lock profiles a pessimistic miner would, keeping
//! validators strategy-agnostic.

use crate::error::MvccError;
use crate::runtime::MvccRuntime;
use crate::store::MvccCollection;
use cc_primitives::fx::FxHashMap;
use cc_primitives::ts::Timestamp;
use cc_stm::{LockId, LockMode};
use parking_lot::MutexGuard;
use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

/// Per-collection buffered state (read keys, pending writes and a typed
/// undo stack). One implementation per versioned collection; stored
/// type-erased in the transaction and downcast by the owning collection.
pub(crate) trait PendingOps: Any + Send {
    /// Undoes the most recent journaled mutation.
    fn undo_last(&mut self);
    /// Number of journaled mutations so far.
    fn undo_len(&self) -> usize;
    /// Whether any write is still buffered.
    fn has_writes(&self) -> bool;
    fn any_ref(&self) -> &dyn Any;
    fn any_mut(&mut self) -> &mut dyn Any;
}

/// One collection's buffered state plus its commit hooks.
struct Slot {
    pending: Box<dyn PendingOps>,
    collection: Arc<dyn MvccCollection>,
}

#[derive(Default)]
struct TxnInner {
    /// Buffered per-collection state, keyed by collection identity.
    slots: FxHashMap<usize, Slot>,
    /// The journal: one collection token per journaled mutation, in
    /// program order. Rolling back replays `undo_last` most recent first.
    order: Vec<usize>,
    /// Mirror of the boosted lock footprint, in first-acquisition order
    /// with modes strengthened in place.
    footprint: Vec<(LockId, LockMode)>,
    footprint_index: FxHashMap<LockId, usize>,
}

/// A position in the write journal; see [`MvccTxn::savepoint`].
#[derive(Debug, Clone, Copy)]
pub struct MvccSavepoint {
    order_len: usize,
}

/// The result of a successful commit: the transaction's serialization
/// instant and its pessimistic-equivalent lock footprint.
#[derive(Debug, Clone)]
pub struct MvccCommit {
    /// Serialization instant: the commit timestamp of an update
    /// transaction, or the *begin* timestamp of a read-only one (a
    /// read-only transaction is serializable at its snapshot).
    pub ts: Timestamp,
    /// Whether the transaction committed without installing any version.
    pub read_only: bool,
    /// `(lock, strongest mode)` pairs in first-use order — what the
    /// boosted execution of the same program would have held at commit.
    pub footprint: Vec<(LockId, LockMode)>,
}

/// A single optimistic transaction over a runtime's versioned collections.
///
/// Neither `Send` nor `Sync`: like the pessimistic `Transaction`, it lives
/// on one worker thread for its whole life — and an exclusive one holds
/// the commit mutex, which the thread that took it must release.
pub struct MvccTxn<'rt> {
    runtime: &'rt MvccRuntime,
    begin_ts: Timestamp,
    inner: RefCell<TxnInner>,
    /// The commit mutex, held from begin to close by a transaction from
    /// [`MvccRuntime::begin_exclusive`]; released by commit, abort or drop.
    /// (A plain field, not a `Cell`, keeps the type covariant in `'rt`;
    /// that is why commit and abort consume the transaction.)
    exclusive: Option<MutexGuard<'rt, ()>>,
}

impl<'rt> MvccTxn<'rt> {
    pub(crate) fn new(
        runtime: &'rt MvccRuntime,
        begin_ts: Timestamp,
        exclusive: Option<MutexGuard<'rt, ()>>,
    ) -> Self {
        MvccTxn {
            runtime,
            begin_ts,
            inner: RefCell::new(TxnInner::default()),
            exclusive,
        }
    }

    /// The snapshot instant all reads observe.
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts
    }

    /// The runtime this transaction executes under.
    pub fn runtime(&self) -> &'rt MvccRuntime {
        self.runtime
    }

    /// Records one pessimistic-equivalent lock use, strengthening the mode
    /// in place when the lock was already in the footprint.
    pub(crate) fn footprint(&self, lock: LockId, mode: LockMode) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        match inner.footprint_index.get(&lock) {
            Some(&i) => {
                let current = inner.footprint[i].1;
                inner.footprint[i].1 = current.strongest(mode);
            }
            None => {
                inner.footprint_index.insert(lock, inner.footprint.len());
                inner.footprint.push((lock, mode));
            }
        }
    }

    /// Runs `f` over the collection's buffered state, creating it on first
    /// use. Mutations `f` journals (by pushing typed undo entries) are
    /// recorded in the transaction's global order automatically.
    pub(crate) fn with_pending<P, R>(
        &self,
        token: usize,
        collection: impl FnOnce() -> Arc<dyn MvccCollection>,
        f: impl FnOnce(&mut P) -> R,
    ) -> R
    where
        P: PendingOps + Default,
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let slot = inner.slots.entry(token).or_insert_with(|| Slot {
            pending: Box::<P>::default(),
            collection: collection(),
        });
        let pending = slot
            .pending
            .any_mut()
            .downcast_mut::<P>()
            .expect("collection token is bound to one pending type");
        let before = pending.undo_len();
        let result = f(pending);
        let added = pending.undo_len() - before;
        inner.order.extend(std::iter::repeat_n(token, added));
        result
    }

    /// Captures the current journal position.
    pub fn savepoint(&self) -> MvccSavepoint {
        MvccSavepoint {
            order_len: self.inner.borrow().order.len(),
        }
    }

    /// Rolls buffered writes back to `savepoint`, most recent first. Like
    /// the pessimistic `rollback_to`, the lock footprint (and the read
    /// set) is **kept**: a contract `throw` discards tentative effects but
    /// its reads and writes still determine the block's happens-before
    /// order.
    pub fn rollback_to(&self, savepoint: MvccSavepoint) {
        self.undo_to(savepoint.order_len);
    }

    fn undo_to(&self, mark: usize) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        while inner.order.len() > mark {
            let token = inner.order.pop().expect("non-empty journal");
            inner
                .slots
                .get_mut(&token)
                .expect("journaled slot exists")
                .pending
                .undo_last();
        }
    }

    /// Runs `body` as a nested speculative action: on `Ok` its buffered
    /// writes and footprint additions merge into the parent; on `Err` its
    /// writes are undone and the footprint entries it introduced are
    /// dropped (strengthenings of locks the parent already used are kept),
    /// mirroring the pessimistic release of child-acquired locks.
    ///
    /// # Errors
    ///
    /// Propagates whatever error `body` returned after undoing the child's
    /// effects.
    pub fn nested<R, E>(&self, body: impl FnOnce(&Self) -> Result<R, E>) -> Result<R, E> {
        let (order_mark, footprint_mark) = {
            let inner = self.inner.borrow();
            (inner.order.len(), inner.footprint.len())
        };
        match body(self) {
            Ok(value) => Ok(value),
            Err(err) => {
                self.undo_to(order_mark);
                let mut inner = self.inner.borrow_mut();
                let inner = &mut *inner;
                for (lock, _) in inner.footprint.drain(footprint_mark..) {
                    inner.footprint_index.remove(&lock);
                }
                Err(err)
            }
        }
    }

    /// Commits the transaction.
    ///
    /// A transaction with no buffered writes commits immediately at its
    /// begin timestamp — no validation, no installs, no way to abort. An
    /// update transaction takes the runtime's commit mutex (an exclusive
    /// one already holds it), validates first-committer-wins over its read
    /// and write sets, and on success installs every buffered write as a
    /// new version at a fresh commit timestamp. Either way the mutex is
    /// released before this returns.
    ///
    /// # Errors
    ///
    /// [`MvccError::Conflict`] when validation fails (retry with a fresh
    /// transaction).
    pub fn commit(mut self) -> Result<MvccCommit, MvccError> {
        let inner = self.inner.get_mut();
        let footprint = std::mem::take(&mut inner.footprint);
        let has_writes = inner.slots.values().any(|s| s.pending.has_writes());
        if !has_writes {
            Ok(MvccCommit {
                ts: self.begin_ts,
                read_only: true,
                footprint,
            })
        } else {
            // First-committer-wins critical section.
            let runtime = self.runtime;
            let guard = self
                .exclusive
                .take()
                .unwrap_or_else(|| runtime.commit_guard());
            let valid = inner
                .slots
                .values()
                .all(|s| s.collection.validate(s.pending.any_ref(), self.begin_ts));
            if valid {
                let ts = runtime.oracle().latest().next();
                for slot in inner.slots.values_mut() {
                    slot.collection.install(slot.pending.any_mut(), ts);
                }
                // Publish only after every version is in place, so a
                // concurrent `begin` can never observe a half-installed
                // commit.
                runtime.oracle().publish(ts);
                drop(guard);
                Ok(MvccCommit {
                    ts,
                    read_only: false,
                    footprint,
                })
            } else {
                Err(MvccError::Conflict {
                    begin_ts: self.begin_ts,
                })
            }
        }
    }

    /// Aborts the transaction: buffered writes are discarded (the shared
    /// version lists were never touched). This is exactly what dropping it
    /// does; the method names the intent at the call site.
    pub fn abort(self) {}
}

impl Drop for MvccTxn<'_> {
    /// Ends the transaction in the oracle, whether it committed, aborted
    /// or was dropped in flight (panic, early return): the
    /// garbage-collection horizon must move on. An exclusive transaction
    /// still holding the commit mutex releases it when its field drops.
    fn drop(&mut self) {
        self.runtime.oracle().finish(self.begin_ts);
    }
}

impl std::fmt::Debug for MvccTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("MvccTxn")
            .field("begin_ts", &self.begin_ts)
            .field("collections", &inner.slots.len())
            .field("journal", &inner.order.len())
            .field("footprint", &inner.footprint.len())
            .field("exclusive", &self.exclusive.is_some())
            .finish()
    }
}
