//! Optimistic read-set/write-set transactions.
//!
//! An [`MvccTxn`] never fails mid-execution: reads come from the snapshot
//! fixed at begin time (plus the transaction's own buffered writes), and
//! writes are buffered privately until commit. At commit, an update
//! transaction runs **first-committer-wins** validation under the
//! runtime's commit mutex: if any key it read or wrote gained a
//! conflicting version after its snapshot, it aborts (cheaply — the shared
//! version lists were never touched), names the lock it lost on, and the
//! caller re-executes it. A transaction with no buffered writes skips
//! validation entirely, which is the structural reason read-only
//! transactions never abort.
//!
//! Beyond the commit critical section it blocks in one place only: on the
//! write intent of a **hot** lock (one a commit already lost on), and
//! only while it holds no intent. Taking an intent mid-run moves its
//! snapshot forward when its reads allow it. The rules and the deadlock
//! argument are in [`crate::runtime`].
//!
//! The transaction also records a **lock footprint**: the `(LockId,
//! LockMode)` pairs the equivalent boosted (pessimistic) execution would
//! have acquired. Beyond naming intents, the footprint never influences
//! optimistic concurrency control — it exists so the miner can publish
//! the same `ScheduleMetadata` lock profiles a pessimistic miner would,
//! keeping validators strategy-agnostic.

use crate::error::MvccError;
use crate::runtime::{intent_bit, MvccRuntime};
use cc_primitives::fx::FxHashMap;
use cc_primitives::ts::Timestamp;
use cc_stm::{LockId, LockMode};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Per-collection buffered state (read keys, pending writes and a typed
/// undo stack) plus its commit hooks. One implementation per versioned
/// collection, each holding an `Arc` of the collection's version lists;
/// stored type-erased in the transaction.
pub(crate) trait PendingOps: Any + Send {
    /// Undoes the most recent journaled mutation.
    fn undo_last(&mut self);
    /// Number of journaled mutations so far.
    fn undo_len(&self) -> usize;
    /// Whether any write is still buffered.
    fn has_writes(&self) -> bool;
    /// First-committer-wins validation against versions installed after
    /// `begin_ts`: the lock of the first conflicting key, if any. Runs
    /// inside the commit critical section, and outside it when the
    /// transaction extends its snapshot.
    fn validate(&self, begin_ts: Timestamp) -> Result<(), LockId>;
    /// Installs the buffered writes as versions at `commit_ts`. Runs
    /// inside the commit critical section, after every `validate`
    /// succeeded.
    fn install(&mut self, commit_ts: Timestamp);
}

#[derive(Default)]
struct TxnInner {
    /// Buffered per-collection state, keyed by the address of the
    /// collection's version lists.
    slots: FxHashMap<usize, Box<dyn PendingOps>>,
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
/// Not `Sync`: like the pessimistic `Transaction`, it lives on one worker
/// thread, and its intents are released by whichever thread drops it.
pub struct MvccTxn<'rt> {
    runtime: &'rt MvccRuntime,
    /// The snapshot instant; moves forward when the transaction extends
    /// its snapshot after taking an intent.
    begin_ts: Cell<Timestamp>,
    inner: RefCell<TxnInner>,
    /// The intent stripes held, one bit each; released on drop.
    intents: Cell<u64>,
}

impl<'rt> MvccTxn<'rt> {
    pub(crate) fn new(runtime: &'rt MvccRuntime, begin_ts: Timestamp, intents: u64) -> Self {
        MvccTxn {
            runtime,
            begin_ts: Cell::new(begin_ts),
            inner: RefCell::new(TxnInner::default()),
            intents: Cell::new(intents),
        }
    }

    /// The snapshot instant all reads observe.
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts.get()
    }

    /// The runtime this transaction executes under.
    pub fn runtime(&self) -> &'rt MvccRuntime {
        self.runtime
    }

    /// Records one pessimistic-equivalent lock use, strengthening the mode
    /// in place when the lock was already in the footprint. Runs on every
    /// storage op, before it reads: on a hot lock whose intent it does not
    /// hold, the transaction takes the intent first (see
    /// [`crate::runtime`]).
    pub(crate) fn footprint(&self, lock: LockId, mode: LockMode) {
        let (bit, held) = (intent_bit(lock), self.intents.get());
        if self.runtime.hot() & bit & !held != 0 && self.hold(bit, held == 0) {
            self.extend_snapshot();
        }
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

    /// Takes the intent of stripe `bit` for this transaction, parking
    /// for it only if `park`; whether it holds the intent now.
    fn hold(&self, bit: u64, park: bool) -> bool {
        let taken = self.runtime.take_intent(bit, park);
        if taken {
            self.intents.set(self.intents.get() | bit);
        }
        taken
    }

    /// Moves the snapshot to the newest installed instant if nothing this
    /// transaction read or wrote gained a version since its own. The new
    /// instant is loaded before validating, so every commit at or below it
    /// is among those validated against; a later one is above the new
    /// snapshot, where commit-time validation sees it.
    fn extend_snapshot(&self) {
        let (old, new) = (self.begin_ts.get(), self.runtime.latest());
        let unchanged = self
            .inner
            .borrow()
            .slots
            .values()
            .all(|p| p.validate(old).is_ok());
        if unchanged {
            self.begin_ts.set(new);
        }
    }

    /// Runs `f` over the buffered state of the collection whose version
    /// lists are `core`, creating it with `init` on first use. Mutations
    /// `f` journals (by pushing typed undo entries) are recorded in the
    /// transaction's global order automatically.
    pub(crate) fn with_pending<C, P: PendingOps, R>(
        &self,
        core: &Arc<C>,
        init: impl FnOnce(Arc<C>) -> P,
        f: impl FnOnce(&mut P) -> R,
    ) -> R {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let token = Arc::as_ptr(core) as usize;
        let slot = inner
            .slots
            .entry(token)
            .or_insert_with(|| Box::new(init(Arc::clone(core))));
        let pending = (&mut **slot as &mut dyn Any)
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
    /// update transaction takes the runtime's commit mutex, makes sure it
    /// holds the intent of every lock it writes on a hot stripe (trying
    /// for the ones it lacks), validates first-committer-wins over its
    /// read and write sets, and on success installs every buffered write
    /// as a new version at a fresh commit timestamp. Either way the mutex
    /// is released before this returns; the intents are released when the
    /// transaction drops, after the new versions were published.
    ///
    /// # Errors
    ///
    /// [`MvccError::Conflict`], naming the lock, when an intent is held by
    /// another transaction or validation fails; the lock's stripe turns
    /// hot. Retry with a fresh transaction.
    pub fn commit(mut self) -> Result<MvccCommit, MvccError> {
        let begin_ts = self.begin_ts.get();
        let footprint = std::mem::take(&mut self.inner.get_mut().footprint);
        if !self.inner.get_mut().slots.values().any(|p| p.has_writes()) {
            return Ok(MvccCommit {
                ts: begin_ts,
                read_only: true,
                footprint,
            });
        }
        // First-committer-wins critical section.
        let runtime = self.runtime;
        let guard = runtime.commit_guard();
        // Writers respect intents: each written lock on a hot stripe is
        // held, or taken now if free.
        let hot = runtime.hot();
        let unheld = footprint.iter().find(|&&(lock, mode)| {
            let bit = intent_bit(lock);
            mode != LockMode::Shared
                && hot & bit & !self.intents.get() != 0
                && !self.hold(bit, false)
        });
        let inner = self.inner.get_mut();
        let lost = match unheld {
            Some(&(lock, _)) => Err(lock),
            None => inner.slots.values().try_for_each(|p| p.validate(begin_ts)),
        };
        if let Err(lock) = lost {
            runtime.mark_hot(lock);
            return Err(MvccError::Conflict { begin_ts, lock });
        }
        let ts = runtime.latest().next();
        for pending in inner.slots.values_mut() {
            pending.install(ts);
        }
        // Publish only after every version is in place, so a concurrent
        // `begin` can never observe a half-installed commit.
        runtime.publish(ts);
        drop(guard);
        Ok(MvccCommit {
            ts,
            read_only: false,
            footprint,
        })
    }

    /// Aborts the transaction: buffered writes are discarded (the shared
    /// version lists were never touched). This is exactly what dropping it
    /// does; the method names the intent at the call site.
    pub fn abort(self) {}
}

impl Drop for MvccTxn<'_> {
    /// Releases the transaction's intents, whether it committed, aborted
    /// or was dropped in flight (panic, early return): a parked waiter
    /// must wake. Nothing else outlives a transaction: its snapshot was
    /// one load, and its buffered writes drop with it.
    fn drop(&mut self) {
        self.runtime.release_intents(self.intents.get());
    }
}

impl std::fmt::Debug for MvccTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("MvccTxn")
            .field("begin_ts", &self.begin_ts.get())
            .field("collections", &inner.slots.len())
            .field("journal", &inner.order.len())
            .field("footprint", &inner.footprint.len())
            .field("intents", &format_args!("{:#x}", self.intents.get()))
            .finish()
    }
}
