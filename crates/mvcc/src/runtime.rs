//! The per-world optimistic runtime: oracle, commit mutex and the
//! registry of versioned collections.

use crate::oracle::TimestampOracle;
use crate::store::MvccCollection;
use crate::txn::MvccTxn;
use cc_primitives::ts::Timestamp;
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::sync::Arc;

/// Shared state for one world's optimistic execution: the timestamp
/// oracle, the first-committer-wins commit mutex, and every versioned
/// collection that has been touched (so block finalization and garbage
/// collection can reach them all).
#[derive(Default)]
pub struct MvccRuntime {
    oracle: TimestampOracle,
    commit: Mutex<()>,
    collections: Mutex<Vec<Arc<dyn MvccCollection>>>,
}

impl MvccRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        MvccRuntime::default()
    }

    /// Starts an optimistic transaction at the current snapshot.
    pub fn begin(&self) -> MvccTxn<'_> {
        self.begin_holding(None)
    }

    /// Starts a transaction that holds the commit mutex from before its
    /// snapshot is fixed until it commits, aborts or is dropped. No other
    /// update transaction can commit in between, so its validation cannot
    /// fail: a loser re-run this way is guaranteed to commit. Every other
    /// committer waits on the mutex meanwhile, so use it only as the last
    /// resort of a retry loop.
    pub fn begin_exclusive(&self) -> MvccTxn<'_> {
        self.begin_holding(Some(self.commit_guard()))
    }

    fn begin_holding<'rt>(&'rt self, commit: Option<MutexGuard<'rt, ()>>) -> MvccTxn<'rt> {
        MvccTxn::new(self, self.oracle.begin(), commit)
    }

    /// The runtime's timestamp oracle.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Registers a versioned collection (each registers itself when
    /// built) so the block lifecycle and [`MvccRuntime::collect`] reach it.
    pub(crate) fn register(&self, collection: Arc<dyn MvccCollection>) {
        self.collections.lock().push(collection);
    }

    /// Flattens every committed version into the boosted twins, leaving
    /// the version lists empty: [`MvccRuntime::finalize_below`] at the
    /// newest published timestamp. Called by the miner after the last
    /// transaction of a block committed, before the state root is
    /// computed; must not run concurrently with active transactions.
    pub fn finalize_block(&self) {
        self.finalize_below(self.oracle.latest());
    }

    /// Flattens every version at or below `boundary` into the boosted
    /// twins, keeping newer versions stacked above them — the
    /// **pending-overlay commit**. A speculatively validated block's
    /// versions all carry timestamps at or below the oracle instant
    /// recorded when its replay finished; flattening up to that boundary
    /// commits exactly that block while later speculated blocks stay
    /// pending. Like [`MvccRuntime::finalize_block`], this must not run
    /// concurrently with active transactions.
    pub fn finalize_below(&self, boundary: Timestamp) {
        for collection in self.collections.lock().iter() {
            collection.finalize_below(boundary);
        }
    }

    /// Drops every version newer than `boundary` without touching the
    /// boosted twins — the **pending-overlay discard**. Rolls the
    /// versioned state back to the boundary of the last trusted block
    /// when a speculated block (or its predecessor) fails validation.
    /// Must not run concurrently with active transactions.
    pub fn discard_above(&self, boundary: Timestamp) {
        for collection in self.collections.lock().iter() {
            collection.discard_above(boundary);
        }
    }

    /// Garbage-collects versions that no active or future snapshot can
    /// read: in every version list, versions older than the newest one at
    /// or below the oldest active begin timestamp are dropped. It only
    /// prunes (nothing reaches the boosted twins), so it must not run
    /// while a pending overlay's boundary lies below the horizon: it would
    /// drop versions that overlay's `finalize_below` flattens. Safe to run
    /// concurrently with transactions.
    pub fn collect(&self) {
        let horizon = self.oracle.horizon();
        for collection in self.collections.lock().iter() {
            collection.collect(horizon);
        }
    }

    /// The first-committer-wins critical section.
    pub(crate) fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit.lock()
    }
}

impl fmt::Debug for MvccRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MvccRuntime")
            .field("latest", &self.oracle.latest())
            .field("active", &self.oracle.active_count())
            .field("collections", &self.collections.lock().len())
            .finish()
    }
}
