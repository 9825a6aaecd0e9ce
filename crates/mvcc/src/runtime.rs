//! The per-world optimistic runtime: oracle, commit mutex and the
//! registry of versioned collections.

use crate::oracle::TimestampOracle;
use crate::store::MvccCollection;
use crate::txn::MvccTxn;
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

    /// Registers a versioned collection so [`MvccRuntime::finalize_block`]
    /// and [`MvccRuntime::collect`] reach it. Idempotent per collection.
    pub fn register(&self, collection: Arc<dyn MvccCollection>) {
        let mut collections = self.collections.lock();
        if !collections.iter().any(|c| Arc::ptr_eq(c, &collection)) {
            collections.push(collection);
        }
    }

    /// Flattens the newest committed version of every key into the backing
    /// stores and clears all version lists. Called by the miner after the
    /// last transaction of a block committed, before the state root is
    /// computed; must not run concurrently with active transactions.
    pub fn finalize_block(&self) {
        for collection in self.collections.lock().iter() {
            collection.finalize();
        }
    }

    /// Flattens every version at or below `boundary` into the backing
    /// stores, keeping newer versions stacked above the base — the
    /// **pending-overlay commit**. A speculatively validated block's
    /// versions all carry timestamps at or below the oracle instant
    /// recorded when its replay finished; flattening up to that boundary
    /// commits exactly that block while later speculated blocks stay
    /// pending. Like [`MvccRuntime::finalize_block`], this must not run
    /// concurrently with active transactions.
    pub fn finalize_below(&self, boundary: cc_primitives::ts::Timestamp) {
        for collection in self.collections.lock().iter() {
            collection.finalize_below(boundary);
        }
    }

    /// Drops every version newer than `boundary` without touching the
    /// backing stores — the **pending-overlay discard**. Rolls the
    /// versioned state back to the boundary of the last trusted block
    /// when a speculated block (or its predecessor) fails validation.
    /// Must not run concurrently with active transactions.
    pub fn discard_above(&self, boundary: cc_primitives::ts::Timestamp) {
        for collection in self.collections.lock().iter() {
            collection.discard_above(boundary);
        }
    }

    /// Garbage-collects versions that no active or future snapshot can
    /// read: in every version list, versions older than the newest one at
    /// or below the oldest active begin timestamp are dropped. Safe to run
    /// concurrently with transactions.
    pub fn collect(&self) {
        let horizon = self.oracle.horizon();
        for collection in self.collections.lock().iter() {
            collection.collect(horizon);
        }
    }

    /// Number of registered collections (diagnostics).
    pub fn collection_count(&self) -> usize {
        self.collections.lock().len()
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
