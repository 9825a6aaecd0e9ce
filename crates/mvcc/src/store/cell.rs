//! A versioned scalar.

use super::{MvccCollection, Versions};
use crate::runtime::MvccRuntime;
use crate::txn::{MvccTxn, PendingOps};
use cc_primitives::ts::Timestamp;
use cc_stm::{BoostedCell, LockId, LockMode};
use std::sync::Arc;

/// Buffered per-transaction state for one versioned cell.
struct CellPending<T> {
    core: Arc<CellCore<T>>,
    write: Option<T>,
    read: bool,
    /// Journal of prior `write` buffers.
    undo: Vec<Option<T>>,
}

impl<T: Clone + Send + Sync + 'static> PendingOps for CellPending<T> {
    fn undo_last(&mut self) {
        self.write = self.undo.pop().expect("undo entry exists");
    }

    fn undo_len(&self) -> usize {
        self.undo.len()
    }

    fn has_writes(&self) -> bool {
        self.write.is_some()
    }

    fn validate(&self, begin_ts: Timestamp) -> Result<(), LockId> {
        let touched = self.read || self.write.is_some();
        let lost = self
            .core
            .versions
            .first_conflict(begin_ts, touched.then_some((&(), false)));
        lost.map_or(Ok(()), |()| Err(self.core.base.lock_id()))
    }

    fn install(&mut self, commit_ts: Timestamp) {
        let write = self.write.take().map(|value| ((), value));
        self.core
            .versions
            .install(commit_ts, write, |_, _, value| (value, false));
    }
}

/// The version list (keyed by `()`) over the boosted twin.
struct CellCore<T> {
    versions: Versions<(), T>,
    base: BoostedCell<T>,
}

impl<T: Clone + Send + Sync + 'static> MvccCollection for CellCore<T> {
    fn finalize_below(&self, boundary: Timestamp) {
        self.versions
            .finalize_below(boundary, |(), value| self.base.seed(value));
    }

    fn discard_above(&self, boundary: Timestamp) {
        self.versions.discard_above(boundary);
    }
}

/// A multi-version scalar: snapshot reads, one buffered write per
/// transaction, fall-through to the boosted twin.
pub struct VersionedCell<T> {
    core: Arc<CellCore<T>>,
}

impl<T: Clone + Send + Sync + 'static> VersionedCell<T> {
    /// Creates a versioned overlay over `base`, guarded by the twin's
    /// whole-cell lock id so footprints match, and registers it with
    /// `runtime`.
    pub fn new(runtime: &MvccRuntime, base: BoostedCell<T>) -> Self {
        let core = Arc::new(CellCore {
            versions: Versions::default(),
            base,
        });
        runtime.register(core.clone());
        VersionedCell { core }
    }

    /// Runs `f` over `txn`'s buffered state for this cell.
    fn pending<R>(&self, txn: &MvccTxn<'_>, f: impl FnOnce(&mut CellPending<T>) -> R) -> R {
        let init = |core| CellPending {
            core,
            write: None,
            read: false,
            undo: Vec::new(),
        };
        txn.with_pending(&self.core, init, f)
    }

    /// Value as seen by `txn`, marking the cell read.
    fn read(&self, txn: &MvccTxn<'_>) -> T {
        let buffered = self.pending(txn, |p| {
            p.read = true;
            p.write.clone()
        });
        buffered
            .or_else(|| {
                self.core
                    .versions
                    .read_at(&(), txn.begin_ts(), |v| v.cloned())
            })
            .unwrap_or_else(|| self.core.base.peek())
    }

    fn buffer(&self, txn: &MvccTxn<'_>, value: T) {
        self.pending(txn, |p| {
            let prior = p.write.replace(value);
            p.undo.push(prior);
        });
    }

    /// Reads the value (pessimistic twin: shared cell lock).
    pub fn get(&self, txn: &MvccTxn<'_>) -> T {
        txn.footprint(self.core.base.lock_id(), LockMode::Shared);
        self.read(txn)
    }

    /// Reads the value by reference.
    pub fn with<R>(&self, txn: &MvccTxn<'_>, f: impl FnOnce(&T) -> R) -> R {
        f(&self.get(txn))
    }

    /// Overwrites the value (pessimistic twin: exclusive cell lock).
    pub fn set(&self, txn: &MvccTxn<'_>, value: T) {
        txn.footprint(self.core.base.lock_id(), LockMode::Exclusive);
        self.buffer(txn, value);
    }

    /// Read-modify-write; returns the updated value.
    pub fn modify(&self, txn: &MvccTxn<'_>, f: impl FnOnce(&mut T)) -> T {
        txn.footprint(self.core.base.lock_id(), LockMode::Exclusive);
        let mut value = self.read(txn);
        f(&mut value);
        self.buffer(txn, value.clone());
        value
    }
}

impl<T> Clone for VersionedCell<T> {
    fn clone(&self) -> Self {
        VersionedCell {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> std::fmt::Debug for VersionedCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedCell")
            .field("keys_with_versions", &self.core.versions.len())
            .finish()
    }
}
