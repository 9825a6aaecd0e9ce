//! A versioned dynamically-sized array.
//!
//! The length and each element index get their own version lists, matching
//! the pessimistic twin's lock granularity (length lock = the space's
//! `whole()` lock, element locks = per-index). The vector only grows, so
//! an element version is always a value. Bounds checks are semantic reads
//! of the length: they join the read set even for operations whose
//! pessimistic twin takes no length lock (`set`/`modify`), because a
//! bounds decision taken against the snapshot must still hold at the
//! serialization point.

use super::{MvccCollection, Versions};
use crate::runtime::MvccRuntime;
use crate::txn::{MvccTxn, PendingOps};
use cc_primitives::fx::{FxHashMap, FxHashSet};
use cc_primitives::ts::Timestamp;
use cc_stm::{BoostedVec, LockId, LockMode};
use std::sync::Arc;

/// One journaled mutation's prior state.
enum VecUndo<T> {
    Len(Option<usize>),
    Elem(usize, Option<T>),
}

/// Buffered per-transaction state for one versioned vector.
struct VecPending<T> {
    core: Arc<VecCore<T>>,
    len: Option<usize>,
    elems: FxHashMap<usize, T>,
    read_len: bool,
    read_elems: FxHashSet<usize>,
    undo: Vec<VecUndo<T>>,
}

impl<T: Clone + Send + Sync + 'static> PendingOps for VecPending<T> {
    fn undo_last(&mut self) {
        match self.undo.pop().expect("undo entry exists") {
            VecUndo::Len(prior) => self.len = prior,
            VecUndo::Elem(i, Some(prior)) => {
                self.elems.insert(i, prior);
            }
            VecUndo::Elem(i, None) => {
                self.elems.remove(&i);
            }
        }
    }

    fn undo_len(&self) -> usize {
        self.undo.len()
    }

    fn has_writes(&self) -> bool {
        self.len.is_some() || !self.elems.is_empty()
    }

    fn validate(&self, begin_ts: Timestamp) -> Result<(), LockId> {
        let core = &self.core;
        let length = (self.read_len || self.len.is_some()).then_some((&(), false));
        if core.lengths.first_conflict(begin_ts, length).is_some() {
            return Err(core.base.lock_space().whole());
        }
        let elems = self
            .read_elems
            .iter()
            .chain(self.elems.keys())
            .map(|i| (i, false));
        let lost = core.elements.first_conflict(begin_ts, elems);
        lost.map_or(Ok(()), |i| Err(core.base.lock_space().lock_for(i)))
    }

    fn install(&mut self, commit_ts: Timestamp) {
        let len = self.len.take().map(|len| ((), len));
        self.core
            .lengths
            .install(commit_ts, len, |_, _, len| (len, false));
        self.core
            .elements
            .install(commit_ts, self.elems.drain(), |_, _, value| (value, false));
    }
}

/// The length and element version lists over the boosted twin.
struct VecCore<T> {
    lengths: Versions<(), usize>,
    elements: Versions<usize, T>,
    base: BoostedVec<T>,
}

impl<T: Clone + Send + Sync + 'static> MvccCollection for VecCore<T> {
    fn finalize_below(&self, boundary: Timestamp) {
        // The length and element lists are sliced at the same boundary:
        // the twin's new contents are every list read as of the boundary.
        let len = self
            .lengths
            .read_at(&(), boundary)
            .unwrap_or_else(|| self.base.snapshot_len());
        let items: Vec<T> = (0..len)
            .map(|i| {
                self.elements
                    .read_at(&i, boundary)
                    .or_else(|| self.base.peek(i))
                    .expect("base element within final length")
            })
            .collect();
        self.lengths.finalize_below(boundary, |_, _| {});
        self.elements.finalize_below(boundary, |_, _| {});
        self.base.restore(items);
    }

    fn discard_above(&self, boundary: Timestamp) {
        self.lengths.discard_above(boundary);
        self.elements.discard_above(boundary);
    }

    fn collect(&self, horizon: Timestamp) {
        self.lengths.collect(horizon);
        self.elements.collect(horizon);
    }
}

/// A multi-version vector with snapshot bounds checks.
pub struct VersionedVec<T> {
    core: Arc<VecCore<T>>,
}

impl<T: Clone + Send + Sync + 'static> VersionedVec<T> {
    /// Creates a versioned overlay over `base`, sharing its lock space so
    /// footprints match, and registers it with `runtime`.
    pub fn new(runtime: &MvccRuntime, base: BoostedVec<T>) -> Self {
        let core = Arc::new(VecCore {
            lengths: Versions::default(),
            elements: Versions::default(),
            base,
        });
        runtime.register(core.clone());
        VersionedVec { core }
    }

    /// Runs `f` over `txn`'s buffered state for this vector.
    fn pending<R>(&self, txn: &MvccTxn<'_>, f: impl FnOnce(&mut VecPending<T>) -> R) -> R {
        let init = |core| VecPending {
            core,
            len: None,
            elems: FxHashMap::default(),
            read_len: false,
            read_elems: FxHashSet::default(),
            undo: Vec::new(),
        };
        txn.with_pending(&self.core, init, f)
    }

    fn length_lock(&self) -> LockId {
        self.core.base.lock_space().whole()
    }

    fn element_lock(&self, i: usize) -> LockId {
        self.core.base.lock_space().lock_for(&i)
    }

    /// Length as seen by `txn`, marking it read (every bounds decision
    /// depends on it).
    fn current_len(&self, txn: &MvccTxn<'_>) -> usize {
        let buffered = self.pending(txn, |p| {
            p.read_len = true;
            p.len
        });
        buffered
            .or_else(|| self.core.lengths.read_at(&(), txn.begin_ts()))
            .unwrap_or_else(|| self.core.base.snapshot_len())
    }

    /// Element `i` as seen by `txn`, marking it read.
    fn read_elem(&self, txn: &MvccTxn<'_>, i: usize) -> Option<T> {
        let buffered = self.pending(txn, |p| {
            p.read_elems.insert(i);
            p.elems.get(&i).cloned()
        });
        buffered
            .or_else(|| self.core.elements.read_at(&i, txn.begin_ts()))
            .or_else(|| self.core.base.peek(i))
    }

    fn buffer_elem(&self, txn: &MvccTxn<'_>, i: usize, value: T) {
        self.pending(txn, |p| {
            let prior = p.elems.insert(i, value);
            p.undo.push(VecUndo::Elem(i, prior));
        });
    }

    /// Number of elements (pessimistic twin: shared length lock).
    pub fn len(&self, txn: &MvccTxn<'_>) -> usize {
        txn.footprint(self.length_lock(), LockMode::Shared);
        self.current_len(txn)
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self, txn: &MvccTxn<'_>) -> bool {
        self.len(txn) == 0
    }

    /// Reads element `i` (pessimistic twin: shared element lock).
    pub fn get(&self, txn: &MvccTxn<'_>, i: usize) -> Option<T> {
        txn.footprint(self.element_lock(i), LockMode::Shared);
        self.read_elem(txn, i)
    }

    /// Reads element `i` by reference.
    pub fn get_with<R>(&self, txn: &MvccTxn<'_>, i: usize, f: impl FnOnce(Option<&T>) -> R) -> R {
        f(self.get(txn, i).as_ref())
    }

    /// Overwrites element `i`; `false` (and no write) when out of bounds.
    /// Pessimistic twin: exclusive element lock only — but the bounds
    /// check reads the length into the read set.
    pub fn set(&self, txn: &MvccTxn<'_>, i: usize, value: T) -> bool {
        txn.footprint(self.element_lock(i), LockMode::Exclusive);
        let in_bounds = i < self.current_len(txn);
        if in_bounds {
            self.buffer_elem(txn, i, value);
        }
        in_bounds
    }

    /// Read-modify-write of element `i`; returns the updated value, or
    /// `None` when out of bounds.
    pub fn modify(&self, txn: &MvccTxn<'_>, i: usize, f: impl FnOnce(&mut T)) -> Option<T> {
        txn.footprint(self.element_lock(i), LockMode::Exclusive);
        if i >= self.current_len(txn) {
            return None;
        }
        let mut value = self.read_elem(txn, i)?;
        f(&mut value);
        self.buffer_elem(txn, i, value.clone());
        Some(value)
    }

    /// Appends an element, returning its index (pessimistic twin:
    /// exclusive length lock plus the new element's lock).
    pub fn push(&self, txn: &MvccTxn<'_>, value: T) -> usize {
        txn.footprint(self.length_lock(), LockMode::Exclusive);
        let index = self.current_len(txn);
        self.pending(txn, |p| {
            let prior = p.len.replace(index + 1);
            p.undo.push(VecUndo::Len(prior));
        });
        txn.footprint(self.element_lock(index), LockMode::Exclusive);
        self.buffer_elem(txn, index, value);
        index
    }
}

impl<T> Clone for VersionedVec<T> {
    fn clone(&self) -> Self {
        VersionedVec {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> std::fmt::Debug for VersionedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedVec")
            .field("length_lists", &self.core.lengths.len())
            .field("element_lists", &self.core.elements.len())
            .finish()
    }
}
