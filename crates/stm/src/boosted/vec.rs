//! A boosted growable array (Solidity dynamically-sized array).

use crate::error::StmError;
use crate::lock::{LockId, LockMode, LockSpace};
use crate::txn::{Transaction, UndoSink};
use cc_primitives::fx::RawSlot;
use std::fmt;
use std::sync::Arc;

/// A transactional vector.
///
/// * element reads lock the individual index in shared mode (concurrent
///   reads of the same element commute) and element writes lock it
///   exclusively, so updates to different proposals commute,
/// * `push` locks a dedicated *length* lock exclusively (pushes do not
///   commute with each other), while `len` takes it in shared mode so
///   concurrent length reads commute. The vector only grows: a contract's
///   array has no `pop`.
///
/// The backing store is a latched [`RawSlot<Vec<T>>`] — no reader-writer
/// lock. The abstract locks serialize conflicting element/length
/// operations; the word-sized latch protects the `Vec`'s single shared
/// allocation, which even disjoint abstract locks share (a `push`'s
/// reallocation would otherwise race an element read under a different
/// index lock). Debug builds prove the abstract lock is held before every
/// raw access.
///
/// # Example
///
/// ```
/// use cc_stm::{Stm, BoostedVec};
/// let stm = Stm::new();
/// let proposals: BoostedVec<&'static str> = BoostedVec::new("ballot.proposals");
/// stm.run(|txn| {
///     proposals.push(txn, "expand the park")?;
///     proposals.push(txn, "repave main st")?;
///     assert_eq!(proposals.len(txn)?, 2);
///     assert_eq!(proposals.get(txn, 0)?, Some("expand the park"));
///     Ok(())
/// }).unwrap();
/// ```
pub struct BoostedVec<T> {
    name: String,
    space: LockSpace,
    length_lock: LockId,
    inner: Arc<RawSlot<Vec<T>>>,
}

/// One typed inverse entry of a [`BoostedVec`] mutation.
enum VecUndoEntry<T> {
    /// Restore the prior value of an overwritten index.
    Set(usize, T),
    /// Remove the element a `push` appended at this index.
    Unpush(usize),
}

/// The typed undo sink of one [`BoostedVec`].
struct VecUndo<T> {
    target: Arc<RawSlot<Vec<T>>>,
    entries: Vec<VecUndoEntry<T>>,
}

impl<T: Send + Sync + 'static> UndoSink for VecUndo<T> {
    fn undo_last(&mut self) {
        if let Some(entry) = self.entries.pop() {
            // Inverses replay while the aborting transaction still holds
            // the element/length abstract locks it mutated under.
            self.target.write(|v| match entry {
                VecUndoEntry::Set(i, prior) => {
                    if let Some(slot) = v.get_mut(i) {
                        *slot = prior;
                    }
                }
                VecUndoEntry::Unpush(index) => {
                    if v.len() == index + 1 {
                        v.pop();
                    }
                }
            });
        }
    }
    fn reset(&mut self) {
        self.entries.clear();
    }
}

impl<T> Clone for BoostedVec<T> {
    fn clone(&self) -> Self {
        BoostedVec {
            name: self.name.clone(),
            space: self.space,
            length_lock: self.length_lock,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for BoostedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoostedVec")
            .field("name", &self.name)
            .field("len", &self.inner.read(|v| v.len()))
            .finish()
    }
}

impl<T> BoostedVec<T>
where
    T: Clone + Send + Sync + 'static,
{
    /// Creates an empty boosted vector with locks in the space derived from
    /// `name`.
    pub fn new(name: &str) -> Self {
        let space = LockSpace::new(name);
        BoostedVec {
            name: name.to_string(),
            space,
            length_lock: space.whole(),
            inner: Arc::new(RawSlot::new(Vec::new())),
        }
    }

    /// The stable name of this vector.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lock space this vector's length and element locks live in
    /// (shared with an optimistic overlay so footprints match).
    pub fn lock_space(&self) -> LockSpace {
        self.space
    }

    /// The undo-sink token of this vector (the backing storage address).
    fn undo_token(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// The sink constructor passed to the transaction on first use.
    fn undo_init(&self) -> impl FnOnce() -> VecUndo<T> {
        let target = Arc::clone(&self.inner);
        || VecUndo {
            target,
            entries: Vec::new(),
        }
    }

    /// The element lock for index `i`, hashing the index once.
    fn element_lock(&self, i: usize) -> crate::lock::LockId {
        self.space.lock_for(&i)
    }

    /// Transactionally returns the number of elements. Takes the length
    /// lock in shared mode: concurrent `len` calls commute, while `push`
    /// (exclusive on the same lock) still orders against them.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn len(&self, txn: &Transaction) -> Result<usize, StmError> {
        txn.acquire(self.length_lock, LockMode::Shared)?;
        txn.debug_assert_held(self.length_lock);
        Ok(self.inner.read(|v| v.len()))
    }

    /// Transactionally reports whether the vector is empty.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn is_empty(&self, txn: &Transaction) -> Result<bool, StmError> {
        Ok(self.len(txn)? == 0)
    }

    /// Transactionally reads index `i` (None if out of bounds). Takes the
    /// element lock in shared mode.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn get(&self, txn: &Transaction, i: usize) -> Result<Option<T>, StmError> {
        let lock = self.element_lock(i);
        txn.acquire(lock, LockMode::Shared)?;
        txn.debug_assert_held(lock);
        Ok(self.inner.read(|v| v.get(i).cloned()))
    }

    /// Transactionally reads index `i` **by reference**: `f` observes the
    /// element in place (or `None` when out of bounds) and only what it
    /// returns is materialized — no `T: Clone` per read. Same shared-mode
    /// locking as [`BoostedVec::get`].
    ///
    /// `f` runs under the slot's latch; it must not touch the
    /// transaction or this vector.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn get_with<R>(
        &self,
        txn: &Transaction,
        i: usize,
        f: impl FnOnce(Option<&T>) -> R,
    ) -> Result<R, StmError> {
        let lock = self.element_lock(i);
        txn.acquire(lock, LockMode::Shared)?;
        txn.debug_assert_held(lock);
        Ok(self.inner.read(|v| f(v.get(i))))
    }

    /// Transactionally overwrites index `i`. Returns `false` (and does
    /// nothing) if `i` is out of bounds. The prior value moves into the
    /// undo log — one write-lock pass, no clones.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn set(&self, txn: &Transaction, i: usize, value: T) -> Result<bool, StmError> {
        let mut in_bounds = false;
        txn.acquire_and_log(
            self.element_lock(i),
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || {
                let previous = self
                    .inner
                    .write(|v| v.get_mut(i).map(|slot| std::mem::replace(slot, value)));
                in_bounds = previous.is_some();
                previous
            },
            |sink, previous| match previous {
                Some(prev) => {
                    sink.entries.push(VecUndoEntry::Set(i, prev));
                    true
                }
                None => false,
            },
        )?;
        Ok(in_bounds)
    }

    /// Transactionally applies `f` to element `i` in place (a single
    /// write-lock pass). Returns the updated value, or `None` if out of
    /// bounds.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn modify(
        &self,
        txn: &Transaction,
        i: usize,
        f: impl FnOnce(&mut T),
    ) -> Result<Option<T>, StmError> {
        let mut updated = None;
        txn.acquire_and_log(
            self.element_lock(i),
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || {
                self.inner.write(|v| match v.get_mut(i) {
                    Some(slot) => {
                        let prior = slot.clone();
                        f(slot);
                        updated = Some(slot.clone());
                        Some(prior)
                    }
                    None => None,
                })
            },
            |sink, prior| match prior {
                Some(prior) => {
                    sink.entries.push(VecUndoEntry::Set(i, prior));
                    true
                }
                None => false,
            },
        )?;
        Ok(updated)
    }

    /// Transactionally appends a value, returning its index. Locks the
    /// length lock plus the new element's index lock.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn push(&self, txn: &Transaction, value: T) -> Result<usize, StmError> {
        txn.acquire(self.length_lock, LockMode::Exclusive)?;
        txn.debug_assert_held(self.length_lock);
        let index = self.inner.read(|v| v.len());
        txn.acquire_and_log(
            self.element_lock(index),
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || self.inner.write(|v| v.push(value)),
            |sink, ()| {
                sink.entries.push(VecUndoEntry::Unpush(index));
                true
            },
        )?;
        Ok(index)
    }

    /// Non-transactional element read (setup/tests only).
    pub fn peek(&self, i: usize) -> Option<T> {
        self.inner.read(|v| v.get(i).cloned())
    }

    /// Non-transactional length (setup/tests only).
    pub fn snapshot_len(&self) -> usize {
        self.inner.read(|v| v.len())
    }

    /// Non-transactional append used while building initial state.
    pub fn seed_push(&self, value: T) {
        self.inner.write(|v| v.push(value));
    }

    /// Point-in-time copy of the vector contents.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner.read(|v| v.clone())
    }

    /// If the vector was written — by a mutator, an undo replay,
    /// `seed_push` or `restore` — since the previous drain (a new vector
    /// counts as written), clears the mark and returns `f(contents)`;
    /// otherwise `None`. See [`crate::BoostedCell::drain_dirty`].
    pub fn drain_dirty<R>(&self, f: impl FnOnce(&[T]) -> R) -> Option<R> {
        self.inner.drain_dirty(|v| f(v))
    }

    /// Whether a drain would find the vector written. Leaves the mark.
    pub fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }

    /// Replaces the contents (snapshot restore / setup only).
    pub fn restore(&self, values: impl IntoIterator<Item = T>) {
        let values: Vec<T> = values.into_iter().collect();
        self.inner.write(|v| {
            v.clear();
            v.extend(values);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Stm;
    use proptest::prelude::*;

    #[test]
    fn push_get_set_len() {
        let stm = Stm::new();
        let v: BoostedVec<u32> = BoostedVec::new("vec.basic");
        stm.run(|txn| {
            assert_eq!(v.push(txn, 10)?, 0);
            assert_eq!(v.push(txn, 20)?, 1);
            assert_eq!(v.len(txn)?, 2);
            assert!(!v.is_empty(txn)?);
            assert!(v.set(txn, 0, 11)?);
            assert!(!v.set(txn, 9, 99)?);
            assert_eq!(v.get(txn, 0)?, Some(11));
            assert_eq!(v.get(txn, 9)?, None);
            assert_eq!(v.modify(txn, 1, |x| *x += 1)?, Some(21));
            assert_eq!(v.modify(txn, 9, |x| *x += 1)?, None);
            Ok(())
        })
        .unwrap();
        assert_eq!(v.snapshot(), vec![11, 21]);
    }

    #[test]
    fn abort_undoes_push_set_and_modify() {
        let stm = Stm::new();
        let v: BoostedVec<i64> = BoostedVec::new("vec.abort");
        v.seed_push(1);
        v.seed_push(2);

        let txn = stm.begin();
        v.push(&txn, 3).unwrap();
        v.set(&txn, 0, 100).unwrap();
        v.modify(&txn, 2, |x| *x += 1).unwrap();
        v.push(&txn, 4).unwrap();
        txn.abort().unwrap();
        assert_eq!(v.snapshot(), vec![1, 2]);
    }

    #[test]
    fn element_updates_on_distinct_indices_commute() {
        let stm = Stm::new();
        let v: BoostedVec<u64> = BoostedVec::new("vec.disjoint");
        v.seed_push(0);
        v.seed_push(0);
        let t1 = stm.begin();
        let t2 = stm.begin();
        v.set(&t1, 0, 7).unwrap();
        v.set(&t2, 1, 8).unwrap();
        let p1 = t1.commit().unwrap();
        let p2 = t2.commit().unwrap();
        assert!(!p1.profile.conflicts_with(&p2.profile));
    }

    #[test]
    fn pushes_conflict_via_length_lock() {
        let stm = Stm::new();
        let v: BoostedVec<u64> = BoostedVec::new("vec.pushes");
        let t1 = stm.begin();
        v.push(&t1, 1).unwrap();
        let p1 = t1.commit().unwrap();
        let t2 = stm.begin();
        v.push(&t2, 2).unwrap();
        let p2 = t2.commit().unwrap();
        assert!(p1.profile.conflicts_with(&p2.profile));
    }

    /// The dirty-mark seam: a new vector, every mutator, every kind of
    /// undo entry, `seed_push` and `restore` mark the vector; no read
    /// does.
    #[test]
    fn every_write_path_marks_the_vector_and_no_read_does() {
        let stm = Stm::new();
        let v: BoostedVec<u64> = BoostedVec::new("vec.dirty");
        let dirty = || v.drain_dirty(|items| items.to_vec());
        assert_eq!(dirty(), Some(vec![]), "a new vector was never committed to");
        assert_eq!(dirty(), None);

        v.seed_push(1);
        assert_eq!(dirty(), Some(vec![1]), "seed_push");

        stm.run(|txn| {
            v.len(txn)?;
            v.is_empty(txn)?;
            v.get(txn, 0)?;
            v.get_with(txn, 0, |_| ())
        })
        .unwrap();
        v.peek(0);
        v.snapshot_len();
        v.snapshot();
        assert_eq!(dirty(), None, "reads leave no mark");

        stm.run(|txn| v.push(txn, 2).map(drop)).unwrap();
        assert_eq!(dirty(), Some(vec![1, 2]), "push");
        stm.run(|txn| v.set(txn, 0, 10).map(drop)).unwrap();
        assert_eq!(dirty(), Some(vec![10, 2]), "set");
        stm.run(|txn| v.modify(txn, 1, |x| *x += 1).map(drop))
            .unwrap();
        assert_eq!(dirty(), Some(vec![10, 3]), "modify");

        // One undo entry of each kind, the mutator's own mark drained
        // first.
        type Mutator<'a> = &'a dyn Fn(&Transaction) -> Result<(), StmError>;
        let undone: &[(&str, Mutator<'_>)] = &[
            ("undo of a set", &|txn| v.set(txn, 0, 99).map(drop)),
            ("undo of a push", &|txn| v.push(txn, 99).map(drop)),
        ];
        for (name, mutate) in undone {
            let txn = stm.begin();
            mutate(&txn).unwrap();
            assert!(dirty().is_some());
            txn.abort().unwrap();
            assert_eq!(dirty(), Some(vec![10, 3]), "{name}");
        }

        v.restore(vec![7, 8]);
        assert_eq!(dirty(), Some(vec![7, 8]), "restore");
    }

    proptest! {
        /// A random interleaving of pushes/sets/modifies aborted must
        /// restore the initial contents exactly.
        #[test]
        fn prop_abort_restores(initial in proptest::collection::vec(any::<u16>(), 0..12),
                               ops in proptest::collection::vec((0u8..3, 0usize..16, any::<u16>()), 0..24)) {
            let stm = Stm::new();
            let v: BoostedVec<u16> = BoostedVec::new("vec.prop");
            for x in &initial {
                v.seed_push(*x);
            }
            let txn = stm.begin();
            for (op, idx, val) in &ops {
                match op % 3 {
                    0 => { v.push(&txn, *val).unwrap(); }
                    1 => { v.modify(&txn, *idx, |x| *x = x.wrapping_add(*val)).unwrap(); }
                    _ => { v.set(&txn, *idx, *val).unwrap(); }
                }
            }
            txn.abort().unwrap();
            prop_assert_eq!(v.snapshot(), initial);
        }
    }
}
