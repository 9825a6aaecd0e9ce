//! A boosted scalar cell: one state variable protected by one abstract
//! lock.

use crate::error::StmError;
use crate::lock::{LockId, LockMode, LockSpace};
use crate::txn::{Transaction, UndoSink};
use cc_primitives::fx::RawSlot;
use std::fmt;
use std::sync::Arc;

/// A single transactional state variable (e.g. `highestBid`,
/// `chairperson`, `ended`).
///
/// All accesses map to the same abstract lock, so any two transactions
/// that touch the cell conflict — which is exactly the semantics of a
/// scalar Solidity state variable, and is what produces the
/// SimpleAuction/EtherDoc conflict behaviour studied in the paper.
///
/// The backing store is a latched [`RawSlot`] — no reader-writer lock.
/// The abstract cell lock already serializes conflicting accesses (shared
/// readers commute and never overlap the exclusive writer), so the
/// word-sized latch only backstops non-transactional `peek`/`seed` and
/// panics inside read closures; debug builds additionally prove the
/// abstract lock is held before every raw access.
///
/// # Example
///
/// ```
/// use cc_stm::{Stm, BoostedCell};
/// let stm = Stm::new();
/// let highest: BoostedCell<u64> = BoostedCell::new("auction.highest_bid", 0);
/// stm.run(|txn| {
///     let current = highest.get(txn)?;
///     highest.set(txn, current + 1)?;
///     Ok(())
/// }).unwrap();
/// assert_eq!(highest.peek(), 1);
/// ```
pub struct BoostedCell<T> {
    name: String,
    lock: LockId,
    value: Arc<RawSlot<T>>,
}

/// The typed undo sink of one [`BoostedCell`]: prior values, most recent
/// last.
struct CellUndo<T> {
    target: Arc<RawSlot<T>>,
    entries: Vec<T>,
}

impl<T: Send + Sync + 'static> UndoSink for CellUndo<T> {
    fn undo_last(&mut self) {
        if let Some(prior) = self.entries.pop() {
            self.target.write(|slot| *slot = prior);
        }
    }
    fn reset(&mut self) {
        self.entries.clear();
    }
}

impl<T> Clone for BoostedCell<T> {
    fn clone(&self) -> Self {
        BoostedCell {
            name: self.name.clone(),
            lock: self.lock,
            value: Arc::clone(&self.value),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for BoostedCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoostedCell")
            .field("name", &self.name)
            .field("value", &self.value.read(|v| format!("{v:?}")))
            .finish()
    }
}

impl<T> BoostedCell<T>
where
    T: Clone + Send + Sync + 'static,
{
    /// Creates a cell named `name` (stable, globally unique) holding
    /// `initial`.
    pub fn new(name: &str, initial: T) -> Self {
        BoostedCell {
            name: name.to_string(),
            lock: LockSpace::new(name).whole(),
            value: Arc::new(RawSlot::new(initial)),
        }
    }

    /// The stable name of this cell.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The abstract lock protecting the cell.
    pub fn lock_id(&self) -> LockId {
        self.lock
    }

    /// The undo-sink token of this cell (the backing storage address).
    fn undo_token(&self) -> usize {
        Arc::as_ptr(&self.value) as usize
    }

    /// The sink constructor passed to the transaction on first use.
    fn undo_init(&self) -> impl FnOnce() -> CellUndo<T> {
        let target = Arc::clone(&self.value);
        || CellUndo {
            target,
            entries: Vec::new(),
        }
    }

    /// Transactionally reads the value. Takes the cell lock in shared
    /// mode: concurrent reads commute.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn get(&self, txn: &Transaction) -> Result<T, StmError> {
        txn.acquire(self.lock, LockMode::Shared)?;
        txn.debug_assert_held(self.lock);
        Ok(self.value.read(|v| v.clone()))
    }

    /// Transactionally reads the value **by reference**: `f` observes it
    /// in place and only what it returns is materialized. Use this when
    /// the caller immediately discards or compares the value — it skips
    /// the `T: Clone` that [`BoostedCell::get`] pays per read. Same
    /// shared-mode locking.
    ///
    /// `f` runs under the slot's latch; it must not touch the
    /// transaction or this cell.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn with<R>(&self, txn: &Transaction, f: impl FnOnce(&T) -> R) -> Result<R, StmError> {
        txn.acquire(self.lock, LockMode::Shared)?;
        txn.debug_assert_held(self.lock);
        Ok(self.value.read(|v| f(v)))
    }

    /// Transactionally overwrites the value; the previous value moves
    /// into the undo log (no clones).
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn set(&self, txn: &Transaction, new: T) -> Result<(), StmError> {
        txn.acquire_and_log(
            self.lock,
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || self.value.write(|slot| std::mem::replace(slot, new)),
            |sink, previous| {
                sink.entries.push(previous);
                true
            },
        )
    }

    /// Transactionally applies `f` to the value in place (a single
    /// write-lock pass) and returns the updated value.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn modify(&self, txn: &Transaction, f: impl FnOnce(&mut T)) -> Result<T, StmError> {
        let mut updated = None;
        txn.acquire_and_log(
            self.lock,
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || {
                self.value.write(|slot| {
                    let previous = slot.clone();
                    f(slot);
                    updated = Some(slot.clone());
                    previous
                })
            },
            |sink, previous| {
                sink.entries.push(previous);
                true
            },
        )?;
        Ok(updated.expect("mutation ran"))
    }

    /// Non-transactional read (setup, state commitment, tests).
    pub fn peek(&self) -> T {
        self.value.read(|v| v.clone())
    }

    /// Non-transactional write (setup / snapshot restore only).
    pub fn seed(&self, value: T) {
        self.value.write(|slot| *slot = value);
    }

    /// If the cell was written — by a mutator, an undo replay or `seed` —
    /// since the previous drain (a new cell counts as written), clears
    /// the mark and returns `f(value)`; otherwise `None`. This is how a
    /// state commitment learns whether its cached digest is stale; there
    /// must be one consumer per cell. Non-transactional.
    pub fn drain_dirty<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.value.drain_dirty(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Stm;

    #[test]
    fn get_set_modify() {
        let stm = Stm::new();
        let c = BoostedCell::new("cell.a", 5u32);
        stm.run(|txn| {
            assert_eq!(c.get(txn)?, 5);
            c.set(txn, 6)?;
            assert_eq!(c.modify(txn, |v| *v *= 2)?, 12);
            Ok(())
        })
        .unwrap();
        assert_eq!(c.peek(), 12);
    }

    #[test]
    fn abort_restores_value() {
        let stm = Stm::new();
        let c = BoostedCell::new("cell.b", String::from("genesis"));
        let txn = stm.begin();
        c.set(&txn, "tentative".into()).unwrap();
        c.modify(&txn, |s| s.push('!')).unwrap();
        txn.abort().unwrap();
        assert_eq!(c.peek(), "genesis");
    }

    #[test]
    fn two_cells_do_not_conflict() {
        let stm = Stm::new();
        let a = BoostedCell::new("cell.x", 0u8);
        let b = BoostedCell::new("cell.y", 0u8);
        let t1 = stm.begin();
        let t2 = stm.begin();
        a.set(&t1, 1).unwrap();
        b.set(&t2, 2).unwrap();
        let p1 = t1.commit().unwrap();
        let p2 = t2.commit().unwrap();
        assert!(!p1.profile.conflicts_with(&p2.profile));
    }

    #[test]
    fn same_cell_conflicts() {
        let stm = Stm::new();
        let a = BoostedCell::new("cell.same", 0u8);
        let t1 = stm.begin();
        a.set(&t1, 1).unwrap();
        let p1 = t1.commit().unwrap();
        let t2 = stm.begin();
        a.get(&t2).unwrap();
        let p2 = t2.commit().unwrap();
        assert!(p1.profile.conflicts_with(&p2.profile));
    }

    /// The dirty-mark seam: a new cell, every mutator, undo replay and
    /// `seed` mark the cell; no read does.
    #[test]
    fn every_write_path_marks_the_cell_and_no_read_does() {
        let stm = Stm::new();
        let c = BoostedCell::new("cell.dirty", 1u64);
        let dirty = || c.drain_dirty(|v| *v);
        assert_eq!(dirty(), Some(1), "a new cell was never committed to");
        assert_eq!(dirty(), None);

        stm.run(|txn| {
            c.get(txn)?;
            c.with(txn, |_| ())
        })
        .unwrap();
        c.peek();
        assert_eq!(dirty(), None, "reads leave no mark");

        stm.run(|txn| c.set(txn, 2)).unwrap();
        assert_eq!(dirty(), Some(2), "set");
        stm.run(|txn| c.modify(txn, |v| *v += 1).map(drop)).unwrap();
        assert_eq!(dirty(), Some(3), "modify");

        let txn = stm.begin();
        c.set(&txn, 9).unwrap();
        assert_eq!(dirty(), Some(9));
        txn.abort().unwrap();
        assert_eq!(dirty(), Some(3), "undo replay");

        c.seed(4);
        assert_eq!(dirty(), Some(4), "seed");
    }

    #[test]
    fn seed_bypasses_transactions() {
        let c = BoostedCell::new("cell.seed", 0u64);
        c.seed(77);
        assert_eq!(c.peek(), 77);
    }
}
