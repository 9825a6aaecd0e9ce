//! A boosted tally map whose `add` operation uses the commutative
//! (additive) lock mode.

use crate::error::StmError;
use crate::lock::{LockMode, LockSpace};
use crate::txn::{Transaction, UndoSink};
use cc_primitives::fnv::fnv1a_of;
use cc_primitives::fx::{BucketMask, RawFxMap, ShardedRawTable};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A map from keys to `u64` tallies supporting a commutative `add`.
///
/// `add(k, δ)` acquires the key's abstract lock in **additive** mode:
/// additive holders commute, so many transactions can increment the same
/// tally concurrently (the Ballot contract's
/// `proposals[p].voteCount += weight`). Reads (`get`) take the lock in
/// **shared** mode — they commute with each other but order against all
/// concurrent adds and sets; `set` takes the lock exclusively.
///
/// # Example
///
/// ```
/// use cc_stm::{Stm, BoostedCounterMap};
/// let stm = Stm::new();
/// let votes: BoostedCounterMap<u32> = BoostedCounterMap::new("ballot.vote_counts");
/// stm.run(|txn| {
///     votes.add(txn, 0, 3)?;
///     votes.add(txn, 0, 2)?;
///     Ok(())
/// }).unwrap();
/// assert_eq!(votes.peek(&0), 5);
/// ```
pub struct BoostedCounterMap<K> {
    name: String,
    space: LockSpace,
    inner: Arc<ShardedRawTable<K, u64>>,
}

/// One typed inverse entry of a [`BoostedCounterMap`] mutation; carries
/// the key's FNV fingerprint so inverses never re-hash.
enum CounterUndoEntry<K> {
    /// Subtract the delta an `add` contributed.
    Sub(u64, K, u64),
    /// Restore the prior binding a `set` overwrote.
    Restore(u64, K, Option<u64>),
}

/// The typed undo sink of one [`BoostedCounterMap`].
struct CounterUndo<K> {
    target: Arc<ShardedRawTable<K, u64>>,
    entries: Vec<CounterUndoEntry<K>>,
}

impl<K> UndoSink for CounterUndo<K>
where
    K: Hash + Eq + Send + Sync + 'static,
{
    fn undo_last(&mut self) {
        if let Some(entry) = self.entries.pop() {
            // Inverses replay while the aborting transaction still holds
            // the key's abstract lock, so the raw access is licensed.
            match entry {
                CounterUndoEntry::Sub(hash, key, delta) => {
                    self.target.write(hash, |map| {
                        if let Some(v) = map.get_hashed_mut(hash, &key) {
                            *v = v.saturating_sub(delta);
                        }
                    });
                }
                CounterUndoEntry::Restore(hash, key, prior) => {
                    self.target.write(hash, |map| match prior {
                        Some(v) => {
                            map.insert_hashed(hash, key, v);
                        }
                        None => {
                            map.remove_hashed(hash, &key);
                        }
                    });
                }
            }
        }
    }
    fn reset(&mut self) {
        self.entries.clear();
    }
}

impl<K> Clone for BoostedCounterMap<K> {
    fn clone(&self) -> Self {
        BoostedCounterMap {
            name: self.name.clone(),
            space: self.space,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K> fmt::Debug for BoostedCounterMap<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoostedCounterMap")
            .field("name", &self.name)
            .field("len", &self.inner.len())
            .finish()
    }
}

impl<K> BoostedCounterMap<K>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Creates an empty tally map in the lock space derived from `name`.
    pub fn new(name: &str) -> Self {
        BoostedCounterMap {
            name: name.to_string(),
            space: LockSpace::new(name),
            inner: Arc::new(ShardedRawTable::new()),
        }
    }

    /// The undo-sink token of this map (the backing storage address).
    fn undo_token(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// The sink constructor passed to the transaction on first use.
    fn undo_init(&self) -> impl FnOnce() -> CounterUndo<K> {
        let target = Arc::clone(&self.inner);
        || CounterUndo {
            target,
            entries: Vec::new(),
        }
    }

    /// The stable name of this map.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lock space this map's key locks live in (shared with an
    /// optimistic overlay so footprints match).
    pub fn lock_space(&self) -> LockSpace {
        self.space
    }

    /// Transactionally adds `delta` to the tally for `key` (starting from
    /// zero if absent). Acquires the key lock in additive mode, so
    /// concurrent adds to the same key commute. Returns nothing — reading
    /// the running total would break commutativity; use [`get`](Self::get)
    /// if the current value is needed.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn add(&self, txn: &Transaction, key: K, delta: u64) -> Result<(), StmError> {
        let h = fnv1a_of(&key);
        txn.acquire_and_log(
            self.space.lock_for_hashed(h),
            LockMode::Additive,
            self.undo_token(),
            self.undo_init(),
            || {
                // Concurrent additive holders of the same key commute at
                // the abstract level; the shard latch (inside `with`)
                // orders their physical read-modify-writes.
                self.inner.write(h, |map| {
                    *map.entry_hashed(h, key.clone()).or_insert(0) += delta;
                });
                key
            },
            |sink, key| {
                sink.entries.push(CounterUndoEntry::Sub(h, key, delta));
                true
            },
        )
    }

    /// Transactionally reads the tally for `key` (0 if absent). Shared:
    /// concurrent reads commute, while adds and sets (additive/exclusive
    /// on the same lock) still order against them.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn get(&self, txn: &Transaction, key: &K) -> Result<u64, StmError> {
        let h = fnv1a_of(key);
        let lock = self.space.lock_for_hashed(h);
        txn.acquire(lock, LockMode::Shared)?;
        txn.debug_assert_held(lock);
        Ok(self
            .inner
            .read(h, |map| map.get_hashed(h, key).copied().unwrap_or(0)))
    }

    /// Transactionally overwrites the tally for `key` (exclusive). The
    /// prior binding moves into the undo log.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn set(&self, txn: &Transaction, key: K, value: u64) -> Result<(), StmError> {
        let h = fnv1a_of(&key);
        txn.acquire_and_log(
            self.space.lock_for_hashed(h),
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || {
                let previous = self
                    .inner
                    .write(h, |map| map.insert_hashed(h, key.clone(), value));
                (key, previous)
            },
            |sink, (key, previous)| {
                sink.entries
                    .push(CounterUndoEntry::Restore(h, key, previous));
                true
            },
        )
    }

    /// Non-transactional read (setup, commitment, tests).
    pub fn peek(&self, key: &K) -> u64 {
        let h = fnv1a_of(key);
        self.inner
            .read(h, |map| map.get_hashed(h, key).copied().unwrap_or(0))
    }

    /// Non-transactional write used during setup.
    pub fn seed(&self, key: K, value: u64) {
        let h = fnv1a_of(&key);
        self.inner.write(h, |map| {
            map.insert_hashed(h, key, value);
        });
    }

    /// Visits every non-zero tally by reference, in unspecified order
    /// (non-transactional; consistent only when transactions are
    /// quiesced).
    ///
    /// Zero tallies are omitted: a tally that was incremented and then
    /// undone (the inverse of `add` is "subtract") must be
    /// indistinguishable from one that was never touched, otherwise state
    /// commitments would depend on aborted speculation.
    pub fn for_each(&self, mut f: impl FnMut(&K, u64)) {
        self.inner.fold((), |(), map| {
            map.iter()
                .filter(|(_, v)| **v != 0)
                .for_each(|(k, v)| f(k, *v));
        });
    }

    /// Point-in-time copy of all non-zero tallies (see
    /// [`for_each`](Self::for_each)).
    pub fn snapshot(&self) -> Vec<(K, u64)> {
        let mut entries = Vec::new();
        self.for_each(|k, v| entries.push((k.clone(), v)));
        entries
    }

    /// Takes the backing store's dirty-bucket marks (see
    /// [`crate::BoostedMap::drain_dirty`]). The raw table handed to `f`
    /// may hold zero tallies; a commitment must skip them, as
    /// [`for_each`](Self::for_each) does.
    pub fn drain_dirty(&self, f: impl FnMut(usize, BucketMask, &RawFxMap<K, u64>)) {
        self.inner.drain_dirty(f);
    }

    /// Whether a drain would find any bucket written. Leaves the marks.
    pub fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }

    /// Replaces all tallies (snapshot restore / setup only).
    pub fn restore(&self, entries: impl IntoIterator<Item = (K, u64)>) {
        self.inner.clear();
        for (key, value) in entries {
            self.seed(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Stm;
    use std::sync::Arc as StdArc;

    #[test]
    fn add_get_set() {
        let stm = Stm::new();
        let c: BoostedCounterMap<u8> = BoostedCounterMap::new("cnt.basic");
        stm.run(|txn| {
            c.add(txn, 1, 5)?;
            c.add(txn, 1, 2)?;
            assert_eq!(c.get(txn, &1)?, 7);
            c.set(txn, 2, 100)?;
            assert_eq!(c.get(txn, &2)?, 100);
            Ok(())
        })
        .unwrap();
        assert_eq!(c.peek(&1), 7);
    }

    #[test]
    fn abort_undoes_adds_and_sets() {
        let stm = Stm::new();
        let c: BoostedCounterMap<u8> = BoostedCounterMap::new("cnt.abort");
        c.seed(1, 10);
        let txn = stm.begin();
        c.add(&txn, 1, 5).unwrap();
        c.set(&txn, 2, 7).unwrap();
        txn.abort().unwrap();
        assert_eq!(c.peek(&1), 10);
        assert_eq!(c.peek(&2), 0);
        assert_eq!(c.snapshot().len(), 1);
    }

    #[test]
    fn concurrent_adds_commute_and_do_not_conflict() {
        let stm = Stm::new();
        let c: BoostedCounterMap<u8> = BoostedCounterMap::new("cnt.additive");
        // Both transactions hold the additive lock on the same key at the
        // same time — neither blocks.
        let t1 = stm.begin();
        let t2 = stm.begin();
        c.add(&t1, 0, 1).unwrap();
        c.add(&t2, 0, 2).unwrap();
        let p1 = t1.commit().unwrap();
        let p2 = t2.commit().unwrap();
        assert_eq!(c.peek(&0), 3);
        assert!(!p1.profile.conflicts_with(&p2.profile));
    }

    #[test]
    fn read_conflicts_with_add() {
        let stm = Stm::new();
        let c: BoostedCounterMap<u8> = BoostedCounterMap::new("cnt.read");
        let t1 = stm.begin();
        c.add(&t1, 3, 1).unwrap();
        let p1 = t1.commit().unwrap();
        let t2 = stm.begin();
        c.get(&t2, &3).unwrap();
        let p2 = t2.commit().unwrap();
        assert!(p1.profile.conflicts_with(&p2.profile));
    }

    #[test]
    fn parallel_adds_from_many_threads_sum_correctly() {
        let stm = Stm::new();
        let c: StdArc<BoostedCounterMap<u8>> = StdArc::new(BoostedCounterMap::new("cnt.par"));
        crossbeam::scope(|s| {
            for _ in 0..8 {
                let stm = stm.clone();
                let c = StdArc::clone(&c);
                s.spawn(move |_| {
                    for _ in 0..100 {
                        stm.run(|txn| c.add(txn, 0, 1)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(c.peek(&0), 800);
    }

    /// The dirty-mark seam (see the `BoostedMap` twin of this test).
    #[test]
    fn every_write_path_marks_its_bucket_and_no_read_does() {
        use cc_primitives::fx::{bucket_of, shard_of};

        let stm = Stm::new();
        let c: BoostedCounterMap<u64> = BoostedCounterMap::new("cnt.dirty");
        let drained = || {
            let mut marks = Vec::new();
            c.drain_dirty(|shard, mask, _| marks.extend(mask.iter().map(|b| (shard, b))));
            marks
        };
        let mark_of = |key: u64| {
            let h = fnv1a_of(&key);
            vec![(shard_of(h), bucket_of(h))]
        };

        c.seed(1, 10);
        assert_eq!(drained(), mark_of(1), "seed");

        stm.run(|txn| c.get(txn, &1)).unwrap();
        c.peek(&1);
        c.snapshot();
        c.for_each(|_, _| ());
        assert!(drained().is_empty(), "reads leave no mark");

        stm.run(|txn| c.add(txn, 1, 5)).unwrap();
        assert_eq!(drained(), mark_of(1), "add");
        stm.run(|txn| c.set(txn, 2, 7)).unwrap();
        assert_eq!(drained(), mark_of(2), "set");

        // Undo replay, with the mutator's own mark drained first.
        let txn = stm.begin();
        c.add(&txn, 3, 1).unwrap();
        drained();
        txn.abort().unwrap();
        assert_eq!(drained(), mark_of(3), "undo of an add (subtract)");
        let txn = stm.begin();
        c.set(&txn, 4, 9).unwrap();
        drained();
        txn.abort().unwrap();
        assert_eq!(drained(), mark_of(4), "undo of a set (restore)");

        c.restore(vec![(5, 50)]);
        assert_eq!(drained().len(), 4096, "restore clears, which marks all");
    }

    #[test]
    fn snapshot_restore() {
        let c: BoostedCounterMap<u8> = BoostedCounterMap::new("cnt.snap");
        c.seed(1, 5);
        c.seed(2, 6);
        let snap = c.snapshot();
        c.restore(vec![(9, 9)]);
        assert_eq!(c.peek(&1), 0);
        c.restore(snap);
        assert_eq!(c.peek(&1), 5);
        assert_eq!(c.peek(&2), 6);
    }
}
