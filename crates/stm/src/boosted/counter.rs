//! The commuting `add` of a `u64`-valued [`BoostedMap`]: a tally is a map
//! whose writers only add.

use super::BoostedMap;
use crate::error::StmError;
use crate::lock::LockMode;
use crate::txn::{Transaction, UndoSink};
use cc_primitives::fnv::fnv1a_of;
use cc_primitives::fx::{RawEntry, ShardedRawTable};
use std::hash::Hash;
use std::sync::Arc;

/// The undo sink of one map's adds: `(key hash, key, delta, whether the
/// key was bound to 0 before the add)`. It sits next to the map's own
/// sink under the map's token plus one (an address inside the same
/// allocation, so no other collection's token), and the transaction
/// replays both in one most-recent-first order.
struct AddUndo<K> {
    target: Arc<ShardedRawTable<K, u64>>,
    entries: Vec<(u64, K, u64, bool)>,
}

impl<K> UndoSink for AddUndo<K>
where
    K: Hash + Eq + Send + Sync + 'static,
{
    fn undo_last(&mut self) {
        if let Some((hash, key, delta, zero_bound)) = self.entries.pop() {
            // Inverses replay while the aborting transaction still holds
            // the key's abstract lock, so the raw access is licensed.
            self.target.write(hash, |map| {
                step(
                    map.entry_hashed(hash, key),
                    |v| v.wrapping_sub(delta),
                    zero_bound,
                );
            });
        }
    }
    fn reset(&mut self) {
        self.entries.clear();
    }
}

/// Moves one slot's tally (0 when unbound) to `f(tally)` in one probe,
/// returning the prior binding. A result of 0 unbinds the key unless
/// `keep_zero`.
fn step<K: Eq>(
    slot: RawEntry<'_, K, u64>,
    f: impl FnOnce(u64) -> u64,
    keep_zero: bool,
) -> Option<u64> {
    match slot {
        RawEntry::Occupied(mut slot) => {
            let prior = *slot.get();
            match f(prior) {
                0 if !keep_zero => drop(slot.remove()),
                total => *slot.get_mut() = total,
            }
            Some(prior)
        }
        RawEntry::Vacant(slot) => {
            match f(0) {
                0 if !keep_zero => {}
                total => drop(slot.insert(total)),
            }
            None
        }
    }
}

impl<K> BoostedMap<K, u64>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Transactionally adds `delta` to the tally bound to `key`, an
    /// unbound key counting as 0. Takes the key lock in **additive** mode:
    /// additive holders commute, so many transactions can add to the same
    /// tally at once (the Ballot contract's
    /// `proposals[p].voteCount += weight`), while reads and the map's
    /// other writers still order against them. Returns nothing: reading
    /// the running total would break commutativity; use
    /// [`get`](Self::get) when the value is needed.
    ///
    /// The sum wraps at `u64::MAX`. A checked add would fail in whichever
    /// of two commuting transactions ran second, and the miner's order
    /// and a validator's may differ, so an honest block would be
    /// rejected.
    ///
    /// A tally that reaches 0 is unbound, so an add of 0 takes its lock
    /// but binds nothing, and an add's inverse (subtract the delta)
    /// unbinds a tally it created even when other adds to the key
    /// committed or aborted in between. Unwound last-in first-out the
    /// inverse restores the prior binding exactly, a binding to 0 by
    /// another writer included; across concurrent adders it subtracts,
    /// so such a binding may come back unbound. A tally written only by
    /// `add` never holds one.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_stm::{Stm, BoostedMap};
    /// let stm = Stm::new();
    /// let votes: BoostedMap<u32, u64> = BoostedMap::new("ballot.vote_counts");
    /// stm.run(|txn| {
    ///     votes.add(txn, 0, 3)?;
    ///     votes.add(txn, 0, 2)?;
    ///     votes.add(txn, 1, 0)?;
    ///     Ok(())
    /// }).unwrap();
    /// assert_eq!(votes.peek(&0), Some(5));
    /// assert_eq!(votes.peek(&1), None, "an add of 0 binds nothing");
    /// ```
    pub fn add(&self, txn: &Transaction, key: K, delta: u64) -> Result<(), StmError> {
        let h = fnv1a_of(&key);
        let target = Arc::clone(&self.inner);
        txn.acquire_and_log(
            self.space.lock_for_hashed(h),
            LockMode::Additive,
            self.undo_token() + 1,
            || AddUndo {
                target,
                entries: Vec::new(),
            },
            || {
                (delta != 0).then(|| {
                    // Concurrent additive holders of the same key commute
                    // at the abstract level; the shard latch orders their
                    // physical read-modify-writes.
                    let prior = self.inner.write(h, |map| {
                        step(
                            map.entry_hashed(h, key.clone()),
                            |v| v.wrapping_add(delta),
                            false,
                        )
                    });
                    (key, prior == Some(0))
                })
            },
            |sink, added| match added {
                Some((key, zero_bound)) => {
                    sink.entries.push((h, key, delta, zero_bound));
                    true
                }
                None => false,
            },
        )
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
        let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.basic");
        stm.run(|txn| {
            c.add(txn, 1, 5)?;
            c.add(txn, 1, 2)?;
            assert_eq!(c.get(txn, &1)?, Some(7));
            c.insert(txn, 2, 100)?;
            c.add(txn, 2, 1)?;
            assert_eq!(c.get(txn, &2)?, Some(101));
            c.add(txn, 3, 0)?;
            assert_eq!(c.get(txn, &3)?, None, "an add of 0 binds nothing");
            Ok(())
        })
        .unwrap();
        assert_eq!(c.peek(&1), Some(7));
        assert_eq!(c.snapshot_len(), 2);
    }

    #[test]
    fn abort_undoes_adds_and_sets() {
        let stm = Stm::new();
        let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.abort");
        c.seed(1, 10);
        c.seed(3, 0);
        let txn = stm.begin();
        c.add(&txn, 1, 5).unwrap();
        c.insert(&txn, 2, 7).unwrap();
        c.add(&txn, 2, 1).unwrap();
        c.add(&txn, 3, 4).unwrap();
        c.add(&txn, 4, 9).unwrap();
        txn.abort().unwrap();
        assert_eq!(c.peek(&1), Some(10));
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&3), Some(0), "a binding to 0 comes back");
        assert_eq!(c.peek(&4), None, "a created tally is unbound again");
        assert_eq!(c.snapshot_len(), 2);
    }

    #[test]
    fn concurrent_adds_commute_and_do_not_conflict() {
        let stm = Stm::new();
        let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.additive");
        // Both transactions hold the additive lock on the same key at the
        // same time — neither blocks.
        let t1 = stm.begin();
        let t2 = stm.begin();
        c.add(&t1, 0, 1).unwrap();
        c.add(&t2, 0, 2).unwrap();
        let p1 = t1.commit().unwrap();
        let p2 = t2.commit().unwrap();
        assert_eq!(c.peek(&0), Some(3));
        assert!(!p1.profile.conflicts_with(&p2.profile));
    }

    /// Two concurrent adds create one tally; however they unwind, an
    /// aborted add leaves no trace, and a tally both abort is unbound.
    #[test]
    fn concurrent_aborts_leave_no_trace_in_either_order() {
        for first_aborts_first in [true, false] {
            for second_commits in [false, true] {
                let stm = Stm::new();
                let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.unwind");
                let t1 = stm.begin();
                let t2 = stm.begin();
                c.add(&t1, 0, 3).unwrap();
                c.add(&t2, 0, 2).unwrap();
                let finish_t2 = |t2: Transaction| {
                    if second_commits {
                        t2.commit().map(drop)
                    } else {
                        t2.abort()
                    }
                };
                if first_aborts_first {
                    t1.abort().unwrap();
                    finish_t2(t2).unwrap();
                } else {
                    finish_t2(t2).unwrap();
                    t1.abort().unwrap();
                }
                let expected = second_commits.then_some(2);
                assert_eq!(
                    c.peek(&0),
                    expected,
                    "{first_aborts_first} {second_commits}"
                );
            }
        }
    }

    /// The sum wraps in debug and release builds alike, and a total that
    /// wraps to 0 is unbound.
    #[test]
    fn adds_wrap_and_a_zero_total_is_unbound() {
        let stm = Stm::new();
        let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.wrap");
        stm.run(|txn| c.add(txn, 0, u64::MAX)).unwrap();
        stm.run(|txn| c.add(txn, 0, u64::MAX)).unwrap();
        assert_eq!(c.peek(&0), Some(u64::MAX - 1));
        stm.run(|txn| c.add(txn, 0, 2)).unwrap();
        assert_eq!(c.peek(&0), None);
        let txn = stm.begin();
        c.add(&txn, 0, 1).unwrap();
        c.add(&txn, 0, u64::MAX).unwrap();
        assert_eq!(c.peek(&0), None);
        txn.abort().unwrap();
        assert_eq!(c.peek(&0), None);
    }

    #[test]
    fn read_conflicts_with_add() {
        let stm = Stm::new();
        let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.read");
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
        let c: StdArc<BoostedMap<u8, u64>> = StdArc::new(BoostedMap::new("cnt.par"));
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
        assert_eq!(c.peek(&0), Some(800));
    }

    /// The dirty-mark seam (see the `BoostedMap` twin of this test).
    #[test]
    fn every_write_path_marks_its_bucket_and_no_read_does() {
        use cc_primitives::fx::{bucket_of, shard_of};

        let stm = Stm::new();
        let c: BoostedMap<u64, u64> = BoostedMap::new("cnt.dirty");
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
        stm.run(|txn| c.add(txn, 1, 0)).unwrap();
        assert!(drained().is_empty(), "reads and an add of 0 leave no mark");

        stm.run(|txn| c.add(txn, 1, 5)).unwrap();
        assert_eq!(drained(), mark_of(1), "add");
        stm.run(|txn| c.insert(txn, 2, 7)).unwrap();
        assert_eq!(drained(), mark_of(2), "insert");

        // Undo replay, with the mutator's own mark drained first.
        let txn = stm.begin();
        c.add(&txn, 3, 1).unwrap();
        drained();
        txn.abort().unwrap();
        assert_eq!(drained(), mark_of(3), "undo of an add (subtract)");
        let txn = stm.begin();
        c.insert(&txn, 4, 9).unwrap();
        drained();
        txn.abort().unwrap();
        assert_eq!(drained(), mark_of(4), "undo of an insert (restore)");
    }

    #[test]
    fn snapshot_restore() {
        let stm = Stm::new();
        let c: BoostedMap<u8, u64> = BoostedMap::new("cnt.snap");
        c.seed(1, 5);
        stm.run(|txn| c.add(txn, 2, 6)).unwrap();
        let mut snap = c.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![(1, 5), (2, 6)]);
        // Seeding a fresh map from the snapshot rebuilds the tallies.
        let copy: BoostedMap<u8, u64> = BoostedMap::new("cnt.snap.copy");
        for (key, value) in snap {
            copy.seed(key, value);
        }
        assert_eq!(copy.peek(&1), Some(5));
        assert_eq!(copy.peek(&2), Some(6));
    }
}
