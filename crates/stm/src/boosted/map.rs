//! A boosted hash map: the workhorse behind Solidity `mapping` state
//! variables.

use crate::error::StmError;
use crate::lock::{LockMode, LockSpace};
use crate::txn::{Transaction, UndoSink};
use cc_primitives::fnv::fnv1a_of;
use cc_primitives::fx::{BucketMask, RawEntry, RawFxMap, ShardedRawTable};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A concurrent map whose per-key operations are speculative atomic
/// actions.
///
/// Each logical key maps to its own abstract lock, so operations on
/// distinct keys commute and run in parallel, while operations on the same
/// key serialize — exactly the behaviour of the paper's boosted hashtable
/// (binding Alice's vote commutes with binding Bob's, but not with deleting
/// Alice's). Reads (`get`/`get_with`) take the key lock in
/// [`LockMode::Shared`], so concurrent reads of the same key also commute;
/// mutations take it exclusively, and a read followed by a mutation of the
/// same key upgrades.
///
/// Mutations log their inverse as a typed `(key, prior value)` undo entry
/// moved into a per-map [`UndoSink`] — no boxed closure, no value clones
/// on the common path. Mutators therefore do not return the previous
/// value; a contract that needs it reads the key first.
///
/// Every operation hashes its key **exactly once**: the FNV-64
/// fingerprint computed up front becomes the abstract-lock key *and* the
/// backing-store hash, and the mutation path enters the transaction
/// through the fused [`Transaction::acquire_and_log`].
///
/// The backing store is a [`ShardedRawTable`] — **no reader-writer lock**.
/// The held abstract lock is what makes the raw access sound (two-phase
/// locking serializes conflicting operations); a word-sized per-shard
/// latch protects only the table structure shared between distinct keys,
/// and debug builds prove the abstract lock is actually held before every
/// raw access ([`Transaction::debug_assert_held`]). See "Safety argument"
/// in the crate README.
///
/// # Example
///
/// ```
/// use cc_stm::{Stm, BoostedMap};
/// let stm = Stm::new();
/// let m: BoostedMap<u64, String> = BoostedMap::new("accounts");
/// stm.run(|txn| {
///     m.insert(txn, 7, "alice".to_string())?;
///     assert_eq!(m.get(txn, &7)?, Some("alice".to_string()));
///     assert_eq!(m.get_with(txn, &7, |v| v.map(String::len))?, Some(5));
///     Ok(())
/// }).unwrap();
/// ```
pub struct BoostedMap<K, V> {
    name: String,
    pub(super) space: LockSpace,
    pub(super) inner: Arc<ShardedRawTable<K, V>>,
}

/// The typed undo sink of one [`BoostedMap`]: `(key hash, key, prior
/// binding)` entries, most recent last. The fingerprint rides along so
/// replaying an inverse never re-hashes the key either. The `Arc` on the
/// backing store also pins the sink token (the store's address) for as
/// long as the sink lives — a recycled transaction arena can therefore
/// keep the sink across transactions without token collisions.
struct MapUndo<K, V> {
    target: Arc<ShardedRawTable<K, V>>,
    entries: Vec<(u64, K, Option<V>)>,
}

impl<K, V> UndoSink for MapUndo<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn undo_last(&mut self) {
        if let Some((hash, key, prior)) = self.entries.pop() {
            // Safe without the transaction handle: inverses replay while
            // the aborting transaction still holds the key's abstract lock.
            self.target.write(hash, |map| match prior {
                Some(value) => {
                    map.insert_hashed(hash, key, value);
                }
                None => {
                    map.remove_hashed(hash, &key);
                }
            });
        }
    }
    fn reset(&mut self) {
        self.entries.clear();
    }
}

impl<K, V> Clone for BoostedMap<K, V> {
    fn clone(&self) -> Self {
        BoostedMap {
            name: self.name.clone(),
            space: self.space,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K, V> fmt::Debug for BoostedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoostedMap")
            .field("name", &self.name)
            .field("len", &self.inner.len())
            .finish()
    }
}

impl<K, V> BoostedMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty boosted map whose abstract locks live in the lock
    /// space derived from `name` (use a globally unique, stable name such
    /// as `"Ballot.voters"`).
    pub fn new(name: &str) -> Self {
        BoostedMap::with_capacity(name, 0)
    }

    /// [`new`](Self::new) with the backing store sized for `entries`
    /// bindings ([`ShardedRawTable::with_capacity`]): a set-up that
    /// knows how many it seeds allocates once. Only a hint: the map grows
    /// past it as any map does.
    pub fn with_capacity(name: &str, entries: usize) -> Self {
        BoostedMap {
            name: name.to_string(),
            space: LockSpace::new(name),
            inner: Arc::new(ShardedRawTable::with_capacity(entries)),
        }
    }

    /// The undo-sink token of this map (the backing storage address).
    pub(super) fn undo_token(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// The sink constructor passed to the transaction on first use.
    fn undo_init(&self) -> impl FnOnce() -> MapUndo<K, V> {
        let target = Arc::clone(&self.inner);
        || MapUndo {
            target,
            entries: Vec::new(),
        }
    }

    /// The stable name this map was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lock space backing this map (exposed for diagnostics).
    pub fn lock_space(&self) -> LockSpace {
        self.space
    }

    /// Transactionally reads the value bound to `key`. Takes the key lock
    /// in shared mode: concurrent reads of the same key commute.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures (deadlock victim, closed
    /// transaction).
    pub fn get(&self, txn: &Transaction, key: &K) -> Result<Option<V>, StmError> {
        let h = fnv1a_of(key);
        let lock = self.space.lock_for_hashed(h);
        txn.acquire(lock, LockMode::Shared)?;
        txn.debug_assert_held(lock);
        Ok(self.inner.read(h, |map| map.get_hashed(h, key).cloned()))
    }

    /// Transactionally reads the value bound to `key` **by reference**:
    /// `f` observes the binding in place and only what it returns is
    /// materialized. Use this when the caller immediately discards,
    /// compares or projects the value — it skips the `V: Clone` that
    /// [`BoostedMap::get`] pays per read. Same shared-mode locking.
    ///
    /// `f` runs under the store's shard latch; it must not touch the
    /// transaction or this map.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn get_with<R>(
        &self,
        txn: &Transaction,
        key: &K,
        f: impl FnOnce(Option<&V>) -> R,
    ) -> Result<R, StmError> {
        let h = fnv1a_of(key);
        let lock = self.space.lock_for_hashed(h);
        txn.acquire(lock, LockMode::Shared)?;
        txn.debug_assert_held(lock);
        Ok(self.inner.read(h, |map| f(map.get_hashed(h, key))))
    }

    /// Transactionally binds `key` to `value`. The previous binding (if
    /// any) moves into the undo log — one write-lock pass, no clones.
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn insert(&self, txn: &Transaction, key: K, value: V) -> Result<(), StmError> {
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
                sink.entries.push((h, key, previous));
                true
            },
        )
    }

    /// Transactionally applies `f` to the value bound to `key` (inserting
    /// `default` first if absent), in place: a single write-lock pass,
    /// cloning the prior value once for the undo log (and not at all when
    /// the key was absent).
    ///
    /// # Errors
    ///
    /// Propagates lock-acquisition failures.
    pub fn update_or(
        &self,
        txn: &Transaction,
        key: K,
        default: V,
        f: impl FnOnce(&mut V),
    ) -> Result<(), StmError> {
        let h = fnv1a_of(&key);
        txn.acquire_and_log(
            self.space.lock_for_hashed(h),
            LockMode::Exclusive,
            self.undo_token(),
            self.undo_init(),
            || {
                self.inner.write(h, |map| {
                    if let Some(slot) = map.get_hashed_mut(h, &key) {
                        let prior = slot.clone();
                        f(slot);
                        (key, Some(prior))
                    } else {
                        let mut value = default;
                        f(&mut value);
                        map.insert_hashed(h, key.clone(), value);
                        (key, None)
                    }
                })
            },
            |sink, (key, prior)| {
                sink.entries.push((h, key, prior));
                true
            },
        )
    }

    /// Non-transactional read used only during setup (e.g. building a
    /// genesis state) and in tests. Not linearized with respect to running
    /// transactions.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.peek_with(key, |v| v.cloned())
    }

    /// [`peek`](Self::peek) by reference: `f` observes the binding in
    /// place, under the store's shard latch (it must not touch this map).
    pub fn peek_with<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        let h = fnv1a_of(key);
        self.inner.read(h, |map| f(map.get_hashed(h, key)))
    }

    /// Non-transactional insert used only during setup.
    pub fn seed(&self, key: K, value: V) {
        let h = fnv1a_of(&key);
        self.inner.write(h, |map| {
            map.insert_hashed(h, key, value);
        });
    }

    /// Non-transactional access to `key`'s slot, bound or vacant, used
    /// only during setup: a read-then-write (bump a seeded tally, insert
    /// only if absent) in one hash and one latch.
    pub fn seed_with<R>(&self, key: K, f: impl FnOnce(RawEntry<'_, K, V>) -> R) -> R {
        let h = fnv1a_of(&key);
        self.inner.write(h, |map| f(map.entry_hashed(h, key)))
    }

    /// Non-transactional removal, the counterpart of [`seed`](Self::seed):
    /// used during setup and when a multi-version overlay flattens a
    /// deletion into this map.
    pub fn seed_remove(&self, key: &K) {
        let h = fnv1a_of(key);
        self.inner.write(h, |map| {
            map.remove_hashed(h, key);
        });
    }

    /// Number of bindings (non-transactional; setup/tests only).
    pub fn snapshot_len(&self) -> usize {
        self.inner.len()
    }

    /// Visits every binding by reference, in unspecified order
    /// (non-transactional; used to encode world snapshots without cloning
    /// each entry). Consistent only when callers quiesce transactions
    /// first, which the world's snapshot path does. `f` runs under a
    /// shard latch; it must not touch this map.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.inner
            .fold((), |(), map| map.iter().for_each(|(k, v)| f(k, v)));
    }

    /// A point-in-time copy of the whole map (non-transactional; tests and
    /// world cloning). Same consistency contract as
    /// [`for_each`](Self::for_each).
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let mut entries = Vec::with_capacity(self.inner.len());
        self.for_each(|k, v| entries.push((k.clone(), v.clone())));
        entries
    }

    /// Takes the backing store's dirty-bucket marks
    /// ([`ShardedRawTable::drain_dirty`]): `f(shard, marks, table)` runs
    /// for every shard written — by any mutator, undo replay or
    /// non-transactional `seed`/`seed_with`/`seed_remove` — since the
    /// previous drain. This is how a state commitment learns which
    /// buckets to re-hash; there must be one consumer per map, since
    /// draining clears the marks. Same consistency contract as
    /// [`for_each`](Self::for_each).
    pub fn drain_dirty(&self, f: impl FnMut(usize, BucketMask, &RawFxMap<K, V>)) {
        self.inner.drain_dirty(f);
    }

    /// Whether a drain would find any bucket written. Leaves the marks.
    pub fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }

    /// Debug-only test hook: performs a raw backing-store read **without**
    /// acquiring the abstract lock, so tests can prove
    /// [`Transaction::debug_assert_held`] refuses unlicensed raw access.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn debug_raw_get_unlocked(&self, txn: &Transaction, key: &K) -> Option<V> {
        let h = fnv1a_of(key);
        txn.debug_assert_held(self.space.lock_for_hashed(h));
        self.inner.read(h, |map| map.get_hashed(h, key).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Stm;
    use proptest::prelude::*;
    use std::collections::HashMap as StdMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let stm = Stm::new();
        let m: BoostedMap<String, u64> = BoostedMap::new("t.map");
        stm.run(|txn| {
            m.insert(txn, "a".into(), 1)?;
            m.insert(txn, "a".into(), 2)?;
            assert_eq!(m.get(txn, &"a".to_string())?, Some(2));
            assert_eq!(m.get(txn, &"b".to_string())?, None);
            // A tally brought to 0 is unbound: the map's one removal.
            m.add(txn, "a".into(), 2u64.wrapping_neg())?;
            assert_eq!(m.get(txn, &"a".to_string())?, None);
            m.insert(txn, "b".into(), 9)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(m.snapshot(), vec![("b".to_string(), 9)]);
    }

    #[test]
    fn abort_undoes_all_mutations() {
        let stm = Stm::new();
        let m: BoostedMap<u32, u64> = BoostedMap::new("t.abort");
        m.seed(1, 10);
        m.seed(2, 20);

        let txn = stm.begin();
        m.insert(&txn, 1, 11).unwrap();
        m.add(&txn, 2, 20u64.wrapping_neg()).unwrap();
        assert_eq!(m.peek(&2), None, "a tally brought to 0 is unbound");
        m.insert(&txn, 3, 30).unwrap();
        m.update_or(&txn, 4, 0, |v| *v += 5).unwrap();
        txn.abort().unwrap();

        assert_eq!(m.peek(&1), Some(10));
        assert_eq!(m.peek(&2), Some(20));
        assert_eq!(m.peek(&3), None);
        assert_eq!(m.peek(&4), None);
        assert_eq!(m.snapshot_len(), 2);
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.disjoint");
        let t1 = stm.begin();
        let t2 = stm.begin();
        m.insert(&t1, 1, 100).unwrap();
        // Second transaction can proceed on a different key without
        // blocking even though t1 has not committed.
        m.insert(&t2, 2, 200).unwrap();
        let p1 = t1.commit().unwrap();
        let p2 = t2.commit().unwrap();
        assert!(!p1.profile.conflicts_with(&p2.profile));
    }

    #[test]
    fn same_key_profiles_conflict() {
        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.conflict");
        let t1 = stm.begin();
        m.insert(&t1, 5, 1).unwrap();
        let p1 = t1.commit().unwrap();
        let t2 = stm.begin();
        m.insert(&t2, 5, 2).unwrap();
        let p2 = t2.commit().unwrap();
        assert!(p1.profile.conflicts_with(&p2.profile));
        // Counter ordering reflects commit order.
        let lock = m.lock_space().lock_for(&5u64);
        assert!(p1.profile.entry(lock).unwrap().counter < p2.profile.entry(lock).unwrap().counter);
    }

    #[test]
    fn update_or_creates_and_updates() {
        let stm = Stm::new();
        let m: BoostedMap<&'static str, u64> = BoostedMap::new("t.update");
        stm.run(|txn| {
            m.update_or(txn, "x", 0, |v| *v += 3)?;
            m.update_or(txn, "x", 0, |v| *v += 3)?;
            assert_eq!(m.get(txn, &"x")?, Some(6));
            Ok(())
        })
        .unwrap();
        assert_eq!(m.peek(&"x"), Some(6));
    }

    #[test]
    fn same_key_reads_do_not_conflict() {
        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.shared");
        m.seed(1, 10);
        // Two transactions hold the shared lock on the same key at the
        // same time — neither blocks, and their profiles commute.
        let t1 = stm.begin();
        let t2 = stm.begin();
        assert_eq!(m.get(&t1, &1).unwrap(), Some(10));
        assert_eq!(m.get(&t2, &1).unwrap(), Some(10));
        let p1 = t1.commit().unwrap();
        let p2 = t2.commit().unwrap();
        assert!(!p1.profile.conflicts_with(&p2.profile));
        // A writer's profile conflicts with a reader's.
        let t3 = stm.begin();
        m.insert(&t3, 1, 11).unwrap();
        let p3 = t3.commit().unwrap();
        assert!(p1.profile.conflicts_with(&p3.profile));
    }

    #[test]
    fn read_then_write_upgrades_to_exclusive_profile() {
        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.upgrade");
        m.seed(1, 10);
        let txn = stm.begin();
        m.get(&txn, &1).unwrap();
        m.insert(&txn, 1, 11).unwrap();
        let p = txn.commit().unwrap();
        let lock = m.lock_space().lock_for(&1u64);
        assert_eq!(p.profile.entry(lock).unwrap().mode, LockMode::Exclusive);
    }

    #[test]
    fn same_key_upgrade_holds_one_lock_and_publishes_exclusive() {
        // The contract-typical `get` → `insert` on one key: the Shared
        // hold is upgraded in place, so the transaction tracks exactly
        // one held lock (not a Shared + an Exclusive entry) and the
        // published profile carries one entry, Exclusive, with the lock's
        // use counter.
        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.upgrade.one");
        m.seed(7, 1);
        let txn = stm.begin();
        assert_eq!(m.get(&txn, &7).unwrap(), Some(1));
        assert_eq!(txn.held_locks(), 1, "shared read holds the key lock");
        m.insert(&txn, 7, 2).unwrap();
        assert_eq!(
            txn.held_locks(),
            1,
            "upgrade reuses the existing held entry"
        );
        let p = txn.commit().unwrap();
        assert_eq!(p.profile.len(), 1, "one profile entry for the one lock");
        let entry = p.profile.entry(m.lock_space().lock_for(&7u64)).unwrap();
        assert_eq!(entry.mode, LockMode::Exclusive);
        assert_eq!(entry.counter, 1, "first commit through this lock");
        // A second same-key transaction orders after it via the counter.
        let txn2 = stm.begin();
        m.get(&txn2, &7).unwrap();
        let p2 = txn2.commit().unwrap();
        assert_eq!(
            p2.profile
                .entry(m.lock_space().lock_for(&7u64))
                .unwrap()
                .counter,
            2
        );
    }

    #[test]
    fn get_with_reads_in_place() {
        let stm = Stm::new();
        let m: BoostedMap<u64, String> = BoostedMap::new("t.get_with");
        m.seed(1, "alice".to_string());
        stm.run(|txn| {
            assert_eq!(m.get_with(txn, &1, |v| v.map(String::len))?, Some(5));
            assert!(!m.get_with(txn, &2, |v| v.is_some())?);
            Ok(())
        })
        .unwrap();
        // get_with takes the same shared lock as get: a writer conflicts.
        let t1 = stm.begin();
        m.get_with(&t1, &1, |_| ()).unwrap();
        let p1 = t1.commit().unwrap();
        let t2 = stm.begin();
        m.insert(&t2, 1, "bob".into()).unwrap();
        let p2 = t2.commit().unwrap();
        assert!(p1.profile.conflicts_with(&p2.profile));
    }

    /// One FNV key-hash per boosted-map operation on the commit path —
    /// the acceptance gate of the single-hash rework, asserted via the
    /// debug-only hash-count hook. (The hook only exists in debug builds,
    /// which is what `cargo test` runs.)
    #[cfg(debug_assertions)]
    #[test]
    fn each_map_op_hashes_its_key_exactly_once() {
        use cc_primitives::fnv::key_hash_count;

        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.hashcount");
        m.seed(1, 10);

        let txn = stm.begin();
        let ops: &[(&str, &dyn Fn())] = &[
            ("get", &|| {
                m.get(&txn, &1).unwrap();
            }),
            ("get_with", &|| {
                m.get_with(&txn, &1, |_| ()).unwrap();
            }),
            ("insert", &|| {
                m.insert(&txn, 2, 20).unwrap();
            }),
            ("update_or", &|| {
                m.update_or(&txn, 3, 0, |v| *v += 1).unwrap();
            }),
            ("add", &|| {
                m.add(&txn, 3, 1u64.wrapping_neg()).unwrap();
            }),
        ];
        for (name, op) in ops {
            let before = key_hash_count();
            op();
            assert_eq!(
                key_hash_count() - before,
                1,
                "{name} must hash its key exactly once"
            );
        }
        // Commit (release + profile) re-hashes nothing.
        let before = key_hash_count();
        txn.commit().unwrap();
        assert_eq!(key_hash_count() - before, 0, "commit hashes no keys");
    }

    /// The dirty-mark seam: every path that mutates the backing store —
    /// mutators, undo replay, the non-transactional setup calls — marks
    /// exactly the written key's `(shard, bucket)`; no read marks
    /// anything.
    #[test]
    fn every_write_path_marks_its_bucket_and_no_read_does() {
        use cc_primitives::fx::{bucket_of, shard_of};

        let stm = Stm::new();
        let m: BoostedMap<u64, u64> = BoostedMap::new("t.dirty");
        let drained = || {
            let mut marks = Vec::new();
            m.drain_dirty(|shard, mask, _| marks.extend(mask.iter().map(|b| (shard, b))));
            marks
        };
        let mark_of = |key: u64| {
            let h = fnv1a_of(&key);
            vec![(shard_of(h), bucket_of(h))]
        };

        m.seed(1, 10);
        assert_eq!(drained(), mark_of(1), "seed");
        assert!(drained().is_empty());

        stm.run(|txn| {
            m.get(txn, &1)?;
            m.get_with(txn, &1, |_| ())?;
            Ok(())
        })
        .unwrap();
        m.peek(&1);
        m.snapshot();
        m.snapshot_len();
        m.for_each(|_, _| ());
        assert!(drained().is_empty(), "reads leave no mark");

        type Mutator<'a> = &'a dyn Fn(&Transaction) -> Result<(), StmError>;
        let mutators: &[(&str, u64, Mutator<'_>)] = &[
            ("insert", 2, &|txn| m.insert(txn, 2, 20)),
            ("insert (present)", 1, &|txn| m.insert(txn, 1, 11)),
            ("update_or (absent)", 3, &|txn| {
                m.update_or(txn, 3, 0, |v| *v += 1)
            }),
            ("update_or (present)", 3, &|txn| {
                m.update_or(txn, 3, 0, |v| *v += 1)
            }),
            ("add (to 0)", 3, &|txn| m.add(txn, 3, 2u64.wrapping_neg())),
        ];
        for (name, key, mutate) in mutators {
            stm.run(|txn| mutate(txn)).unwrap();
            assert_eq!(drained(), mark_of(*key), "{name}");
        }

        // Undo replay: drain the mutator's own mark mid-transaction, so
        // whatever is marked afterwards came from the inverse.
        let txn = stm.begin();
        m.insert(&txn, 4, 40).unwrap();
        assert_eq!(drained(), mark_of(4));
        txn.abort().unwrap();
        assert_eq!(drained(), mark_of(4), "undo of an insert (remove)");

        let txn = stm.begin();
        m.add(&txn, 1, 11u64.wrapping_neg()).unwrap();
        let savepoint = txn.savepoint();
        m.insert(&txn, 5, 50).unwrap();
        drained();
        txn.rollback_to(savepoint);
        assert_eq!(drained(), mark_of(5), "savepoint rollback");
        txn.abort().unwrap();
        assert_eq!(drained(), mark_of(1), "undo of an unbind (re-insert)");

        m.seed_remove(&1);
        assert_eq!(drained(), mark_of(1), "seed_remove");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let m: BoostedMap<u32, String> = BoostedMap::new("t.snap");
        m.seed(1, "one".into());
        m.seed(2, "two".into());
        let snap = m.snapshot();
        // Seeding a fresh map from a snapshot rebuilds it.
        let copy: BoostedMap<u32, String> = BoostedMap::new("t.snap.copy");
        for (key, value) in snap.clone() {
            copy.seed(key, value);
        }
        let mut roundtrip = copy.snapshot();
        let mut original = snap;
        roundtrip.sort();
        original.sort();
        assert_eq!(roundtrip, original);
    }

    proptest! {
        /// Applying a random batch of operations inside a transaction and
        /// aborting must leave the map exactly as it started; committing
        /// must leave it equal to a reference HashMap that applied the same
        /// operations.
        #[test]
        fn prop_abort_restores_commit_applies(
            seed_entries in proptest::collection::vec((0u8..32, 0u64..1000), 0..16),
            ops in proptest::collection::vec((0u8..3, 0u8..32, 0u64..1000), 0..32),
            commit in any::<bool>(),
        ) {
            let stm = Stm::new();
            let m: BoostedMap<u8, u64> = BoostedMap::new("t.prop");
            let mut reference: StdMap<u8, u64> = StdMap::new();
            for (k, v) in &seed_entries {
                m.seed(*k, *v);
                reference.insert(*k, *v);
            }
            let before: StdMap<u8, u64> = m.snapshot().into_iter().collect();

            let txn = stm.begin();
            for (op, k, v) in &ops {
                match op % 3 {
                    0 => {
                        m.insert(&txn, *k, *v).unwrap();
                        reference.insert(*k, *v);
                    }
                    1 => {
                        // A negated add unbinds the key's tally; an add
                        // of 0 changes nothing.
                        let delta = reference.get(k).copied().unwrap_or(0).wrapping_neg();
                        m.add(&txn, *k, delta).unwrap();
                        if delta != 0 {
                            reference.remove(k);
                        }
                    }
                    _ => {
                        m.update_or(&txn, *k, 0, |x| *x = x.wrapping_add(*v)).unwrap();
                        let prev = reference.get(k).copied().unwrap_or(0);
                        reference.insert(*k, prev.wrapping_add(*v));
                    }
                }
            }
            if commit {
                txn.commit().unwrap();
                let after: StdMap<u8, u64> = m.snapshot().into_iter().collect();
                prop_assert_eq!(after, reference);
            } else {
                txn.abort().unwrap();
                let after: StdMap<u8, u64> = m.snapshot().into_iter().collect();
                prop_assert_eq!(after, before);
            }
        }
    }

    /// The raw store carries no lock of its own; the debug assertion is
    /// what stands between a buggy collection and a silent race. Prove it
    /// fires on a raw access made without acquiring the abstract lock.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without holding abstract lock")]
    fn raw_access_without_abstract_lock_panics_in_debug() {
        let stm = Stm::new();
        let m: BoostedMap<u32, u32> = BoostedMap::new("t.unlocked");
        m.seed(1, 10);
        let txn = stm.begin();
        let _ = m.debug_raw_get_unlocked(&txn, &1);
    }
}
