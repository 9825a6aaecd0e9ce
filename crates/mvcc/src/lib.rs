//! `cc_mvcc` — a timestamped multi-version store with optimistic,
//! abort-free-read transactions.
//!
//! This crate is the optimistic counterpart to `cc_stm`'s pessimistic
//! transactional boosting (OptSmart, Anjana et al. 2021, over the PODC'17
//! framework): instead of acquiring abstract locks up front, a transaction
//! reads a fixed **snapshot** (every key resolves to the newest version at
//! or below its begin timestamp), buffers writes privately, and validates
//! **first-committer-wins** at commit. The parts:
//!
//! * [`TimestampOracle`] — issues snapshot instants, tracks the active set
//!   and exposes the garbage-collection horizon.
//! * [`VersionedMap`] / [`VersionedCell`] / [`VersionedVec`] /
//!   [`VersionedCounterMap`] — per-key version lists over a single-version
//!   backing store (the `*Base` traits), mirroring the boosted collection
//!   APIs one-for-one, including the `(LockId, LockMode)` footprint the
//!   pessimistic twin would acquire.
//! * [`MvccTxn`] — read-set/write-set transactions with savepoints and
//!   nested speculative actions; read-only transactions commit without
//!   validation and therefore **never abort**.
//! * [`MvccRuntime`] — the per-world oracle + commit mutex + collection
//!   registry; finalizes blocks by flattening newest versions into the
//!   backing store and garbage-collects below the oldest active snapshot.
//!
//! ```
//! use cc_mvcc::{MapBase, MvccRuntime, VersionedMap};
//! use cc_stm::LockSpace;
//! use parking_lot::Mutex;
//! use std::collections::HashMap;
//!
//! struct Base(Mutex<HashMap<u64, u64>>);
//! impl MapBase<u64, u64> for Base {
//!     fn load(&self, k: &u64) -> Option<u64> {
//!         self.0.lock().get(k).copied()
//!     }
//!     fn store(&self, k: &u64, v: Option<u64>) {
//!         let mut base = self.0.lock();
//!         match v {
//!             Some(v) => base.insert(*k, v),
//!             None => base.remove(k),
//!         };
//!     }
//! }
//!
//! let runtime = MvccRuntime::new();
//! let map = VersionedMap::new(LockSpace::new("demo"), Base(Mutex::new(HashMap::new())));
//! runtime.register(map.handle());
//!
//! let writer = runtime.begin();
//! map.insert(&writer, 1, 10);
//! let commit = writer.commit().expect("no contention");
//! assert!(!commit.read_only);
//!
//! let reader = runtime.begin();
//! assert_eq!(map.get(&reader, &1), Some(10));
//! assert!(reader.commit().expect("readers never abort").read_only);
//! ```

pub mod error;
pub mod oracle;
pub mod runtime;
pub mod store;
pub mod txn;

pub use cc_primitives::ts::Timestamp;
pub use error::MvccError;
pub use oracle::TimestampOracle;
pub use runtime::MvccRuntime;
pub use store::{
    CellBase, MapBase, MvccCollection, TallyBase, VecBase, VersionedCell, VersionedCounterMap,
    VersionedMap, VersionedVec,
};
pub use txn::{MvccCommit, MvccSavepoint, MvccTxn};

#[cfg(test)]
mod tests {
    use super::*;
    use cc_stm::{LockMode, LockSpace};
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    struct TestBase(Mutex<HashMap<u64, u64>>);

    impl TestBase {
        fn new(entries: &[(u64, u64)]) -> Self {
            TestBase(Mutex::new(entries.iter().copied().collect()))
        }
    }

    impl MapBase<u64, u64> for TestBase {
        fn load(&self, key: &u64) -> Option<u64> {
            self.0.lock().get(key).copied()
        }
        fn store(&self, key: &u64, value: Option<u64>) {
            let mut base = self.0.lock();
            match value {
                Some(v) => {
                    base.insert(*key, v);
                }
                None => {
                    base.remove(key);
                }
            }
        }
    }

    fn fixture() -> (MvccRuntime, VersionedMap<u64, u64>) {
        let runtime = MvccRuntime::new();
        let map = VersionedMap::new(
            LockSpace::new("test.map"),
            TestBase::new(&[(1, 100), (2, 200)]),
        );
        runtime.register(map.handle());
        (runtime, map)
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let (runtime, map) = fixture();
        let reader = runtime.begin();
        assert_eq!(map.get(&reader, &1), Some(100), "base fall-through");

        let writer = runtime.begin();
        map.insert(&writer, 1, 111);
        assert!(!writer.commit().unwrap().read_only);

        // The reader's snapshot predates the commit.
        assert_eq!(map.get(&reader, &1), Some(100));
        let commit = reader.commit().expect("read-only commit cannot fail");
        assert!(commit.read_only);
        assert_eq!(commit.ts, Timestamp::BASE);

        // A fresh snapshot sees the new version.
        let later = runtime.begin();
        assert_eq!(map.get(&later, &1), Some(111));
        later.commit().unwrap();
    }

    #[test]
    fn first_committer_wins_on_read_write_conflict() {
        let (runtime, map) = fixture();
        let a = runtime.begin();
        let b = runtime.begin();

        // Both read key 1, both write it: the second committer loses.
        let seen_a = map.get(&a, &1).unwrap();
        let seen_b = map.get(&b, &1).unwrap();
        map.insert(&a, 1, seen_a + 1);
        map.insert(&b, 1, seen_b + 7);

        a.commit().expect("first committer wins");
        let err = b.commit().expect_err("second committer must abort");
        assert!(err.is_retryable());

        // The retry sees the winner's version and succeeds.
        let retry = runtime.begin();
        let seen = map.get(&retry, &1).unwrap();
        assert_eq!(seen, 101);
        map.insert(&retry, 1, seen + 7);
        retry.commit().expect("no conflict on retry");
    }

    /// How long a test waits on another thread before calling it wedged.
    const TIMEOUT: Duration = Duration::from_secs(10);

    type Shared = Arc<(MvccRuntime, VersionedMap<u64, u64>)>;

    /// Increments key 1 in a fresh optimistic transaction.
    fn increment(shared: &Shared) -> Result<MvccCommit, MvccError> {
        let (runtime, map) = &**shared;
        let txn = runtime.begin();
        let seen = map.get(&txn, &1).unwrap();
        map.insert(&txn, 1, seen + 1);
        txn.commit()
    }

    /// Whether an optimistic increment on a thread of its own commits
    /// within [`TIMEOUT`]; a commit mutex nobody releases makes it `false`
    /// instead of wedging the test (the thread is joined only when done).
    fn increment_commits_in_time(shared: &Shared) -> bool {
        let shared = Arc::clone(shared);
        let (done, result) = mpsc::channel();
        let writer = thread::spawn(move || done.send(increment(&shared).is_ok()));
        result.recv_timeout(TIMEOUT).unwrap_or(false) && writer.join().is_ok()
    }

    #[test]
    fn exclusive_transaction_holds_off_a_concurrent_writer() {
        let shared: Shared = Arc::new(fixture());
        let (runtime, map) = &*shared;
        let exclusive = runtime.begin_exclusive();
        let seen = map.get(&exclusive, &1).unwrap();
        map.insert(&exclusive, 1, seen + 10);

        // A writer of the same key whose snapshot predates the exclusive
        // commit: it reaches its commit while the mutex is held.
        let (began, writer_began) = mpsc::channel();
        let (done, writer_done) = mpsc::channel();
        let writer = Arc::clone(&shared);
        let writer_thread = thread::spawn(move || {
            let (runtime, map) = &*writer;
            let txn = runtime.begin();
            let seen = map.get(&txn, &1).unwrap();
            map.insert(&txn, 1, seen + 1);
            began.send(()).unwrap();
            let first = txn.commit();
            done.send((first, increment(&writer))).unwrap();
        });
        writer_began
            .recv_timeout(TIMEOUT)
            .expect("the writer begins");
        // The channel fixes the order of the snapshots; the pause only gives
        // a broken mutex time to let the writer through.
        thread::sleep(Duration::from_millis(50));
        assert!(
            writer_done.try_recv().is_err(),
            "the writer cannot commit while the exclusive transaction runs"
        );

        let won = exclusive
            .commit()
            .expect("an exclusive transaction cannot lose");
        let (first, rerun) = writer_done
            .recv_timeout(TIMEOUT)
            .expect("the writer resumes");
        assert!(first.expect_err("stale snapshot loses").is_retryable());
        assert!(rerun.expect("a fresh snapshot wins").ts > won.ts);
        writer_thread
            .join()
            .expect("the writer thread finishes cleanly");
        let check = runtime.begin();
        assert_eq!(map.get(&check, &1), Some(111));
        check.commit().unwrap();
    }

    #[test]
    fn abort_and_drop_release_the_commit_mutex() {
        let shared: Shared = Arc::new(fixture());
        let (runtime, map) = &*shared;

        let aborted = runtime.begin_exclusive();
        map.insert(&aborted, 1, 0);
        aborted.abort();
        assert!(increment_commits_in_time(&shared), "abort releases it");

        let dropped = runtime.begin_exclusive();
        map.insert(&dropped, 1, 0);
        drop(dropped); // in flight: neither committed nor aborted
        assert!(increment_commits_in_time(&shared), "drop releases it");

        assert_eq!(runtime.oracle().active_count(), 0);
        let check = runtime.begin();
        assert_eq!(map.get(&check, &1), Some(102), "only the increments landed");
        check.commit().unwrap();
    }

    #[test]
    fn read_only_exclusive_transaction_commits_at_its_snapshot() {
        let shared: Shared = Arc::new(fixture());
        let (runtime, map) = &*shared;
        let first = increment(&shared).unwrap();

        let reader = runtime.begin_exclusive();
        assert_eq!(reader.begin_ts(), first.ts);
        assert_eq!(map.get(&reader, &1), Some(101));
        let commit = reader.commit().expect("readers never abort");
        assert!(commit.read_only);
        assert_eq!(commit.ts, first.ts);
        assert!(increment_commits_in_time(&shared), "commit releases it");
    }

    #[test]
    fn savepoints_and_nested_actions_roll_back_buffered_writes() {
        let (runtime, map) = fixture();
        let txn = runtime.begin();
        map.insert(&txn, 1, 111);

        let savepoint = txn.savepoint();
        map.insert(&txn, 2, 222);
        map.take(&txn, &1);
        txn.rollback_to(savepoint);
        assert_eq!(map.get(&txn, &1), Some(111), "pre-savepoint write kept");
        assert_eq!(map.get(&txn, &2), Some(200), "post-savepoint write undone");

        let failed: Result<(), &str> = txn.nested(|t| {
            map.insert(t, 2, 999);
            Err("child throws")
        });
        assert!(failed.is_err());
        assert_eq!(map.get(&txn, &2), Some(200), "child write undone");

        let commit = txn.commit().unwrap();
        assert!(!commit.read_only);
        runtime.finalize_block();
        let check = runtime.begin();
        assert_eq!(map.get(&check, &1), Some(111));
        assert_eq!(map.get(&check, &2), Some(200));
        check.commit().unwrap();
    }

    #[test]
    fn nested_failure_drops_child_footprint_but_keeps_strengthenings() {
        let (runtime, map) = fixture();
        let space = LockSpace::new("test.map");
        let txn = runtime.begin();
        map.get(&txn, &1);
        let _: Result<(), &str> = txn.nested(|t| {
            map.insert(t, 1, 5); // strengthens the parent's shared entry
            map.insert(t, 2, 6); // new entry, dropped on failure
            Err("throw")
        });
        let commit = txn.commit().unwrap();
        assert_eq!(
            commit.footprint,
            vec![(space.lock_for(&1u64), LockMode::Exclusive)],
            "key 1 strengthened in place, key 2 dropped"
        );
    }

    #[test]
    fn finalize_flattens_newest_versions_into_base() {
        let (runtime, map) = fixture();
        for round in 0..3u64 {
            let txn = runtime.begin();
            map.insert(&txn, 1, 1000 + round);
            map.take(&txn, &2);
            txn.commit().unwrap();
        }
        runtime.finalize_block();

        let txn = runtime.begin();
        assert_eq!(map.get(&txn, &1), Some(1002), "newest version flattened");
        assert_eq!(map.get(&txn, &2), None, "tombstone removed the base key");
        assert!(txn.commit().unwrap().read_only);
    }

    #[test]
    fn collect_prunes_below_oldest_active_snapshot() {
        let (runtime, map) = fixture();
        for round in 0..5u64 {
            let txn = runtime.begin();
            map.insert(&txn, 1, round);
            txn.commit().unwrap();
        }
        // A pinned old snapshot keeps its resolution alive through GC.
        let pinned = runtime.begin();
        let seen_before = map.get(&pinned, &1);
        runtime.collect();
        assert_eq!(map.get(&pinned, &1), seen_before);
        pinned.commit().unwrap();

        // With nothing active, GC trims every list to its newest version.
        runtime.collect();
        let txn = runtime.begin();
        assert_eq!(map.get(&txn, &1), Some(4));
        txn.commit().unwrap();
    }

    #[test]
    fn finalize_below_commits_overlays_in_order() {
        let shared = SharedBase(std::sync::Arc::new(Mutex::new(
            [(1u64, 100u64), (2, 200)].into_iter().collect(),
        )));
        let runtime = MvccRuntime::new();
        let map = VersionedMap::new(LockSpace::new("test.overlay"), shared.clone());
        runtime.register(map.handle());

        // Two "blocks" of speculated writes, each bounded by the oracle
        // instant recorded after its last commit.
        let txn = runtime.begin();
        map.insert(&txn, 1, 111);
        map.insert(&txn, 3, 333);
        txn.commit().unwrap();
        let boundary1 = runtime.oracle().latest();

        let txn = runtime.begin();
        map.insert(&txn, 1, 222);
        map.take(&txn, &2);
        txn.commit().unwrap();
        let boundary2 = runtime.oracle().latest();

        // Committing the first overlay flattens only its versions…
        runtime.finalize_below(boundary1);
        assert_eq!(
            shared.0.lock().clone(),
            [(1u64, 111u64), (2, 200), (3, 333)].into_iter().collect(),
            "only the first block reached the base"
        );
        // …while readers above the boundary still see the second overlay.
        let reader = runtime.begin();
        assert_eq!(map.get(&reader, &1), Some(222));
        assert_eq!(map.get(&reader, &2), None);
        reader.commit().unwrap();

        runtime.finalize_below(boundary2);
        assert_eq!(
            shared.0.lock().clone(),
            [(1u64, 222u64), (3, 333)].into_iter().collect(),
        );
    }

    #[test]
    fn discard_above_rolls_pending_overlays_away() {
        let shared = SharedBase(std::sync::Arc::new(Mutex::new(
            [(1u64, 100u64)].into_iter().collect(),
        )));
        let runtime = MvccRuntime::new();
        let map = VersionedMap::new(LockSpace::new("test.discard"), shared.clone());
        runtime.register(map.handle());

        let txn = runtime.begin();
        map.insert(&txn, 1, 111);
        txn.commit().unwrap();
        let boundary1 = runtime.oracle().latest();

        let txn = runtime.begin();
        map.insert(&txn, 1, 999);
        map.insert(&txn, 2, 999);
        txn.commit().unwrap();

        // The second overlay is rolled away; the base was never touched.
        runtime.discard_above(boundary1);
        let reader = runtime.begin();
        assert_eq!(map.get(&reader, &1), Some(111), "first overlay intact");
        assert_eq!(map.get(&reader, &2), None, "discarded write invisible");
        reader.commit().unwrap();
        assert_eq!(shared.0.lock().get(&1), Some(&100));

        runtime.finalize_below(boundary1);
        assert_eq!(
            shared.0.lock().clone(),
            [(1u64, 111u64)].into_iter().collect()
        );
    }

    #[derive(Clone)]
    struct TallyShared(std::sync::Arc<Mutex<HashMap<u64, u64>>>);

    impl TallyBase<u64> for TallyShared {
        fn load(&self, key: &u64) -> u64 {
            self.0.lock().get(key).copied().unwrap_or(0)
        }
        fn store(&self, key: &u64, value: u64) {
            self.0.lock().insert(*key, value);
        }
    }

    #[test]
    fn counter_overlays_slice_without_double_counting() {
        // Counter versions store materialized totals; flattening an older
        // overlay must not re-apply deltas the newer totals already
        // include.
        let shared = TallyShared(std::sync::Arc::new(Mutex::new(HashMap::new())));
        let runtime = MvccRuntime::new();
        let tally = VersionedCounterMap::new(LockSpace::new("test.tally"), shared.clone());
        runtime.register(tally.handle());

        let txn = runtime.begin();
        tally.add(&txn, 7, 3);
        txn.commit().unwrap();
        let boundary1 = runtime.oracle().latest();

        let txn = runtime.begin();
        tally.add(&txn, 7, 4);
        txn.commit().unwrap();
        let boundary2 = runtime.oracle().latest();

        runtime.finalize_below(boundary1);
        assert_eq!(shared.0.lock().get(&7), Some(&3));
        let reader = runtime.begin();
        assert_eq!(tally.get(&reader, &7), 7, "newer total still visible");
        reader.commit().unwrap();

        runtime.finalize_below(boundary2);
        assert_eq!(shared.0.lock().get(&7), Some(&7), "no double counting");

        let txn = runtime.begin();
        tally.add(&txn, 7, 5);
        txn.commit().unwrap();
        runtime.discard_above(boundary2);
        let reader = runtime.begin();
        assert_eq!(tally.get(&reader, &7), 7, "discarded delta vanished");
        reader.commit().unwrap();
    }

    #[derive(Clone)]
    struct VecShared(std::sync::Arc<Mutex<Vec<u64>>>);

    impl VecBase<u64> for VecShared {
        fn len(&self) -> usize {
            self.0.lock().len()
        }
        fn load(&self, i: usize) -> Option<u64> {
            self.0.lock().get(i).copied()
        }
        fn store(&self, items: Vec<u64>) {
            *self.0.lock() = items;
        }
    }

    #[test]
    fn vec_overlays_slice_length_and_elements_consistently() {
        let shared = VecShared(std::sync::Arc::new(Mutex::new(vec![10, 20])));
        let runtime = MvccRuntime::new();
        let vec = VersionedVec::new(LockSpace::new("test.vec"), shared.clone());
        runtime.register(vec.handle());

        let txn = runtime.begin();
        vec.push(&txn, 30);
        vec.set(&txn, 0, 11);
        txn.commit().unwrap();
        let boundary1 = runtime.oracle().latest();

        let txn = runtime.begin();
        assert_eq!(vec.pop(&txn), Some(30));
        assert_eq!(vec.pop(&txn), Some(20));
        txn.commit().unwrap();
        let boundary2 = runtime.oracle().latest();

        runtime.finalize_below(boundary1);
        assert_eq!(*shared.0.lock(), vec![11, 20, 30], "first overlay only");
        let reader = runtime.begin();
        assert_eq!(
            reader_contents(&vec, &reader),
            vec![11],
            "pops still pending"
        );
        reader.commit().unwrap();

        runtime.finalize_below(boundary2);
        assert_eq!(*shared.0.lock(), vec![11]);
    }

    fn reader_contents(vec: &VersionedVec<u64>, txn: &MvccTxn<'_>) -> Vec<u64> {
        (0..vec.len(txn))
            .map(|i| vec.get(txn, i).unwrap())
            .collect()
    }

    /// A backing store the test keeps a handle to, so finalized content
    /// can be inspected after the `VersionedMap` consumed it.
    #[derive(Clone)]
    struct SharedBase(std::sync::Arc<Mutex<HashMap<u64, u64>>>);

    impl MapBase<u64, u64> for SharedBase {
        fn load(&self, key: &u64) -> Option<u64> {
            self.0.lock().get(key).copied()
        }
        fn store(&self, key: &u64, value: Option<u64>) {
            let mut base = self.0.lock();
            match value {
                Some(v) => {
                    base.insert(*key, v);
                }
                None => {
                    base.remove(key);
                }
            }
        }
    }

    proptest::proptest! {
        /// A serial stream of optimistic transactions over the versioned
        /// map must behave exactly like the same operations applied to a
        /// plain single-version `HashMap`: uncommitted effects are
        /// private, committed ones are visible to later snapshots,
        /// aborted ones vanish, fresh readers always see the committed
        /// reference, GC never changes any observable read, and
        /// finalizing flattens the version lists to exactly the
        /// reference content.
        #[test]
        fn prop_versioned_map_matches_single_version_reference(
            seed_entries in proptest::collection::vec((0u64..16, 0u64..1000), 0..8),
            txns in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..3, 0u64..16, 0u64..1000), 0..8),
                    any::<bool>(),
                ),
                0..12,
            ),
        ) {
            let runtime = MvccRuntime::new();
            let shared = SharedBase(std::sync::Arc::new(Mutex::new(
                seed_entries.iter().copied().collect(),
            )));
            let map = VersionedMap::new(LockSpace::new("test.prop"), shared.clone());
            runtime.register(map.handle());
            let mut reference: HashMap<u64, u64> = seed_entries.iter().copied().collect();

            for (ops, commit) in &txns {
                let txn = runtime.begin();
                let mut speculative = reference.clone();
                for (op, key, value) in ops {
                    match op % 3 {
                        0 => {
                            map.insert(&txn, *key, *value);
                            speculative.insert(*key, *value);
                        }
                        1 => {
                            map.remove(&txn, key);
                            speculative.remove(key);
                        }
                        _ => {
                            map.update_or(&txn, *key, 0, |x| *x = x.wrapping_add(*value));
                            let next = speculative.get(key).copied().unwrap_or(0).wrapping_add(*value);
                            speculative.insert(*key, next);
                        }
                    }
                    // Read-your-writes: the transaction sees its own
                    // buffered effects atop its snapshot.
                    prop_assert_eq!(map.get(&txn, key), speculative.get(key).copied());
                    prop_assert_eq!(map.contains_key(&txn, key), speculative.contains_key(key));
                }
                if *commit {
                    txn.commit().unwrap();
                    reference = speculative;
                } else {
                    txn.abort();
                }

                // A fresh snapshot sees exactly the committed reference —
                // and, being read-only, commits without ever aborting.
                let reader = runtime.begin();
                for key in 0u64..16 {
                    prop_assert_eq!(map.get(&reader, &key), reference.get(&key).copied());
                }
                prop_assert!(reader.commit().unwrap().read_only);

                // GC under no active snapshots must not disturb anything
                // a later reader can observe.
                runtime.collect();
            }

            runtime.finalize_block();
            let base = shared.0.lock().clone();
            prop_assert_eq!(base, reference);
        }
    }
}
