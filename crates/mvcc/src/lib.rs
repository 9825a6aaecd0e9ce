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
//! * [`VersionedMap`] — per-key version lists over the boosted twin each
//!   one owns (the `cc_stm` map holding the committed single-version
//!   state), mirroring the boosted API one-for-one (a `u64` map's
//!   commuting `add` included), and the `(LockId, LockMode)` footprint
//!   the twin would acquire. A scalar is the entry under the key `()`.
//! * [`MvccTxn`] — read-set/write-set transactions with savepoints and
//!   nested speculative actions; read-only transactions commit without
//!   validation and therefore **never abort**.
//! * [`MvccRuntime`] — the per-world newest published timestamp + commit
//!   mutex + hot-lock write intents + collection registry; a snapshot is
//!   one atomic load of that timestamp. Flattens versions at or below a
//!   boundary into the boosted twins and discards versions above one,
//!   between blocks; nothing prunes version lists within a block. Its
//!   module docs ([`runtime`]) hold the snapshot and intent rules.
//!
//! ```
//! use cc_mvcc::{MvccRuntime, VersionedMap};
//! use cc_stm::BoostedMap;
//!
//! let runtime = MvccRuntime::new();
//! let base: BoostedMap<u64, u64> = BoostedMap::new("demo");
//! let map = VersionedMap::new(&runtime, base.clone());
//!
//! let writer = runtime.begin();
//! map.insert(&writer, 1, 10);
//! let commit = writer.commit().expect("no contention");
//! assert!(!commit.read_only);
//!
//! let reader = runtime.begin();
//! assert_eq!(map.get(&reader, &1), Some(10));
//! assert!(reader.commit().expect("readers never abort").read_only);
//!
//! assert_eq!(base.peek(&1), None, "versions stay above the twin…");
//! runtime.finalize_block();
//! assert_eq!(base.peek(&1), Some(10), "…until the block is flattened");
//! ```

pub mod error;
pub mod runtime;
pub mod store;
pub mod txn;

pub use cc_primitives::ts::Timestamp;
pub use error::MvccError;
pub use runtime::MvccRuntime;
pub use store::VersionedMap;
pub use txn::{MvccCommit, MvccSavepoint, MvccTxn};

#[cfg(test)]
mod tests {
    use super::*;
    use cc_stm::{BoostedMap, LockId, LockMode, LockSpace};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::{Duration, Instant};

    /// A versioned map over a boosted twin named `name` seeded with
    /// `entries`; the twin is returned too, to inspect what was flattened.
    fn map_over(
        runtime: &MvccRuntime,
        name: &str,
        entries: &[(u64, u64)],
    ) -> (VersionedMap<u64, u64>, BoostedMap<u64, u64>) {
        let base = BoostedMap::new(name);
        for &(key, value) in entries {
            base.seed(key, value);
        }
        (VersionedMap::new(runtime, base.clone()), base)
    }

    /// A versioned scalar (the entry under `()`) over a boosted twin
    /// named `name` seeded with `initial`, and the twin.
    fn scalar_over(
        runtime: &MvccRuntime,
        name: &str,
        initial: u64,
    ) -> (VersionedMap<(), u64>, BoostedMap<(), u64>) {
        let base = BoostedMap::new(name);
        base.seed((), initial);
        (VersionedMap::new(runtime, base.clone()), base)
    }

    /// The twin's content, sorted.
    fn contents(base: &BoostedMap<u64, u64>) -> BTreeMap<u64, u64> {
        base.snapshot().into_iter().collect()
    }

    fn fixture() -> (MvccRuntime, VersionedMap<u64, u64>) {
        let runtime = MvccRuntime::new();
        let (map, _) = map_over(&runtime, "test.map", &[(1, 100), (2, 200)]);
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

    /// The fixture map's lock for `key`.
    fn lock(key: u64) -> LockId {
        LockSpace::new("test.map").lock_for(&key)
    }

    /// A key whose lock lies on another intent stripe than key 1's.
    fn cold_key() -> u64 {
        let hot = runtime::intent_bit(lock(1));
        (2..)
            .find(|&key| runtime::intent_bit(lock(key)) != hot)
            .unwrap()
    }

    /// Increments key 1 in a fresh optimistic transaction.
    fn increment(runtime: &MvccRuntime, map: &VersionedMap<u64, u64>) -> MvccCommit {
        let txn = runtime.begin();
        let seen = map.get(&txn, &1).unwrap();
        map.insert(&txn, 1, seen + 1);
        txn.commit().expect("an uncontended increment commits")
    }

    /// Makes key 1's lock hot the way a miner does: a commit loses on it,
    /// and its conflict names the lock. Key 1 is then 101.
    fn heat(runtime: &MvccRuntime, map: &VersionedMap<u64, u64>) {
        let loser = runtime.begin();
        map.insert(&loser, 1, 0);
        increment(runtime, map);
        let begin_ts = loser.begin_ts();
        let lost = loser.commit().expect_err("the second committer loses");
        assert_eq!(
            lost,
            MvccError::Conflict {
                begin_ts,
                lock: lock(1)
            }
        );
        assert_ne!(runtime.hot(), 0);
    }

    /// Spins (yielding) until a transaction is parked for an intent.
    fn await_parked(runtime: &MvccRuntime) {
        let deadline = Instant::now() + TIMEOUT;
        while runtime.parked() == 0 {
            assert!(Instant::now() < deadline, "nobody parked");
            thread::yield_now();
        }
    }

    /// What [`touch_key_one`]'s transaction reports when it is done: its
    /// snapshot, the value of key 1 it saw, and its commit.
    type Touched = (Timestamp, u64, Result<MvccCommit, MvccError>);

    /// A transaction on another thread that reads the cold key, reports
    /// its snapshot, then reads key 1 — parking while the intent is held —
    /// and, if `write`, increments it.
    fn touch_key_one(shared: &Shared, write: bool) -> (Timestamp, mpsc::Receiver<Touched>) {
        let (began, before) = mpsc::channel();
        let (done, result) = mpsc::channel();
        let shared = Arc::clone(shared);
        thread::spawn(move || {
            let (runtime, map) = &*shared;
            let txn = runtime.begin();
            map.get(&txn, &cold_key());
            began.send(txn.begin_ts()).unwrap();
            let seen = map.get(&txn, &1).unwrap();
            if write {
                map.insert(&txn, 1, seen + 1);
            }
            done.send((txn.begin_ts(), seen, txn.commit()))
        });
        let before = before.recv_timeout(TIMEOUT).expect("the thread begins");
        (before, result)
    }

    #[test]
    fn a_writer_without_the_intent_loses_to_the_holder_and_names_the_lock() {
        let (runtime, map) = fixture();
        let loser = runtime.begin();
        map.insert(&loser, 1, 0);
        increment(&runtime, &map);
        // A writer of key 1 whose snapshot already sees the winner, so
        // validation alone would let it commit; it wrote while the lock
        // was still cold.
        let writer = runtime.begin();
        map.insert(&writer, 1, 500);
        assert!(loser.commit().is_err(), "the loss makes the lock hot");

        let holder = runtime.begin_holding(Some(lock(1)));
        let begin_ts = writer.begin_ts();
        assert_eq!(
            writer
                .commit()
                .expect_err("the holder's lock is not the writer's"),
            MvccError::Conflict {
                begin_ts,
                lock: lock(1)
            }
        );
        let seen = map.get(&holder, &1).unwrap();
        map.insert(&holder, 1, seen + 1);
        holder.commit().expect("the holder cannot lose on its lock");
        let check = runtime.begin();
        assert_eq!(
            map.get(&check, &1),
            Some(102),
            "the writer's 500 never landed"
        );
    }

    #[test]
    fn a_parked_transaction_with_unchanged_reads_extends_its_snapshot_and_commits() {
        let shared: Shared = Arc::new(fixture());
        let (runtime, map) = &*shared;
        heat(runtime, map);
        let holder = runtime.begin_holding(Some(lock(1)));
        let (before, parked) = touch_key_one(&shared, true);
        await_parked(runtime);

        map.insert(&holder, 1, 7);
        let won = holder.commit().unwrap();
        let (after, seen, commit) = parked.recv_timeout(TIMEOUT).expect("the waiter wakes");
        assert!(before < won.ts);
        assert_eq!(
            (after, seen),
            (won.ts, 7),
            "the snapshot moved past the holder"
        );
        assert!(commit.expect("no retry needed").ts > won.ts);
    }

    #[test]
    fn a_parked_transaction_whose_read_changed_keeps_its_snapshot_and_loses() {
        let shared: Shared = Arc::new(fixture());
        let (runtime, map) = &*shared;
        heat(runtime, map);
        let holder = runtime.begin_holding(Some(lock(1)));
        let (before, parked) = touch_key_one(&shared, true);
        await_parked(runtime);

        map.insert(&holder, cold_key(), 9); // what the waiter already read
        map.insert(&holder, 1, 7);
        holder.commit().unwrap();
        let (after, seen, commit) = parked.recv_timeout(TIMEOUT).expect("the waiter wakes");
        assert_eq!((after, seen), (before, 101), "the old snapshot is kept");
        assert!(commit.expect_err("a stale snapshot loses").is_retryable());
    }

    #[test]
    fn a_parked_read_only_transaction_commits_read_only_and_never_conflicts() {
        let shared: Shared = Arc::new(fixture());
        let (runtime, map) = &*shared;
        heat(runtime, map);
        let holder = runtime.begin_holding(Some(lock(1)));
        let (before, parked) = touch_key_one(&shared, false);
        await_parked(runtime);

        // Its earlier read changes too, so it cannot extend: it reads
        // the old snapshot consistently and still commits.
        map.insert(&holder, cold_key(), 9);
        map.insert(&holder, 1, 7);
        holder.commit().unwrap();
        let (after, seen, commit) = parked.recv_timeout(TIMEOUT).expect("the reader wakes");
        assert_eq!((after, seen), (before, 101));
        let commit = commit.expect("readers never abort");
        assert!(commit.read_only);
        assert_eq!(commit.ts, before);
    }

    #[test]
    fn commit_abort_drop_and_panic_each_release_the_intent_and_wake_a_waiter() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum End {
            Commit,
            Abort,
            Drop,
            Panic,
        }
        for end in [End::Commit, End::Abort, End::Drop, End::Panic] {
            let shared: Shared = Arc::new(fixture());
            let (runtime, map) = &*shared;
            heat(runtime, map);
            let (held, holding) = mpsc::channel();
            let (go, release) = mpsc::channel::<()>();
            let holder = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (runtime, map) = &*shared;
                    let txn = runtime.begin_holding(Some(lock(1)));
                    map.insert(&txn, 1, 7);
                    held.send(()).unwrap();
                    release.recv().unwrap();
                    match end {
                        End::Commit => drop(txn.commit().unwrap()),
                        End::Abort => txn.abort(),
                        End::Drop => drop(txn),
                        End::Panic => panic!("a body panics holding an intent"),
                    }
                })
            };
            holding.recv_timeout(TIMEOUT).expect("the holder begins");
            let (_, waiter) = touch_key_one(&shared, true);
            await_parked(runtime);
            go.send(()).unwrap();

            let (_, seen, commit) = waiter.recv_timeout(TIMEOUT).expect("the waiter wakes");
            let expected = if end == End::Commit { 7 } else { 101 };
            assert_eq!(seen, expected, "{end:?}");
            commit.unwrap_or_else(|e| panic!("{end:?}: {e}"));
            assert_eq!(holder.join().is_err(), end == End::Panic, "{end:?}");
        }
    }

    /// The self-hang `MvccRuntime::begin`'s rule forbids, on one thread:
    /// a live transaction holds key 1's intent, and a second one touches
    /// key 1. It would park for an intent only its own thread can
    /// release; it panics instead.
    #[test]
    fn a_thread_parking_for_its_own_intent_panics_naming_the_rule() {
        let (done, outcome) = mpsc::channel();
        let handle = thread::spawn(move || {
            let (runtime, map) = fixture();
            heat(&runtime, &map);
            let parked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let holder = runtime.begin_holding(Some(lock(1)));
                map.insert(&holder, 1, 7);
                let second = runtime.begin();
                map.get(&second, &1)
            }));
            let message = parked.map_err(|panic| match panic.downcast::<String>() {
                Ok(message) => *message,
                Err(_) => String::from("a panic without a message"),
            });
            done.send(message).unwrap();
        });
        let message = outcome
            .recv_timeout(TIMEOUT)
            .expect("the thread panics instead of parking forever")
            .expect_err("the second transaction must not read");
        assert!(
            message.contains("one intent holder per thread"),
            "{message}"
        );
        handle.join().expect("the panic was caught");
    }

    #[test]
    fn finalize_below_and_discard_above_clear_hot_flags() {
        let (runtime, map) = fixture();
        heat(&runtime, &map);
        runtime.finalize_below(runtime.latest());
        assert_eq!(runtime.hot(), 0, "flattening starts the next block cold");
        heat(&runtime, &map);
        runtime.discard_above(runtime.latest());
        assert_eq!(runtime.hot(), 0, "discarding starts the next block cold");
    }

    #[test]
    fn savepoints_and_nested_actions_roll_back_buffered_writes() {
        let (runtime, map) = fixture();
        let txn = runtime.begin();
        map.insert(&txn, 1, 111);

        let savepoint = txn.savepoint();
        map.insert(&txn, 2, 222);
        map.add(&txn, 1, 111u64.wrapping_neg());
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

    /// A snapshot is one load of the newest published timestamp, so it
    /// must never see half a commit. Writers commit a map key and a
    /// scalar (two collections, installed one after the other) to equal
    /// values in a loop; readers on other threads begin and must read
    /// them equal.
    #[test]
    fn concurrent_snapshots_never_see_half_a_commit() {
        const WRITERS: u64 = 2;
        const COMMITS: u64 = 2_000;
        const READERS: usize = 2;
        let runtime = MvccRuntime::new();
        let (map, _) = map_over(&runtime, "test.pair", &[(1, 0)]);
        let (cell, _) = scalar_over(&runtime, "test.pair.cell", 0);
        let shared = Arc::new((runtime, map, cell));
        let committed = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (shared, committed) = (Arc::clone(&shared), Arc::clone(&committed));
                thread::spawn(move || {
                    let (runtime, map, cell) = &*shared;
                    let mut reads = 0u64;
                    while committed.load(Ordering::Relaxed) < WRITERS * COMMITS || reads == 0 {
                        let txn = runtime.begin();
                        let (left, right) = (map.get(&txn, &1), cell.get(&txn, &()));
                        assert_eq!(left, right, "a torn snapshot at {:?}", txn.begin_ts());
                        assert!(txn.commit().expect("readers never abort").read_only);
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let (shared, committed) = (Arc::clone(&shared), Arc::clone(&committed));
                thread::spawn(move || {
                    let (runtime, map, cell) = &*shared;
                    let mut done = 0;
                    while done < COMMITS {
                        let txn = runtime.begin();
                        let next = cell.get(&txn, &()).unwrap() + 1;
                        map.insert(&txn, 1, next);
                        cell.insert(&txn, (), next);
                        if txn.commit().is_ok() {
                            done += 1;
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("a writer panicked");
        }
        for reader in readers {
            assert!(reader.join().expect("a reader saw a torn snapshot") > 0);
        }
        let (runtime, map, cell) = &*shared;
        let check = runtime.begin();
        assert_eq!(
            cell.get(&check, &()),
            Some(WRITERS * COMMITS),
            "every commit landed once"
        );
        assert_eq!(map.get(&check, &1), Some(WRITERS * COMMITS));
    }

    #[test]
    fn finalize_flattens_newest_versions_into_base() {
        let (runtime, map) = fixture();
        for round in 0..3u64 {
            let txn = runtime.begin();
            map.insert(&txn, 1, 1000 + round);
            if round == 0 {
                // Brings the tally to 0: a deletion version.
                map.add(&txn, 2, 200u64.wrapping_neg());
            }
            txn.commit().unwrap();
        }
        runtime.finalize_block();

        let txn = runtime.begin();
        assert_eq!(map.get(&txn, &1), Some(1002), "newest version flattened");
        assert_eq!(map.get(&txn, &2), None, "tombstone removed the base key");
        assert!(txn.commit().unwrap().read_only);
    }

    #[test]
    fn finalize_below_commits_overlays_in_order() {
        let runtime = MvccRuntime::new();
        let (map, base) = map_over(&runtime, "test.overlay", &[(1, 100), (2, 200)]);

        // Two "blocks" of speculated writes, each bounded by the published
        // instant recorded after its last commit.
        let txn = runtime.begin();
        map.insert(&txn, 1, 111);
        map.insert(&txn, 3, 333);
        txn.commit().unwrap();
        let boundary1 = runtime.latest();

        let txn = runtime.begin();
        map.insert(&txn, 1, 222);
        map.add(&txn, 2, 200u64.wrapping_neg());
        txn.commit().unwrap();
        let boundary2 = runtime.latest();

        // Committing the first overlay flattens only its versions…
        runtime.finalize_below(boundary1);
        assert_eq!(
            contents(&base),
            [(1, 111), (2, 200), (3, 333)].into(),
            "only the first block reached the base"
        );
        // …while readers above the boundary still see the second overlay.
        let reader = runtime.begin();
        assert_eq!(map.get(&reader, &1), Some(222));
        assert_eq!(map.get(&reader, &2), None);
        reader.commit().unwrap();

        runtime.finalize_below(boundary2);
        assert_eq!(contents(&base), [(1, 222), (3, 333)].into());
    }

    #[test]
    fn discard_above_rolls_pending_overlays_away() {
        let runtime = MvccRuntime::new();
        let (map, base) = map_over(&runtime, "test.discard", &[(1, 100)]);

        let txn = runtime.begin();
        map.insert(&txn, 1, 111);
        txn.commit().unwrap();
        let boundary1 = runtime.latest();

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
        assert_eq!(base.peek(&1), Some(100));

        runtime.finalize_below(boundary1);
        assert_eq!(contents(&base), [(1, 111)].into());
    }

    #[test]
    fn counter_overlays_slice_without_double_counting() {
        // An add installs the total it leaves, not its delta; flattening
        // an older overlay must not re-apply deltas the newer totals
        // already include.
        let runtime = MvccRuntime::new();
        let (tally, base) = map_over(&runtime, "test.tally", &[]);

        let txn = runtime.begin();
        tally.add(&txn, 7, 3);
        txn.commit().unwrap();
        let boundary1 = runtime.latest();

        let txn = runtime.begin();
        tally.add(&txn, 7, 4);
        txn.commit().unwrap();
        let boundary2 = runtime.latest();

        runtime.finalize_below(boundary1);
        assert_eq!(base.peek(&7), Some(3));
        let reader = runtime.begin();
        assert_eq!(tally.get(&reader, &7), Some(7), "newer total still visible");
        reader.commit().unwrap();

        runtime.finalize_below(boundary2);
        assert_eq!(base.peek(&7), Some(7), "no double counting");

        let txn = runtime.begin();
        tally.add(&txn, 7, 5);
        txn.commit().unwrap();
        runtime.discard_above(boundary2);
        let reader = runtime.begin();
        assert_eq!(tally.get(&reader, &7), Some(7), "discarded delta vanished");
        reader.commit().unwrap();

        // A delta that brings the total back to 0 installs an unbinding.
        let txn = runtime.begin();
        tally.add(&txn, 7, 7u64.wrapping_neg());
        txn.commit().unwrap();
        runtime.finalize_block();
        assert_eq!(base.peek(&7), None);
    }

    /// Pure adds to one key commute: each validates only against newer
    /// non-additive versions, so concurrent adders all commit and the
    /// later installs on the earlier's total. A newer binding, or a read
    /// of the key, still orders against an add. (Each case has its own
    /// key: a lost commit makes its lock hot.)
    #[test]
    fn concurrent_adds_commit_and_a_newer_binding_invalidates_an_add() {
        let runtime = MvccRuntime::new();
        let (tally, base) = map_over(&runtime, "test.tally.concurrent", &[(1, 10)]);

        let (first, second) = (runtime.begin(), runtime.begin());
        tally.add(&first, 1, 3);
        tally.add(&second, 1, 4);
        first.commit().expect("first adder commits");
        second.commit().expect("a concurrent adder commits too");
        let own = runtime.begin();
        tally.add(&own, 1, 2);
        assert_eq!(tally.get(&own, &1), Some(19), "reads its own delta");
        own.abort();
        runtime.finalize_block();
        assert_eq!(base.peek(&1), Some(17));

        let (adder, writer) = (runtime.begin(), runtime.begin());
        tally.add(&adder, 2, 1);
        tally.insert(&writer, 2, 0);
        writer.commit().unwrap();
        assert!(adder.commit().is_err(), "a newer binding invalidates");

        let (reader, adder) = (runtime.begin(), runtime.begin());
        assert_eq!(tally.get(&reader, &3), None);
        tally.add(&reader, 3, 1);
        tally.add(&adder, 3, 1);
        adder.commit().unwrap();
        assert!(
            reader.commit().is_err(),
            "a read orders against a newer add"
        );
    }

    /// One random operation: `(selector, key, value)`.
    type Op = (u8, u64, u64);

    /// Transactions of random operations, each with whether it commits
    /// and what happens to the overlays after it (see [`Lifecycle`]).
    type Program = Vec<(Vec<Op>, bool, u8)>;

    fn program() -> impl Strategy<Value = Program> {
        proptest::collection::vec(
            (
                proptest::collection::vec((0u8..5, 0u64..8, 0u64..1000), 0..6),
                any::<bool>(),
                0u8..5,
            ),
            0..14,
        )
    }

    /// A versioned collection over a real boosted base, beside the
    /// single-version reference it must agree with.
    trait Subject {
        /// The collection's whole content, as the reference keeps it.
        type State: Clone + PartialEq + std::fmt::Debug;
        /// Applies `op` through `txn` and to `state`, checking whatever
        /// the operation returns against the reference.
        fn apply(&self, txn: &MvccTxn<'_>, op: Op, state: &mut Self::State) -> TestCaseResult;
        /// The whole content as `txn` sees it.
        fn view(&self, txn: &MvccTxn<'_>) -> Self::State;
        /// The boosted base's content.
        fn base(&self) -> Self::State;
    }

    /// What a transaction's lifecycle byte does after it closes.
    enum Lifecycle {
        /// The block goes on.
        Continue,
        /// The block ends and stacks as a pending overlay; with more than
        /// two stacked, the oldest is flattened.
        Seal,
        /// The block ends and the oldest pending overlay is flattened.
        Flatten,
        /// The block in progress is discarded back to the newest overlay.
        DiscardBlock,
        /// Every pending overlay is discarded back to the base.
        DiscardAll,
    }

    impl Lifecycle {
        fn decode(byte: u8) -> Self {
            match byte % 5 {
                0 => Lifecycle::Continue,
                1 => Lifecycle::Seal,
                2 => Lifecycle::Flatten,
                3 => Lifecycle::DiscardBlock,
                _ => Lifecycle::DiscardAll,
            }
        }
    }

    /// Runs `program` serially against `subject` and its reference:
    /// read-your-writes after every operation, fresh-snapshot reads after
    /// every commit and abort, a snapshot pinned before the writer that
    /// still reads the state it began at, stacked overlays flattened (`finalize_below`) or rolled
    /// away (`discard_above`) at random, and the base equal to the
    /// reference at the newest flattened boundary throughout.
    fn check_against_reference<S: Subject>(
        runtime: &MvccRuntime,
        subject: &S,
        program: &Program,
    ) -> TestCaseResult {
        let mut state = subject.base();
        // The last flattened boundary with its state, and the sealed
        // overlays stacked above it, oldest first.
        let mut base = (runtime.latest(), state.clone());
        let mut pending: Vec<(Timestamp, S::State)> = Vec::new();
        let seal = |pending: &mut Vec<(Timestamp, S::State)>, state: &S::State| {
            pending.push((runtime.latest(), state.clone()));
        };

        for (ops, commit, lifecycle) in program {
            let pinned = (runtime.begin(), state.clone());
            let txn = runtime.begin();
            let mut speculative = state.clone();
            for &op in ops {
                subject.apply(&txn, op, &mut speculative)?;
                prop_assert_eq!(subject.view(&txn), speculative.clone());
            }
            if *commit {
                txn.commit().unwrap();
                state = speculative;
            } else {
                txn.abort();
            }

            // The pinned snapshot still reads what it read before the
            // writer ran.
            prop_assert_eq!(subject.view(&pinned.0), pinned.1);
            drop(pinned);

            match Lifecycle::decode(*lifecycle) {
                Lifecycle::Continue => {}
                Lifecycle::Seal => {
                    seal(&mut pending, &state);
                    if pending.len() > 2 {
                        base = pending.remove(0);
                        runtime.finalize_below(base.0);
                    }
                }
                Lifecycle::Flatten => {
                    seal(&mut pending, &state);
                    base = pending.remove(0);
                    runtime.finalize_below(base.0);
                }
                Lifecycle::DiscardBlock => {
                    let (boundary, kept) = pending.last().unwrap_or(&base).clone();
                    runtime.discard_above(boundary);
                    state = kept;
                }
                Lifecycle::DiscardAll => {
                    runtime.discard_above(base.0);
                    pending.clear();
                    state = base.1.clone();
                }
            }
            prop_assert_eq!(subject.base(), base.1.clone());

            // A fresh snapshot sees exactly the reference — and, being
            // read-only, commits without ever aborting.
            let reader = runtime.begin();
            prop_assert_eq!(subject.view(&reader), state.clone());
            prop_assert!(reader.commit().unwrap().read_only);
        }

        runtime.finalize_block();
        prop_assert_eq!(subject.base(), state);
        Ok(())
    }

    struct MapSubject(VersionedMap<u64, u64>, BoostedMap<u64, u64>);

    impl Subject for MapSubject {
        type State = BTreeMap<u64, u64>;

        fn apply(&self, txn: &MvccTxn<'_>, op: Op, state: &mut Self::State) -> TestCaseResult {
            let MapSubject(map, _) = self;
            let (selector, key, value) = op;
            match selector {
                0 => {
                    map.insert(txn, key, value);
                    state.insert(key, value);
                }
                1 => {
                    // A negated add unbinds the key (a deletion version);
                    // an add of 0 changes nothing.
                    let delta = state.get(&key).copied().unwrap_or(0).wrapping_neg();
                    map.add(txn, key, delta);
                    if delta != 0 {
                        state.remove(&key);
                    }
                }
                2 => {
                    map.update_or(txn, key, 0, |x| *x = x.wrapping_add(value));
                    let next = state.get(&key).copied().unwrap_or(0).wrapping_add(value);
                    state.insert(key, next);
                }
                3 => {
                    prop_assert_eq!(map.get(txn, &key), state.get(&key).copied());
                    map.insert(txn, key, value);
                    state.insert(key, value);
                }
                _ => prop_assert_eq!(
                    map.get_with(txn, &key, |v| v.is_some()),
                    state.contains_key(&key)
                ),
            }
            Ok(())
        }

        fn view(&self, txn: &MvccTxn<'_>) -> Self::State {
            (0..8)
                .filter_map(|key| self.0.get(txn, &key).map(|value| (key, value)))
                .collect()
        }

        fn base(&self) -> Self::State {
            self.1.snapshot().into_iter().collect()
        }
    }

    /// A `u64` map driven mostly by adds, interleaved with `insert` and
    /// `update_or` on the same keys; a negated add brings a tally back
    /// to 0, which unbinds it.
    struct CounterSubject(VersionedMap<u64, u64>, BoostedMap<u64, u64>);

    impl Subject for CounterSubject {
        type State = BTreeMap<u64, u64>;

        fn apply(&self, txn: &MvccTxn<'_>, op: Op, state: &mut Self::State) -> TestCaseResult {
            let CounterSubject(tally, _) = self;
            let (selector, key, value) = op;
            let add = |state: &mut Self::State, delta: u64| {
                let total = state.get(&key).map_or(delta, |t| t.wrapping_add(delta));
                match (delta, total) {
                    (0, _) => {}
                    (_, 0) => drop(state.remove(&key)),
                    _ => drop(state.insert(key, total)),
                }
            };
            match selector {
                0 => {
                    tally.add(txn, key, value);
                    add(state, value);
                }
                1 => {
                    tally.add(txn, key, value.wrapping_neg());
                    add(state, value.wrapping_neg());
                }
                2 => {
                    tally.insert(txn, key, value);
                    state.insert(key, value);
                }
                3 => {
                    tally.update_or(txn, key, 0, |x| *x = x.wrapping_add(value));
                    let next = state.get(&key).copied().unwrap_or(0).wrapping_add(value);
                    state.insert(key, next);
                }
                _ => prop_assert_eq!(tally.get(txn, &key), state.get(&key).copied()),
            }
            Ok(())
        }

        fn view(&self, txn: &MvccTxn<'_>) -> Self::State {
            (0..8)
                .filter_map(|key| self.0.get(txn, &key).map(|value| (key, value)))
                .collect()
        }

        fn base(&self) -> Self::State {
            self.1.snapshot().into_iter().collect()
        }
    }

    /// A scalar: a map's one entry under the key `()`, seeded and never
    /// unbound.
    struct CellSubject(VersionedMap<(), u64>, BoostedMap<(), u64>);

    impl Subject for CellSubject {
        type State = u64;

        fn apply(&self, txn: &MvccTxn<'_>, op: Op, state: &mut Self::State) -> TestCaseResult {
            let CellSubject(cell, _) = self;
            let (selector, _, value) = op;
            match selector % 3 {
                0 => {
                    cell.insert(txn, (), value);
                    *state = value;
                }
                1 => {
                    *state = state.wrapping_add(value);
                    let mut updated = 0;
                    cell.update_or(txn, (), 0, |x| {
                        *x = x.wrapping_add(value);
                        updated = *x;
                    });
                    prop_assert_eq!(updated, *state);
                }
                _ => prop_assert_eq!(cell.get_with(txn, &(), |x| x.copied()), Some(*state)),
            }
            Ok(())
        }

        fn view(&self, txn: &MvccTxn<'_>) -> Self::State {
            self.0.get(txn, &()).expect("a scalar is never unbound")
        }

        fn base(&self) -> Self::State {
            self.1.peek(&()).expect("a scalar is never unbound")
        }
    }

    proptest::proptest! {
        /// A serial stream of optimistic transactions over each versioned
        /// collection behaves exactly like the same operations on a plain
        /// single-version reference (see `check_against_reference`).
        #[test]
        fn prop_versioned_map_matches_single_version_reference(
            seed in proptest::collection::vec((0u64..8, 0u64..1000), 0..8),
            program in program(),
        ) {
            let runtime = MvccRuntime::new();
            let base = BoostedMap::new("test.prop.map");
            for (key, value) in seed {
                base.seed(key, value);
            }
            let map = VersionedMap::new(&runtime, base.clone());
            check_against_reference(&runtime, &MapSubject(map, base), &program)?;
        }

        #[test]
        fn prop_versioned_counter_map_matches_single_version_reference(
            seed in proptest::collection::vec((0u64..8, 0u64..1000), 0..8),
            program in program(),
        ) {
            let runtime = MvccRuntime::new();
            let base = BoostedMap::new("test.prop.tally");
            for (key, value) in seed {
                base.seed(key, value);
            }
            let tally = VersionedMap::new(&runtime, base.clone());
            check_against_reference(&runtime, &CounterSubject(tally, base), &program)?;
        }

        #[test]
        fn prop_versioned_cell_matches_single_version_reference(
            seed in 0u64..1000,
            program in program(),
        ) {
            let runtime = MvccRuntime::new();
            let (cell, base) = scalar_over(&runtime, "test.prop.cell", seed);
            check_against_reference(&runtime, &CellSubject(cell, base), &program)?;
        }
    }
}
