//! Boosted (transaction-aware) collections.
//!
//! These are the equivalents of the paper's "boosted hashtables": ordinary
//! concurrent containers whose operations, when performed inside a
//! [`crate::Transaction`], first acquire the appropriate abstract lock and
//! record an inverse operation. Outside of a transaction they are seeded
//! and inspected through non-transactional methods (`seed`, `peek`,
//! `snapshot`, `drain_dirty`) used for set-up, state commitment, the
//! multi-version flatten and test assertions.
//!
//! | Type | Protects | Lock granularity |
//! |------|----------|------------------|
//! | [`BoostedMap`] | a key→value mapping (Solidity `mapping`), or one scalar state variable as the entry under the key `()` | one lock per key; **additive** mode for a `u64` map's `add` |
//!
//! A tally is a `BoostedMap<K, u64>` whose writers call
//! [`BoostedMap::add`], and a scalar is a `BoostedMap<(), T>`:
//! commutativity is a property of the operation and a scalar a choice of
//! key, neither a kind of collection.

mod counter;
mod map;

pub use map::BoostedMap;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Stm;
    use proptest::prelude::*;

    /// One randomly chosen operation against one of the collections,
    /// decoded from a `(selector, key, value)` tuple (the proptest shim
    /// supports ranges and tuples, not `prop_oneof`).
    type RawOp = (u8, u8, u64);

    /// A scalar: the one entry of a map under the key `()`.
    type Scalar = BoostedMap<(), u64>;

    fn scalar(name: &str, initial: u64) -> Scalar {
        let scalar = BoostedMap::new(name);
        scalar.seed((), initial);
        scalar
    }

    /// A point-in-time fingerprint of a map and a scalar.
    fn fingerprint(map: &BoostedMap<u8, u64>, cell: &Scalar) -> (Vec<(u8, u64)>, Option<u64>) {
        let mut m = map.snapshot();
        m.sort_unstable();
        (m, cell.peek(&()))
    }

    /// Applies one decoded operation inside `txn`. Adds land on the keys
    /// `insert` and `update_or` write, a negated add brings a tally back
    /// to 0, and an insert of 0 binds a zero the adds must keep.
    fn apply(txn: &crate::txn::Transaction, op: RawOp, map: &BoostedMap<u8, u64>, cell: &Scalar) {
        let (selector, key, value) = op;
        match selector % 7 {
            0 => {
                map.insert(txn, key, value).unwrap();
            }
            1 => {
                map.insert(txn, key, 0).unwrap();
            }
            2 => {
                map.update_or(txn, key, 0, |x| *x = x.wrapping_add(value))
                    .unwrap();
            }
            3 => {
                cell.insert(txn, (), value).unwrap();
            }
            4 => {
                cell.update_or(txn, (), 0, |x| *x = x.wrapping_add(value))
                    .unwrap();
            }
            5 => {
                map.add(txn, key, value).unwrap();
            }
            _ => {
                map.add(txn, key, value.wrapping_neg()).unwrap();
            }
        }
    }

    proptest! {
        /// The cross-collection undo-log contract: a transaction that
        /// interleaves mutations across the boosted collections (a map's
        /// writes and its adds keep one sink each) and then aborts must
        /// leave every collection **exactly** as it started — the typed
        /// sinks must replay in one global most-recent-first order, not
        /// per sink. Seeds include bindings to 0.
        #[test]
        fn prop_abort_restores_across_all_four_collections(
            seed_map in proptest::collection::vec((0u8..8, 0u64..100), 0..8),
            seed_cell in 0u64..100,
            ops in proptest::collection::vec((0u8..7, 0u8..8, 0u64..100), 0..40),
        ) {
            let stm = Stm::new();
            let map: BoostedMap<u8, u64> = BoostedMap::new("prop.map");
            let cell = scalar("prop.cell", seed_cell);
            for (k, v) in &seed_map {
                map.seed(*k, *v);
            }

            let before = fingerprint(&map, &cell);

            let txn = stm.begin();
            for &op in &ops {
                apply(&txn, op, &map, &cell);
            }
            txn.abort().unwrap();

            prop_assert_eq!(fingerprint(&map, &cell), before);
        }

        /// The same interleavings under a savepoint: rolling back to the
        /// savepoint undoes everything logged after it (and only that),
        /// while the transaction stays open and committable.
        #[test]
        fn prop_savepoint_rollback_is_exact(
            prefix in proptest::collection::vec((0u8..7, 0u8..8, 0u64..100), 0..12),
            suffix in proptest::collection::vec((0u8..7, 0u8..8, 0u64..100), 0..12),
        ) {
            let stm = Stm::new();
            let map: BoostedMap<u8, u64> = BoostedMap::new("sp.map");
            let cell = scalar("sp.cell", 7);

            let txn = stm.begin();
            for &op in &prefix {
                apply(&txn, op, &map, &cell);
            }
            let at_savepoint = fingerprint(&map, &cell);
            let sp = txn.savepoint();
            for &op in &suffix {
                apply(&txn, op, &map, &cell);
            }
            txn.rollback_to(sp);
            prop_assert_eq!(fingerprint(&map, &cell), at_savepoint);
            txn.commit().unwrap();
        }

        /// Pooled transactions are indistinguishable from fresh ones: the
        /// same random op sequences applied through `Stm::begin` and
        /// through a `TxnScope`'s recycled arenas (mixing commits and
        /// aborts, so undo logs, held sets and sinks all get reused) must
        /// produce identical final states — no state may leak between an
        /// arena's lives.
        #[test]
        fn prop_pooled_transactions_leak_no_state(
            txns in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec((0u8..7, 0u8..8, 0u64..100), 0..12)),
                0..8,
            ),
        ) {
            let run = |label: &str, pooled: bool| {
                let stm = Stm::new();
                let map: BoostedMap<u8, u64> = BoostedMap::new(&format!("{label}.map"));
                let cell = scalar(&format!("{label}.cell"), 7);
                let scope = stm.begin_block();
                for (commit, ops) in &txns {
                    // The scope arm reuses one pool for every transaction;
                    // the fresh arm constructs a new Transaction each time.
                    if pooled {
                        let txn = scope.begin();
                        for &op in ops {
                            apply(&txn, op, &map, &cell);
                        }
                        if *commit {
                            txn.commit().unwrap();
                        } else {
                            txn.abort().unwrap();
                        }
                    } else {
                        let txn = stm.begin();
                        for &op in ops {
                            apply(&txn, op, &map, &cell);
                        }
                        if *commit {
                            txn.commit().unwrap();
                        } else {
                            txn.abort().unwrap();
                        }
                    }
                }
                fingerprint(&map, &cell)
            };
            prop_assert_eq!(run("fresh", false), run("pooled", true));
        }
    }

    /// N threads hammer a map, its adds and scalars through the raw (RwLock-free)
    /// backing stores concurrently on disjoint keys, then the final state
    /// is checked against a `HashMap` reference built from the same
    /// schedule. Disjoint keys mean disjoint abstract locks — so this
    /// drives exactly the window the per-shard latches must cover: distinct
    /// keys sharing one open-addressing table being mutated from different
    /// threads at once.
    #[test]
    fn disjoint_key_stress_across_all_four_collections() {
        use std::collections::HashMap;

        const THREADS: usize = 8;
        const KEYS_PER_THREAD: u64 = 64;
        const ROUNDS: usize = 4;

        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("stress.map");
        let tally: BoostedMap<u64, u64> = BoostedMap::new("stress.tally");
        // A scalar is one key, so one lock: give each thread its own.
        let cells: Vec<Scalar> = (0..THREADS)
            .map(|t| scalar(&format!("stress.cell.{t}"), 0))
            .collect();

        std::thread::scope(|scope| {
            for (t, cell) in cells.iter().enumerate() {
                let stm = stm.clone();
                let map = map.clone();
                let tally = tally.clone();
                let cell = cell.clone();
                scope.spawn(move || {
                    let base = t as u64 * KEYS_PER_THREAD;
                    for round in 0..ROUNDS as u64 {
                        for k in base..base + KEYS_PER_THREAD {
                            stm.run(|txn| {
                                map.insert(txn, k, k * 10 + round)?;
                                tally.add(txn, k, round + 1)?;
                                cell.update_or(txn, (), 0, |v| *v += k)?;
                                // Read back under the same locks: another
                                // thread rehashing a shared shard must not
                                // corrupt this key's binding mid-probe.
                                assert_eq!(map.get(txn, &k)?, Some(k * 10 + round));
                                Ok(())
                            })
                            .unwrap();
                        }
                    }
                });
            }
        });

        // Reference state from the same (per-key deterministic) schedule.
        let mut ref_map = HashMap::new();
        let last_round = ROUNDS as u64 - 1;
        for k in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            ref_map.insert(k, k * 10 + last_round);
        }
        let got_map: HashMap<u64, u64> = map.snapshot().into_iter().collect();
        assert_eq!(got_map, ref_map);
        for k in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            assert_eq!(tally.peek(&k), Some((1..=ROUNDS as u64).sum::<u64>()));
        }
        for (t, cell) in cells.iter().enumerate() {
            let base = t as u64 * KEYS_PER_THREAD;
            let per_round: u64 = (base..base + KEYS_PER_THREAD).sum();
            assert_eq!(cell.peek(&()), Some(per_round * ROUNDS as u64));
        }
    }

    /// The acceptance criterion of the raw-store refactor, asserted
    /// directly: a transaction driving every operation of a map and a
    /// scalar acquires **zero** reader-writer locks. The counter is a
    /// debug-only extension of the `parking_lot` shim (see
    /// `shims/README.md`).
    #[cfg(debug_assertions)]
    #[test]
    fn boosted_ops_acquire_zero_rwlocks() {
        let stm = Stm::new();
        let map: BoostedMap<u8, u64> = BoostedMap::new("norw.map");
        let cell = scalar("norw.cell", 1);
        map.seed(1, 10);

        let before = parking_lot::rwlock_acquisition_count();
        stm.run(|txn| {
            map.insert(txn, 2, 20)?;
            map.get(txn, &1)?;
            map.get_with(txn, &1, |v| v.copied())?;
            map.update_or(txn, 3, 0, |x| *x += 1)?;
            map.insert(txn, 1, 11)?;
            map.add(txn, 3, 1u64.wrapping_neg())?;
            cell.get(txn, &())?;
            cell.get_with(txn, &(), |v| v.copied())?;
            cell.insert(txn, (), 2)?;
            cell.update_or(txn, (), 0, |v| *v += 1)?;
            map.add(txn, 1, 5)?;
            map.add(txn, 4, 5)?;
            map.add(txn, 4, 0)?;
            Ok(())
        })
        .unwrap();
        // Aborts replay the undo log through the raw stores too.
        let txn = stm.begin();
        map.insert(&txn, 9, 90).unwrap();
        cell.insert(&txn, (), 9).unwrap();
        map.add(&txn, 9, 9).unwrap();
        txn.abort().unwrap();
        assert_eq!(
            parking_lot::rwlock_acquisition_count() - before,
            0,
            "boosted-collection hot path must not acquire any RwLock"
        );
    }
}
