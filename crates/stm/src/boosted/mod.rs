//! Boosted (transaction-aware) collections.
//!
//! These are the equivalents of the paper's "boosted hashtables": ordinary
//! concurrent containers whose operations, when performed inside a
//! [`crate::Transaction`], first acquire the appropriate abstract lock and
//! record an inverse operation. Outside of a transaction they can only be
//! inspected through the non-transactional `snapshot`/`restore` methods
//! used for state commitment and test assertions.
//!
//! | Type | Protects | Lock granularity |
//! |------|----------|------------------|
//! | [`BoostedMap`] | a key→value mapping (Solidity `mapping`) | one lock per key |
//! | [`BoostedCell`] | a single scalar state variable | one lock per cell |
//! | [`BoostedVec`] | a dynamically sized array | one lock per index + a length lock |
//! | [`BoostedCounterMap`] | a key→integer tally | per-key lock, **additive** mode for `add` |

mod cell;
mod counter;
mod map;
mod vec;

pub use cell::BoostedCell;
pub use counter::BoostedCounterMap;
pub use map::BoostedMap;
pub use vec::BoostedVec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Stm;
    use proptest::prelude::*;

    /// One randomly chosen operation against one of the four collections,
    /// decoded from a `(selector, key, value)` tuple (the proptest shim
    /// supports ranges and tuples, not `prop_oneof`).
    type RawOp = (u8, u8, u64);

    /// A point-in-time fingerprint of all four collections.
    #[allow(clippy::type_complexity)]
    fn fingerprint(
        map: &BoostedMap<u8, u64>,
        vec: &BoostedVec<u64>,
        cell: &BoostedCell<u64>,
        counter: &BoostedCounterMap<u8>,
    ) -> (Vec<(u8, u64)>, Vec<u64>, u64, Vec<(u8, u64)>) {
        let mut m = map.snapshot();
        m.sort_unstable();
        let mut c = counter.snapshot();
        c.sort_unstable();
        (m, vec.snapshot(), cell.peek(), c)
    }

    /// Applies one decoded operation inside `txn`.
    fn apply(
        txn: &crate::txn::Transaction,
        op: RawOp,
        map: &BoostedMap<u8, u64>,
        vec: &BoostedVec<u64>,
        cell: &BoostedCell<u64>,
        counter: &BoostedCounterMap<u8>,
    ) {
        let (selector, key, value) = op;
        match selector % 10 {
            0 => {
                map.insert(txn, key, value).unwrap();
            }
            1 => {
                map.remove(txn, &key).unwrap();
            }
            2 => {
                map.update_or(txn, key, 0, |x| *x = x.wrapping_add(value))
                    .unwrap();
            }
            3 => {
                vec.push(txn, value).unwrap();
            }
            4 => {
                vec.modify(txn, key as usize, |x| *x = x.wrapping_add(value))
                    .unwrap();
            }
            5 => {
                vec.set(txn, key as usize, value).unwrap();
            }
            6 => {
                cell.set(txn, value).unwrap();
            }
            7 => {
                cell.modify(txn, |x| *x = x.wrapping_add(value)).unwrap();
            }
            8 => {
                counter.add(txn, key, value).unwrap();
            }
            _ => {
                counter.set(txn, key, value).unwrap();
            }
        }
    }

    proptest! {
        /// The cross-collection undo-log contract: a transaction that
        /// interleaves mutations across all four boosted collections and
        /// then aborts must leave every collection **exactly** as it
        /// started — the typed sinks must replay in one global
        /// most-recent-first order, not per collection.
        #[test]
        fn prop_abort_restores_across_all_four_collections(
            seed_map in proptest::collection::vec((0u8..8, 0u64..100), 0..8),
            seed_vec in proptest::collection::vec(0u64..100, 0..8),
            seed_cell in 0u64..100,
            seed_counter in proptest::collection::vec((0u8..8, 1u64..100), 0..8),
            ops in proptest::collection::vec((0u8..10, 0u8..8, 0u64..100), 0..40),
        ) {
            let stm = Stm::new();
            let map: BoostedMap<u8, u64> = BoostedMap::new("prop.map");
            let vec: BoostedVec<u64> = BoostedVec::new("prop.vec");
            let cell: BoostedCell<u64> = BoostedCell::new("prop.cell", seed_cell);
            let counter: BoostedCounterMap<u8> = BoostedCounterMap::new("prop.counter");
            for (k, v) in &seed_map {
                map.seed(*k, *v);
            }
            for v in &seed_vec {
                vec.seed_push(*v);
            }
            for (k, v) in &seed_counter {
                counter.seed(*k, *v);
            }

            let before = fingerprint(&map, &vec, &cell, &counter);

            let txn = stm.begin();
            for &op in &ops {
                apply(&txn, op, &map, &vec, &cell, &counter);
            }
            txn.abort().unwrap();

            prop_assert_eq!(fingerprint(&map, &vec, &cell, &counter), before);
        }

        /// The same interleavings under a savepoint: rolling back to the
        /// savepoint undoes everything logged after it (and only that),
        /// while the transaction stays open and committable.
        #[test]
        fn prop_savepoint_rollback_is_exact(
            prefix in proptest::collection::vec((0u8..10, 0u8..8, 0u64..100), 0..12),
            suffix in proptest::collection::vec((0u8..10, 0u8..8, 0u64..100), 0..12),
        ) {
            let stm = Stm::new();
            let map: BoostedMap<u8, u64> = BoostedMap::new("sp.map");
            let vec: BoostedVec<u64> = BoostedVec::new("sp.vec");
            let cell: BoostedCell<u64> = BoostedCell::new("sp.cell", 7);
            let counter: BoostedCounterMap<u8> = BoostedCounterMap::new("sp.counter");

            let txn = stm.begin();
            for &op in &prefix {
                apply(&txn, op, &map, &vec, &cell, &counter);
            }
            let at_savepoint = fingerprint(&map, &vec, &cell, &counter);
            let sp = txn.savepoint();
            for &op in &suffix {
                apply(&txn, op, &map, &vec, &cell, &counter);
            }
            txn.rollback_to(sp);
            prop_assert_eq!(fingerprint(&map, &vec, &cell, &counter), at_savepoint);
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
                (any::<bool>(), proptest::collection::vec((0u8..10, 0u8..8, 0u64..100), 0..12)),
                0..8,
            ),
        ) {
            let run = |label: &str, pooled: bool| {
                let stm = Stm::new();
                let map: BoostedMap<u8, u64> = BoostedMap::new(&format!("{label}.map"));
                let vec: BoostedVec<u64> = BoostedVec::new(&format!("{label}.vec"));
                let cell: BoostedCell<u64> = BoostedCell::new(&format!("{label}.cell"), 7);
                let counter: BoostedCounterMap<u8> =
                    BoostedCounterMap::new(&format!("{label}.counter"));
                let scope = stm.begin_block();
                for (commit, ops) in &txns {
                    // The scope arm reuses one pool for every transaction;
                    // the fresh arm constructs a new Transaction each time.
                    if pooled {
                        let txn = scope.begin();
                        for &op in ops {
                            apply(&txn, op, &map, &vec, &cell, &counter);
                        }
                        if *commit {
                            txn.commit().unwrap();
                        } else {
                            txn.abort().unwrap();
                        }
                    } else {
                        let txn = stm.begin();
                        for &op in ops {
                            apply(&txn, op, &map, &vec, &cell, &counter);
                        }
                        if *commit {
                            txn.commit().unwrap();
                        } else {
                            txn.abort().unwrap();
                        }
                    }
                }
                fingerprint(&map, &vec, &cell, &counter)
            };
            prop_assert_eq!(run("fresh", false), run("pooled", true));
        }
    }

    /// N threads hammer all four collections through the raw (RwLock-free)
    /// backing stores concurrently on disjoint keys, then the final state
    /// is checked against a `HashMap`/`Vec` reference built from the same
    /// schedule. Disjoint keys mean disjoint abstract locks — so this
    /// drives exactly the window the per-shard latches must cover: distinct
    /// keys sharing one open-addressing table (and vector elements sharing
    /// one allocation) being mutated from different threads at once.
    #[test]
    fn disjoint_key_stress_across_all_four_collections() {
        use std::collections::HashMap;

        const THREADS: usize = 8;
        const KEYS_PER_THREAD: u64 = 64;
        const ROUNDS: usize = 4;

        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("stress.map");
        let vec: BoostedVec<u64> = BoostedVec::new("stress.vec");
        let counter: BoostedCounterMap<u64> = BoostedCounterMap::new("stress.counter");
        // Cells are whole-collection locks, so give each thread its own.
        let cells: Vec<BoostedCell<u64>> = (0..THREADS)
            .map(|t| BoostedCell::new(&format!("stress.cell.{t}"), 0))
            .collect();
        for i in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            vec.seed_push(i);
        }

        std::thread::scope(|scope| {
            for (t, cell) in cells.iter().enumerate() {
                let stm = stm.clone();
                let map = map.clone();
                let vec = vec.clone();
                let counter = counter.clone();
                let cell = cell.clone();
                scope.spawn(move || {
                    let base = t as u64 * KEYS_PER_THREAD;
                    for round in 0..ROUNDS as u64 {
                        for k in base..base + KEYS_PER_THREAD {
                            stm.run(|txn| {
                                map.insert(txn, k, k * 10 + round)?;
                                counter.add(txn, k, round + 1)?;
                                vec.set(txn, k as usize, k + round)?;
                                cell.modify(txn, |v| *v += k)?;
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
        let mut ref_vec: Vec<u64> = (0..(THREADS as u64 * KEYS_PER_THREAD)).collect();
        let last_round = ROUNDS as u64 - 1;
        for k in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            ref_map.insert(k, k * 10 + last_round);
            ref_vec[k as usize] = k + last_round;
        }
        let got_map: HashMap<u64, u64> = map.snapshot().into_iter().collect();
        assert_eq!(got_map, ref_map);
        assert_eq!(vec.snapshot(), ref_vec);
        for k in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            assert_eq!(counter.peek(&k), (1..=ROUNDS as u64).sum::<u64>());
        }
        for (t, cell) in cells.iter().enumerate() {
            let base = t as u64 * KEYS_PER_THREAD;
            let per_round: u64 = (base..base + KEYS_PER_THREAD).sum();
            assert_eq!(cell.peek(), per_round * ROUNDS as u64);
        }
    }

    /// The acceptance criterion of the raw-store refactor, asserted
    /// directly: a transaction driving every operation of all four
    /// collections acquires **zero** reader-writer locks. The counter is a
    /// debug-only extension of the `parking_lot` shim (see
    /// `shims/README.md`).
    #[cfg(debug_assertions)]
    #[test]
    fn boosted_ops_acquire_zero_rwlocks() {
        let stm = Stm::new();
        let map: BoostedMap<u8, u64> = BoostedMap::new("norw.map");
        let vec: BoostedVec<u64> = BoostedVec::new("norw.vec");
        let cell: BoostedCell<u64> = BoostedCell::new("norw.cell", 1);
        let counter: BoostedCounterMap<u8> = BoostedCounterMap::new("norw.counter");
        map.seed(1, 10);
        vec.seed_push(5);

        let before = parking_lot::rwlock_acquisition_count();
        stm.run(|txn| {
            map.insert(txn, 2, 20)?;
            map.get(txn, &1)?;
            map.get_with(txn, &1, |v| v.copied())?;
            map.contains_key(txn, &2)?;
            map.update_or(txn, 3, 0, |x| *x += 1)?;
            map.replace(txn, 1, 11)?;
            map.take(txn, &3)?;
            map.remove(txn, &2)?;
            vec.len(txn)?;
            vec.get(txn, 0)?;
            vec.get_with(txn, 0, |v| v.copied())?;
            vec.push(txn, 6)?;
            vec.set(txn, 0, 7)?;
            vec.modify(txn, 0, |x| *x += 1)?;
            cell.get(txn)?;
            cell.with(txn, |v| *v)?;
            cell.set(txn, 2)?;
            cell.modify(txn, |v| *v += 1)?;
            counter.add(txn, 1, 5)?;
            counter.get(txn, &1)?;
            counter.set(txn, 2, 9)?;
            Ok(())
        })
        .unwrap();
        // Aborts replay the undo log through the raw stores too.
        let txn = stm.begin();
        map.insert(&txn, 9, 90).unwrap();
        vec.push(&txn, 9).unwrap();
        cell.set(&txn, 9).unwrap();
        counter.add(&txn, 9, 9).unwrap();
        txn.abort().unwrap();
        assert_eq!(
            parking_lot::rwlock_acquisition_count() - before,
            0,
            "boosted-collection hot path must not acquire any RwLock"
        );
    }
}
