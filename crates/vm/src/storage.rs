//! Gas-charging storage wrappers over the interchangeable concurrency
//! backends.
//!
//! Contracts declare persistent state with these types. Every operation
//! takes the [`CallContext`]: it charges gas and then performs the
//! corresponding collection operation inside the enclosing transaction, so
//! state access is simultaneously metered and speculative.
//!
//! There is one collection kind. A [`StorageMap`] owns a **pessimistic**
//! boosted map (the authoritative single-version state, used by
//! [`TxnRef::Stm`] transactions, seeding, snapshots and state roots) plus
//! a lazily built **optimistic** versioned overlay (used by
//! [`TxnRef::Mvcc`] transactions). The overlay holds a clone of the
//! boosted map as its twin, shares its lock space so both flavors report
//! identical lock footprints, and registers itself with the world's
//! [`cc_mvcc::MvccRuntime`] when built on first use, so that flattening a
//! block's versions writes them back into the boosted map. A
//! [`StorageCell`] is a map's one entry under the key `()`: its lock is
//! that key's, its snapshot that one entry and its digest that map's
//! root, and it makes no choice between the two flavors of its own.

use crate::commit::{MapCommitment, RootCounters};
use crate::context::{CallContext, TxnRef};
use crate::error::VmError;
use crate::snapshot::{FieldSnapshot, ToBytes};
use cc_mvcc::{MvccTxn, VersionedMap};
use cc_primitives::fx::RawEntry;
use cc_primitives::hash::Hash256;
use cc_stm::BoostedMap;
use parking_lot::Mutex;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// One persistent state variable of a contract, as the state commitment
/// and the snapshot path see it. Implemented by both storage wrappers;
/// a contract lists its fields once ([`crate::Contract::storage_fields`])
/// and both views derive from that list.
pub trait StorageField: Send + Sync {
    /// The field's stable, globally unique name (`"Ballot.voters"`).
    fn name(&self) -> &str;

    /// Canonical full copy of the field, for world snapshots.
    fn snapshot_field(&self) -> FieldSnapshot;

    /// The field's state-commitment digest (see [`crate::commit`]):
    /// re-hashes what was written since the previous call and answers
    /// from the cache otherwise. Consistent only while no transaction is
    /// running against the field — the contract every non-transactional
    /// storage accessor carries.
    fn digest(&self, counters: &RootCounters) -> Hash256;

    /// Whether [`digest`](Self::digest) would re-hash anything: the field
    /// was written since its previous digest. Leaves the marks.
    fn is_dirty(&self) -> bool;
}

/// A persistent `mapping(K => V)` state variable.
#[derive(Debug, Clone)]
pub struct StorageMap<K, V> {
    pub(crate) inner: BoostedMap<K, V>,
    overlay: Arc<OnceLock<VersionedMap<K, V>>>,
    pub(crate) commitment: Arc<Mutex<MapCommitment>>,
}

impl<K, V> StorageMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Declares a mapping with a stable, globally unique name
    /// (`"Ballot.voters"`).
    pub fn new(name: &str) -> Self {
        StorageMap::with_capacity(name, 0)
    }

    /// [`new`](Self::new) sized for the `entries` bindings a contract's
    /// set-up is about to seed, so seeding allocates once
    /// ([`BoostedMap::with_capacity`]). Only a hint.
    pub fn with_capacity(name: &str, entries: usize) -> Self {
        StorageMap {
            inner: BoostedMap::with_capacity(name, entries),
            overlay: Arc::new(OnceLock::new()),
            commitment: Arc::default(),
        }
    }

    /// The versioned overlay, built (registering itself with the
    /// transaction's runtime) on the first optimistic access.
    fn versioned(&self, txn: &MvccTxn<'_>) -> &VersionedMap<K, V> {
        self.overlay
            .get_or_init(|| VersionedMap::new(txn.runtime(), self.inner.clone()))
    }

    /// Reads the value bound to `key` (charges one `sload`).
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn get(&self, ctx: &mut CallContext<'_>, key: &K) -> Result<Option<V>, VmError> {
        ctx.charge_sload()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.get(txn, key)?),
            TxnRef::Mvcc(txn) => Ok(self.versioned(txn).get(txn, key)),
        }
    }

    /// Reads the value bound to `key` **by reference** (charges one
    /// `sload`): `f` observes the binding in place and only its result is
    /// materialized. Use when the caller compares or projects the value —
    /// it skips the per-read `V: Clone` of [`StorageMap::get`].
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn get_with<R>(
        &self,
        ctx: &mut CallContext<'_>,
        key: &K,
        f: impl FnOnce(Option<&V>) -> R,
    ) -> Result<R, VmError> {
        ctx.charge_sload()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.get_with(txn, key, f)?),
            TxnRef::Mvcc(txn) => Ok(self.versioned(txn).get_with(txn, key, f)),
        }
    }

    /// Whether `key` is bound (charges one `sload`): a
    /// [`get_with`](Self::get_with) that looks at the binding only.
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn contains_key(&self, ctx: &mut CallContext<'_>, key: &K) -> Result<bool, VmError> {
        self.get_with(ctx, key, |v| v.is_some())
    }

    /// Binds `key` to `value` (charges one `sstore`). The prior binding
    /// moves into the undo log; read the key first when it is needed.
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn insert(&self, ctx: &mut CallContext<'_>, key: K, value: V) -> Result<(), VmError> {
        ctx.charge_sstore()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.insert(txn, key, value)?),
            TxnRef::Mvcc(txn) => {
                self.versioned(txn).insert(txn, key, value);
                Ok(())
            }
        }
    }

    /// Read-modify-write of the value bound to `key`, inserting `default`
    /// first when absent (charges an `sload` plus an `sstore`). Performed
    /// in place in a single storage pass.
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn update_or(
        &self,
        ctx: &mut CallContext<'_>,
        key: K,
        default: V,
        f: impl FnOnce(&mut V),
    ) -> Result<(), VmError> {
        ctx.charge_sload()?;
        ctx.charge_sstore()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.update_or(txn, key, default, f)?),
            TxnRef::Mvcc(txn) => {
                self.versioned(txn).update_or(txn, key, default, f);
                Ok(())
            }
        }
    }

    /// Non-transactional write used while constructing initial state.
    pub fn seed(&self, key: K, value: V) {
        self.inner.seed(key, value);
    }

    /// Non-transactional access to `key`'s slot, bound or vacant, used
    /// while constructing initial state: a read-then-write in one storage
    /// pass (see [`BoostedMap::seed_with`]).
    pub fn seed_with<R>(&self, key: K, f: impl FnOnce(RawEntry<'_, K, V>) -> R) -> R {
        self.inner.seed_with(key, f)
    }

    /// Non-transactional read for tests and diagnostics.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.inner.peek(key)
    }

    /// Number of bindings (non-transactional).
    pub fn len(&self) -> usize {
        self.inner.snapshot_len()
    }

    /// Whether the map has no bindings (non-transactional).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K> StorageMap<K, u64>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Adds `delta` to the tally bound to `key`, an unbound key counting
    /// as 0 (charges one `sstore`); commutes with concurrent adds to the
    /// same key. The sum wraps, and a tally that reaches 0 is unbound, so
    /// an add of 0 binds nothing (see [`BoostedMap::add`]). Read a tally
    /// with `get(..)?.unwrap_or(0)`.
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn add(&self, ctx: &mut CallContext<'_>, key: K, delta: u64) -> Result<(), VmError> {
        ctx.charge_sstore()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.add(txn, key, delta)?),
            TxnRef::Mvcc(txn) => {
                self.versioned(txn).add(txn, key, delta);
                Ok(())
            }
        }
    }
}

impl<K, V> StorageField for StorageMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + ToBytes + 'static,
    V: Clone + Send + Sync + ToBytes + 'static,
{
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn snapshot_field(&self) -> FieldSnapshot {
        let mut field = FieldSnapshot::with_capacity(self.inner.name(), self.inner.snapshot_len());
        self.inner.for_each(|key, value| field.push(key, value));
        field.sorted()
    }

    fn digest(&self, counters: &RootCounters) -> Hash256 {
        let mut commitment = self.commitment.lock();
        self.inner.drain_dirty(|shard, dirty, table| {
            commitment.refresh_shard(shard, dirty, table, counters);
        });
        commitment.root(counters)
    }

    fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }
}

/// A persistent scalar state variable: the one entry of a
/// [`StorageMap`] under the key `()`, seeded with its initial value at
/// construction and never unbound (a cell offers no `add`). Each
/// operation is the map operation it names, at that operation's gas.
#[derive(Debug, Clone)]
pub struct StorageCell<T> {
    pub(crate) map: StorageMap<(), T>,
    /// What [`modify`](Self::modify) hands `update_or` to bind were the
    /// entry unbound, which it never is.
    initial: T,
}

const BOUND: &str = "a cell is seeded at construction and never unbound";

impl<T> StorageCell<T>
where
    T: Clone + Send + Sync + 'static,
{
    /// Declares a scalar with a stable name and initial value.
    pub fn new(name: &str, initial: T) -> Self {
        let map = StorageMap::new(name);
        map.seed((), initial.clone());
        StorageCell { map, initial }
    }

    /// Reads the value (charges one `sload`).
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn get(&self, ctx: &mut CallContext<'_>) -> Result<T, VmError> {
        Ok(self.map.get(ctx, &())?.expect(BOUND))
    }

    /// Reads the value **by reference** (charges one `sload`): `f`
    /// observes it in place and only its result is materialized. Use when
    /// the caller compares or discards the value — it skips the per-read
    /// `T: Clone` of [`StorageCell::get`].
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn with<R>(
        &self,
        ctx: &mut CallContext<'_>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, VmError> {
        self.map.get_with(ctx, &(), |value| f(value.expect(BOUND)))
    }

    /// Overwrites the value (charges one `sstore`).
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn set(&self, ctx: &mut CallContext<'_>, value: T) -> Result<(), VmError> {
        self.map.insert(ctx, (), value)
    }

    /// Read-modify-write (charges an `sload` plus an `sstore`); returns
    /// the updated value.
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn modify(&self, ctx: &mut CallContext<'_>, f: impl FnOnce(&mut T)) -> Result<T, VmError> {
        let mut updated = None;
        self.map.update_or(ctx, (), self.initial.clone(), |value| {
            f(value);
            updated = Some(value.clone());
        })?;
        Ok(updated.expect("update_or ran the closure"))
    }

    /// Non-transactional write used while constructing initial state.
    pub fn seed(&self, value: T) {
        self.map.seed((), value);
    }

    /// Non-transactional read for tests and diagnostics.
    pub fn peek(&self) -> T {
        self.map.peek(&()).expect(BOUND)
    }
}

impl<T> StorageField for StorageCell<T>
where
    T: Clone + Send + Sync + ToBytes + 'static,
{
    fn name(&self) -> &str {
        self.map.name()
    }

    fn snapshot_field(&self) -> FieldSnapshot {
        self.map.snapshot_field()
    }

    fn digest(&self, counters: &RootCounters) -> Hash256 {
        self.map.digest(counters)
    }

    fn is_dirty(&self) -> bool {
        self.map.is_dirty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::gas::{GasMeter, GasSchedule};
    use crate::msg::Msg;
    use crate::world::Contracts;
    use cc_mvcc::MvccRuntime;
    use cc_stm::{LockId, LockMode, LockSpace, Stm};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Clones of [`Counted`] values so far, across the whole binary (only
    /// this module's test makes any).
    static CLONES: AtomicUsize = AtomicUsize::new(0);

    /// A map value whose `Clone` counts its calls.
    #[derive(Debug)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Counted(self.0)
        }
    }

    /// Every source an optimistic read resolves from — the boosted twin
    /// (key 1), a committed version (key 2), the transaction's own
    /// buffered write (key 3) and nothing (key 4) — is handed to
    /// `get_with` by reference.
    #[test]
    fn an_optimistic_get_with_clones_no_value() {
        let map = StorageMap::new("test.counted");
        map.seed(1u64, Counted(10));
        let (runtime, contracts) = (MvccRuntime::new(), Contracts::new());
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut run = |body: &dyn Fn(&mut CallContext<'_>)| {
            let txn = runtime.begin();
            let msg = Msg::from_sender(Address::from_index(1));
            let txn_ref = TxnRef::Mvcc(&txn);
            body(&mut CallContext::root(
                txn_ref,
                &contracts,
                msg,
                Address::from_index(2),
                &mut meter,
            ));
            txn.commit().unwrap();
        };
        run(&|ctx| map.insert(ctx, 2, Counted(20)).unwrap());
        run(&|ctx| {
            map.insert(ctx, 3, Counted(30)).unwrap();
            let before = CLONES.load(Ordering::Relaxed);
            for (key, expected) in [(1, Some(10)), (2, Some(20)), (3, Some(30)), (4, None)] {
                let seen = map.get_with(ctx, &key, |v| v.map(|c| c.0)).unwrap();
                assert_eq!(seen, expected, "key {key}");
            }
            assert_eq!(CLONES.load(Ordering::Relaxed), before, "get_with cloned");
        });
    }

    /// Both transaction flavors over one world's worth of runtimes.
    struct Flavors {
        stm: Stm,
        mvcc: MvccRuntime,
        contracts: Contracts,
    }

    impl Flavors {
        fn new() -> Self {
            Flavors {
                stm: Stm::new(),
                mvcc: MvccRuntime::new(),
                contracts: Contracts::new(),
            }
        }

        /// Runs `body` in one transaction, pessimistic or optimistic, and
        /// commits it (flattening an optimistic one into the boosted map)
        /// or aborts it. Returns the gas `body` was charged and the
        /// `(lock, mode)` pairs the transaction held.
        fn run(
            &self,
            optimistic: bool,
            commit: bool,
            body: impl FnOnce(&mut CallContext<'_>),
        ) -> (u64, Vec<(LockId, LockMode)>) {
            let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
            let msg = Msg::from_sender(Address::from_index(1));
            let this = Address::from_index(2);
            let (stm_txn, mvcc_txn) = (self.stm.begin(), self.mvcc.begin());
            let txn = if optimistic {
                TxnRef::Mvcc(&mvcc_txn)
            } else {
                TxnRef::Stm(&stm_txn)
            };
            body(&mut CallContext::root(
                txn,
                &self.contracts,
                msg,
                this,
                &mut meter,
            ));
            let held = match (optimistic, commit) {
                (_, false) => {
                    stm_txn.abort().unwrap();
                    Vec::new()
                }
                (false, true) => (stm_txn.commit().unwrap().profile.locks.iter())
                    .map(|e| (e.lock, e.mode))
                    .collect(),
                (true, true) => {
                    let footprint = mvcc_txn.commit().unwrap().footprint;
                    self.mvcc.finalize_block();
                    footprint
                }
            };
            (meter.used(), held)
        }
    }

    /// A cell's `get`, `with`, `set` and `modify` under both flavors, at
    /// one `sload`, one `sload`, one `sstore` and both.
    #[test]
    fn a_cell_gets_sets_and_modifies_under_both_flavors() {
        let gas = GasSchedule::default();
        for optimistic in [false, true] {
            let flavors = Flavors::new();
            let c = StorageCell::new("cell.a", 5u32);
            let (used, _) = flavors.run(optimistic, true, |ctx| {
                assert_eq!(c.get(ctx).unwrap(), 5);
                c.set(ctx, 6).unwrap();
                assert_eq!(c.modify(ctx, |v| *v *= 2).unwrap(), 12);
                assert_eq!(c.with(ctx, |v| *v + 1).unwrap(), 13);
            });
            assert_eq!(used, 3 * gas.sload + 2 * gas.sstore, "{optimistic}");
            assert_eq!(c.peek(), 12, "{optimistic}");
            c.seed(77);
            assert_eq!(c.peek(), 77, "seed bypasses transactions");
        }
    }

    #[test]
    fn an_aborted_cell_write_is_undone_under_both_flavors() {
        for optimistic in [false, true] {
            let flavors = Flavors::new();
            let c = StorageCell::new("cell.b", String::from("genesis"));
            flavors.run(optimistic, false, |ctx| {
                c.set(ctx, "tentative".into()).unwrap();
                let updated = c.modify(ctx, |s| s.push('!')).unwrap();
                assert_eq!(updated, "tentative!");
            });
            assert_eq!(c.peek(), "genesis", "{optimistic}");
        }
    }

    /// A cell's one lock is its map's lock on `()`: two cells do not
    /// conflict, and a read and a write of one cell take the same lock.
    #[test]
    fn a_cell_holds_its_maps_lock_on_the_empty_key_under_both_flavors() {
        let lock = |name: &str| LockSpace::new(name).lock_for(&());
        for optimistic in [false, true] {
            let flavors = Flavors::new();
            let (x, y) = (
                StorageCell::new("cell.x", 0u8),
                StorageCell::new("cell.y", 0u8),
            );
            let (_, wrote_x) = flavors.run(optimistic, true, |ctx| x.set(ctx, 1).unwrap());
            let (_, wrote_y) = flavors.run(optimistic, true, |ctx| y.set(ctx, 2).unwrap());
            let (_, read_x) = flavors.run(optimistic, true, |ctx| {
                x.get(ctx).unwrap();
            });
            assert_eq!(wrote_x, [(lock("cell.x"), LockMode::Exclusive)]);
            assert_eq!(wrote_y, [(lock("cell.y"), LockMode::Exclusive)]);
            assert_eq!(read_x, [(lock("cell.x"), LockMode::Shared)]);
            assert_ne!(lock("cell.x"), lock("cell.y"));
        }
    }

    /// The dirty-mark seam a cell shares with every map: a new cell (its
    /// seeded entry), every write path and `seed` mark it; no read does,
    /// and an aborted write leaves the digest it found.
    #[test]
    fn every_write_path_marks_a_cell_and_no_read_does_under_both_flavors() {
        for optimistic in [false, true] {
            let counters = RootCounters::default();
            let flavors = Flavors::new();
            let c = StorageCell::new("cell.dirty", 1u64);
            assert!(c.is_dirty(), "a new cell was never committed to");
            let genesis = c.digest(&counters);
            assert!(!c.is_dirty());

            flavors.run(optimistic, true, |ctx| {
                c.get(ctx).unwrap();
                c.with(ctx, |_| ()).unwrap();
            });
            c.peek();
            assert!(!c.is_dirty(), "reads leave no mark");

            flavors.run(optimistic, true, |ctx| c.set(ctx, 2).unwrap());
            assert!(c.is_dirty(), "set");
            let two = c.digest(&counters);
            assert_ne!(two, genesis);
            flavors.run(optimistic, true, |ctx| {
                c.modify(ctx, |v| *v += 1).unwrap();
            });
            assert!(c.is_dirty(), "modify");
            let three = c.digest(&counters);

            flavors.run(optimistic, false, |ctx| c.set(ctx, 9).unwrap());
            assert_eq!(c.digest(&counters), three, "an aborted write");

            c.seed(1);
            assert!(c.is_dirty(), "seed");
            assert_eq!(c.digest(&counters), genesis, "content, not history");
        }
    }
}
