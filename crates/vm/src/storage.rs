//! Gas-charging storage wrappers over the interchangeable concurrency
//! backends.
//!
//! Contracts declare persistent state with these types. Every operation
//! takes the [`CallContext`]: it charges gas and then performs the
//! corresponding collection operation inside the enclosing transaction, so
//! state access is simultaneously metered and speculative.
//!
//! Each wrapper owns a **pessimistic** boosted collection (the
//! authoritative single-version state, used by [`TxnRef::Stm`]
//! transactions, seeding, snapshots and state roots) plus a lazily built
//! **optimistic** versioned overlay (used by [`TxnRef::Mvcc`]
//! transactions). The overlay holds a clone of the boosted collection as
//! its twin, shares its lock space so both flavors report identical lock
//! footprints, and registers itself with the world's
//! [`cc_mvcc::MvccRuntime`] when built on first use, so that flattening a
//! block's versions writes them back into the boosted collection.

use crate::commit::{cell_digest, MapCommitment, RootCounters};
use crate::context::{CallContext, TxnRef};
use crate::error::VmError;
use crate::snapshot::{FieldSnapshot, ToBytes};
use cc_mvcc::{MvccTxn, VersionedCell, VersionedMap};
use cc_primitives::fx::RawEntry;
use cc_primitives::hash::Hash256;
use cc_stm::{BoostedCell, BoostedMap};
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
    commitment: Arc<Mutex<MapCommitment>>,
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

/// A persistent scalar state variable.
#[derive(Debug, Clone)]
pub struct StorageCell<T> {
    inner: BoostedCell<T>,
    overlay: Arc<OnceLock<VersionedCell<T>>>,
    /// The digest as of the last drain of the cell's dirty mark.
    digest: Arc<Mutex<Hash256>>,
}

impl<T> StorageCell<T>
where
    T: Clone + Send + Sync + 'static,
{
    /// Declares a scalar with a stable name and initial value.
    pub fn new(name: &str, initial: T) -> Self {
        StorageCell {
            inner: BoostedCell::new(name, initial),
            overlay: Arc::new(OnceLock::new()),
            digest: Arc::default(),
        }
    }

    /// The versioned overlay, built (registering itself with the
    /// transaction's runtime) on the first optimistic access.
    fn versioned(&self, txn: &MvccTxn<'_>) -> &VersionedCell<T> {
        self.overlay
            .get_or_init(|| VersionedCell::new(txn.runtime(), self.inner.clone()))
    }

    /// Reads the value (charges one `sload`).
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn get(&self, ctx: &mut CallContext<'_>) -> Result<T, VmError> {
        ctx.charge_sload()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.get(txn)?),
            TxnRef::Mvcc(txn) => Ok(self.versioned(txn).get(txn)),
        }
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
        ctx.charge_sload()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.with(txn, f)?),
            TxnRef::Mvcc(txn) => Ok(self.versioned(txn).with(txn, f)),
        }
    }

    /// Overwrites the value (charges one `sstore`).
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn set(&self, ctx: &mut CallContext<'_>, value: T) -> Result<(), VmError> {
        ctx.charge_sstore()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.set(txn, value)?),
            TxnRef::Mvcc(txn) => {
                self.versioned(txn).set(txn, value);
                Ok(())
            }
        }
    }

    /// Read-modify-write (charges an `sload` plus an `sstore`).
    ///
    /// # Errors
    ///
    /// Out-of-gas or speculative-conflict errors.
    pub fn modify(&self, ctx: &mut CallContext<'_>, f: impl FnOnce(&mut T)) -> Result<T, VmError> {
        ctx.charge_sload()?;
        ctx.charge_sstore()?;
        match ctx.txn() {
            TxnRef::Stm(txn) => Ok(self.inner.modify(txn, f)?),
            TxnRef::Mvcc(txn) => Ok(self.versioned(txn).modify(txn, f)),
        }
    }

    /// Non-transactional write used while constructing initial state.
    pub fn seed(&self, value: T) {
        self.inner.seed(value);
    }

    /// Non-transactional read for tests and diagnostics.
    pub fn peek(&self) -> T {
        self.inner.peek()
    }
}

impl<T> StorageField for StorageCell<T>
where
    T: Clone + Send + Sync + ToBytes + 'static,
{
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn snapshot_field(&self) -> FieldSnapshot {
        FieldSnapshot::scalar(self.inner.name(), &self.inner.peek())
    }

    fn digest(&self, counters: &RootCounters) -> Hash256 {
        let mut cached = self.digest.lock();
        if let Some(fresh) = self.inner.drain_dirty(|value| cell_digest(value, counters)) {
            *cached = fresh;
        }
        *cached
    }

    fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }
}
