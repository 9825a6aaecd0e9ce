//! A versioned `mapping(K => V)`.

use super::{MvccCollection, Versions};
use crate::runtime::MvccRuntime;
use crate::txn::{MvccTxn, PendingOps};
use cc_primitives::fx::{FxHashMap, FxHashSet};
use cc_primitives::ts::Timestamp;
use cc_stm::{BoostedMap, LockId, LockMode};
use std::hash::Hash;
use std::sync::Arc;

/// Buffered per-transaction state for one versioned map.
struct MapPending<K, V> {
    core: Arc<MapCore<K, V>>,
    /// Last buffered write per key (`None` = pending removal).
    writes: FxHashMap<K, Option<V>>,
    /// Keys whose committed value this transaction observed.
    reads: FxHashSet<K>,
    /// Journal of prior `writes` bindings, for savepoint rollback.
    undo: Vec<(K, Option<Option<V>>)>,
}

impl<K, V> PendingOps for MapPending<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn undo_last(&mut self) {
        let (key, prior) = self.undo.pop().expect("undo entry exists");
        match prior {
            Some(binding) => self.writes.insert(key, binding),
            None => self.writes.remove(&key),
        };
    }

    fn undo_len(&self) -> usize {
        self.undo.len()
    }

    fn has_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    fn validate(&self, begin_ts: Timestamp) -> Result<(), LockId> {
        let keys = self.reads.iter().chain(self.writes.keys());
        let lost = self
            .core
            .versions
            .first_conflict(begin_ts, keys.map(|key| (key, false)));
        lost.map_or(Ok(()), |key| Err(self.core.base.lock_space().lock_for(key)))
    }

    fn install(&mut self, commit_ts: Timestamp) {
        self.core
            .versions
            .install(commit_ts, self.writes.drain(), |_, _, value| (value, false));
    }
}

/// The version lists (deletions are `None` versions) over the boosted
/// twin.
struct MapCore<K, V> {
    versions: Versions<K, Option<V>>,
    base: BoostedMap<K, V>,
}

impl<K, V> MvccCollection for MapCore<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn finalize_below(&self, boundary: Timestamp) {
        self.versions
            .finalize_below(boundary, |key, newest| match newest {
                Some(value) => self.base.seed(key.clone(), value),
                None => self.base.seed_remove(key),
            });
    }

    fn discard_above(&self, boundary: Timestamp) {
        self.versions.discard_above(boundary);
    }

    fn collect(&self, horizon: Timestamp) {
        self.versions.collect(horizon);
    }
}

/// A multi-version map: snapshot reads, buffered writes, fall-through to
/// the boosted twin.
pub struct VersionedMap<K, V> {
    core: Arc<MapCore<K, V>>,
}

impl<K, V> VersionedMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates a versioned overlay over `base`, sharing its lock space so
    /// footprints match, and registers it with `runtime`.
    pub fn new(runtime: &MvccRuntime, base: BoostedMap<K, V>) -> Self {
        let core = Arc::new(MapCore {
            versions: Versions::default(),
            base,
        });
        runtime.register(core.clone());
        VersionedMap { core }
    }

    /// Runs `f` over `txn`'s buffered state for this map.
    fn pending<R>(&self, txn: &MvccTxn<'_>, f: impl FnOnce(&mut MapPending<K, V>) -> R) -> R {
        let init = |core| MapPending {
            core,
            writes: FxHashMap::default(),
            reads: FxHashSet::default(),
            undo: Vec::new(),
        };
        txn.with_pending(&self.core, init, f)
    }

    /// Records `key` in the footprint under `mode`.
    fn footprint(&self, txn: &MvccTxn<'_>, key: &K, mode: LockMode) {
        txn.footprint(self.core.base.lock_space().lock_for(key), mode);
    }

    /// Marks `key` read and returns its value as seen by `txn`: buffered
    /// write, else newest version at or below the snapshot, else the twin.
    fn read(&self, txn: &MvccTxn<'_>, key: &K) -> Option<V> {
        let buffered = self.pending(txn, |p| {
            p.reads.insert(key.clone());
            p.writes.get(key).cloned()
        });
        buffered
            .or_else(|| self.core.versions.read_at(key, txn.begin_ts()))
            .unwrap_or_else(|| self.core.base.peek(key))
    }

    fn buffer(&self, txn: &MvccTxn<'_>, key: K, value: Option<V>) {
        self.pending(txn, |p| {
            let prior = p.writes.insert(key.clone(), value);
            p.undo.push((key, prior));
        });
    }

    /// Reads the value bound to `key` (pessimistic twin: shared key lock).
    pub fn get(&self, txn: &MvccTxn<'_>, key: &K) -> Option<V> {
        self.footprint(txn, key, LockMode::Shared);
        self.read(txn, key)
    }

    /// Reads the binding by reference.
    pub fn get_with<R>(&self, txn: &MvccTxn<'_>, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.get(txn, key).as_ref())
    }

    /// Whether `key` is bound.
    pub fn contains_key(&self, txn: &MvccTxn<'_>, key: &K) -> bool {
        self.get(txn, key).is_some()
    }

    /// Binds `key` to `value` (pessimistic twin: exclusive key lock).
    pub fn insert(&self, txn: &MvccTxn<'_>, key: K, value: V) {
        self.footprint(txn, &key, LockMode::Exclusive);
        self.buffer(txn, key, Some(value));
    }

    /// Binds `key` to `value` and returns the previous binding. The
    /// returned binding is a semantic read: the key joins the read set.
    pub fn replace(&self, txn: &MvccTxn<'_>, key: K, value: V) -> Option<V> {
        self.footprint(txn, &key, LockMode::Exclusive);
        let previous = self.read(txn, &key);
        self.buffer(txn, key, Some(value));
        previous
    }

    /// Removes the binding for `key`, reporting whether one existed.
    pub fn remove(&self, txn: &MvccTxn<'_>, key: &K) -> bool {
        self.take(txn, key).is_some()
    }

    /// Removes and returns the binding for `key`.
    pub fn take(&self, txn: &MvccTxn<'_>, key: &K) -> Option<V> {
        self.footprint(txn, key, LockMode::Exclusive);
        let previous = self.read(txn, key);
        self.buffer(txn, key.clone(), None);
        previous
    }

    /// Read-modify-write of the value bound to `key`, inserting `default`
    /// first when absent.
    pub fn update_or(&self, txn: &MvccTxn<'_>, key: K, default: V, f: impl FnOnce(&mut V)) {
        self.footprint(txn, &key, LockMode::Exclusive);
        let mut value = self.read(txn, &key).unwrap_or(default);
        f(&mut value);
        self.buffer(txn, key, Some(value));
    }
}

impl<K, V> Clone for VersionedMap<K, V> {
    fn clone(&self) -> Self {
        VersionedMap {
            core: Arc::clone(&self.core),
        }
    }
}

impl<K, V> std::fmt::Debug for VersionedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedMap")
            .field("keys_with_versions", &self.core.versions.len())
            .finish()
    }
}
