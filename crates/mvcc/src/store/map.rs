//! A versioned `mapping(K => V)`.

use super::{MvccCollection, Versions};
use crate::runtime::MvccRuntime;
use crate::txn::{MvccTxn, PendingOps};
use cc_primitives::fx::{FxHashMap, FxHashSet};
use cc_primitives::ts::Timestamp;
use cc_stm::{BoostedMap, LockId, LockMode};
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;

/// One key's buffered write: a binding, or a delta that lands on
/// whatever total the key holds when the transaction installs.
pub(super) enum Write<V> {
    /// Bind the key (`None` = unbind: an add after a buffered binding
    /// that brings the tally to 0).
    Bind(Option<V>),
    /// A `u64` map's pending adds (see `VersionedMap::add`), with the
    /// function that folds the delta into a total.
    Add(u64, fn(Option<&V>, u64) -> Option<V>),
}

impl<V> Write<V> {
    /// The binding this write leaves over the key's `current` one.
    fn over(self, current: impl FnOnce() -> Option<V>) -> Option<V> {
        match self {
            Write::Bind(binding) => binding,
            Write::Add(delta, plus) => plus(current().as_ref(), delta),
        }
    }
}

/// Buffered per-transaction state for one versioned map.
struct MapPending<K, V> {
    core: Arc<MapCore<K, V>>,
    /// Last buffered write per key.
    writes: FxHashMap<K, Write<V>>,
    /// Keys whose committed value this transaction observed.
    reads: FxHashSet<K>,
    /// Journal of prior `writes` entries, for savepoint rollback.
    undo: Vec<(K, Option<Write<V>>)>,
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
        // A pure add commutes with other adds: only a newer non-additive
        // version (or a newer version of a key this transaction read)
        // invalidates it.
        let reads = self.reads.iter().map(|key| (key, false));
        let writes = (self.writes.iter()).map(|(key, w)| (key, matches!(w, Write::Add(..))));
        let lost = self
            .core
            .versions
            .first_conflict(begin_ts, reads.chain(writes));
        lost.map_or(Ok(()), |key| Err(self.core.base.lock_space().lock_for(key)))
    }

    fn install(&mut self, commit_ts: Timestamp) {
        let core = &self.core;
        core.versions
            .install(commit_ts, self.writes.drain(), |key, newest, write| {
                let additive = matches!(write, Write::Add(..));
                let current = || newest.map_or_else(|| core.base.peek(key), Clone::clone);
                (write.over(current), additive)
            });
    }
}

/// The version lists (deletions are `None` versions) over the boosted
/// twin. A version holds a binding, never a delta: an add installs the
/// total it leaves, so snapshot reads stay one lookup and slicing the
/// lists by timestamp never counts a delta twice.
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
    pub(super) fn footprint(&self, txn: &MvccTxn<'_>, key: &K, mode: LockMode) {
        txn.footprint(self.core.base.lock_space().lock_for(key), mode);
    }

    /// Marks `key` read and hands `f` its value as seen by `txn`, by
    /// reference: buffered write, else newest version at or below the
    /// snapshot, else the twin. Only a buffered add materializes a value
    /// (the total it leaves).
    fn read<R>(&self, txn: &MvccTxn<'_>, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        let ts = txn.begin_ts();
        self.pending(txn, |p| {
            p.reads.insert(key.clone());
            match p.writes.get(key) {
                Some(Write::Bind(binding)) => f(binding.as_ref()),
                Some(&Write::Add(delta, plus)) => {
                    f(self.committed(key, ts, |v| plus(v, delta)).as_ref())
                }
                None => self.committed(key, ts, f),
            }
        })
    }

    /// Hands `f` the committed binding of `key` at `ts`: the newest
    /// version at or below it, else the twin's.
    fn committed<R>(&self, key: &K, ts: Timestamp, f: impl FnOnce(Option<&V>) -> R) -> R {
        let core = &self.core;
        core.versions.read_at(key, ts, |version| match version {
            Some(binding) => f(binding.as_ref()),
            None => core.base.peek_with(key, f),
        })
    }

    /// Buffers `write(prior buffered write)` for `key`, journaling the
    /// prior one.
    pub(super) fn buffer(
        &self,
        txn: &MvccTxn<'_>,
        key: K,
        write: impl FnOnce(Option<&Write<V>>) -> Write<V>,
    ) {
        self.pending(txn, |p| {
            let prior = match p.writes.entry(key.clone()) {
                Entry::Occupied(mut slot) => {
                    let next = write(Some(slot.get()));
                    Some(slot.insert(next))
                }
                Entry::Vacant(slot) => {
                    slot.insert(write(None));
                    None
                }
            };
            p.undo.push((key, prior));
        });
    }

    /// Reads the value bound to `key` (pessimistic twin: shared key lock).
    pub fn get(&self, txn: &MvccTxn<'_>, key: &K) -> Option<V> {
        self.get_with(txn, key, |v| v.cloned())
    }

    /// Reads the binding by reference: `f` observes the buffered write,
    /// the version or the twin's binding in place, and only what it
    /// returns is materialized. `f` must not touch the transaction or
    /// this map.
    pub fn get_with<R>(&self, txn: &MvccTxn<'_>, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        self.footprint(txn, key, LockMode::Shared);
        self.read(txn, key, f)
    }

    /// Binds `key` to `value` (pessimistic twin: exclusive key lock).
    pub fn insert(&self, txn: &MvccTxn<'_>, key: K, value: V) {
        self.footprint(txn, &key, LockMode::Exclusive);
        self.buffer(txn, key, |_| Write::Bind(Some(value)));
    }

    /// Read-modify-write of the value bound to `key`, inserting `default`
    /// first when absent.
    pub fn update_or(&self, txn: &MvccTxn<'_>, key: K, default: V, f: impl FnOnce(&mut V)) {
        self.footprint(txn, &key, LockMode::Exclusive);
        let mut value = self.read(txn, &key, |v| v.cloned()).unwrap_or(default);
        f(&mut value);
        self.buffer(txn, key, |_| Write::Bind(Some(value)));
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
