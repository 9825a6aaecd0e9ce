//! A versioned tally map with a commutative `add`.
//!
//! Each version stores the **materialized running total**, not the delta,
//! so snapshot reads stay one lookup. What makes `add` commute is the
//! version's `additive` flag plus the install rule: a purely additive
//! transaction validates only against newer *non-additive* versions, and
//! installs its delta on top of the newest total — concurrent adders all
//! commit, exactly like the pessimistic `Additive` lock mode.

use super::{MvccCollection, Versions};
use crate::runtime::MvccRuntime;
use crate::txn::{MvccTxn, PendingOps};
use cc_primitives::fx::{FxHashMap, FxHashSet};
use cc_primitives::ts::Timestamp;
use cc_stm::{BoostedCounterMap, LockId, LockMode};
use std::hash::Hash;
use std::sync::Arc;

/// One key's buffered arithmetic: an optional overwrite followed by a
/// delta (`set` clobbers earlier buffered state; `add` accumulates).
#[derive(Debug, Clone, Default)]
struct Tally {
    set: Option<u64>,
    delta: u64,
}

/// Buffered per-transaction state for one versioned counter map.
struct CounterPending<K> {
    core: Arc<CounterCore<K>>,
    ops: FxHashMap<K, Tally>,
    reads: FxHashSet<K>,
    undo: Vec<(K, Option<Tally>)>,
}

impl<K> PendingOps for CounterPending<K>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    fn undo_last(&mut self) {
        let (key, prior) = self.undo.pop().expect("undo entry exists");
        match prior {
            Some(tally) => self.ops.insert(key, tally),
            None => self.ops.remove(&key),
        };
    }

    fn undo_len(&self) -> usize {
        self.undo.len()
    }

    fn has_writes(&self) -> bool {
        !self.ops.is_empty()
    }

    fn validate(&self, begin_ts: Timestamp) -> Result<(), LockId> {
        // A pure add commutes with other adds; only a newer overwrite (or
        // a newer version of a key this transaction read) invalidates it.
        let reads = self.reads.iter().map(|key| (key, false));
        let ops = self
            .ops
            .iter()
            .map(|(key, tally)| (key, tally.set.is_none()));
        let lost = self
            .core
            .versions
            .first_conflict(begin_ts, reads.chain(ops));
        lost.map_or(Ok(()), |key| Err(self.core.base.lock_space().lock_for(key)))
    }

    fn install(&mut self, commit_ts: Timestamp) {
        let core = &self.core;
        core.versions
            .install(commit_ts, self.ops.drain(), |key, newest, tally| {
                let current = || newest.copied().unwrap_or_else(|| core.base.peek(key));
                let total = tally.set.unwrap_or_else(current) + tally.delta;
                (total, tally.set.is_none())
            });
    }
}

/// The version lists (running totals) over the boosted twin.
struct CounterCore<K> {
    versions: Versions<K, u64>,
    base: BoostedCounterMap<K>,
}

impl<K> MvccCollection for CounterCore<K>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    fn finalize_below(&self, boundary: Timestamp) {
        // Versions hold materialized running totals, so slicing by
        // timestamp is exact: the newest total at or below the boundary
        // moves to the twin, and the retained newer totals already
        // include it.
        self.versions
            .finalize_below(boundary, |key, total| self.base.seed(key.clone(), total));
    }

    fn discard_above(&self, boundary: Timestamp) {
        self.versions.discard_above(boundary);
    }

    fn collect(&self, horizon: Timestamp) {
        self.versions.collect(horizon);
    }
}

/// A multi-version tally map whose `add` commutes across transactions.
pub struct VersionedCounterMap<K> {
    core: Arc<CounterCore<K>>,
}

impl<K> VersionedCounterMap<K>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Creates a versioned overlay over `base`, sharing its lock space so
    /// footprints match, and registers it with `runtime`.
    pub fn new(runtime: &MvccRuntime, base: BoostedCounterMap<K>) -> Self {
        let core = Arc::new(CounterCore {
            versions: Versions::default(),
            base,
        });
        runtime.register(core.clone());
        VersionedCounterMap { core }
    }

    /// Records `key` in the footprint under `mode`.
    fn footprint(&self, txn: &MvccTxn<'_>, key: &K, mode: LockMode) {
        txn.footprint(self.core.base.lock_space().lock_for(key), mode);
    }

    /// Runs `f` over `txn`'s buffered state for this map.
    fn pending<R>(&self, txn: &MvccTxn<'_>, f: impl FnOnce(&mut CounterPending<K>) -> R) -> R {
        let init = |core| CounterPending {
            core,
            ops: FxHashMap::default(),
            reads: FxHashSet::default(),
            undo: Vec::new(),
        };
        txn.with_pending(&self.core, init, f)
    }

    /// Buffers `update` of `key`'s tally, journaling the prior one.
    fn buffer(&self, txn: &MvccTxn<'_>, key: K, mode: LockMode, update: impl FnOnce(&mut Tally)) {
        self.footprint(txn, &key, mode);
        self.pending(txn, |p| {
            let prior = p.ops.get(&key).cloned();
            update(p.ops.entry(key.clone()).or_default());
            p.undo.push((key, prior));
        });
    }

    /// Adds `delta` to the tally (pessimistic twin: additive key lock);
    /// commutes with concurrent adds to the same key.
    pub fn add(&self, txn: &MvccTxn<'_>, key: K, delta: u64) {
        self.buffer(txn, key, LockMode::Additive, |tally| tally.delta += delta);
    }

    /// Reads the tally (pessimistic twin: shared key lock); orders against
    /// concurrent adds.
    pub fn get(&self, txn: &MvccTxn<'_>, key: &K) -> u64 {
        self.footprint(txn, key, LockMode::Shared);
        let pending = self.pending(txn, |p| {
            p.reads.insert(key.clone());
            p.ops.get(key).cloned()
        });
        let Tally { set, delta } = pending.unwrap_or_default();
        let snapshot = || {
            self.core
                .versions
                .read_at(key, txn.begin_ts())
                .unwrap_or_else(|| self.core.base.peek(key))
        };
        set.unwrap_or_else(snapshot) + delta
    }

    /// Overwrites the tally (pessimistic twin: exclusive key lock).
    pub fn set(&self, txn: &MvccTxn<'_>, key: K, value: u64) {
        self.buffer(txn, key, LockMode::Exclusive, |tally| {
            *tally = Tally {
                set: Some(value),
                delta: 0,
            }
        });
    }
}

impl<K> Clone for VersionedCounterMap<K> {
    fn clone(&self) -> Self {
        VersionedCounterMap {
            core: Arc::clone(&self.core),
        }
    }
}

impl<K> std::fmt::Debug for VersionedCounterMap<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedCounterMap")
            .field("keys_with_versions", &self.core.versions.len())
            .finish()
    }
}
